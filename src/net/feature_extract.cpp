#include "net/feature_extract.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace homunculus::net {

FeatureExtractor::FeatureExtractor(FeatureExtractorConfig config)
    : config_(config)
{
}

std::vector<std::string>
FeatureExtractor::featureNames()
{
    return {"pkt_size", "ipv4_ttl", "ip_proto", "src_port_bkt",
            "dst_port_bkt", "tos_dscp", "payload_entropy"};
}

double
FeatureExtractor::payloadEntropy(const std::uint8_t *payload,
                                 std::size_t size) const
{
    std::size_t sample = std::min(config_.entropySampleBytes, size);
    if (sample == 0)
        return 0.0;
    // Byte histogram plus an occupancy bitmap, so the sum below visits
    // only non-zero bins — in ascending byte order, like math::entropy
    // over the 256-bin count vector, which keeps the result bit for bit.
    std::uint32_t counts[256] = {};
    std::uint64_t occupied[4] = {};
    for (std::size_t i = 0; i < sample; ++i) {
        std::uint8_t byte = payload[i];
        ++counts[byte];
        occupied[byte >> 6] |= std::uint64_t{1} << (byte & 63);
    }
    // Equal counts give equal terms, and a sample has few distinct
    // counts, so each term p*log(p) is computed once per count (counts
    // above 255 — only in samples past 255 bytes — skip the memo).
    double terms[256];
    std::uint64_t known[4] = {};
    auto total = static_cast<double>(sample);
    double h = 0.0;
    for (std::size_t word = 0; word < 4; ++word) {
        for (std::uint64_t bits = occupied[word]; bits != 0;
             bits &= bits - 1) {
            std::uint32_t w =
                counts[word * 64 + static_cast<std::size_t>(
                                       __builtin_ctzll(bits))];
            double term;
            if (w < 256 && (known[w >> 6] >> (w & 63) & 1) != 0) {
                term = terms[w];
            } else {
                double p = static_cast<double>(w) / total;
                term = p * std::log(p);
                if (w < 256) {
                    terms[w] = term;
                    known[w >> 6] |= std::uint64_t{1} << (w & 63);
                }
            }
            h -= term;
        }
    }
    // Normalize to [0, 1] against the maximum entropy of the sample.
    double h_max = std::log(static_cast<double>(std::min<std::size_t>(
        256, sample)));
    return h_max > 0.0 ? std::clamp(h / h_max, 0.0, 1.0) : 0.0;
}

void
FeatureExtractor::extractInto(const PacketView &packet, double *out) const
{
    std::uint16_t src_port = 0, dst_port = 0;
    if (packet.tcp) {
        src_port = packet.tcp->srcPort;
        dst_port = packet.tcp->dstPort;
    } else if (packet.udp) {
        src_port = packet.udp->srcPort;
        dst_port = packet.udp->dstPort;
    }

    out[0] = static_cast<double>(packet.wireSize());
    out[1] = static_cast<double>(packet.ipv4.ttl);
    out[2] = static_cast<double>(packet.ipv4.protocol);
    out[3] = static_cast<double>(src_port % config_.portBuckets);
    out[4] = static_cast<double>(dst_port % config_.portBuckets);
    out[5] = static_cast<double>(packet.ipv4.tos) / 255.0;
    out[6] = payloadEntropy(packet.payload, packet.payloadSize);
}

std::vector<double>
FeatureExtractor::extract(const PacketView &packet) const
{
    std::vector<double> features(kNumTcFeatures);
    extractInto(packet, features.data());
    return features;
}

std::vector<double>
FeatureExtractor::extract(const RawPacket &packet) const
{
    return extract(viewOf(packet));
}

std::optional<std::vector<double>>
FeatureExtractor::extractFromWire(
    const std::vector<std::uint8_t> &bytes) const
{
    std::optional<PacketView> packet = parseView(bytes.data(), bytes.size());
    if (!packet)
        return std::nullopt;
    return extract(*packet);
}

namespace {

/** Per-archetype wire behavior mirroring data::kProfiles. */
struct DeviceWireProfile
{
    double payloadMean, payloadStddev;
    std::uint8_t ttl;
    std::uint8_t protocol;
    std::uint16_t srcPortBase, dstPortBase;
    std::uint8_t tos;
    double entropyLevel;  ///< 0 = constant bytes, 1 = random bytes.
};

constexpr DeviceWireProfile kWireProfiles[] = {
    // camera: large UDP video with near-random (compressed) payload.
    {1000.0, 120.0, 62, kProtoUdp, 40004, 5005, 0x50, 0.95},
    // sensor: tiny UDP telemetry, highly structured payload.
    {60.0, 16.0, 64, kProtoUdp, 20002, 1883, 0x08, 0.25},
    // speaker: mid-size TCP audio.
    {560.0, 90.0, 58, kProtoTcp, 30003, 4444, 0x88, 0.80},
    // hub: mixed TCP control traffic.
    {280.0, 70.0, 60, kProtoTcp, 50005, 2880, 0x60, 0.55},
    // thermostat: sparse small TCP reports.
    {110.0, 30.0, 63, kProtoTcp, 10001, 2121, 0x10, 0.20},
};

}  // namespace

std::vector<LabeledPacket>
generateIotPackets(const IotPacketConfig &config)
{
    common::Rng rng(config.seed);
    std::vector<LabeledPacket> out;
    out.reserve(config.numPackets);
    int classes = std::clamp(config.numDeviceClasses, 2,
                             static_cast<int>(std::size(kWireProfiles)));

    for (std::size_t i = 0; i < config.numPackets; ++i) {
        int label = static_cast<int>(rng.uniformInt(0, classes - 1));
        const DeviceWireProfile &profile =
            kWireProfiles[static_cast<std::size_t>(label)];

        LabeledPacket labeled;
        labeled.deviceClass = label;
        RawPacket &packet = labeled.packet;

        for (std::size_t b = 0; b < 6; ++b) {
            packet.eth.src[b] = static_cast<std::uint8_t>(
                rng.uniformInt(0, 255));
            packet.eth.dst[b] = static_cast<std::uint8_t>(
                rng.uniformInt(0, 255));
        }
        packet.ipv4.ttl = profile.ttl;
        packet.ipv4.protocol = profile.protocol;
        packet.ipv4.tos = profile.tos;
        packet.ipv4.srcAddr = static_cast<std::uint32_t>(
            rng.uniformInt(0x0A000001, 0x0A00FFFF));
        packet.ipv4.dstAddr = static_cast<std::uint32_t>(
            rng.uniformInt(0x0A010001, 0x0A01FFFF));

        auto src_port = static_cast<std::uint16_t>(
            profile.srcPortBase + rng.uniformInt(0, 15));
        auto dst_port = static_cast<std::uint16_t>(profile.dstPortBase);
        if (profile.protocol == kProtoTcp) {
            TcpHeader tcp;
            tcp.srcPort = src_port;
            tcp.dstPort = dst_port;
            tcp.seq = static_cast<std::uint32_t>(
                rng.uniformInt(0, 0x7FFFFFFF));
            tcp.flags = 0x18;  // PSH|ACK data segment.
            tcp.window = 0xFFFF;
            packet.tcp = tcp;
        } else {
            UdpHeader udp;
            udp.srcPort = src_port;
            udp.dstPort = dst_port;
            packet.udp = udp;
        }

        auto payload_size = static_cast<std::size_t>(std::clamp(
            rng.gaussian(profile.payloadMean, profile.payloadStddev), 8.0,
            1400.0));
        packet.payload.resize(payload_size);
        for (std::size_t b = 0; b < payload_size; ++b) {
            // Entropy control: mix random bytes with a constant filler.
            packet.payload[b] =
                rng.bernoulli(profile.entropyLevel)
                    ? static_cast<std::uint8_t>(rng.uniformInt(0, 255))
                    : static_cast<std::uint8_t>(0x42);
        }
        packet.timestampSec = static_cast<double>(i) * 1e-5;
        out.push_back(std::move(labeled));
    }
    return out;
}

ml::Dataset
datasetFromPackets(const std::vector<LabeledPacket> &packets,
                   const FeatureExtractor &extractor)
{
    std::vector<std::vector<double>> rows;
    std::vector<int> labels;
    int max_label = 0;
    for (const auto &labeled : packets) {
        // Round-trip through the wire format: what the switch would see.
        auto features =
            extractor.extractFromWire(serialize(labeled.packet));
        if (!features)
            continue;
        rows.push_back(std::move(*features));
        labels.push_back(labeled.deviceClass);
        max_label = std::max(max_label, labeled.deviceClass);
    }
    ml::Dataset out;
    out.x = math::Matrix::fromRows(rows);
    out.y = std::move(labels);
    out.numClasses = max_label + 1;
    out.featureNames = FeatureExtractor::featureNames();
    out.validate();
    return out;
}

}  // namespace homunculus::net
