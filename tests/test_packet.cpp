/**
 * @file
 * Unit tests for the packet substrate: wire (de)serialization, checksum,
 * feature extraction, and the bytes-to-dataset front-end.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/rng.hpp"
#include "math/stats.hpp"
#include "net/feature_extract.hpp"
#include "net/packet.hpp"

namespace hn = homunculus::net;

namespace {

/** The bit pattern of @p value, so EXPECT_EQ compares bit for bit. */
std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

/** Rewrite a serialized frame's IPv4 header checksum to match its
 *  (possibly edited) header bytes. */
void
fixIpv4Checksum(std::vector<std::uint8_t> &frame)
{
    std::uint8_t *ipv4 = frame.data() + hn::EthernetHeader::kWireSize;
    ipv4[10] = 0;
    ipv4[11] = 0;
    std::uint16_t checksum = hn::ipv4Checksum(ipv4, hn::Ipv4Header::kWireSize);
    ipv4[10] = static_cast<std::uint8_t>(checksum >> 8);
    ipv4[11] = static_cast<std::uint8_t>(checksum & 0xFF);
}

/** Set a serialized frame's ipv4.totalLength (checksum kept valid). */
void
setTotalLength(std::vector<std::uint8_t> &frame, std::uint16_t length)
{
    frame[hn::EthernetHeader::kWireSize + 2] =
        static_cast<std::uint8_t>(length >> 8);
    frame[hn::EthernetHeader::kWireSize + 3] =
        static_cast<std::uint8_t>(length & 0xFF);
    fixIpv4Checksum(frame);
}

/** The entropy feature as the extractor computed it before the
 *  histogram rewrite: a 256-bin count vector through math::entropy. */
double
referenceEntropy(const std::vector<std::uint8_t> &payload,
                 std::size_t sample_bytes)
{
    if (payload.empty())
        return 0.0;
    std::size_t sample = std::min(sample_bytes, payload.size());
    std::vector<double> counts(256, 0.0);
    for (std::size_t i = 0; i < sample; ++i)
        counts[payload[i]] += 1.0;
    double h = homunculus::math::entropy(counts);
    double h_max = std::log(static_cast<double>(std::min<std::size_t>(
        256, sample)));
    return h_max > 0.0 ? std::clamp(h / h_max, 0.0, 1.0) : 0.0;
}

hn::RawPacket
makeTcpPacket()
{
    hn::RawPacket packet;
    packet.eth.src = {0x02, 0x00, 0x00, 0x00, 0x00, 0x01};
    packet.eth.dst = {0x02, 0x00, 0x00, 0x00, 0x00, 0x02};
    packet.ipv4.ttl = 63;
    packet.ipv4.tos = 0x10;
    packet.ipv4.protocol = hn::kProtoTcp;
    packet.ipv4.srcAddr = 0x0A000001;
    packet.ipv4.dstAddr = 0x0A000002;
    hn::TcpHeader tcp;
    tcp.srcPort = 44321;
    tcp.dstPort = 443;
    tcp.seq = 12345;
    tcp.flags = 0x18;
    packet.tcp = tcp;
    packet.payload = {1, 2, 3, 4, 5};
    return packet;
}

}  // namespace

TEST(Packet, TcpSerializeParseRoundTrip)
{
    auto original = makeTcpPacket();
    auto bytes = serialize(original);
    EXPECT_EQ(bytes.size(), original.wireSize());

    auto parsed = hn::parse(bytes, 1.5);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->eth.src, original.eth.src);
    EXPECT_EQ(parsed->ipv4.ttl, 63);
    EXPECT_EQ(parsed->ipv4.tos, 0x10);
    EXPECT_EQ(parsed->ipv4.srcAddr, 0x0A000001u);
    ASSERT_TRUE(parsed->tcp.has_value());
    EXPECT_EQ(parsed->tcp->srcPort, 44321);
    EXPECT_EQ(parsed->tcp->dstPort, 443);
    EXPECT_EQ(parsed->tcp->seq, 12345u);
    EXPECT_EQ(parsed->payload, original.payload);
    EXPECT_DOUBLE_EQ(parsed->timestampSec, 1.5);
}

TEST(Packet, UdpSerializeParseRoundTrip)
{
    hn::RawPacket packet;
    packet.ipv4.protocol = hn::kProtoUdp;
    hn::UdpHeader udp;
    udp.srcPort = 5004;
    udp.dstPort = 5005;
    packet.udp = udp;
    packet.payload.assign(100, 0xAB);

    auto parsed = hn::parse(serialize(packet));
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(parsed->udp.has_value());
    EXPECT_EQ(parsed->udp->dstPort, 5005);
    EXPECT_EQ(parsed->udp->length, 108);  // 8 header + 100 payload.
    EXPECT_EQ(parsed->payload.size(), 100u);
}

TEST(Packet, ChecksumDetectsCorruption)
{
    auto bytes = serialize(makeTcpPacket());
    // Flip a bit inside the IPv4 header (TTL byte).
    bytes[hn::EthernetHeader::kWireSize + 8] ^= 0xFF;
    EXPECT_FALSE(hn::parse(bytes).has_value());
}

TEST(Packet, ParseRejectsTruncatedBuffers)
{
    auto bytes = serialize(makeTcpPacket());
    std::vector<std::uint8_t> truncated(bytes.begin(), bytes.begin() + 20);
    EXPECT_FALSE(hn::parse(truncated).has_value());
    EXPECT_FALSE(hn::parse({}).has_value());
}

TEST(Packet, ParseBoundsPayloadByTotalLength)
{
    // A 5-byte TCP payload makes a 59-byte frame; a NIC pads it to the
    // 60-byte Ethernet minimum, and the trailer is not payload.
    hn::RawPacket packet = makeTcpPacket();
    std::vector<std::uint8_t> frame = serialize(packet);
    std::vector<std::uint8_t> padded = frame;
    padded.resize(60, 0x00);
    ASSERT_GT(padded.size(), frame.size());

    auto parsed = hn::parse(padded);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->payload, packet.payload);
    EXPECT_EQ(parsed->wireSize(), frame.size());

    // Padding bytes that would skew the entropy feature if counted.
    std::fill(padded.begin() + static_cast<std::ptrdiff_t>(frame.size()),
              padded.end(), 0xEE);
    hn::FeatureExtractor extractor;
    auto unpadded_features = extractor.extractFromWire(frame);
    auto padded_features = extractor.extractFromWire(padded);
    ASSERT_TRUE(unpadded_features.has_value());
    ASSERT_TRUE(padded_features.has_value());
    EXPECT_EQ(*padded_features, *unpadded_features);
}

TEST(Packet, ParseRejectsInconsistentTotalLength)
{
    std::vector<std::uint8_t> frame = serialize(makeTcpPacket());
    const auto total = static_cast<std::uint16_t>(
        frame.size() - hn::EthernetHeader::kWireSize);

    // Shorter than its totalLength: the datagram was cut off.
    std::vector<std::uint8_t> cut(frame.begin(), frame.end() - 1);
    EXPECT_FALSE(hn::parse(cut).has_value());

    std::vector<std::uint8_t> inflated = frame;
    setTotalLength(inflated, static_cast<std::uint16_t>(total + 1));
    EXPECT_FALSE(hn::parse(inflated).has_value());

    // Smaller than the IPv4 + TCP headers it carries.
    std::vector<std::uint8_t> deflated = frame;
    setTotalLength(deflated, static_cast<std::uint16_t>(
                                 hn::Ipv4Header::kWireSize +
                                 hn::TcpHeader::kWireSize - 1));
    EXPECT_FALSE(hn::parse(deflated).has_value());

    // Exactly the headers: a valid, empty-payload datagram.
    std::vector<std::uint8_t> headers_only = frame;
    setTotalLength(headers_only, static_cast<std::uint16_t>(
                                     hn::Ipv4Header::kWireSize +
                                     hn::TcpHeader::kWireSize));
    auto parsed = hn::parse(headers_only);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->payload.empty());

    hn::FeatureExtractor extractor;
    EXPECT_FALSE(extractor.extractFromWire(inflated).has_value());
}

TEST(Packet, ParseRejectsNonIpv4)
{
    auto bytes = serialize(makeTcpPacket());
    bytes[12] = 0x86;  // EtherType -> 0x86DD (IPv6).
    bytes[13] = 0xDD;
    EXPECT_FALSE(hn::parse(bytes).has_value());
}

TEST(Packet, Ipv4ChecksumKnownVector)
{
    // RFC 1071 example-style check: checksum of a buffer then verify
    // that including the checksum yields zero.
    auto bytes = serialize(makeTcpPacket());
    const std::uint8_t *ipv4 = bytes.data() + hn::EthernetHeader::kWireSize;
    // Checksum over the header including the stored checksum is 0.
    EXPECT_EQ(hn::ipv4Checksum(ipv4, hn::Ipv4Header::kWireSize), 0);
}

TEST(FeatureExtract, FeatureVectorShapeAndRanges)
{
    hn::FeatureExtractor extractor;
    auto features = extractor.extract(makeTcpPacket());
    ASSERT_EQ(features.size(), hn::kNumTcFeatures);
    EXPECT_DOUBLE_EQ(features[0], makeTcpPacket().wireSize());
    EXPECT_DOUBLE_EQ(features[1], 63.0);
    EXPECT_DOUBLE_EQ(features[2], 6.0);
    EXPECT_GE(features[3], 0.0);
    EXPECT_LT(features[3], 8.0);  // default port buckets.
    EXPECT_GE(features[5], 0.0);
    EXPECT_LE(features[5], 1.0);
    EXPECT_GE(features[6], 0.0);
    EXPECT_LE(features[6], 1.0);
}

TEST(FeatureExtract, EntropyOrdersRandomAboveConstant)
{
    hn::FeatureExtractor extractor;
    auto constant = makeTcpPacket();
    constant.payload.assign(64, 0x42);
    auto random_pkt = makeTcpPacket();
    random_pkt.payload.resize(64);
    for (std::size_t i = 0; i < 64; ++i)
        random_pkt.payload[i] = static_cast<std::uint8_t>(i * 37 + 11);
    double h_const = extractor.extract(constant)[6];
    double h_random = extractor.extract(random_pkt)[6];
    EXPECT_LT(h_const, h_random);
    EXPECT_NEAR(h_const, 0.0, 1e-9);
}

TEST(FeatureExtract, WirePathMatchesDirectExtraction)
{
    hn::FeatureExtractor extractor;
    auto packet = makeTcpPacket();
    auto direct = extractor.extract(packet);
    auto via_wire = extractor.extractFromWire(serialize(packet));
    ASSERT_TRUE(via_wire.has_value());
    EXPECT_EQ(*via_wire, direct);
}

TEST(FeatureExtract, MalformedWireYieldsNullopt)
{
    hn::FeatureExtractor extractor;
    EXPECT_FALSE(extractor.extractFromWire({1, 2, 3}).has_value());
}

TEST(FeatureExtract, EntropyBitIdenticalToReference)
{
    hn::IotPacketConfig config;
    config.numPackets = 4000;
    config.seed = 11;
    std::vector<hn::LabeledPacket> iot = hn::generateIotPackets(config);

    // Random payloads of 0..1500 bytes, from uniform noise to a single
    // repeated byte, so bins reach counts past 255 when the sample does.
    homunculus::common::Rng rng(12);
    std::vector<std::vector<std::uint8_t>> payloads;
    for (const hn::LabeledPacket &labeled : iot)
        payloads.push_back(labeled.packet.payload);
    for (int i = 0; i < 3000; ++i) {
        auto size = static_cast<std::size_t>(rng.uniformInt(0, 1500));
        double noise = rng.uniform();
        auto alphabet = static_cast<int>(rng.uniformInt(1, 255));
        std::vector<std::uint8_t> payload(size);
        for (std::uint8_t &byte : payload)
            byte = rng.bernoulli(noise)
                       ? static_cast<std::uint8_t>(
                             rng.uniformInt(0, alphabet))
                       : std::uint8_t{0x42};
        payloads.push_back(std::move(payload));
    }

    hn::RawPacket packet = makeTcpPacket();
    for (std::size_t sample_bytes : {1u, 64u, 300u}) {
        hn::FeatureExtractorConfig extractor_config;
        extractor_config.entropySampleBytes = sample_bytes;
        hn::FeatureExtractor extractor(extractor_config);
        for (const std::vector<std::uint8_t> &payload : payloads) {
            packet.payload = payload;
            double expected = referenceEntropy(payload, sample_bytes);
            ASSERT_EQ(bitsOf(extractor.extract(packet)[6]),
                      bitsOf(expected))
                << "sample " << sample_bytes << ", payload of "
                << payload.size() << " bytes";
        }
    }
}

TEST(FeatureExtract, WireFuzzMatchesParseThenExtract)
{
    // Deterministic mutation fuzz over wire frames: the copy-free
    // extractFromWire must agree with parse + extract on every input,
    // including which inputs are rejected.
    hn::IotPacketConfig config;
    config.numPackets = 400;
    config.seed = 21;
    std::vector<std::vector<std::uint8_t>> seeds;
    for (const hn::LabeledPacket &labeled : hn::generateIotPackets(config))
        seeds.push_back(serialize(labeled.packet));
    seeds.push_back(serialize(makeTcpPacket()));

    hn::FeatureExtractor extractor;
    homunculus::common::Rng rng(22);
    std::size_t accepted = 0, rejected = 0;
    for (int round = 0; round < 20000; ++round) {
        std::vector<std::uint8_t> frame = seeds[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(seeds.size()) - 1))];
        switch (rng.uniformInt(0, 4)) {
          case 0: {  // flip a few bytes anywhere
            auto flips = rng.uniformInt(1, 4);
            for (std::int64_t f = 0; f < flips; ++f)
                frame[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(frame.size()) - 1))] ^=
                    static_cast<std::uint8_t>(rng.uniformInt(1, 255));
            break;
          }
          case 1:  // truncate
            frame.resize(static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(frame.size()))));
            break;
          case 2:  // trailer bytes
            frame.resize(frame.size() + static_cast<std::size_t>(
                                            rng.uniformInt(1, 64)),
                         static_cast<std::uint8_t>(rng.uniformInt(0, 255)));
            break;
          case 3:  // any totalLength, checksum kept valid
            setTotalLength(frame, static_cast<std::uint16_t>(
                                      rng.uniformInt(0, 0xFFFF)));
            break;
          default:  // mutate the IPv4 header, checksum kept valid
            frame[hn::EthernetHeader::kWireSize +
                  static_cast<std::size_t>(rng.uniformInt(0, 19))] ^=
                static_cast<std::uint8_t>(rng.uniformInt(1, 255));
            fixIpv4Checksum(frame);
            break;
        }
        std::optional<hn::RawPacket> parsed = hn::parse(frame);
        std::optional<std::vector<double>> via_wire =
            extractor.extractFromWire(frame);
        ASSERT_EQ(via_wire.has_value(), parsed.has_value())
            << "round " << round;
        if (!parsed) {
            ++rejected;
            continue;
        }
        ++accepted;
        std::vector<double> expected = extractor.extract(*parsed);
        ASSERT_EQ(via_wire->size(), expected.size());
        for (std::size_t f = 0; f < expected.size(); ++f)
            ASSERT_EQ(bitsOf((*via_wire)[f]), bitsOf(expected[f]))
                << "round " << round << ", feature " << f;
        EXPECT_EQ(parsed->wireSize(),
                  hn::EthernetHeader::kWireSize + parsed->ipv4.totalLength);
    }
    // Both outcomes must be exercised for the comparison to mean much.
    EXPECT_GT(accepted, 2000u);
    EXPECT_GT(rejected, 2000u);
}

TEST(IotPackets, GeneratorProducesParsableLabeledPackets)
{
    hn::IotPacketConfig config;
    config.numPackets = 300;
    auto packets = hn::generateIotPackets(config);
    EXPECT_EQ(packets.size(), 300u);
    for (const auto &labeled : packets) {
        EXPECT_GE(labeled.deviceClass, 0);
        EXPECT_LT(labeled.deviceClass, 5);
        EXPECT_TRUE(hn::parse(serialize(labeled.packet)).has_value());
    }
}

TEST(IotPackets, DatasetFromPacketsIsLearnable)
{
    hn::IotPacketConfig config;
    config.numPackets = 800;
    auto packets = hn::generateIotPackets(config);
    hn::FeatureExtractor extractor;
    auto data = datasetFromPackets(packets, extractor);
    EXPECT_EQ(data.numSamples(), 800u);
    EXPECT_EQ(data.numFeatures(), hn::kNumTcFeatures);
    EXPECT_EQ(data.numClasses, 5);

    // Camera (class 0, big UDP) vs thermostat (class 4, small TCP) are
    // separable on size alone.
    double camera_mean = 0, thermo_mean = 0;
    std::size_t camera_n = 0, thermo_n = 0;
    for (std::size_t i = 0; i < data.numSamples(); ++i) {
        if (data.y[i] == 0) {
            camera_mean += data.x(i, 0);
            ++camera_n;
        } else if (data.y[i] == 4) {
            thermo_mean += data.x(i, 0);
            ++thermo_n;
        }
    }
    ASSERT_GT(camera_n, 0u);
    ASSERT_GT(thermo_n, 0u);
    EXPECT_GT(camera_mean / static_cast<double>(camera_n),
              thermo_mean / static_cast<double>(thermo_n));
}

TEST(IotPackets, DeterministicInSeed)
{
    hn::IotPacketConfig config;
    config.numPackets = 50;
    auto a = hn::generateIotPackets(config);
    auto b = hn::generateIotPackets(config);
    for (std::size_t i = 0; i < 50; ++i) {
        EXPECT_EQ(a[i].deviceClass, b[i].deviceClass);
        EXPECT_EQ(serialize(a[i].packet), serialize(b[i].packet));
    }
}
