/**
 * @file
 * Packet feature extraction — Figure 5's "Feature Extraction" template.
 *
 * Turns raw packets into the 7-feature row the TC models consume
 * (matching data::IotTrafficConfig's schema): on-wire size, IPv4 TTL,
 * protocol, src/dst port buckets, TOS, and a payload-entropy proxy. Also
 * provides a raw-packet generator for the IoT device archetypes so the
 * whole parse -> extract -> classify path can run from bytes, and a
 * feature-extraction pipeline stage usable in front of any Platform.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "ml/dataset.hpp"
#include "net/packet.hpp"

namespace homunculus::net {

/** Number of features the TC extractor emits. */
constexpr std::size_t kNumTcFeatures = 7;

/** Extraction parameters (port bucketing, entropy sampling). */
struct FeatureExtractorConfig
{
    /** Ports are hashed into this many buckets (switch-friendly). */
    std::size_t portBuckets = 8;
    /** Bytes of payload sampled for the entropy proxy. */
    std::size_t entropySampleBytes = 64;
};

/** Stateless per-packet feature extraction. */
class FeatureExtractor
{
  public:
    explicit FeatureExtractor(FeatureExtractorConfig config = {});

    /** Feature vector for one parsed packet (length kNumTcFeatures). */
    std::vector<double> extract(const PacketView &packet) const;

    /** extract() over viewOf(@p packet). */
    std::vector<double> extract(const RawPacket &packet) const;

    /** Parse bytes then extract, without copying the payload; nullopt
     *  when the packet is malformed. Bit-identical to
     *  extract(*parse(bytes)). */
    std::optional<std::vector<double>> extractFromWire(
        const std::vector<std::uint8_t> &bytes) const;

    /** The feature names, aligned with the IoT generator's schema. */
    static std::vector<std::string> featureNames();

    const FeatureExtractorConfig &config() const { return config_; }

  private:
    double payloadEntropy(const std::uint8_t *payload,
                          std::size_t size) const;

    FeatureExtractorConfig config_;
};

/** Knobs for the raw IoT packet generator. */
struct IotPacketConfig
{
    std::size_t numPackets = 1000;
    int numDeviceClasses = 5;
    std::uint64_t seed = 99;
};

/** One labeled raw packet. */
struct LabeledPacket
{
    RawPacket packet;
    int deviceClass = 0;
};

/**
 * Generate raw packets for the 5 IoT device archetypes (camera, sensor,
 * speaker, hub, thermostat) — the byte-level counterpart of
 * data::generateIotTrafficDataset.
 */
std::vector<LabeledPacket> generateIotPackets(const IotPacketConfig &config);

/**
 * Full front-end: serialize + parse + extract every packet into a
 * labeled Dataset (rows whose packets fail parsing are dropped).
 */
ml::Dataset datasetFromPackets(const std::vector<LabeledPacket> &packets,
                               const FeatureExtractor &extractor);

}  // namespace homunculus::net
