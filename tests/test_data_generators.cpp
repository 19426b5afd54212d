/**
 * @file
 * Unit tests for the synthetic dataset generators, flowmarkers, loaders.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "data/anomaly_generator.hpp"
#include "data/flowmarker.hpp"
#include "data/iot_traffic_generator.hpp"
#include "data/loaders.hpp"
#include "data/p2p_traces.hpp"
#include "math/stats.hpp"

namespace hd = homunculus::data;
namespace ml = homunculus::ml;

TEST(AnomalyGenerator, ShapesAndLabels)
{
    hd::AnomalyConfig config;
    config.numSamples = 500;
    auto data = hd::generateAnomalyDataset(config);
    EXPECT_EQ(data.numSamples(), 500u);
    EXPECT_EQ(data.numFeatures(), 7u);
    EXPECT_EQ(data.numClasses, 2);
    EXPECT_NO_THROW(data.validate());
    // Both classes present, malicious share near the configured fraction.
    double frac = static_cast<double>(data.countLabel(1)) / 500.0;
    EXPECT_NEAR(frac, config.maliciousFraction, 0.1);
}

TEST(AnomalyGenerator, DeterministicInSeed)
{
    hd::AnomalyConfig config;
    config.numSamples = 100;
    auto a = hd::generateAnomalyDataset(config);
    auto b = hd::generateAnomalyDataset(config);
    for (std::size_t i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.x(i, 0), b.x(i, 0));
}

TEST(AnomalyGenerator, ClassesAreSeparableButNotTrivially)
{
    hd::AnomalyConfig config;
    config.numSamples = 2000;
    auto data = hd::generateAnomalyDataset(config);
    // serror_rate (feature 5) should be higher for malicious on average —
    // the DoS component guarantees a signal.
    double benign_sum = 0, mal_sum = 0;
    std::size_t benign_n = 0, mal_n = 0;
    for (std::size_t i = 0; i < data.numSamples(); ++i) {
        if (data.y[i] == 0) {
            benign_sum += data.x(i, 5);
            ++benign_n;
        } else {
            mal_sum += data.x(i, 5);
            ++mal_n;
        }
    }
    EXPECT_GT(mal_sum / static_cast<double>(mal_n),
              benign_sum / static_cast<double>(benign_n));
}

TEST(AnomalyGenerator, SplitIsStandardized)
{
    hd::AnomalyConfig config;
    config.numSamples = 800;
    auto split = hd::generateAnomalySplit(config);
    auto col = split.train.x.col(1);
    EXPECT_NEAR(homunculus::math::mean(col), 0.0, 1e-6);
    EXPECT_NEAR(homunculus::math::stddev(col), 1.0, 1e-6);
}

TEST(IotGenerator, ShapesAndClassRange)
{
    hd::IotTrafficConfig config;
    config.numSamples = 600;
    config.numDeviceClasses = 5;
    auto data = hd::generateIotTrafficDataset(config);
    EXPECT_EQ(data.numFeatures(), 7u);
    EXPECT_EQ(data.numClasses, 5);
    EXPECT_NO_THROW(data.validate());
    auto counts = data.classCounts();
    for (auto c : counts)
        EXPECT_GT(c, 60u);  // roughly balanced.
}

TEST(IotGenerator, RejectsBadClassCounts)
{
    hd::IotTrafficConfig config;
    config.numDeviceClasses = 1;
    EXPECT_THROW(hd::generateIotTrafficDataset(config), std::runtime_error);
    config.numDeviceClasses = 9;
    EXPECT_THROW(hd::generateIotTrafficDataset(config), std::runtime_error);
}

TEST(IotGenerator, CameraPacketsLargerThanSensor)
{
    hd::IotTrafficConfig config;
    config.numSamples = 2000;
    auto data = hd::generateIotTrafficDataset(config);
    double camera_sum = 0, sensor_sum = 0;
    std::size_t camera_n = 0, sensor_n = 0;
    for (std::size_t i = 0; i < data.numSamples(); ++i) {
        if (data.y[i] == 0) {
            camera_sum += data.x(i, 0);
            ++camera_n;
        } else if (data.y[i] == 1) {
            sensor_sum += data.x(i, 0);
            ++sensor_n;
        }
    }
    EXPECT_GT(camera_sum / static_cast<double>(camera_n),
              sensor_sum / static_cast<double>(sensor_n));
}

TEST(P2pTraces, FlowPropertiesMatchArchetypes)
{
    hd::P2pTraceConfig config;
    config.numFlows = 200;
    auto flows = hd::generateP2pFlows(config);
    EXPECT_EQ(flows.size(), 200u);

    double botnet_pkts = 0, benign_pkts = 0;
    double botnet_dur = 0, benign_dur = 0;
    std::size_t botnet_n = 0, benign_n = 0;
    for (const auto &flow : flows) {
        EXPECT_FALSE(flow.packets.empty());
        // Timestamps sorted.
        for (std::size_t i = 1; i < flow.packets.size(); ++i)
            EXPECT_GE(flow.packets[i].timestampSec,
                      flow.packets[i - 1].timestampSec);
        if (flow.botnet) {
            botnet_pkts += static_cast<double>(flow.packets.size());
            botnet_dur += flow.durationSec();
            ++botnet_n;
        } else {
            benign_pkts += static_cast<double>(flow.packets.size());
            benign_dur += flow.durationSec();
            ++benign_n;
        }
    }
    ASSERT_GT(botnet_n, 0u);
    ASSERT_GT(benign_n, 0u);
    // Botnet: low volume, high duration (the PeerRush signature).
    EXPECT_LT(botnet_pkts / botnet_n, benign_pkts / benign_n);
    EXPECT_GT(botnet_dur / botnet_n, benign_dur / benign_n);
}

TEST(FlowMarker, BinningAndTotals)
{
    hd::Flow flow;
    flow.botnet = false;
    flow.packets = {{0.0, 100.0}, {600.0, 100.0}, {601.0, 1400.0}};
    hd::FlowMarkerConfig config;  // 23 PL x 64B, 7 IPT x 512s.
    auto marker = hd::computeFlowMarker(flow, config);
    ASSERT_EQ(marker.size(), 30u);
    // PL: two packets in bin 1 (64..128), one in bin 21 (1344..1408).
    EXPECT_DOUBLE_EQ(marker[1], 2.0);
    EXPECT_DOUBLE_EQ(marker[21], 1.0);
    // IPT: gap 600s -> bin 1; gap 1s -> bin 0.
    EXPECT_DOUBLE_EQ(marker[23 + 1], 1.0);
    EXPECT_DOUBLE_EQ(marker[23 + 0], 1.0);
}

TEST(FlowMarker, PartialPrefixMonotone)
{
    hd::P2pTraceConfig config;
    config.numFlows = 10;
    auto flows = hd::generateP2pFlows(config);
    hd::FlowMarkerConfig marker_config;
    for (const auto &flow : flows) {
        auto partial = hd::computeFlowMarker(flow, marker_config, 3);
        auto full = hd::computeFlowMarker(flow, marker_config);
        double partial_total = 0, full_total = 0;
        for (std::size_t b = 0; b < marker_config.plBins; ++b) {
            partial_total += partial[b];
            full_total += full[b];
            EXPECT_LE(partial[b], full[b]);
        }
        EXPECT_LE(partial_total,
                  std::min<double>(3.0, full_total) + 1e-9);
    }
}

TEST(FlowMarker, CompressedSchemeIsFiveTimesSmaller)
{
    auto original = hd::flowLensOriginalConfig();
    auto compressed = hd::homunculusCompressedConfig();
    EXPECT_EQ(original.totalBins(), 151u);
    EXPECT_EQ(compressed.totalBins(), 30u);
    EXPECT_GE(original.totalBins() / compressed.totalBins(), 5u);
}

TEST(FlowMarker, DatasetBuildersProduceLabeledRows)
{
    hd::P2pTraceConfig config;
    config.numFlows = 40;
    auto flows = hd::generateP2pFlows(config);
    auto marker_config = hd::homunculusCompressedConfig();

    auto flow_level = hd::buildFlowLevelDataset(flows, marker_config);
    EXPECT_EQ(flow_level.numSamples(), 40u);
    EXPECT_EQ(flow_level.numFeatures(), 30u);
    EXPECT_NO_THROW(flow_level.validate());

    auto per_packet = hd::buildPerPacketDataset(flows, marker_config, 5);
    EXPECT_GT(per_packet.numSamples(), flow_level.numSamples());
    EXPECT_NO_THROW(per_packet.validate());
}

TEST(FlowMarker, PerPacketRowsMatchPrefixRecompute)
{
    // A 1-packet flow, a 2-packet flow, and long flows whose sizes and
    // gaps overrun the last PL and IPT bins (plus a zero gap).
    std::vector<hd::Flow> flows(3);
    flows[0].packets = {{0.0, 70.0}};
    flows[1].botnet = true;
    flows[1].packets = {{0.0, 1500.0}, {9000.0, 40.0}};
    double t = 0.0;
    for (std::size_t i = 0; i < 237; ++i) {
        if (i % 3 != 0)
            t += static_cast<double>((i * 7919) % 4200);
        flows[2].packets.push_back(
            {t, static_cast<double>((i * 104729) % 1700)});
    }
    hd::P2pTraceConfig trace_config;
    trace_config.numFlows = 4;
    for (hd::Flow &flow : hd::generateP2pFlows(trace_config))
        flows.push_back(std::move(flow));
    ASSERT_GE(flows[2].packets.size(), 200u);

    for (const auto &marker_config :
         {hd::homunculusCompressedConfig(), hd::flowLensOriginalConfig()}) {
        for (std::size_t stride : {1u, 2u, 5u}) {
            auto data = hd::buildPerPacketDataset(flows, marker_config,
                                                  stride);
            ASSERT_EQ(data.numFeatures(), marker_config.totalBins());
            std::size_t row = 0;
            for (const hd::Flow &flow : flows) {
                for (std::size_t k = 1; k <= flow.packets.size();
                     k += stride, ++row) {
                    ASSERT_LT(row, data.numSamples());
                    auto expected =
                        hd::computeFlowMarker(flow, marker_config, k);
                    EXPECT_EQ(std::memcmp(&data.x(row, 0), expected.data(),
                                          expected.size() * sizeof(double)),
                              0)
                        << "stride " << stride << " row " << row << " k "
                        << k;
                    EXPECT_EQ(data.y[row], flow.botnet ? 1 : 0);
                }
            }
            EXPECT_EQ(row, data.numSamples()) << "stride " << stride;
        }
    }
}

TEST(FlowMarker, ClassHistogramsDiverge)
{
    hd::P2pTraceConfig config;
    config.numFlows = 300;
    auto flows = hd::generateP2pFlows(config);
    auto histograms =
        hd::averageClassHistograms(flows, hd::homunculusCompressedConfig());

    // Figure 6's observation: benign P2P has far more large packets
    // (heavy tail) while botnet mass concentrates in small-size bins.
    double benign_tail = 0, botnet_tail = 0;
    for (std::size_t b = 10; b < histograms.benignPl.size(); ++b) {
        benign_tail += histograms.benignPl[b];
        botnet_tail += histograms.botnetPl[b];
    }
    EXPECT_GT(benign_tail, botnet_tail);

    // Botnet inter-arrival mass does NOT all sit in the first bin.
    double botnet_late_ipt = 0;
    for (std::size_t b = 1; b < histograms.botnetIpt.size(); ++b)
        botnet_late_ipt += histograms.botnetIpt[b];
    EXPECT_GT(botnet_late_ipt, 0.0);
}

TEST(Loaders, CsvDatasetRoundTrip)
{
    ml::Dataset data;
    data.x = homunculus::math::Matrix::fromRows({{1.5, 2.0}, {3.0, -1.0}});
    data.y = {0, 1};
    data.numClasses = 2;
    data.featureNames = {"f0", "f1"};

    std::string csv = hd::datasetToCsv(data);
    auto parsed = hd::datasetFromCsv(csv, /*has_header=*/true);
    EXPECT_EQ(parsed.numSamples(), 2u);
    EXPECT_EQ(parsed.numClasses, 2);
    EXPECT_DOUBLE_EQ(parsed.x(1, 1), -1.0);
    EXPECT_EQ(parsed.y[1], 1);
    EXPECT_EQ(parsed.featureNames, data.featureNames);
}

TEST(Loaders, RejectsFractionalLabels)
{
    EXPECT_THROW(hd::datasetFromCsv("1.0,0.5\n", false), std::runtime_error);
}

TEST(Loaders, RejectsTooNarrowTables)
{
    EXPECT_THROW(hd::datasetFromCsv("1\n2\n", false), std::runtime_error);
}
