/**
 * @file
 * Unit tests for the Taurus platform model and MapReduce simulator.
 */
#include <gtest/gtest.h>

#include "backends/mapreduce_sim.hpp"
#include "backends/taurus.hpp"
#include "common/rng.hpp"
#include "interpret_rows.hpp"

namespace hb = homunculus::backends;
namespace hi = homunculus::ir;
namespace ml = homunculus::ml;
namespace hm = homunculus::math;
namespace hc = homunculus::common;
using homunculus::test::interpretRows;

namespace {

/** A trained-ish MLP IR with the given layer plan (random weights). */
hi::ModelIr
makeMlpIr(std::size_t input_dim, std::vector<std::size_t> hidden,
          int classes = 2, std::uint64_t seed = 1)
{
    ml::MlpConfig config;
    config.inputDim = input_dim;
    config.hiddenLayers = std::move(hidden);
    config.numClasses = classes;
    config.seed = seed;
    ml::Mlp mlp(config);
    return hi::lowerMlp(mlp, hc::FixedPointFormat::q88(), "test");
}

}  // namespace

TEST(TaurusModel, BiggerLayersConsumeMoreCus)
{
    hb::TaurusConfig config;
    auto small = taurusMappingCost(config, makeMlpIr(7, {8}));
    auto large = taurusMappingCost(config, makeMlpIr(7, {32}));
    EXPECT_GT(large.cus, small.cus);
}

TEST(TaurusModel, MoreLayersConsumeMoreMus)
{
    hb::TaurusConfig config;
    // Same parameter ballpark, different depth: buffer MUs per layer make
    // the deeper model memory-hungrier (Table 2's Hom-BD observation).
    auto shallow = taurusMappingCost(config, makeMlpIr(30, {10, 10}));
    auto deep = taurusMappingCost(
        config, makeMlpIr(30, {4, 4, 4, 4, 4, 4, 4, 4}));
    EXPECT_GT(deep.mus - 2 * 8, 0u);
    EXPECT_GT(static_cast<double>(deep.mus) / deep.cus,
              static_cast<double>(shallow.mus) / shallow.cus);
}

TEST(TaurusModel, LatencyGrowsWithDepth)
{
    hb::TaurusConfig config;
    auto shallow = taurusMappingCost(config, makeMlpIr(7, {8}));
    auto deep = taurusMappingCost(config, makeMlpIr(7, {8, 8, 8, 8}));
    EXPECT_GT(deep.fillCycles, shallow.fillCycles);
}

TEST(TaurusModel, OversizedModelRaisesInitiationInterval)
{
    hb::TaurusConfig config;
    config.gridRows = 4;
    config.gridCols = 4;  // tiny grid: 16 CUs.
    auto cost = taurusMappingCost(config, makeMlpIr(30, {32, 32, 32}));
    EXPECT_GT(cost.ii, 1.0);
}

TEST(TaurusPlatform, FeasibleSmallModelMeetsEnvelope)
{
    hb::TaurusPlatform platform;
    auto report = platform.estimate(makeMlpIr(7, {12, 8}));
    EXPECT_TRUE(report.feasible) << report.infeasibleReason;
    EXPECT_GE(report.throughputGpps, 1.0);
    EXPECT_LE(report.latencyNs, 500.0);
    EXPECT_GT(report.computeUnits, 0u);
    EXPECT_GT(report.memoryUnits, 0u);
}

TEST(TaurusPlatform, HugeModelIsInfeasibleWithReason)
{
    hb::TaurusConfig config;
    config.gridRows = 4;
    config.gridCols = 4;
    hb::TaurusPlatform platform(config);
    auto report = platform.estimate(makeMlpIr(30, {32, 32, 32, 32}));
    EXPECT_FALSE(report.feasible);
    EXPECT_FALSE(report.infeasibleReason.empty());
}

TEST(TaurusPlatform, SupportsAllFamilies)
{
    hb::TaurusPlatform platform;
    for (auto kind : {hi::ModelKind::kMlp, hi::ModelKind::kKMeans,
                      hi::ModelKind::kSvm, hi::ModelKind::kDecisionTree})
        EXPECT_EQ(platform.supports(kind),
                  hb::AlgorithmSupport::kSupported);
}

TEST(TaurusPlatform, TighterLatencyBudgetFlipsFeasibility)
{
    hb::TaurusPlatform platform;
    auto ir = makeMlpIr(7, {16, 16, 16});
    auto relaxed = platform.estimate(ir);
    EXPECT_TRUE(relaxed.feasible);

    platform.setConstraints({1.0, /*maxLatencyNs=*/10.0});
    auto tight = platform.estimate(ir);
    EXPECT_FALSE(tight.feasible);
}

TEST(MapReduceSim, LabelsMatchReferenceExecutor)
{
    auto ir = makeMlpIr(5, {6, 4}, 3);
    hb::MapReduceSimulator sim;
    hc::Rng rng(3);
    hm::Matrix x(20, 5);
    for (double &v : x.data())
        v = rng.gaussian(0, 1);
    auto stream = sim.runStream(ir, x);
    EXPECT_EQ(stream.labels, interpretRows(ir, x));
}

TEST(MapReduceSim, StreamCyclesAreFillPlusII)
{
    auto ir = makeMlpIr(7, {8});
    hb::TaurusConfig config;
    hb::MapReduceSimulator sim(config);
    hm::Matrix x(10, 7, 0.1);
    auto stream = sim.runStream(ir, x);
    auto cost = taurusMappingCost(config, ir);
    EXPECT_DOUBLE_EQ(stream.totalCycles,
                     cost.fillCycles + 9.0 * cost.ii);
    EXPECT_DOUBLE_EQ(stream.latencyNs, cost.fillCycles / config.clockGhz);
}

TEST(MapReduceSim, SinglePacketCyclesEqualFill)
{
    auto ir = makeMlpIr(4, {4});
    hb::MapReduceSimulator sim;
    auto result = sim.runPacket(ir, {0.1, 0.2, 0.3, 0.4});
    auto cost = taurusMappingCost(sim.config(), ir);
    EXPECT_DOUBLE_EQ(result.cycles, cost.fillCycles);
}

TEST(TaurusPlatform, EvaluateMatchesSimulator)
{
    auto ir = makeMlpIr(4, {6});
    hb::TaurusPlatform platform;
    hc::Rng rng(9);
    hm::Matrix x(15, 4);
    for (double &v : x.data())
        v = rng.gaussian(0, 1);
    auto labels = platform.evaluate(ir, x);
    EXPECT_EQ(labels, interpretRows(ir, x));
    EXPECT_EQ(labels,
              hb::MapReduceSimulator(platform.config()).runStream(ir, x)
                  .labels);
}
