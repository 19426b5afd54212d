/**
 * @file
 * Unit tests for the FPGA resource/power model.
 */
#include <gtest/gtest.h>

#include "backends/fpga.hpp"
#include "ml/mlp.hpp"
#include "interpret_rows.hpp"

namespace hb = homunculus::backends;
namespace hi = homunculus::ir;
namespace ml = homunculus::ml;
namespace hc = homunculus::common;
using homunculus::test::interpretRows;

namespace {

hi::ModelIr
makeMlpIr(std::size_t input_dim, std::vector<std::size_t> hidden,
          std::uint64_t seed = 1)
{
    ml::MlpConfig config;
    config.inputDim = input_dim;
    config.hiddenLayers = std::move(hidden);
    config.numClasses = 2;
    config.seed = seed;
    ml::Mlp mlp(config);
    return hi::lowerMlp(mlp, hc::FixedPointFormat::q88(), "fpga_test");
}

}  // namespace

TEST(Fpga, LoopbackMatchesTable5Baseline)
{
    hb::FpgaPlatform platform;
    auto loopback = platform.loopbackReport();
    EXPECT_DOUBLE_EQ(loopback.lutPercent, 5.36);
    EXPECT_DOUBLE_EQ(loopback.ffPercent, 3.64);
    EXPECT_DOUBLE_EQ(loopback.bramPercent, 4.15);
    EXPECT_DOUBLE_EQ(loopback.powerWatts, 15.131);
    EXPECT_TRUE(loopback.feasible);
}

TEST(Fpga, ModelsCostMoreThanLoopback)
{
    hb::FpgaPlatform platform;
    auto loopback = platform.loopbackReport();
    auto report = platform.estimate(makeMlpIr(7, {16, 8}));
    EXPECT_GT(report.lutPercent, loopback.lutPercent);
    EXPECT_GT(report.ffPercent, loopback.ffPercent);
    EXPECT_GT(report.powerWatts, loopback.powerWatts);
    EXPECT_GE(report.bramPercent, loopback.bramPercent);
}

TEST(Fpga, MoreParamsMoreLutsMorePower)
{
    hb::FpgaPlatform platform;
    auto small = platform.estimate(makeMlpIr(7, {8}));
    auto large = platform.estimate(makeMlpIr(7, {32, 32}));
    EXPECT_GT(large.lutPercent, small.lutPercent);
    EXPECT_GT(large.powerWatts, small.powerWatts);
}

TEST(Fpga, BramConstantUntilThreshold)
{
    hb::FpgaPlatform platform;
    auto small = platform.estimate(makeMlpIr(7, {16}));
    EXPECT_DOUBLE_EQ(small.bramPercent, 4.15);
    // A model beyond the spill threshold uses extra BRAM blocks.
    auto big = platform.estimate(makeMlpIr(30, {128, 64}));
    EXPECT_GT(big.bramPercent, 4.15);
}

TEST(Fpga, InfeasibleWhenUtilizationExceedsDevice)
{
    hb::FpgaConfig config;
    config.lutPerParam = 2.0;  // pathological calibration for the test.
    hb::FpgaPlatform platform(config);
    auto report = platform.estimate(makeMlpIr(7, {32, 32}));
    EXPECT_FALSE(report.feasible);
    EXPECT_NE(report.infeasibleReason.find("100%"), std::string::npos);
}

TEST(Fpga, EvaluateUsesQuantizedSemantics)
{
    hb::FpgaPlatform platform;
    auto ir = makeMlpIr(4, {6});
    homunculus::math::Matrix x(10, 4, 0.25);
    EXPECT_EQ(platform.evaluate(ir, x), interpretRows(ir, x));
}

TEST(Fpga, SupportsEveryFamily)
{
    hb::FpgaPlatform platform;
    for (auto kind : {hi::ModelKind::kMlp, hi::ModelKind::kKMeans,
                      hi::ModelKind::kSvm, hi::ModelKind::kDecisionTree})
        EXPECT_EQ(platform.supports(kind), hb::AlgorithmSupport::kSupported);
}
