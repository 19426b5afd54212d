/**
 * @file
 * Tests for schedule *execution* (executeSchedule) — the runtime half
 * of the composition story.
 */
#include <gtest/gtest.h>

#include "backends/taurus.hpp"
#include "common/rng.hpp"
#include "core/schedule.hpp"

namespace hcore = homunculus::core;
namespace hb = homunculus::backends;
namespace hi = homunculus::ir;
namespace ml = homunculus::ml;
namespace hm = homunculus::math;
namespace hc = homunculus::common;

namespace {

/** Train a small MLP on blobs and lower it. */
hi::ModelIr
trainedIr(std::size_t input_dim, int classes, std::uint64_t seed)
{
    hc::Rng rng(seed);
    ml::Dataset data;
    data.x = hm::Matrix(300, input_dim);
    data.y.resize(300);
    data.numClasses = classes;
    for (std::size_t i = 0; i < 300; ++i) {
        int label = static_cast<int>(i % static_cast<std::size_t>(classes));
        for (std::size_t f = 0; f < input_dim; ++f)
            data.x(i, f) = rng.gaussian(2.0 * label, 0.4);
        data.y[i] = label;
    }
    ml::MlpConfig config;
    config.inputDim = input_dim;
    config.hiddenLayers = {8};
    config.numClasses = classes;
    config.epochs = 30;
    config.seed = seed;
    ml::Mlp mlp(config);
    mlp.train(data);
    return hi::lowerMlp(mlp, hc::FixedPointFormat::q88(), "m");
}

hcore::ModelSpec
spec(const std::string &name)
{
    hcore::ModelSpec s;
    s.name = name;
    return s;
}

}  // namespace

TEST(ExecuteSchedule, SingleLeafMatchesPlatformEvaluate)
{
    auto ir = trainedIr(3, 2, 1);
    hb::TaurusPlatform platform;
    hc::Rng rng(2);
    hm::Matrix x(20, 3);
    for (double &v : x.data())
        v = rng.gaussian(1.0, 1.0);

    std::map<std::string, hi::ModelIr> models{{"a", ir}};
    auto node = hcore::leaf(spec("a"));
    EXPECT_EQ(hcore::executeSchedule(node, models, platform, x),
              platform.evaluate(ir, x));
}

TEST(ExecuteSchedule, SequentialIdentityMapPassesSameFeatures)
{
    auto ir_a = trainedIr(3, 2, 3);
    auto ir_b = trainedIr(3, 2, 4);
    hb::TaurusPlatform platform;
    hc::Rng rng(5);
    hm::Matrix x(15, 3);
    for (double &v : x.data())
        v = rng.gaussian(0.0, 1.0);

    std::map<std::string, hi::ModelIr> models{{"a", ir_a}, {"b", ir_b}};
    auto node = spec("a") > spec("b");
    // Identity IoMap: final verdict equals running b alone.
    EXPECT_EQ(hcore::executeSchedule(node, models, platform, x),
              platform.evaluate(ir_b, x));
}

TEST(ExecuteSchedule, AppendLabelMapWidensDownstreamInput)
{
    auto ir_a = trainedIr(3, 2, 6);
    auto ir_b = trainedIr(4, 2, 7);  // expects the appended label.
    hb::TaurusPlatform platform;
    hc::Rng rng(8);
    hm::Matrix x(10, 3);
    for (double &v : x.data())
        v = rng.gaussian(0.0, 1.0);

    std::map<std::string, hi::ModelIr> models{{"a", ir_a}, {"b", ir_b}};
    auto node = spec("a") > spec("b");
    node.ioMap = hcore::IoMap::appendLabel();
    auto verdicts = hcore::executeSchedule(node, models, platform, x);
    EXPECT_EQ(verdicts.size(), 10u);
    for (int v : verdicts) {
        EXPECT_GE(v, 0);
        EXPECT_LT(v, 2);
    }
}

TEST(ExecuteSchedule, ParallelBranchesReturnLastBranchVerdict)
{
    auto ir_a = trainedIr(3, 2, 9);
    auto ir_b = trainedIr(3, 2, 10);
    hb::TaurusPlatform platform;
    hc::Rng rng(11);
    hm::Matrix x(12, 3);
    for (double &v : x.data())
        v = rng.gaussian(0.0, 1.0);

    std::map<std::string, hi::ModelIr> models{{"a", ir_a}, {"b", ir_b}};
    auto node = spec("a") | spec("b");
    EXPECT_EQ(hcore::executeSchedule(node, models, platform, x),
              platform.evaluate(ir_b, x));
}

TEST(ExecuteSchedule, MissingModelThrows)
{
    hb::TaurusPlatform platform;
    std::map<std::string, hi::ModelIr> models;
    hm::Matrix x(1, 3, 0.0);
    EXPECT_THROW(
        hcore::executeSchedule(hcore::leaf(spec("ghost")), models,
                               platform, x),
        std::runtime_error);
}
