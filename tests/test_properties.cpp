/**
 * @file
 * Parameterized property suites (TEST_P sweeps) over framework-wide
 * invariants: backend simulators agree with the reference executor for
 * random models, resource models are monotone, quantization error decays
 * with precision, and schedule composition is permutation-invariant.
 */
#include <gtest/gtest.h>

#include "backends/mat_platform.hpp"
#include "backends/taurus.hpp"
#include "common/rng.hpp"
#include "core/schedule.hpp"
#include "ir/model_ir.hpp"
#include "ml/metrics.hpp"
#include "interpret_rows.hpp"

namespace hb = homunculus::backends;
namespace hi = homunculus::ir;
namespace ml = homunculus::ml;
namespace hm = homunculus::math;
namespace hc = homunculus::common;
using homunculus::test::interpretRows;
namespace hcore = homunculus::core;

// ---------------------------------------------------------------------
// Property: for ANY random MLP shape, the Taurus simulator must agree
// with the reference fixed-point executor, and the mapping cost must be
// monotone under layer widening.
// ---------------------------------------------------------------------

struct MlpShape
{
    std::size_t inputDim;
    std::vector<std::size_t> hidden;
    int classes;
};

class MlpShapeProperty : public ::testing::TestWithParam<MlpShape>
{
};

TEST_P(MlpShapeProperty, SimulatorAgreesWithReferenceExecutor)
{
    const MlpShape &shape = GetParam();
    ml::MlpConfig config;
    config.inputDim = shape.inputDim;
    config.hiddenLayers = shape.hidden;
    config.numClasses = shape.classes;
    config.seed = 13 * shape.inputDim + shape.hidden.size();
    ml::Mlp mlp(config);
    auto ir = hi::lowerMlp(mlp, hc::FixedPointFormat::q88(), "prop");

    hc::Rng rng(shape.inputDim * 101);
    hm::Matrix x(25, shape.inputDim);
    for (double &v : x.data())
        v = rng.gaussian(0, 1.5);

    hb::TaurusPlatform platform;
    EXPECT_EQ(platform.evaluate(ir, x), interpretRows(ir, x));
}

TEST_P(MlpShapeProperty, WideningEveryLayerNeverReducesResources)
{
    const MlpShape &shape = GetParam();
    auto build = [&](std::size_t extra) {
        ml::MlpConfig config;
        config.inputDim = shape.inputDim;
        for (std::size_t h : shape.hidden)
            config.hiddenLayers.push_back(h + extra);
        config.numClasses = shape.classes;
        ml::Mlp mlp(config);
        return hi::lowerMlp(mlp, hc::FixedPointFormat::q88(), "prop");
    };
    hb::TaurusConfig config;
    auto base = taurusMappingCost(config, build(0));
    auto wide = taurusMappingCost(config, build(8));
    EXPECT_GE(wide.cus, base.cus);
    EXPECT_GE(wide.mus, base.mus);
    EXPECT_GE(wide.fillCycles, base.fillCycles);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MlpShapeProperty,
    ::testing::Values(MlpShape{3, {4}, 2}, MlpShape{7, {16, 8}, 2},
                      MlpShape{7, {10, 10, 5}, 5},
                      MlpShape{30, {10, 10, 10, 10}, 2},
                      MlpShape{30, {6, 6, 6, 6, 6, 6, 6, 6}, 2},
                      MlpShape{5, {32}, 3}, MlpShape{12, {2, 2}, 2}));

// ---------------------------------------------------------------------
// Property: for ANY cluster count, the MAT pipeline classifies exactly
// like the reference KMeans executor and consumes exactly k tables.
// ---------------------------------------------------------------------

class KMeansMatProperty : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(KMeansMatProperty, PipelineEquivalentAndTableCountExact)
{
    std::size_t k = GetParam();
    hc::Rng rng(k * 7 + 1);
    hm::Matrix x(120, 4);
    for (double &v : x.data())
        v = rng.gaussian(0, 4.0);

    ml::KMeansConfig config;
    config.numClusters = k;
    config.seed = k;
    ml::KMeans kmeans(config);
    kmeans.fit(x);
    auto ir = hi::lowerKMeans(kmeans, hc::FixedPointFormat::q88(), "km", 4);

    auto pipeline = hb::MatPipeline::compileKMeans(ir);
    EXPECT_EQ(pipeline.numTables(), std::max<std::size_t>(k, 2));
    auto reference = interpretRows(ir, x);
    for (std::size_t i = 0; i < x.rows(); ++i)
        EXPECT_EQ(pipeline.process(x.row(i)), reference[i]);
}

INSTANTIATE_TEST_SUITE_P(ClusterCounts, KMeansMatProperty,
                         ::testing::Values(2, 3, 4, 5, 6, 8));

// ---------------------------------------------------------------------
// Property: quantization error decreases monotonically with fractional
// bits, for any reasonable weight scale.
// ---------------------------------------------------------------------

class QuantizationProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(QuantizationProperty, ErrorShrinksWithPrecision)
{
    double scale = GetParam();
    hc::Rng rng(static_cast<std::uint64_t>(scale * 1000));
    std::vector<double> weights;
    for (int i = 0; i < 500; ++i)
        weights.push_back(rng.gaussian(0, scale));

    double prev_error = 1e300;
    for (int frac : {2, 4, 6, 8, 10, 12}) {
        hc::FixedPointFormat fmt(8, frac);
        double error = fmt.meanAbsError(weights);
        EXPECT_LE(error, prev_error + 1e-12) << "frac=" << frac;
        prev_error = error;
    }
}

INSTANTIATE_TEST_SUITE_P(WeightScales, QuantizationProperty,
                         ::testing::Values(0.1, 0.5, 1.0, 2.0, 5.0));

// ---------------------------------------------------------------------
// Property: schedule resource totals are invariant under composition
// strategy and operand order — only latency changes.
// ---------------------------------------------------------------------

class SchedulePermutationProperty
    : public ::testing::TestWithParam<std::size_t>
{
  protected:
    static hcore::ModelSpec spec(const std::string &name)
    {
        hcore::ModelSpec s;
        s.name = name;
        return s;
    }
};

TEST_P(SchedulePermutationProperty, TotalsInvariantAcrossStrategies)
{
    std::size_t n = GetParam();
    std::vector<hcore::ModelSpec> specs;
    std::map<std::string, hb::ResourceReport> reports;
    hc::Rng rng(n);
    for (std::size_t i = 0; i < n; ++i) {
        specs.push_back(spec("m" + std::to_string(i)));
        hb::ResourceReport report;
        report.computeUnits = static_cast<std::size_t>(
            rng.uniformInt(1, 40));
        report.memoryUnits = static_cast<std::size_t>(
            rng.uniformInt(1, 60));
        report.latencyNs = rng.uniform(10, 100);
        report.throughputGpps = 1.0;
        reports[specs.back().name] = report;
    }

    hcore::ScheduleNode seq = hcore::leaf(specs[0]);
    hcore::ScheduleNode par = hcore::leaf(specs[0]);
    for (std::size_t i = 1; i < n; ++i) {
        seq = std::move(seq) > specs[i];
        par = std::move(par) | specs[i];
    }
    auto seq_resources = hcore::composeResources(seq, reports);
    auto par_resources = hcore::composeResources(par, reports);
    EXPECT_EQ(seq_resources.computeUnits, par_resources.computeUnits);
    EXPECT_EQ(seq_resources.memoryUnits, par_resources.memoryUnits);
    EXPECT_GE(seq_resources.latencyNs, par_resources.latencyNs);
}

INSTANTIATE_TEST_SUITE_P(ChainLengths, SchedulePermutationProperty,
                         ::testing::Values(2, 3, 4, 6, 8));

// ---------------------------------------------------------------------
// Property: SVM MAT pipelines approximate the exact model better as the
// bin count grows, across class counts.
// ---------------------------------------------------------------------

class SvmBinningProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(SvmBinningProperty, FinerBinsTrackExactModel)
{
    int classes = GetParam();
    hc::Rng rng(static_cast<std::uint64_t>(classes) * 31);
    ml::Dataset data;
    data.x = hm::Matrix(300, 3);
    data.y.resize(300);
    data.numClasses = classes;
    for (std::size_t i = 0; i < 300; ++i) {
        int label = static_cast<int>(i % static_cast<std::size_t>(classes));
        for (std::size_t f = 0; f < 3; ++f)
            data.x(i, f) = rng.gaussian(1.5 * label, 0.5);
        data.y[i] = label;
    }
    ml::LinearSvm svm(ml::SvmConfig{});
    svm.train(data);
    auto ir = hi::lowerSvm(svm, hc::FixedPointFormat::q88(), "svm", 3);
    auto exact = svm.predict(data.x);

    auto pipeline = hb::MatPipeline::compileSvm(ir, 256);
    std::vector<int> approx(data.numSamples());
    for (std::size_t i = 0; i < data.numSamples(); ++i)
        approx[i] = pipeline.process(data.x.row(i));
    EXPECT_GT(ml::accuracy(exact, approx), 0.85) << classes << " classes";
}

INSTANTIATE_TEST_SUITE_P(ClassCounts, SvmBinningProperty,
                         ::testing::Values(2, 3, 4, 5));
