/**
 * @file
 * Unit tests for the MAT pipeline interpreter and MAT platform.
 */
#include <gtest/gtest.h>

#include "backends/mat_platform.hpp"
#include "common/rng.hpp"
#include "ml/metrics.hpp"
#include "interpret_rows.hpp"

namespace hb = homunculus::backends;
namespace hi = homunculus::ir;
namespace ml = homunculus::ml;
namespace hm = homunculus::math;
namespace hc = homunculus::common;
using homunculus::test::interpretRows;

namespace {

ml::Dataset
makeBlobs(std::size_t n, int classes, std::uint64_t seed)
{
    hc::Rng rng(seed);
    ml::Dataset data;
    data.x = hm::Matrix(n, 3);
    data.y.resize(n);
    data.numClasses = classes;
    for (std::size_t i = 0; i < n; ++i) {
        int label = static_cast<int>(i % static_cast<std::size_t>(classes));
        for (std::size_t f = 0; f < 3; ++f)
            data.x(i, f) =
                rng.gaussian(3.0 * label * (f == 0 ? 1.0 : -0.5), 0.4);
        data.y[i] = label;
    }
    return data;
}

hi::ModelIr
fitKMeansIr(const hm::Matrix &x, std::size_t k)
{
    ml::KMeansConfig config;
    config.numClusters = k;
    ml::KMeans kmeans(config);
    kmeans.fit(x);
    return hi::lowerKMeans(kmeans, hc::FixedPointFormat::q88(), "km",
                           x.cols());
}

}  // namespace

TEST(MatPipeline, KMeansUsesOneTablePerCluster)
{
    auto data = makeBlobs(120, 3, 1);
    auto ir = fitKMeansIr(data.x, 4);
    auto pipeline = hb::MatPipeline::compileKMeans(ir);
    EXPECT_EQ(pipeline.numTables(), 4u);
}

TEST(MatPipeline, KMeansAgreesWithReferenceExecutor)
{
    auto data = makeBlobs(150, 3, 2);
    auto ir = fitKMeansIr(data.x, 3);
    auto pipeline = hb::MatPipeline::compileKMeans(ir);
    auto reference = interpretRows(ir, data.x);
    for (std::size_t i = 0; i < data.numSamples(); ++i)
        EXPECT_EQ(pipeline.process(data.x.row(i)), reference[i]);
}

TEST(MatPipeline, SvmUsesOneTablePerFeature)
{
    auto data = makeBlobs(150, 2, 3);
    ml::LinearSvm svm(ml::SvmConfig{});
    svm.train(data);
    auto ir = hi::lowerSvm(svm, hc::FixedPointFormat::q88(), "svm", 3);
    auto pipeline = hb::MatPipeline::compileSvm(ir, 64);
    EXPECT_EQ(pipeline.numTables(), 3u);
    EXPECT_EQ(pipeline.totalEntries(), 3u * 64u);
}

TEST(MatPipeline, SvmRangeBinningApproximatesModel)
{
    auto data = makeBlobs(400, 2, 4);
    ml::LinearSvm svm(ml::SvmConfig{});
    svm.train(data);
    auto ir = hi::lowerSvm(svm, hc::FixedPointFormat::q88(), "svm", 3);
    auto pipeline = hb::MatPipeline::compileSvm(ir, 128);
    std::vector<int> table_pred(data.numSamples());
    for (std::size_t i = 0; i < data.numSamples(); ++i)
        table_pred[i] = pipeline.process(data.x.row(i));
    auto exact = svm.predict(data.x);
    // Binning the feature domain into 128 ranges costs little accuracy.
    EXPECT_GT(ml::accuracy(exact, table_pred), 0.9);
}

TEST(MatPipeline, SvmCoarserBinsAreWorseOrEqual)
{
    auto data = makeBlobs(400, 2, 5);
    ml::LinearSvm svm(ml::SvmConfig{});
    svm.train(data);
    auto ir = hi::lowerSvm(svm, hc::FixedPointFormat::q88(), "svm", 3);
    auto exact = svm.predict(data.x);

    auto accuracy_with_bins = [&](std::size_t bins) {
        auto pipeline = hb::MatPipeline::compileSvm(ir, bins);
        std::vector<int> pred(data.numSamples());
        for (std::size_t i = 0; i < data.numSamples(); ++i)
            pred[i] = pipeline.process(data.x.row(i));
        return ml::accuracy(exact, pred);
    };
    EXPECT_GE(accuracy_with_bins(256) + 0.02, accuracy_with_bins(4));
}

TEST(MatPipeline, TreeUsesOneTablePerLevel)
{
    auto data = makeBlobs(300, 2, 6);
    ml::TreeConfig config;
    config.maxDepth = 4;
    ml::DecisionTreeClassifier tree(config);
    tree.train(data);
    auto ir =
        hi::lowerDecisionTree(tree, hc::FixedPointFormat::q88(), "dt", 3);
    auto pipeline = hb::MatPipeline::compileTree(ir);
    EXPECT_EQ(pipeline.numTables(), tree.depth() + 1);
}

TEST(MatPipeline, TreeWalkMatchesReferenceExecutor)
{
    auto data = makeBlobs(300, 3, 7);
    ml::TreeConfig config;
    config.maxDepth = 5;
    ml::DecisionTreeClassifier tree(config);
    tree.train(data);
    auto ir =
        hi::lowerDecisionTree(tree, hc::FixedPointFormat::q88(), "dt", 3);
    auto pipeline = hb::MatPipeline::compileTree(ir);
    auto reference = interpretRows(ir, data.x);
    for (std::size_t i = 0; i < data.numSamples(); ++i)
        EXPECT_EQ(pipeline.process(data.x.row(i)), reference[i])
            << "row " << i;
}

// ----------------------------------- bucketized binary-search entry walk

TEST(MatPipeline, IndexedWalkMatchesLinearReferenceDifferentially)
{
    // The bucketized binary-search index (process / processBatch) must
    // reproduce the linear first-match reference walk (processLinear)
    // bit-for-bit on every family, including out-of-range keys that
    // saturate into the outermost SVM bins.
    hc::Rng rng(77);
    auto random_rows = [&](std::size_t n, std::size_t d) {
        hm::Matrix x(n, d);
        for (double &v : x.data())
            v = rng.uniform(-140.0, 140.0);
        return x;
    };

    auto data = makeBlobs(300, 3, 11);
    ml::LinearSvm svm(ml::SvmConfig{});
    svm.train(data);
    auto svm_ir = hi::lowerSvm(svm, hc::FixedPointFormat::q88(), "svm", 3);
    ml::TreeConfig tree_config;
    tree_config.maxDepth = 6;
    ml::DecisionTreeClassifier tree(tree_config);
    tree.train(data);
    auto tree_ir =
        hi::lowerDecisionTree(tree, hc::FixedPointFormat::q88(), "dt", 3);

    std::vector<hb::MatPipeline> pipelines;
    pipelines.push_back(hb::MatPipeline::compileSvm(svm_ir, 64));
    pipelines.push_back(hb::MatPipeline::compileSvm(svm_ir, 7));
    pipelines.push_back(hb::MatPipeline::compileTree(tree_ir));
    pipelines.push_back(
        hb::MatPipeline::compileKMeans(fitKMeansIr(data.x, 5)));

    for (const auto &pipeline : pipelines) {
        auto x = random_rows(500, 3);
        auto batch = pipeline.processBatch(x);
        for (std::size_t i = 0; i < x.rows(); ++i) {
            int linear = pipeline.processLinear(x.row(i));
            EXPECT_EQ(pipeline.process(x.row(i)), linear) << "row " << i;
            EXPECT_EQ(batch[i], linear) << "row " << i;
        }
    }
}

TEST(MatPipeline, CompiledTablesCarryAVerifiedLookupIndex)
{
    auto data = makeBlobs(200, 2, 12);
    ml::LinearSvm svm(ml::SvmConfig{});
    svm.train(data);
    auto ir = hi::lowerSvm(svm, hc::FixedPointFormat::q88(), "svm", 3);
    auto pipeline = hb::MatPipeline::compileSvm(ir, 32);
    for (const auto &table : pipeline.tables()) {
        // SVM bins install in ascending order, so the range index
        // verifies; they are ranges, so the exact-group index must not.
        EXPECT_TRUE(table.rangeIndexed) << table.name;
        EXPECT_FALSE(table.groupIndexed) << table.name;
        ASSERT_EQ(table.orderedHi.size(), table.entries.size());
        for (std::size_t i = 0; i < table.entries.size(); ++i)
            EXPECT_EQ(table.orderedHi[i], table.entries[i].hi);
    }

    ml::TreeConfig tree_config;
    tree_config.maxDepth = 4;
    ml::DecisionTreeClassifier tree(tree_config);
    tree.train(data);
    auto tree_ir =
        hi::lowerDecisionTree(tree, hc::FixedPointFormat::q88(), "dt", 3);
    auto tree_pipeline = hb::MatPipeline::compileTree(tree_ir);
    for (const auto &table : tree_pipeline.tables()) {
        // Tree entries are exact state matches: the group index
        // verifies, sorted ascending, permutation mapping back.
        EXPECT_TRUE(table.groupIndexed) << table.name;
        ASSERT_EQ(table.sortedLo.size(), table.entries.size());
        for (std::size_t i = 1; i < table.sortedLo.size(); ++i)
            EXPECT_LE(table.sortedLo[i - 1], table.sortedLo[i]);
        for (std::size_t i = 0; i < table.sortedLo.size(); ++i)
            EXPECT_EQ(table.sortedLo[i],
                      table.entries[table.sortedOrder[i]].lo);
    }
}

TEST(MatPlatform, DnnIsUnsupportedAndExplained)
{
    hb::MatPlatform platform;
    EXPECT_EQ(platform.supports(hi::ModelKind::kMlp),
              hb::AlgorithmSupport::kUnsupported);

    ml::MlpConfig config;
    config.inputDim = 4;
    config.hiddenLayers = {8};
    config.numClasses = 2;
    ml::Mlp mlp(config);
    auto ir = hi::lowerMlp(mlp, hc::FixedPointFormat::q88(), "dnn");
    auto report = platform.estimate(ir);
    EXPECT_FALSE(report.feasible);
    EXPECT_NE(report.infeasibleReason.find("DNN"), std::string::npos);
}

TEST(MatPlatform, TableBudgetGatesKMeans)
{
    auto data = makeBlobs(150, 3, 8);
    auto ir = fitKMeansIr(data.x, 6);

    hb::MatConfig small;
    small.numTables = 4;
    hb::MatPlatform tight(small);
    EXPECT_FALSE(tight.estimate(ir).feasible);

    hb::MatConfig large;
    large.numTables = 8;
    hb::MatPlatform roomy(large);
    EXPECT_TRUE(roomy.estimate(ir).feasible);
}

TEST(MatPlatform, LatencyScalesWithTables)
{
    auto data = makeBlobs(150, 3, 9);
    hb::MatPlatform platform;
    auto two = platform.estimate(fitKMeansIr(data.x, 2));
    auto five = platform.estimate(fitKMeansIr(data.x, 5));
    EXPECT_GT(five.latencyNs, two.latencyNs);
    EXPECT_DOUBLE_EQ(two.throughputGpps, five.throughputGpps);
}

TEST(MatPlatform, EvaluateMatchesPipelineProcess)
{
    auto data = makeBlobs(60, 2, 10);
    auto ir = fitKMeansIr(data.x, 3);
    hb::MatPlatform platform;
    auto labels = platform.evaluate(ir, data.x);
    auto pipeline = platform.compile(ir);
    for (std::size_t i = 0; i < data.numSamples(); ++i)
        EXPECT_EQ(labels[i], pipeline.process(data.x.row(i)));
}
