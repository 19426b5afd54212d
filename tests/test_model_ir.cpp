/**
 * @file
 * Unit tests for ModelIr lowering, validation, and the reference
 * fixed-point executor.
 */
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ir/model_ir.hpp"
#include "ml/metrics.hpp"
#include "interpret_rows.hpp"

namespace hi = homunculus::ir;
namespace ml = homunculus::ml;
namespace hm = homunculus::math;
namespace hc = homunculus::common;
using homunculus::test::interpretRows;

namespace {

ml::Dataset
makeBlobs(std::size_t n, std::uint64_t seed)
{
    hc::Rng rng(seed);
    ml::Dataset data;
    data.x = hm::Matrix(n, 3);
    data.y.resize(n);
    data.numClasses = 2;
    for (std::size_t i = 0; i < n; ++i) {
        int label = static_cast<int>(i % 2);
        for (std::size_t f = 0; f < 3; ++f)
            data.x(i, f) = rng.gaussian(label == 0 ? -1.5 : 1.5, 0.5);
        data.y[i] = label;
    }
    return data;
}

}  // namespace

TEST(ModelIr, LowerMlpPreservesShapeAndParams)
{
    ml::MlpConfig config;
    config.inputDim = 3;
    config.hiddenLayers = {5};
    config.numClasses = 2;
    ml::Mlp mlp(config);
    auto data = makeBlobs(100, 1);
    mlp.train(data);

    auto ir = hi::lowerMlp(mlp, hc::FixedPointFormat::q88(), "m");
    EXPECT_EQ(ir.kind, hi::ModelKind::kMlp);
    EXPECT_EQ(ir.layers.size(), 2u);
    EXPECT_EQ(ir.paramCount(), config.paramCount());
    EXPECT_EQ(ir.hiddenLayerCount(), 1u);
    EXPECT_EQ(ir.maxLayerMacs(), 15u);
    EXPECT_NO_THROW(ir.validate());
}

TEST(ModelIr, QuantizedMlpMatchesFloatOnEasyData)
{
    ml::MlpConfig config;
    config.inputDim = 3;
    config.hiddenLayers = {8};
    config.numClasses = 2;
    config.epochs = 40;
    ml::Mlp mlp(config);
    auto data = makeBlobs(400, 2);
    mlp.train(data);

    auto ir = hi::lowerMlp(mlp, hc::FixedPointFormat::q88(), "m");
    auto quantized = interpretRows(ir, data.x);
    auto floating = mlp.predict(data.x);
    // Q8.8 quantization flips at most a small fraction of decisions on a
    // well-separated task.
    EXPECT_GT(ml::accuracy(floating, quantized), 0.97);
}

TEST(ModelIr, LowerKMeansExecutesNearestCentroid)
{
    ml::KMeansConfig config;
    config.numClusters = 3;
    ml::KMeans kmeans(config);
    auto x = hm::Matrix::fromRows(
        {{0, 0}, {0.2, 0}, {10, 10}, {10.2, 10}, {-10, 5}, {-10.2, 5}});
    kmeans.fit(x);
    auto ir = hi::lowerKMeans(kmeans, hc::FixedPointFormat::q88(), "km", 2);
    EXPECT_NO_THROW(ir.validate());
    auto assignments = interpretRows(ir, x);
    // Points in the same blob land in the same cluster.
    EXPECT_EQ(assignments[0], assignments[1]);
    EXPECT_EQ(assignments[2], assignments[3]);
    EXPECT_EQ(assignments[4], assignments[5]);
    EXPECT_NE(assignments[0], assignments[2]);
}

TEST(ModelIr, LowerSvmAgreesWithFloatModel)
{
    auto data = makeBlobs(300, 3);
    ml::LinearSvm svm(ml::SvmConfig{});
    svm.train(data);
    auto ir = hi::lowerSvm(svm, hc::FixedPointFormat::q88(), "svm", 3);
    EXPECT_NO_THROW(ir.validate());
    auto quantized = interpretRows(ir, data.x);
    auto floating = svm.predict(data.x);
    EXPECT_GT(ml::accuracy(floating, quantized), 0.95);
}

TEST(ModelIr, LowerTreeAgreesWithFloatModelExactlyOffGrid)
{
    auto data = makeBlobs(300, 4);
    ml::TreeConfig config;
    config.maxDepth = 5;
    ml::DecisionTreeClassifier tree(config);
    tree.train(data);
    auto ir =
        hi::lowerDecisionTree(tree, hc::FixedPointFormat::q88(), "dt", 3);
    EXPECT_NO_THROW(ir.validate());
    EXPECT_EQ(ir.treeDepth, tree.depth());
    EXPECT_EQ(ir.treeNodes.size(), tree.nodeCount());

    auto quantized = interpretRows(ir, data.x);
    auto floating = tree.predict(data.x);
    // Thresholds move by at most one quantization step; blob data rarely
    // sits within 1/256 of a threshold.
    EXPECT_GT(ml::accuracy(floating, quantized), 0.97);
}

TEST(ModelIr, ValidateCatchesBrokenLayerChain)
{
    hi::ModelIr ir;
    ir.kind = hi::ModelKind::kMlp;
    ir.inputDim = 3;
    ir.numClasses = 2;
    hi::QuantizedLayer layer;
    layer.inputDim = 4;  // != inputDim.
    layer.outputDim = 2;
    layer.weights.assign(8, 0);
    layer.biases.assign(2, 0);
    ir.layers.push_back(layer);
    EXPECT_THROW(ir.validate(), std::runtime_error);
}

TEST(ModelIr, ValidateCatchesBadTreeChildren)
{
    hi::ModelIr ir;
    ir.kind = hi::ModelKind::kDecisionTree;
    ir.inputDim = 2;
    ir.numClasses = 2;
    hi::IrTreeNode node;
    node.isLeaf = false;
    node.left = 5;  // out of range.
    node.right = 6;
    ir.treeNodes.push_back(node);
    EXPECT_THROW(ir.validate(), std::runtime_error);
}

TEST(ModelIr, ExecuteRejectsWidthMismatch)
{
    auto data = makeBlobs(50, 5);
    ml::LinearSvm svm(ml::SvmConfig{});
    svm.train(data);
    auto ir = hi::lowerSvm(svm, hc::FixedPointFormat::q88(), "svm", 3);
    EXPECT_THROW(hi::executeIr(ir, {1.0, 2.0}), std::runtime_error);
}

TEST(ModelIr, KindNamesAreStable)
{
    EXPECT_EQ(hi::modelKindName(hi::ModelKind::kMlp), "dnn");
    EXPECT_EQ(hi::modelKindName(hi::ModelKind::kKMeans), "kmeans");
    EXPECT_EQ(hi::modelKindName(hi::ModelKind::kSvm), "svm");
    EXPECT_EQ(hi::modelKindName(hi::ModelKind::kDecisionTree),
              "decision_tree");
}
