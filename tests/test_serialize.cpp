/**
 * @file
 * Round-trip and error tests for the ModelIr artifact format, including
 * the end-to-end property that a deserialized artifact classifies
 * identically to the original on every backend.
 */
#include <gtest/gtest.h>

#include "backends/mat_platform.hpp"
#include "backends/taurus.hpp"
#include "common/rng.hpp"
#include "ir/exec_plan.hpp"
#include "ir/serialize.hpp"
#include "ml/kmeans.hpp"
#include "ml/svm.hpp"

namespace hi = homunculus::ir;
namespace ml = homunculus::ml;
namespace hm = homunculus::math;
namespace hc = homunculus::common;
namespace hb = homunculus::backends;

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
            data.x(i, f) = rng.gaussian(2.0 * label, 0.5);
        data.y[i] = label;
    }
    return data;
}

hi::ModelIr
mlpIr(std::uint64_t seed = 1)
{
    ml::MlpConfig config;
    config.inputDim = 3;
    config.hiddenLayers = {6, 4};
    config.numClasses = 3;
    config.seed = seed;
    ml::Mlp mlp(config);
    mlp.train(makeBlobs(150, 3, seed));
    return hi::lowerMlp(mlp, hc::FixedPointFormat::q88(), "roundtrip");
}

}  // namespace

TEST(Serialize, MlpRoundTripIsExact)
{
    auto original = mlpIr();
    auto restored = hi::deserializeModel(hi::serializeModel(original));
    EXPECT_EQ(restored.kind, original.kind);
    EXPECT_EQ(restored.name, original.name);
    EXPECT_EQ(restored.inputDim, original.inputDim);
    EXPECT_EQ(restored.numClasses, original.numClasses);
    EXPECT_EQ(restored.activation, original.activation);
    ASSERT_EQ(restored.layers.size(), original.layers.size());
    for (std::size_t l = 0; l < original.layers.size(); ++l) {
        EXPECT_EQ(restored.layers[l].weights, original.layers[l].weights);
        EXPECT_EQ(restored.layers[l].biases, original.layers[l].biases);
    }
}

TEST(Serialize, RestoredMlpClassifiesIdentically)
{
    auto original = mlpIr(2);
    auto restored = hi::deserializeModel(hi::serializeModel(original));
    auto data = makeBlobs(100, 3, 9);
    EXPECT_EQ(hi::ExecutablePlan::compile(restored).run(data.x),
              hi::ExecutablePlan::compile(original).run(data.x));

    // Same verdicts through the Taurus simulator too.
    hb::TaurusPlatform taurus;
    EXPECT_EQ(taurus.evaluate(restored, data.x),
              taurus.evaluate(original, data.x));
}

TEST(Serialize, KMeansRoundTripThroughMatPipeline)
{
    auto data = makeBlobs(120, 3, 4);
    ml::KMeansConfig config;
    config.numClusters = 3;
    ml::KMeans kmeans(config);
    kmeans.fit(data.x);
    auto original =
        hi::lowerKMeans(kmeans, hc::FixedPointFormat::q88(), "km", 3);
    auto restored = hi::deserializeModel(hi::serializeModel(original));

    hb::MatPlatform mat;
    EXPECT_EQ(mat.evaluate(restored, data.x),
              mat.evaluate(original, data.x));
    EXPECT_EQ(mat.estimate(restored).matTables,
              mat.estimate(original).matTables);
}

TEST(Serialize, SvmRoundTrip)
{
    auto data = makeBlobs(150, 2, 5);
    ml::LinearSvm svm(ml::SvmConfig{});
    svm.train(data);
    auto original = hi::lowerSvm(svm, hc::FixedPointFormat::q88(), "svm", 3);
    auto restored = hi::deserializeModel(hi::serializeModel(original));
    EXPECT_EQ(restored.svmWeights, original.svmWeights);
    EXPECT_EQ(restored.svmBiases, original.svmBiases);
}

TEST(Serialize, TreeRoundTrip)
{
    auto data = makeBlobs(200, 2, 6);
    ml::TreeConfig config;
    config.maxDepth = 4;
    ml::DecisionTreeClassifier tree(config);
    tree.train(data);
    auto original =
        hi::lowerDecisionTree(tree, hc::FixedPointFormat::q88(), "dt", 3);
    auto restored = hi::deserializeModel(hi::serializeModel(original));
    ASSERT_EQ(restored.treeNodes.size(), original.treeNodes.size());
    EXPECT_EQ(restored.treeDepth, original.treeDepth);
    EXPECT_EQ(hi::ExecutablePlan::compile(restored).run(data.x),
              hi::ExecutablePlan::compile(original).run(data.x));
}

TEST(Serialize, NonDefaultFormatSurvives)
{
    ml::MlpConfig config;
    config.inputDim = 3;
    config.hiddenLayers = {4};
    config.numClasses = 2;
    ml::Mlp mlp(config);
    auto original = hi::lowerMlp(mlp, hc::FixedPointFormat(6, 10), "q610");
    auto restored = hi::deserializeModel(hi::serializeModel(original));
    EXPECT_EQ(restored.format.integerBits(), 6);
    EXPECT_EQ(restored.format.fracBits(), 10);
}

TEST(Serialize, FileSaveLoadRoundTrip)
{
    auto original = mlpIr(7);
    std::string path = ::testing::TempDir() + "hom_ir_artifact.txt";
    hi::saveModel(path, original);
    auto restored = hi::loadModel(path);
    EXPECT_EQ(restored.paramCount(), original.paramCount());
    auto data = makeBlobs(50, 3, 11);
    EXPECT_EQ(hi::ExecutablePlan::compile(restored).run(data.x),
              hi::ExecutablePlan::compile(original).run(data.x));
}

TEST(Serialize, RejectsBadHeaderAndTruncation)
{
    EXPECT_THROW(hi::deserializeModel("not-an-artifact v1\nend\n"),
                 std::runtime_error);
    auto text = hi::serializeModel(mlpIr(8));
    // Remove the trailing "end\n".
    text.resize(text.size() - 4);
    EXPECT_THROW(hi::deserializeModel(text), std::runtime_error);
}

TEST(Serialize, RejectsUnknownTagsAndInvalidModels)
{
    EXPECT_THROW(
        hi::deserializeModel("homunculus-ir v1\nbogus_tag 1\nend\n"),
        std::runtime_error);
    // Structurally broken model: MLP with no layers fails validate().
    EXPECT_THROW(hi::deserializeModel("homunculus-ir v1\nkind dnn\n"
                                      "input_dim 3\nnum_classes 2\nend\n"),
                 std::runtime_error);
    EXPECT_THROW(hi::loadModel("/nonexistent/path/model.txt"),
                 std::runtime_error);
}

// ------------------------------------------- scaler provenance (ir v3)

TEST(Serialize, ScalerMomentsRoundTripExactly)
{
    auto original = mlpIr(13);
    original.scalerMeans = {1.5, -0.25, 3.141592653589793};
    original.scalerStds = {0.5, 2.0, 1e-6};
    original.validate();

    std::string text = hi::serializeModel(original);
    EXPECT_NE(text.find("homunculus-ir v3"), std::string::npos);
    EXPECT_NE(text.find("scaler_means"), std::string::npos);
    EXPECT_NE(text.find("scaler_stds"), std::string::npos);

    auto restored = hi::deserializeModel(text);
    ASSERT_TRUE(restored.hasScaler());
    // %.17g serialization must round-trip every double bit-for-bit.
    EXPECT_EQ(restored.scalerMeans, original.scalerMeans);
    EXPECT_EQ(restored.scalerStds, original.scalerStds);
}

TEST(Serialize, ModelsWithoutScalerOmitTheLinesAndLegacyVersionsParse)
{
    auto original = mlpIr(17);
    ASSERT_FALSE(original.hasScaler());
    std::string text = hi::serializeModel(original);
    EXPECT_EQ(text.find("scaler_"), std::string::npos);

    // v1 and v2 artifacts (no scaler lines) still parse: rewrite the
    // header of a fresh serialization to the older versions.
    for (const char *version : {"v1", "v2"}) {
        std::string legacy = text;
        legacy.replace(legacy.find("v3"), 2, version);
        auto restored = hi::deserializeModel(legacy);
        EXPECT_FALSE(restored.hasScaler());
        EXPECT_EQ(restored.paramCount(), original.paramCount());
    }
}

TEST(Serialize, RawFeatureProvenanceRoundTripsAsScalerNone)
{
    // "Trained on raw features" is provenance too: recorded models
    // without moments serialize a scaler_none marker, so serving can
    // tell them apart from legacy artifacts (which may refit on the
    // trace) — and never invents a scaler for them.
    auto original = mlpIr(23);
    original.scalerRecorded = true;
    ASSERT_FALSE(original.hasScaler());

    std::string text = hi::serializeModel(original);
    EXPECT_NE(text.find("scaler_none"), std::string::npos);
    auto restored = hi::deserializeModel(text);
    EXPECT_TRUE(restored.scalerRecorded);
    EXPECT_FALSE(restored.hasScaler());

    // Legacy artifacts keep unknown provenance.
    auto legacy = hi::deserializeModel(hi::serializeModel(mlpIr(23)));
    EXPECT_FALSE(legacy.scalerRecorded);
}

TEST(Serialize, RejectsInconsistentScalerMoments)
{
    auto model = mlpIr(19);
    model.scalerMeans = {1.0, 2.0};  // width 2 != inputDim 3.
    model.scalerStds = {1.0, 1.0};
    EXPECT_THROW(hi::serializeModel(model), std::runtime_error);

    model.scalerMeans = {1.0, 2.0, 3.0};
    model.scalerStds = {1.0, 0.0, 1.0};  // zero std.
    EXPECT_THROW(hi::serializeModel(model), std::runtime_error);

    model.scalerStds = {1.0, 1.0, 1.0};
    EXPECT_NO_THROW(hi::serializeModel(model));
}
