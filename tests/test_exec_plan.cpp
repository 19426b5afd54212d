/**
 * @file
 * Differential tests pinning ir::ExecutablePlan to the scalar reference
 * interpreter (ir::executeIr), plus the semantics-preservation contract
 * of the IR pass pipeline (prune-dead / fold-constants invariance).
 *
 * These tests are the compile-then-execute architecture's safety net:
 * every family must predict bit-identically under the plan, the batch
 * shim, every plan-backed platform simulator, and the MAT batch walk —
 * and the optimization passes must never change a prediction.
 */
#include <gtest/gtest.h>

#include <functional>

#include "backends/fpga.hpp"
#include "backends/mat_pipeline.hpp"
#include "backends/mat_platform.hpp"
#include "backends/mapreduce_sim.hpp"
#include "backends/taurus.hpp"
#include "common/rng.hpp"
#include "ir/exec_plan.hpp"
#include "ir/passes.hpp"
#include "ir/serialize.hpp"
#include "interpret_rows.hpp"

namespace hb = homunculus::backends;
namespace hc = homunculus::common;
namespace hi = homunculus::ir;
namespace hm = homunculus::math;
namespace ml = homunculus::ml;
using homunculus::test::interpretRows;

namespace {

/** Random feature matrix spanning the Q8.8 range (with saturation). */
hm::Matrix
randomFeatures(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    hc::Rng rng(seed);
    hm::Matrix x(rows, cols);
    for (double &v : x.data())
        v = rng.uniform(-140.0, 140.0);  // exercises saturated quantization.
    return x;
}

std::int32_t
randomWord(hc::Rng &rng)
{
    return static_cast<std::int32_t>(rng.uniformInt(-32768, 32767));
}

/** Random quantized MLP IR (weights drawn directly in the raw domain). */
hi::ModelIr
randomMlpIr(std::size_t input_dim, std::vector<std::size_t> widths,
            int classes, ml::Activation activation, std::uint64_t seed)
{
    hc::Rng rng(seed);
    hi::ModelIr model;
    model.kind = hi::ModelKind::kMlp;
    model.inputDim = input_dim;
    model.numClasses = classes;
    model.activation = activation;
    widths.push_back(static_cast<std::size_t>(classes));
    std::size_t prev = input_dim;
    for (std::size_t width : widths) {
        hi::QuantizedLayer layer;
        layer.inputDim = prev;
        layer.outputDim = width;
        layer.weights.resize(prev * width);
        layer.biases.resize(width);
        for (auto &w : layer.weights)
            w = randomWord(rng);
        for (auto &b : layer.biases)
            b = randomWord(rng);
        model.layers.push_back(std::move(layer));
        prev = width;
    }
    model.validate();
    return model;
}

hi::ModelIr
randomKMeansIr(std::size_t input_dim, std::size_t k, std::uint64_t seed)
{
    hc::Rng rng(seed);
    hi::ModelIr model;
    model.kind = hi::ModelKind::kKMeans;
    model.inputDim = input_dim;
    model.numClasses = static_cast<int>(k);
    for (std::size_t c = 0; c < k; ++c) {
        std::vector<std::int32_t> centroid(input_dim);
        for (auto &v : centroid)
            v = randomWord(rng);
        model.centroids.push_back(std::move(centroid));
    }
    model.validate();
    return model;
}

hi::ModelIr
randomSvmIr(std::size_t input_dim, int classes, std::uint64_t seed)
{
    hc::Rng rng(seed);
    hi::ModelIr model;
    model.kind = hi::ModelKind::kSvm;
    model.inputDim = input_dim;
    model.numClasses = classes;
    for (int c = 0; c < classes; ++c) {
        std::vector<std::int32_t> weights(input_dim);
        for (auto &v : weights)
            v = randomWord(rng);
        model.svmWeights.push_back(std::move(weights));
        model.svmBiases.push_back(randomWord(rng));
    }
    model.validate();
    return model;
}

/** Random complete binary tree of the given depth. */
hi::ModelIr
randomTreeIr(std::size_t input_dim, std::size_t depth, int classes,
             std::uint64_t seed)
{
    hc::Rng rng(seed);
    hi::ModelIr model;
    model.kind = hi::ModelKind::kDecisionTree;
    model.inputDim = input_dim;
    model.numClasses = classes;
    model.treeDepth = depth;

    std::function<int(std::size_t)> build = [&](std::size_t level) -> int {
        int index = static_cast<int>(model.treeNodes.size());
        model.treeNodes.emplace_back();
        if (level == depth) {
            model.treeNodes[static_cast<std::size_t>(index)].classLabel =
                static_cast<int>(rng.uniformInt(0, classes - 1));
            return index;
        }
        auto &fill = model.treeNodes[static_cast<std::size_t>(index)];
        fill.isLeaf = false;
        fill.feature = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(input_dim) - 1));
        fill.threshold = randomWord(rng);
        int left = build(level + 1);
        int right = build(level + 1);
        model.treeNodes[static_cast<std::size_t>(index)].left = left;
        model.treeNodes[static_cast<std::size_t>(index)].right = right;
        return index;
    };
    build(0);
    model.validate();
    return model;
}

std::vector<hi::ModelIr>
allFamilies(std::uint64_t seed)
{
    return {
        randomMlpIr(6, {16, 8}, 3, ml::Activation::kRelu, seed),
        randomMlpIr(5, {12}, 4, ml::Activation::kTanh, seed + 1),
        randomMlpIr(4, {8}, 2, ml::Activation::kSigmoid, seed + 2),
        randomKMeansIr(7, 5, seed + 3),
        randomSvmIr(6, 4, seed + 4),
        randomTreeIr(5, 4, 3, seed + 5),
    };
}

}  // namespace

TEST(ExecPlan, BitIdenticalToInterpreterAcrossFamilies)
{
    for (std::uint64_t seed : {11ull, 29ull, 47ull}) {
        for (const hi::ModelIr &model : allFamilies(seed)) {
            auto x = randomFeatures(257, model.inputDim, seed * 7 + 1);
            auto plan = hi::ExecutablePlan::compile(model);
            EXPECT_EQ(plan.run(x), interpretRows(model, x))
                << "family " << hi::modelKindName(model.kind) << " seed "
                << seed;
        }
    }
}

TEST(ExecPlan, RunRowMatchesInterpreterPerRow)
{
    for (const hi::ModelIr &model : allFamilies(83)) {
        auto x = randomFeatures(32, model.inputDim, 5);
        auto plan = hi::ExecutablePlan::compile(model);
        for (std::size_t r = 0; r < x.rows(); ++r) {
            auto row = x.row(r);
            EXPECT_EQ(plan.runRow(row.data(), row.size()),
                      hi::executeIr(model, row));
        }
    }
}

TEST(ExecPlan, EmptyBatchAndWidthMismatch)
{
    auto model = randomSvmIr(4, 3, 7);
    auto plan = hi::ExecutablePlan::compile(model);
    EXPECT_TRUE(plan.run(hm::Matrix()).empty());
    auto bad = randomFeatures(3, 5, 1);
    EXPECT_THROW(plan.run(bad), std::runtime_error);
    std::vector<double> row(5, 0.0);
    EXPECT_THROW(plan.runRow(row.data(), row.size()), std::runtime_error);
}

TEST(ExecPlan, PlanBackedPlatformsMatchInterpreter)
{
    hb::TaurusPlatform taurus;
    hb::FpgaPlatform fpga;
    hb::MapReduceSimulator sim;
    for (const hi::ModelIr &model : allFamilies(211)) {
        auto x = randomFeatures(128, model.inputDim, 13);
        auto reference = interpretRows(model, x);
        EXPECT_EQ(taurus.evaluate(model, x), reference);
        EXPECT_EQ(fpga.evaluate(model, x), reference);
        EXPECT_EQ(sim.runStream(model, x).labels, reference);
    }
}

TEST(ExecPlan, MatBatchWalkMatchesPerRowProcess)
{
    hb::MatPlatform mat;
    std::vector<hi::ModelIr> models = {
        randomKMeansIr(5, 4, 31),
        randomSvmIr(5, 3, 37),
        randomTreeIr(4, 3, 3, 41),
    };
    for (const hi::ModelIr &model : models) {
        auto x = randomFeatures(100, model.inputDim, 17);
        hb::MatPipeline pipeline = [&] {
            switch (model.kind) {
              case hi::ModelKind::kKMeans:
                return hb::MatPipeline::compileKMeans(model);
              case hi::ModelKind::kSvm:
                return hb::MatPipeline::compileSvm(model, 16);
              default:
                return hb::MatPipeline::compileTree(model);
            }
        }();
        std::vector<int> per_row(x.rows());
        for (std::size_t r = 0; r < x.rows(); ++r)
            per_row[r] = pipeline.process(x.row(r));
        EXPECT_EQ(pipeline.processBatch(x), per_row);
        EXPECT_EQ(mat.evaluate(model, x), per_row);
    }
}

TEST(Passes, LoweringRecordsQuantizeAndValidate)
{
    hc::Rng rng(3);
    ml::Dataset data;
    data.x = hm::Matrix(60, 3);
    data.y.resize(60);
    data.numClasses = 2;
    for (std::size_t i = 0; i < 60; ++i) {
        data.y[i] = static_cast<int>(i % 2);
        for (std::size_t f = 0; f < 3; ++f)
            data.x(i, f) = rng.gaussian(data.y[i] ? 1.5 : -1.5, 0.5);
    }
    ml::MlpConfig config;
    config.inputDim = 3;
    config.hiddenLayers = {4};
    config.numClasses = 2;
    ml::Mlp mlp(config);
    mlp.train(data);

    auto model = hi::lowerMlp(mlp, hc::FixedPointFormat::q88(), "m");
    ASSERT_EQ(model.passes.size(), 2u);
    EXPECT_EQ(model.passes[0], "quantize");
    EXPECT_EQ(model.passes[1], "validate");
}

TEST(Passes, UnknownPassNameIsRegistryAware)
{
    hi::PassManager manager;
    try {
        manager.append("no-such-pass");
        FAIL() << "expected append to throw";
    } catch (const std::runtime_error &error) {
        EXPECT_NE(std::string(error.what()).find("fold-constants"),
                  std::string::npos);
        EXPECT_NE(std::string(error.what()).find("prune-dead"),
                  std::string::npos);
    }
}

TEST(Passes, FindPassResolvesTheFourBuiltinsOnly)
{
    EXPECT_EQ(hi::passNames(),
              (std::vector<std::string>{"fold-constants", "prune-dead",
                                        "quantize", "validate"}));
    for (const std::string &name : hi::passNames()) {
        const hi::PassInfo *pass = hi::findPass(name);
        ASSERT_NE(pass, nullptr) << name;
        EXPECT_EQ(pass->name, name);
        EXPECT_FALSE(pass->description.empty()) << name;
        EXPECT_TRUE(static_cast<bool>(pass->run)) << name;
    }
    EXPECT_EQ(hi::findPass("no-such-pass"), nullptr);
    EXPECT_EQ(hi::findPass(""), nullptr);
}

TEST(Passes, PruneDeadDropsUnreachableTreeNodesInvariantly)
{
    auto model = randomTreeIr(5, 4, 3, 53);
    // Orphan a subtree: point an internal node's children at one leaf.
    for (auto &node : model.treeNodes) {
        if (!node.isLeaf &&
            !model.treeNodes[static_cast<std::size_t>(node.left)].isLeaf) {
            node.right = node.left;
            break;
        }
    }
    auto x = randomFeatures(200, model.inputDim, 19);
    auto before = interpretRows(model, x);
    std::size_t nodes_before = model.treeNodes.size();

    hi::PassManager::optimizationPipeline().run(model);
    EXPECT_LT(model.treeNodes.size(), nodes_before);
    EXPECT_EQ(interpretRows(model, x), before);
    EXPECT_EQ(hi::ExecutablePlan::compile(model).run(x), before);
}

TEST(Passes, PruneDeadDropsDeadMlpUnitsInvariantly)
{
    auto model = randomMlpIr(5, {10, 6}, 3, ml::Activation::kRelu, 59);
    // Kill hidden unit 2 of layer 0 on the output side and unit 4 on the
    // input side (zero incoming weights + zero bias).
    auto &layer0 = model.layers[0];
    auto &layer1 = model.layers[1];
    for (std::size_t k = 0; k < layer1.outputDim; ++k)
        layer1.weights[2 * layer1.outputDim + k] = 0;
    for (std::size_t i = 0; i < layer0.inputDim; ++i)
        layer0.weights[i * layer0.outputDim + 4] = 0;
    layer0.biases[4] = 0;

    auto x = randomFeatures(200, model.inputDim, 23);
    auto before = interpretRows(model, x);
    std::size_t params_before = model.paramCount();

    hi::PassManager::optimizationPipeline().run(model);
    EXPECT_LT(model.paramCount(), params_before);
    EXPECT_EQ(model.layers[0].outputDim, 8u);
    EXPECT_EQ(interpretRows(model, x), before);
    EXPECT_EQ(hi::ExecutablePlan::compile(model).run(x), before);
}

TEST(Passes, RegisteredQuantizeIsIdentityOnLoweredArtifacts)
{
    for (hi::ModelIr model : allFamilies(97)) {
        auto x = randomFeatures(100, model.inputDim, 7);
        auto before = interpretRows(model, x);
        hi::PassManager manager;
        EXPECT_FALSE(manager.append("quantize").run(model));
        EXPECT_EQ(interpretRows(model, x), before);
    }

    // A hand-patched out-of-range word is forced back onto the format.
    auto rogue = randomSvmIr(4, 3, 97);
    rogue.svmWeights[0][0] = 1 << 20;
    hi::PassManager manager;
    EXPECT_TRUE(manager.append("quantize").run(rogue));
    EXPECT_EQ(rogue.svmWeights[0][0], 32767);
}

TEST(Passes, FoldConstantsCollapsesSameLabelSplits)
{
    // A split whose leaves agree is a constant; folding plus pruning
    // leaves a smaller tree with identical predictions.
    hi::ModelIr model;
    model.kind = hi::ModelKind::kDecisionTree;
    model.inputDim = 2;
    model.numClasses = 2;
    model.treeDepth = 2;
    auto internal = [](std::size_t f, std::int32_t thr, int l, int r) {
        hi::IrTreeNode node;
        node.isLeaf = false;
        node.feature = f;
        node.threshold = thr;
        node.left = l;
        node.right = r;
        return node;
    };
    auto leafNode = [](int label) {
        hi::IrTreeNode node;
        node.classLabel = label;
        return node;
    };
    model.treeNodes = {
        internal(0, 100, 1, 2),   // root
        internal(1, -50, 3, 4),   // folds: both children are label 1.
        leafNode(0),
        leafNode(1),
        leafNode(1),
    };
    model.validate();

    auto x = randomFeatures(200, model.inputDim, 29);
    auto before = interpretRows(model, x);

    bool changed = hi::PassManager::optimizationPipeline().run(model);
    EXPECT_TRUE(changed);
    EXPECT_EQ(model.treeNodes.size(), 3u);
    EXPECT_EQ(model.treeDepth, 1u);
    EXPECT_EQ(interpretRows(model, x), before);
}

TEST(Passes, OptimizationPipelineInvariantOnRandomModels)
{
    for (std::uint64_t seed : {61ull, 67ull}) {
        for (hi::ModelIr model : allFamilies(seed)) {
            auto x = randomFeatures(150, model.inputDim, seed + 2);
            auto before = interpretRows(model, x);
            hi::PassManager::optimizationPipeline().run(model);
            EXPECT_NO_THROW(model.validate());
            EXPECT_EQ(interpretRows(model, x), before)
                << "family " << hi::modelKindName(model.kind);
            EXPECT_EQ(hi::ExecutablePlan::compile(model).run(x), before);
        }
    }
}

TEST(Passes, DumpHookFiresPerPass)
{
    auto model = randomTreeIr(4, 3, 2, 71);
    hi::PassManager manager = hi::PassManager::optimizationPipeline();
    std::vector<std::string> seen;
    manager.setDumpHook(
        [&](const std::string &name, const hi::ModelIr &dumped) {
            EXPECT_NO_THROW(dumped.validate());
            seen.push_back(name);
        });
    manager.run(model);
    EXPECT_EQ(seen, manager.passNames());
}

TEST(Passes, SerializedArtifactRoundTripsPassMetadata)
{
    auto model = randomSvmIr(4, 3, 79);
    hi::PassManager::optimizationPipeline().run(model);
    ASSERT_FALSE(model.passes.empty());

    std::string text = hi::serializeModel(model);
    EXPECT_NE(text.find("homunculus-ir v3"), std::string::npos);
    EXPECT_NE(text.find("passes validate prune-dead"), std::string::npos);

    auto restored = hi::deserializeModel(text);
    EXPECT_EQ(restored.passes, model.passes);
}
