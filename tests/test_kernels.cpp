/**
 * @file
 * Differential tests for the vectorized kernel layer (src/kernels/).
 *
 * The kernel contract is bit-exactness: every dispatch target (AVX2,
 * scalar) must reproduce the reference interpreter's labels AND
 * its intermediate saturation semantics on every model family, every
 * Q-format width, and every awkward shape (odd row counts, odd feature
 * widths — the vector-tail cases). These tests pin that contract by
 * running each available target against the scalar interpreter, plus
 * the dispatch-resolution rules (env override, bogus-value rejection,
 * force/reset).
 *
 * Suite names all start with "Kernel" so the CI thread-sanitizer job's
 * --gtest_filter picks them up.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <string>

#include "backends/mat_pipeline.hpp"
#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "ir/exec_plan.hpp"
#include "kernels/kernel_dispatch.hpp"
#include "runtime/inference_engine.hpp"
#include "runtime/model_registry.hpp"
#include "interpret_rows.hpp"

namespace hb = homunculus::backends;
namespace hc = homunculus::common;
namespace hi = homunculus::ir;
namespace hk = homunculus::kernels;
namespace hm = homunculus::math;
namespace hr = homunculus::runtime;
namespace ml = homunculus::ml;
using homunculus::test::interpretRows;

namespace {

/** Restores (or unsets) HOMUNCULUS_KERNELS and re-resolves on exit, so
 *  a test that pokes the env can never leak into its neighbors. */
class KernelEnvGuard
{
  public:
    KernelEnvGuard()
    {
        const char *value = std::getenv("HOMUNCULUS_KERNELS");
        had_ = value != nullptr;
        if (had_)
            saved_ = value;
    }

    ~KernelEnvGuard()
    {
        if (had_)
            setenv("HOMUNCULUS_KERNELS", saved_.c_str(), 1);
        else
            unsetenv("HOMUNCULUS_KERNELS");
        hk::KernelDispatch::reset();
    }

  private:
    bool had_ = false;
    std::string saved_;
};

/** Random features spanning past any format's range (saturation). */
hm::Matrix
randomFeatures(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    hc::Rng rng(seed);
    hm::Matrix x(rows, cols);
    for (double &v : x.data())
        v = rng.uniform(-140.0, 140.0);
    return x;
}

/** Random raw word inside @p format's representable range. */
std::int32_t
randomWord(hc::Rng &rng, const hc::FixedPointFormat &format)
{
    std::int64_t hi_word = (std::int64_t{1} << (format.totalBits() - 1)) - 1;
    return static_cast<std::int32_t>(rng.uniformInt(-hi_word - 1, hi_word));
}

hi::ModelIr
randomMlpIr(const hc::FixedPointFormat &format, std::size_t input_dim,
            std::vector<std::size_t> widths, int classes,
            ml::Activation activation, std::uint64_t seed)
{
    hc::Rng rng(seed);
    hi::ModelIr model;
    model.kind = hi::ModelKind::kMlp;
    model.format = format;
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
            w = randomWord(rng, format);
        for (auto &b : layer.biases)
            b = randomWord(rng, format);
        model.layers.push_back(std::move(layer));
        prev = width;
    }
    model.validate();
    return model;
}

hi::ModelIr
randomKMeansIr(const hc::FixedPointFormat &format, std::size_t input_dim,
               std::size_t k, std::uint64_t seed)
{
    hc::Rng rng(seed);
    hi::ModelIr model;
    model.kind = hi::ModelKind::kKMeans;
    model.format = format;
    model.inputDim = input_dim;
    model.numClasses = static_cast<int>(k);
    for (std::size_t c = 0; c < k; ++c) {
        std::vector<std::int32_t> centroid(input_dim);
        for (auto &v : centroid)
            v = randomWord(rng, format);
        model.centroids.push_back(std::move(centroid));
    }
    model.validate();
    return model;
}

hi::ModelIr
randomSvmIr(const hc::FixedPointFormat &format, std::size_t input_dim,
            int classes, std::uint64_t seed)
{
    hc::Rng rng(seed);
    hi::ModelIr model;
    model.kind = hi::ModelKind::kSvm;
    model.format = format;
    model.inputDim = input_dim;
    model.numClasses = classes;
    for (int c = 0; c < classes; ++c) {
        std::vector<std::int32_t> weights(input_dim);
        for (auto &v : weights)
            v = randomWord(rng, format);
        model.svmWeights.push_back(std::move(weights));
        model.svmBiases.push_back(randomWord(rng, format));
    }
    model.validate();
    return model;
}

hi::ModelIr
randomTreeIr(const hc::FixedPointFormat &format, std::size_t input_dim,
             std::size_t depth, int classes, std::uint64_t seed)
{
    hc::Rng rng(seed);
    hi::ModelIr model;
    model.kind = hi::ModelKind::kDecisionTree;
    model.format = format;
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
        fill.threshold = randomWord(rng, format);
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

/** One model of each family at @p format. */
std::vector<hi::ModelIr>
allFamilies(const hc::FixedPointFormat &format, std::uint64_t seed)
{
    return {
        randomMlpIr(format, 6, {16, 8}, 3, ml::Activation::kRelu, seed),
        randomMlpIr(format, 5, {12}, 4, ml::Activation::kTanh, seed + 1),
        randomKMeansIr(format, 7, 5, seed + 2),
        randomSvmIr(format, 6, 4, seed + 3),
        randomTreeIr(format, 5, 4, 3, seed + 4),
    };
}

/**
 * The differential core: compile @p model once, pin the plan to each
 * target this host can run, and demand the interpreter's exact labels
 * from every one of them.
 */
void
expectAllTargetsMatchInterpreter(const hi::ModelIr &model,
                                 const hm::Matrix &x,
                                 const std::string &what)
{
    auto reference = interpretRows(model, x);
    for (hk::KernelTarget target : hk::KernelDispatch::available()) {
        auto plan = hi::ExecutablePlan::compile(model);
        plan.forceKernelTarget(target);
        EXPECT_EQ(plan.run(x), reference)
            << what << " diverges on target "
            << hk::kernelTargetName(target) << " (format Q"
            << model.format.integerBits() << "."
            << model.format.fracBits() << ")";
    }
}

/** Q-format ladder across the kernel gating tiers: int8 path
 *  (<= 8 bits), int16/narrow path (<= 16), wide fallback (> 16). */
std::vector<hc::FixedPointFormat>
formatLadder()
{
    return {
        {1, 1},    // 2-bit: extreme saturation everywhere.
        {2, 1},    // 3-bit, asymmetric.
        {2, 2},    // 4-bit.
        {4, 3},    // 7-bit, odd split.
        {4, 4},    // 8-bit: widest int8-path format.
        {5, 4},    // 9-bit: first int16-path format.
        {6, 6},    // 12-bit.
        {8, 8},    // Q8.8, the deployment default.
        {9, 8},    // 17-bit: first wide-fallback format.
        {10, 10},  // 20-bit.
        {12, 12},  // 24-bit.
    };
}

}  // namespace

TEST(KernelDispatch, ScalarIsAlwaysAvailable)
{
    auto available = hk::KernelDispatch::available();
    bool has_scalar = false;
    for (hk::KernelTarget target : available) {
        has_scalar = has_scalar || target == hk::KernelTarget::kScalar;
        // Every available target resolves to a fully populated table.
        const hk::KernelOps *ops = hk::KernelDispatch::find(target);
        ASSERT_NE(ops, nullptr);
        EXPECT_EQ(ops->target, target);
        EXPECT_NE(ops->denseI32, nullptr);
        EXPECT_NE(ops->denseI16, nullptr);
        EXPECT_NE(ops->argmaxI32, nullptr);
        EXPECT_NE(ops->argmaxI16, nullptr);
        EXPECT_NE(ops->squaredDist, nullptr);
        EXPECT_NE(ops->kmeansArgmin, nullptr);
        EXPECT_NE(ops->svmArgmaxNarrow, nullptr);
        EXPECT_NE(ops->rangeLowerBound, nullptr);
    }
    EXPECT_TRUE(has_scalar);
}

TEST(KernelDispatch, ParseTargetNamesAndRejections)
{
    EXPECT_EQ(hk::parseKernelTarget("scalar"), hk::KernelTarget::kScalar);
    EXPECT_EQ(hk::parseKernelTarget("avx2"), hk::KernelTarget::kAvx2);
    EXPECT_THROW(hk::parseKernelTarget("bogus"), std::runtime_error);
    EXPECT_THROW(hk::parseKernelTarget("neon"), std::runtime_error);
    // "auto" is a resolution policy, not a table.
    EXPECT_THROW(hk::parseKernelTarget("auto"), std::runtime_error);
    EXPECT_STREQ(hk::kernelTargetName(hk::KernelTarget::kScalar), "scalar");
    EXPECT_STREQ(hk::kernelTargetName(hk::KernelTarget::kAvx2), "avx2");
}

TEST(KernelDispatch, ForceWinsAndResetRestores)
{
    KernelEnvGuard guard;
    hk::KernelDispatch::force(hk::KernelTarget::kScalar);
    EXPECT_EQ(hk::KernelDispatch::active(), hk::KernelTarget::kScalar);
    EXPECT_STREQ(hk::KernelDispatch::provenance(), "forced");
    EXPECT_EQ(hk::KernelDispatch::ops().target, hk::KernelTarget::kScalar);
    // force() beats even an explicit env pin.
    setenv("HOMUNCULUS_KERNELS", "scalar", 1);
    hk::KernelDispatch::reset();
    hk::KernelDispatch::force(hk::KernelTarget::kScalar);
    EXPECT_STREQ(hk::KernelDispatch::provenance(), "forced");
}

TEST(KernelDispatch, BogusEnvValueIsAnErrorNotAFallback)
{
    KernelEnvGuard guard;
    setenv("HOMUNCULUS_KERNELS", "bogus", 1);
    hk::KernelDispatch::reset();
    EXPECT_THROW(hk::KernelDispatch::ops(), std::runtime_error);
    // "auto" in the env means the probe, never a parse error.
    setenv("HOMUNCULUS_KERNELS", "auto", 1);
    hk::KernelDispatch::reset();
    EXPECT_NO_THROW(hk::KernelDispatch::ops());
    EXPECT_STREQ(hk::KernelDispatch::provenance(), "auto");
    setenv("HOMUNCULUS_KERNELS", "scalar", 1);
    hk::KernelDispatch::reset();
    EXPECT_EQ(hk::KernelDispatch::active(), hk::KernelTarget::kScalar);
    EXPECT_STREQ(hk::KernelDispatch::provenance(), "env");
}

TEST(KernelDispatch, ForcingAnUnavailableTargetThrows)
{
    KernelEnvGuard guard;
    auto available = hk::KernelDispatch::available();
    for (int i = 0; i < hk::kNumKernelTargets; ++i) {
        auto target = static_cast<hk::KernelTarget>(i);
        bool is_available = false;
        for (hk::KernelTarget t : available)
            is_available = is_available || t == target;
        if (is_available)
            continue;
        EXPECT_THROW(hk::KernelDispatch::force(target), std::runtime_error);
        EXPECT_EQ(hk::KernelDispatch::find(target), nullptr);
    }
}

TEST(KernelDiff, AllFamiliesAllTargetsAcrossFormatLadder)
{
    for (const hc::FixedPointFormat &format : formatLadder()) {
        std::uint64_t seed = 100 + static_cast<std::uint64_t>(
                                       format.totalBits());
        for (const hi::ModelIr &model : allFamilies(format, seed)) {
            auto x = randomFeatures(97, model.inputDim, seed * 3 + 1);
            expectAllTargetsMatchInterpreter(
                model, x, hi::modelKindName(model.kind));
        }
    }
}

TEST(KernelDiff, VectorTailsOddRowCountsAndWidths)
{
    // Row counts straddling every lane width in play (8, 16) plus the
    // chunk remainders; feature widths that never divide a vector.
    const std::size_t row_counts[] = {1, 2, 7, 8, 9, 15, 16, 17, 31, 65};
    const hc::FixedPointFormat formats[] = {{4, 4}, {8, 8}};
    for (const hc::FixedPointFormat &format : formats) {
        for (std::size_t rows : row_counts) {
            auto mlp = randomMlpIr(format, 5, {9}, 3,
                                   ml::Activation::kRelu, rows * 7 + 1);
            auto tree = randomTreeIr(format, 3, 5, 4, rows * 7 + 2);
            auto kmeans = randomKMeansIr(format, 13, 3, rows * 7 + 3);
            auto svm = randomSvmIr(format, 17, 3, rows * 7 + 4);
            for (const hi::ModelIr *model : {&mlp, &tree, &kmeans, &svm}) {
                auto x = randomFeatures(rows, model->inputDim,
                                        rows * 11 + 5);
                expectAllTargetsMatchInterpreter(
                    *model, x, hi::modelKindName(model->kind));
            }
        }
    }
}

TEST(KernelDiff, SingleOutputAndSingleFeatureEdges)
{
    // Degenerate dims: 1 feature, 1-wide hidden layer, 2 classes.
    const hc::FixedPointFormat format(4, 4);
    auto mlp = randomMlpIr(format, 1, {1}, 2, ml::Activation::kRelu, 901);
    auto svm = randomSvmIr(format, 1, 2, 902);
    auto kmeans = randomKMeansIr(format, 1, 2, 903);
    for (const hi::ModelIr *model : {&mlp, &svm, &kmeans}) {
        auto x = randomFeatures(33, model->inputDim, 904);
        expectAllTargetsMatchInterpreter(*model, x,
                                         hi::modelKindName(model->kind));
    }
}

TEST(KernelDiff, DenseOutputDimSweepCoversBlockRemainder)
{
    // The AVX2 dense kernels compute 4 outputs per block plus a
    // 1-output remainder: widths 1..9 hit every remainder (0..3) with
    // zero, one and two full blocks, both in the hidden layer and in
    // the final (class) layer. 37 rows leave a partial lane group on
    // both the 8-lane and the 16-lane path.
    const hc::FixedPointFormat formats[] = {{4, 4}, {8, 8}};
    for (const hc::FixedPointFormat &format : formats) {
        for (std::size_t width = 1; width <= 9; ++width) {
            int classes = static_cast<int>(std::max<std::size_t>(2, width));
            auto model = randomMlpIr(format, 7, {width}, classes,
                                     ml::Activation::kRelu, 500 + width);
            auto x = randomFeatures(37, model.inputDim, 600 + width);
            expectAllTargetsMatchInterpreter(
                model, x, "mlp width " + std::to_string(width));
        }
    }
}

TEST(KernelDiff, UnalignedSubRangeWritesOnlyLiveLanes)
{
    // runRange over [3, 3 + rows) puts the lane groups off the matrix's
    // alignment and leaves a partial last group for every rows value
    // that is not a lane multiple. The label slice is framed by
    // sentinels: a zero-padded lane that wrote its label back would
    // overwrite one. Both input overloads run the same sweep.
    constexpr std::size_t kBegin = 3;
    constexpr std::size_t kMaxRows = 17;
    constexpr std::size_t kGuard = hk::kDenseLanes16;
    constexpr int kSentinel = -7;
    const hc::FixedPointFormat formats[] = {{4, 4}, {8, 8}};
    for (const hc::FixedPointFormat &format : formats) {
        auto model = randomMlpIr(format, 6, {10, 5}, 3,
                                 ml::Activation::kRelu, 700);
        auto x = randomFeatures(kBegin + kMaxRows + 3, model.inputDim, 701);
        hi::QuantizedMatrix qx(x, format);
        auto reference = interpretRows(model, x);
        for (hk::KernelTarget target : hk::KernelDispatch::available()) {
            auto plan = hi::ExecutablePlan::compile(model);
            plan.forceKernelTarget(target);
            hi::ExecutablePlan::Scratch scratch;
            for (std::size_t rows = 1; rows <= kMaxRows; ++rows) {
                for (bool quantized : {false, true}) {
                    std::vector<int> labels(rows + 2 * kGuard, kSentinel);
                    int *slice = labels.data() + kGuard;
                    if (quantized)
                        plan.runRange(qx, kBegin, kBegin + rows, slice,
                                      scratch);
                    else
                        plan.runRange(x, kBegin, kBegin + rows, slice,
                                      scratch);
                    std::vector<int> expected(rows + 2 * kGuard, kSentinel);
                    std::copy_n(reference.begin() + kBegin, rows,
                                expected.begin() + kGuard);
                    EXPECT_EQ(labels, expected)
                        << rows << " rows, "
                        << (quantized ? "quantized" : "double")
                        << " input, target "
                        << hk::kernelTargetName(target) << " (format Q"
                        << format.integerBits() << "."
                        << format.fracBits() << ")";
                }
            }
        }
    }
}

TEST(KernelMat, BatchWalkMatchesPerRowOnEveryTarget)
{
    KernelEnvGuard guard;
    // 600 rows spans one full 512-row pool shard plus a remainder, and
    // several 64-row chunks with a tail chunk.
    const hc::FixedPointFormat formats[] = {
        {4, 4},    // int8-tier model words.
        {8, 8},    // narrow (vectorized distance path).
        {10, 10},  // wide: the int64 reference path must kick in.
    };
    for (const hc::FixedPointFormat &format : formats) {
        std::vector<hi::ModelIr> models = {
            randomKMeansIr(format, 5, 4, 31),
            randomSvmIr(format, 5, 3, 37),
            randomTreeIr(format, 4, 3, 3, 41),
        };
        for (const hi::ModelIr &model : models) {
            auto x = randomFeatures(600, model.inputDim, 17);
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
            for (hk::KernelTarget target : hk::KernelDispatch::available()) {
                // Per-pipeline pin (no process-global force/reset
                // dance): only this pipeline's walk changes target.
                pipeline.forceKernelTarget(target);
                EXPECT_EQ(pipeline.processBatch(x), per_row)
                    << hi::modelKindName(model.kind) << " on "
                    << hk::kernelTargetName(target) << " (format Q"
                    << format.integerBits() << "." << format.fracBits()
                    << ")";
            }
        }
    }
}

TEST(KernelEngine, ForceScalarOptionPinsOnlyThatEngine)
{
    const hc::FixedPointFormat format(4, 4);
    auto model = randomMlpIr(format, 6, {10}, 3, ml::Activation::kRelu, 71);
    auto x = randomFeatures(300, model.inputDim, 72);

    // Pinning the plan an engine is built from pins that engine alone:
    // the plan is copied in, and a sibling compiled from the same model
    // keeps following the process-wide dispatch.
    hi::ExecutablePlan plan = hi::ExecutablePlan::compile(model);
    plan.forceKernelTarget(hk::KernelTarget::kScalar);
    hr::InferenceEngine pinned(plan);
    hr::InferenceEngine dispatched = hr::InferenceEngine::fromModel(model);

    ASSERT_NE(pinned.plan().forcedKernels(), nullptr);
    EXPECT_EQ(pinned.plan().forcedKernels()->target,
              hk::KernelTarget::kScalar);
    // The sibling engine keeps following the process-wide dispatch.
    EXPECT_EQ(dispatched.plan().forcedKernels(), nullptr);
    EXPECT_EQ(pinned.run(x), dispatched.run(x));
    EXPECT_EQ(pinned.run(x), interpretRows(model, x));
}

TEST(KernelEngine, RegistryPerLoadOverridePinsScalar)
{
    const hc::FixedPointFormat format(8, 8);
    auto model = randomSvmIr(format, 6, 3, 81);
    hr::ModelRegistry registry;
    std::uint64_t v1 = registry.load("svm", model);
    // A version with its own execution policy is built by the caller
    // and installed under the same name.
    hi::ExecutablePlan plan = hi::ExecutablePlan::compile(model);
    plan.forceKernelTarget(hk::KernelTarget::kScalar);
    hr::InferenceEngine engine(std::move(plan), registry.engineOptions());
    std::uint64_t v2 = registry.install("svm", std::move(engine),
                                        std::nullopt);
    auto dispatched = registry.version("svm", v1);
    auto pinned = registry.version("svm", v2);
    EXPECT_EQ(dispatched->engine.plan().forcedKernels(), nullptr);
    ASSERT_NE(pinned->engine.plan().forcedKernels(), nullptr);
    auto x = randomFeatures(128, model.inputDim, 82);
    EXPECT_EQ(pinned->engine.run(x), dispatched->engine.run(x));
}

TEST(KernelEngine, TargetLabelFollowsThePlanPin)
{
    // A scalar-pinned plan runs the scalar table, so the engine built
    // from it must count its rows under target=scalar whatever the
    // host's active dispatch resolves to.
    auto model = randomMlpIr(hc::FixedPointFormat(4, 4), 6, {10}, 3,
                             ml::Activation::kRelu, 75);
    auto x = randomFeatures(37, model.inputDim, 76);
    hi::ExecutablePlan plan = hi::ExecutablePlan::compile(model);
    plan.forceKernelTarget(hk::KernelTarget::kScalar);
    hr::InferenceEngine engine(std::move(plan));

    auto &metrics = hr::telemetry::MetricRegistry::global();
    auto &scalar_rows =
        metrics.counter("engine.rows", {{"target", "scalar"}});
    auto &scalar_batches =
        metrics.counter("engine.batches", {{"target", "scalar"}});
    auto &active_rows = metrics.counter(
        "engine.rows",
        {{"target",
          hk::kernelTargetName(hk::KernelDispatch::active())}});
    const std::uint64_t rows_before = scalar_rows.value();
    const std::uint64_t batches_before = scalar_batches.value();
    const std::uint64_t active_before = active_rows.value();

    EXPECT_EQ(engine.run(x), interpretRows(model, x));
    EXPECT_EQ(scalar_rows.value() - rows_before, x.rows());
    EXPECT_EQ(scalar_batches.value() - batches_before, 1u);
    if (&active_rows != &scalar_rows)
        EXPECT_EQ(active_rows.value(), active_before)
            << "pinned rows counted under the active target";
}

TEST(KernelEngine, CallerScratchServesEveryPlanWithoutRegrowing)
{
    // One caller-owned arena threaded through two engines of different
    // shapes and tiers, the way Router::Scratch serves every hop: the
    // labels match the interpreter, and once the arena has grown to the
    // larger plan, alternating hops stop reallocating it.
    auto front = randomMlpIr(hc::FixedPointFormat(8, 8), 16, {8}, 3,
                             ml::Activation::kRelu, 91);
    auto deep = randomMlpIr(hc::FixedPointFormat(4, 4), 16, {64, 64}, 2,
                            ml::Activation::kRelu, 92);
    auto x = randomFeatures(13, 16, 93);
    hr::InferenceEngine front_engine = hr::InferenceEngine::fromModel(front);
    hr::InferenceEngine deep_engine = hr::InferenceEngine::fromModel(deep);
    hi::ExecutablePlan::Scratch scratch;
    std::vector<int> labels(x.rows());
    // The narrow plan sizes `quantized` to a lane group, the int8 plan
    // to one row: it shrinks and regrows every round.
    const std::int32_t *quantized = nullptr;
    const std::int32_t *act = nullptr;
    const std::int16_t *act16 = nullptr;
    for (int round = 0; round < 3; ++round) {
        front_engine.run(x, labels.data(), scratch);
        EXPECT_EQ(labels, interpretRows(front, x));
        deep_engine.run(x, labels.data(), scratch);
        EXPECT_EQ(labels, interpretRows(deep, x));
        if (round > 0) {
            EXPECT_EQ(scratch.quantized.data(), quantized);
            EXPECT_EQ(scratch.actA.data(), act);
            EXPECT_EQ(scratch.act16A.data(), act16);
        }
        quantized = scratch.quantized.data();
        act = scratch.actA.data();
        act16 = scratch.act16A.data();
    }
}
