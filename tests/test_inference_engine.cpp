/**
 * @file
 * Tests for the multi-core streaming inference runtime: InferenceEngine
 * determinism at every jobs width, concurrent execution of one shared plan, per-format
 * quantization caching (bit-exactness included), EvalOptions plumbing
 * through the backends, caller-scratch runRow, and inferJobs
 * determinism through a compile.
 *
 * The concurrency tests double as the TSAN workload: CI runs this
 * binary under -fsanitize=thread (see .github/workflows/ci.yml).
 */
#include <gtest/gtest.h>

#include <functional>
#include <thread>

#include "backends/fpga.hpp"
#include "backends/mat_platform.hpp"
#include "backends/taurus.hpp"
#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "data/anomaly_generator.hpp"
#include "runtime/inference_engine.hpp"
#include "runtime/quant_cache.hpp"

namespace hb = homunculus::backends;
namespace hc = homunculus::common;
namespace hcore = homunculus::core;
namespace hi = homunculus::ir;
namespace hm = homunculus::math;
namespace hr = homunculus::runtime;

namespace {

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

hi::ModelIr
randomMlpIr(std::size_t input_dim, std::vector<std::size_t> widths,
            int classes, std::uint64_t seed)
{
    hc::Rng rng(seed);
    hi::ModelIr model;
    model.kind = hi::ModelKind::kMlp;
    model.inputDim = input_dim;
    model.numClasses = classes;
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
        randomMlpIr(6, {16, 8}, 3, seed),
        randomKMeansIr(7, 5, seed + 1),
        randomSvmIr(6, 4, seed + 2),
        randomTreeIr(5, 4, 3, seed + 3),
    };
}

}  // namespace

// ------------------------------------------------------- InferenceEngine

TEST(InferenceEngine, BitIdenticalAcrossJobsWidths)
{
    for (const hi::ModelIr &model : allFamilies(101)) {
        auto x = randomFeatures(5003, model.inputDim, 7);  // odd: drain.
        auto plan = hi::ExecutablePlan::compile(model);
        auto reference = plan.run(x);
        for (std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                 std::size_t{3}, std::size_t{8}}) {
            hr::EngineOptions options;
            options.jobs = jobs;
            options.minRowsToShard = 1;  // force sharding even here.
            options.maxShardRows = 512;
            hr::InferenceEngine engine(plan, options);
            EXPECT_EQ(engine.run(x), reference)
                << hi::modelKindName(model.kind) << " jobs " << jobs;
        }
        // Default options (small batches stay inline) agree too.
        hr::InferenceEngine inline_engine(plan, {});
        EXPECT_EQ(inline_engine.run(x), reference);
    }
}

TEST(InferenceEngine, ConcurrentRunsOnOneSharedPlan)
{
    // Many threads execute one engine (one immutable plan) at once, each
    // itself sharding across workers — the TSAN-audited hot path.
    auto model = randomMlpIr(9, {12, 10}, 4, 311);
    hr::EngineOptions options;
    options.jobs = 2;
    options.minRowsToShard = 1;
    options.maxShardRows = 256;
    hr::InferenceEngine engine = hr::InferenceEngine::fromModel(model,
                                                               options);
    auto x = randomFeatures(3001, model.inputDim, 17);
    auto reference = hi::ExecutablePlan::compile(model).run(x);

    std::vector<std::vector<int>> results(4);
    std::vector<std::thread> threads;
    threads.reserve(results.size());
    for (auto &result : results)
        threads.emplace_back(
            [&engine, &x, &result] { result = engine.run(x); });
    for (auto &thread : threads)
        thread.join();
    for (const auto &result : results)
        EXPECT_EQ(result, reference);
}

TEST(InferenceEngine, EmptyBatchAndWidthMismatch)
{
    auto engine = hr::InferenceEngine::fromModel(randomSvmIr(4, 3, 7), {});
    EXPECT_TRUE(engine.run(hm::Matrix()).empty());
    EXPECT_THROW(engine.run(randomFeatures(3, 5, 1)), std::runtime_error);
}

TEST(InferenceEngine, QuantizedInputMatchesDoublePath)
{
    for (const hi::ModelIr &model : allFamilies(211)) {
        auto x = randomFeatures(2500, model.inputDim, 19);
        auto plan = hi::ExecutablePlan::compile(model);
        auto reference = plan.run(x);

        hi::QuantizedMatrix qx(x, model.format);
        EXPECT_EQ(plan.run(qx), reference)
            << hi::modelKindName(model.kind);
        hr::EngineOptions options;
        options.jobs = 4;
        options.minRowsToShard = 1;
        hr::InferenceEngine engine(plan, options);
        EXPECT_EQ(engine.run(qx), reference)
            << hi::modelKindName(model.kind);
    }

    // Format mismatch is rejected, not silently misread.
    auto model = randomSvmIr(4, 3, 23);
    hi::QuantizedMatrix wrong(randomFeatures(8, 4, 3),
                              hc::FixedPointFormat(12, 4));
    EXPECT_THROW(hi::ExecutablePlan::compile(model).run(wrong),
                 std::runtime_error);
}

TEST(ExecPlanScratch, CallerScratchRunRowMatchesAndReuses)
{
    for (const hi::ModelIr &model : allFamilies(83)) {
        auto x = randomFeatures(64, model.inputDim, 5);
        auto plan = hi::ExecutablePlan::compile(model);
        hi::ExecutablePlan::Scratch scratch;  // reused across all rows.
        for (std::size_t r = 0; r < x.rows(); ++r) {
            auto row = x.row(r);
            EXPECT_EQ(plan.runRow(row.data(), row.size(), scratch),
                      hi::executeIr(model, row));
        }
    }
}

// ------------------------------------------------------------ QuantCache

TEST(QuantCache, SharesOneQuantizationPerFormat)
{
    auto x = randomFeatures(600, 5, 29);
    hr::QuantCache cache(x);
    EXPECT_TRUE(cache.covers(x));
    hm::Matrix other = x;
    EXPECT_FALSE(cache.covers(other));  // identity, not value equality.

    const auto &q88_a = cache.get(hc::FixedPointFormat::q88());
    const auto &q88_b = cache.get(hc::FixedPointFormat::q88());
    EXPECT_EQ(&q88_a, &q88_b);
    EXPECT_EQ(cache.entries(), 1u);
    const auto &q124 = cache.get(hc::FixedPointFormat(12, 4));
    EXPECT_NE(&q88_a, &q124);
    EXPECT_EQ(cache.entries(), 2u);

    // Bit-exactness guard: cached words equal direct quantization.
    for (std::size_t r = 0; r < x.rows(); ++r)
        for (std::size_t c = 0; c < x.cols(); ++c)
            EXPECT_EQ(q88_a.rowPtr(r)[c],
                      hc::FixedPointFormat::q88().quantize(x(r, c)));
}

TEST(QuantCache, ConcurrentGetIsSafeAndStable)
{
    auto x = randomFeatures(400, 6, 31);
    hr::QuantCache cache(x);
    std::vector<const hi::QuantizedMatrix *> seen(8, nullptr);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < seen.size(); ++t)
        threads.emplace_back([&cache, &seen, t] {
            seen[t] = &cache.get(hc::FixedPointFormat::q88());
        });
    for (auto &thread : threads)
        thread.join();
    for (const auto *ptr : seen)
        EXPECT_EQ(ptr, seen[0]);
    EXPECT_EQ(cache.entries(), 1u);
}

// --------------------------------------------- EvalOptions through stack

TEST(EvalOptions, PlatformsPredictIdenticallyAtAnyJobsWidthAndWithCache)
{
    hb::TaurusPlatform taurus;
    hb::FpgaPlatform fpga;
    hb::MatPlatform mat;
    for (const hi::ModelIr &model : allFamilies(401)) {
        auto x = randomFeatures(2600, model.inputDim, 37);
        hr::QuantCache cache(x);
        hb::EvalOptions parallel_cached;
        parallel_cached.jobs = 4;
        parallel_cached.quantCache = &cache;

        auto reference = taurus.evaluate(model, x);
        EXPECT_EQ(taurus.evaluate(model, x, parallel_cached), reference);
        EXPECT_EQ(fpga.evaluate(model, x, parallel_cached), reference);
        if (mat.supports(model.kind) == hb::AlgorithmSupport::kSupported) {
            auto mat_reference = mat.evaluate(model, x);
            EXPECT_EQ(mat.evaluate(model, x, parallel_cached),
                      mat_reference);
        }
        EXPECT_GE(cache.entries(), 1u);
    }
}

TEST(EvalOptions, CompileBitIdenticalAcrossInferJobs)
{
    hcore::ModelSpec spec;
    spec.name = "ad";
    spec.optimizationMetric = hcore::Metric::kF1;
    spec.algorithms = {hcore::Algorithm::kDecisionTree};
    homunculus::data::AnomalyConfig config;
    config.numSamples = 700;
    auto split = homunculus::data::generateAnomalySplit(config);
    spec.dataLoader = [split] { return split; };

    auto run_with = [&](std::size_t infer_jobs) {
        auto platform = hcore::Platforms::taurus();
        platform.constrain({1.0, 500.0}, {16, 16});
        platform.schedule(spec);
        hcore::CompileOptions options;
        options.bo.numInitSamples = 2;
        options.bo.numIterations = 3;
        options.inferJobs = infer_jobs;
        auto compiled = hcore::Compiler(options).compile(platform).value();
        return std::move(compiled.models.front());
    };

    hcore::GeneratedModel one = run_with(1);
    hcore::GeneratedModel four = run_with(4);
    EXPECT_EQ(one.objective, four.objective);
    EXPECT_EQ(one.algorithm, four.algorithm);
    EXPECT_EQ(one.model.treeNodes.size(), four.model.treeNodes.size());
    EXPECT_EQ(one.searchHistory.history.size(),
              four.searchHistory.history.size());
}
