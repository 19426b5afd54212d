/**
 * @file
 * Micro-kernel throughput per dispatch target (google-benchmark): every
 * vectorized kernel in src/kernels/ measured rows/s against the scalar
 * reference table, on paper-plausible model shapes. Benchmarks are
 * registered dynamically, one per target the host can actually run, so
 * an AVX2 box reports int8_gemm/scalar next to int8_gemm/avx2 and the
 * speedup is a single division away.
 *
 * This bench also holds two acceptance bars, both judged when the AVX2
 * table is available; the process exits non-zero when either fails.
 * CI runs it, so a regression that quietly falls back to scalar (or a
 * "vectorized" kernel that is not actually faster) fails the build
 * instead of shipping:
 *  - the int8 GEMM must deliver >= 1.5x the scalar table's rows/s
 *    (record `int8_gemm_speedup`);
 *  - on the serving-shaped 16 -> 64 -> 64 -> 2 Q8.8 MLP
 *    (`int16_gemm_rows/<rows>/<target>`), a 5-row batch may take at
 *    most 1.5x the time of an 8-row batch (record `int16_gemm_tail`):
 *    a partial lane group runs the vector kernel, not a scalar tail.
 * The ratios land in the --json report alongside the per-kernel rows/s
 * records.
 *
 * Inputs are pre-quantized (ir::QuantizedMatrix), so the measured loop
 * is the kernel itself, not the double->raw-word front end.
 */
#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "backends/mat_pipeline.hpp"
#include "bench_common.hpp"
#include "common/rng.hpp"
#include "ir/exec_plan.hpp"
#include "ir/model_ir.hpp"
#include "kernels/kernel_dispatch.hpp"

using namespace homunculus;

namespace {

constexpr std::size_t kBatchRows = 4096;

/** Serving-shaped batch sizes: below, at and past one 8-lane group. */
constexpr std::size_t kServingRows[] = {1, 5, 8, 25, 64};

std::int32_t
randomWord(common::Rng &rng, const common::FixedPointFormat &format)
{
    std::int64_t hi = (std::int64_t{1} << (format.totalBits() - 1)) - 1;
    return static_cast<std::int32_t>(rng.uniformInt(-hi - 1, hi));
}

/** 16-input, 2-class MLP with @p hidden widths at @p format. The
 *  default is AD-baseline-shaped (16 -> 32 -> 32 -> 2). */
ir::ModelIr
gemmModel(const common::FixedPointFormat &format,
          std::vector<std::size_t> hidden = {32, 32})
{
    common::Rng rng(11);
    ir::ModelIr model;
    model.kind = ir::ModelKind::kMlp;
    model.format = format;
    model.inputDim = 16;
    model.numClasses = 2;
    model.activation = ml::Activation::kRelu;
    hidden.push_back(2);
    std::size_t prev = model.inputDim;
    for (std::size_t width : hidden) {
        ir::QuantizedLayer layer;
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

ir::ModelIr
kmeansModel(const common::FixedPointFormat &format)
{
    common::Rng rng(13);
    ir::ModelIr model;
    model.kind = ir::ModelKind::kKMeans;
    model.format = format;
    model.inputDim = 16;
    model.numClasses = 8;
    for (int c = 0; c < 8; ++c) {
        std::vector<std::int32_t> centroid(model.inputDim);
        for (auto &v : centroid)
            v = randomWord(rng, format);
        model.centroids.push_back(std::move(centroid));
    }
    model.validate();
    return model;
}

ir::ModelIr
svmModel(const common::FixedPointFormat &format)
{
    common::Rng rng(17);
    ir::ModelIr model;
    model.kind = ir::ModelKind::kSvm;
    model.format = format;
    model.inputDim = 16;
    model.numClasses = 4;
    for (int c = 0; c < 4; ++c) {
        std::vector<std::int32_t> weights(model.inputDim);
        for (auto &v : weights)
            v = randomWord(rng, format);
        model.svmWeights.push_back(std::move(weights));
        model.svmBiases.push_back(randomWord(rng, format));
    }
    model.validate();
    return model;
}

/** Complete depth-8 tree on 16 features. */
ir::ModelIr
treeModel(const common::FixedPointFormat &format)
{
    common::Rng rng(19);
    ir::ModelIr model;
    model.kind = ir::ModelKind::kDecisionTree;
    model.format = format;
    model.inputDim = 16;
    model.numClasses = 3;
    model.treeDepth = 8;
    std::function<int(std::size_t)> build = [&](std::size_t level) -> int {
        int index = static_cast<int>(model.treeNodes.size());
        model.treeNodes.emplace_back();
        if (level == model.treeDepth) {
            model.treeNodes[static_cast<std::size_t>(index)].classLabel =
                static_cast<int>(rng.uniformInt(0, 2));
            return index;
        }
        auto &fill = model.treeNodes[static_cast<std::size_t>(index)];
        fill.isLeaf = false;
        fill.feature = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(model.inputDim) - 1));
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

/** Plan-executed kernel bench: the plan is pinned to @p target, the
 *  batch of @p rows is pre-quantized, the loop is runRange over the
 *  whole batch. */
void
planBench(benchmark::State &state, const ir::ModelIr &model,
          kernels::KernelTarget target, std::size_t rows = kBatchRows)
{
    auto plan = ir::ExecutablePlan::compile(model);
    plan.forceKernelTarget(target);
    ir::QuantizedMatrix x(bench::benchFeatures(rows, model.inputDim),
                          model.format);
    std::vector<int> labels(rows);
    ir::ExecutablePlan::Scratch scratch;
    for (auto _ : state) {
        plan.runRange(x, 0, x.rows(), labels.data(), scratch);
        benchmark::DoNotOptimize(labels.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(rows));
}

/** MAT batch walk bench: the target is pinned per pipeline
 *  (MatPipeline::forceKernelTarget), so nothing here touches the
 *  process-wide dispatch state. */
void
matBench(benchmark::State &state, const ir::ModelIr &model,
         kernels::KernelTarget target)
{
    auto pipeline = model.kind == ir::ModelKind::kSvm
                        ? backends::MatPipeline::compileSvm(model, 16)
                        : backends::MatPipeline::compileKMeans(model);
    pipeline.forceKernelTarget(target);
    auto x = bench::benchFeatures(kBatchRows, model.inputDim);
    for (auto _ : state) {
        auto labels = pipeline.processBatch(x);
        benchmark::DoNotOptimize(labels.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kBatchRows));
}

/** Console output as usual, plus rows/s captured per run: once for the
 *  --json report, once keyed by name (with the wall time per
 *  iteration) for the bars below. */
class JsonCaptureReporter : public benchmark::ConsoleReporter
{
  public:
    void ReportRuns(const std::vector<Run> &runs) override
    {
        benchmark::ConsoleReporter::ReportRuns(runs);
        for (const Run &run : runs) {
            auto items = run.counters.find("items_per_second");
            if (run.run_type != Run::RT_Iteration ||
                items == run.counters.end())
                continue;
            double rows_per_sec = static_cast<double>(items->second);
            double seconds =
                run.GetAdjustedRealTime() /
                benchmark::GetTimeUnitMultiplier(run.time_unit);
            json.add(run.benchmark_name(),
                     {{"real_time_s", seconds},
                      {"rows_per_sec", rows_per_sec}});
            rowsPerSec[run.benchmark_name()] = rows_per_sec;
            secondsPerIter[run.benchmark_name()] = seconds;
        }
    }

    homunculus::bench::BenchJson json;
    std::map<std::string, double> rowsPerSec;
    std::map<std::string, double> secondsPerIter;
};

}  // namespace

int
main(int argc, char **argv)
{
    std::string json_path = homunculus::bench::extractJsonPath(argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;

    const auto int8_mlp = gemmModel({4, 4});     // int8-weight panels.
    const auto int16_mlp = gemmModel({8, 8});    // Q8.8, int16 panels.
    const auto wide_mlp = gemmModel({12, 12});   // int64 fallback path.
    const auto kmeans = kmeansModel({8, 8});
    const auto svm = svmModel({8, 8});
    const auto tree = treeModel({8, 8});
    // The routed serving plane's deep model (16 -> 64 -> 64 -> 2, Q8.8)
    // at serving batch sizes, where a partial lane group is most of
    // the batch.
    const auto deep_mlp = gemmModel({8, 8}, {64, 64});

    auto available = kernels::KernelDispatch::available();
    auto register_plan = [&](const char *kernel, const ir::ModelIr &model) {
        for (kernels::KernelTarget target : available) {
            std::string name = std::string(kernel) + "/" +
                               kernels::kernelTargetName(target);
            benchmark::RegisterBenchmark(
                name.c_str(), [&model, target](benchmark::State &state) {
                    planBench(state, model, target);
                });
        }
    };
    register_plan("int8_gemm", int8_mlp);
    register_plan("int16_gemm", int16_mlp);
    register_plan("tree_traverse", tree);
    register_plan("kmeans_argmin", kmeans);
    register_plan("svm_argmax", svm);
    for (std::size_t rows : kServingRows) {
        for (kernels::KernelTarget target : available) {
            std::string name = "int16_gemm_rows/" + std::to_string(rows) +
                               "/" + kernels::kernelTargetName(target);
            benchmark::RegisterBenchmark(
                name.c_str(),
                [&deep_mlp, target, rows](benchmark::State &state) {
                    planBench(state, deep_mlp, target, rows);
                });
        }
    }
    // The wide path is target-invariant (shared int64 reference loops);
    // one row documents its baseline next to the narrow tiers.
    benchmark::RegisterBenchmark(
        "wide_gemm/reference", [&wide_mlp](benchmark::State &state) {
            planBench(state, wide_mlp, kernels::KernelTarget::kScalar);
        });
    for (kernels::KernelTarget target : available) {
        std::string name = std::string("mat_range_match/") +
                           kernels::kernelTargetName(target);
        benchmark::RegisterBenchmark(
            name.c_str(), [&svm, target](benchmark::State &state) {
                matBench(state, svm, target);
            });
    }

    JsonCaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    // The acceptance bars. Each is only judged when both of its sides
    // actually ran (a --benchmark_filter run must not trip it).
    bool passed = true;

    // Vectorization: int8 GEMM on AVX2 beats the scalar table.
    constexpr double kInt8GemmBar = 1.5;
    auto scalar_rows = reporter.rowsPerSec.find("int8_gemm/scalar");
    auto avx2_rows = reporter.rowsPerSec.find("int8_gemm/avx2");
    if (scalar_rows != reporter.rowsPerSec.end() &&
        avx2_rows != reporter.rowsPerSec.end()) {
        double ratio = avx2_rows->second / scalar_rows->second;
        reporter.json.add("int8_gemm_speedup",
                          {{"avx2_over_scalar", ratio},
                           {"bar", kInt8GemmBar}});
        std::printf("int8 GEMM avx2/scalar: %.2fx (bar %.1fx)\n", ratio,
                    kInt8GemmBar);
        if (ratio < kInt8GemmBar) {
            std::fprintf(stderr,
                         "FAIL: int8 GEMM avx2 is %.2fx scalar, below "
                         "the %.1fx acceptance bar\n",
                         ratio, kInt8GemmBar);
            passed = false;
        }
    }

    // No scalar-tail cliff: a partial lane group runs the vector
    // kernel, so a 5-row batch costs about what a full 8-row group
    // does, not five scalar rows.
    constexpr double kTailBar = 1.5;
    auto tail = reporter.secondsPerIter.find("int16_gemm_rows/5/avx2");
    auto full = reporter.secondsPerIter.find("int16_gemm_rows/8/avx2");
    if (tail != reporter.secondsPerIter.end() &&
        full != reporter.secondsPerIter.end()) {
        double ratio = tail->second / full->second;
        reporter.json.add("int16_gemm_tail",
                          {{"rows5_over_rows8", ratio}, {"bar", kTailBar}});
        std::printf("int16 GEMM avx2 5-row/8-row batch time: %.2fx "
                    "(bar <= %.1fx)\n",
                    ratio, kTailBar);
        if (ratio > kTailBar) {
            std::fprintf(stderr,
                         "FAIL: a 5-row avx2 int16 GEMM batch takes "
                         "%.2fx an 8-row batch, above the %.1fx bar\n",
                         ratio, kTailBar);
            passed = false;
        }
    }

    if (!json_path.empty() && !reporter.json.write(json_path))
        return 1;
    return passed ? 0 : 1;
}
