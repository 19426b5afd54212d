#include "runtime/inference_engine.hpp"

#include <algorithm>

#include "kernels/kernel_dispatch.hpp"
#include "runtime/executor.hpp"

namespace homunculus::runtime {

namespace {

/** Smallest shard worth a dispatch; keeps stitching overhead trivial. */
constexpr std::size_t kMinShardRows = 256;

Executor &
poolFor(const EngineOptions &options)
{
    return options.executor != nullptr ? *options.executor
                                       : Executor::processDefault();
}

/**
 * Shard [0, rows) over the pool and execute via @p run_range, which is
 * ExecutablePlan::runRange bound to either a double or a pre-quantized
 * matrix. One Scratch arena per worker, reused across every shard that
 * worker steals; each shard writes only its own labels slice, so the
 * output is row-ordered no matter how chunks get scheduled.
 */
template <typename RunRange>
void
runSharded(Executor &pool, std::size_t jobs, std::size_t rows,
           std::size_t shard_rows, const RunRange &run_range)
{
    std::vector<ir::ExecutablePlan::Scratch> scratches(jobs);
    pool.runChunks(
        jobs, rows, shard_rows,
        [&](std::size_t begin, std::size_t end, std::size_t worker) {
            run_range(begin, end, scratches[worker]);
        });
}

}  // namespace

InferenceEngine::InferenceEngine(ir::ExecutablePlan plan,
                                 EngineOptions options)
    : plan_(std::move(plan)), options_(options)
{
    // The engine owns its plan copy, so pinning the kernel target here
    // never affects other consumers of the same compiled model.
    if (options_.forceScalarKernels)
        plan_.forceKernelTarget(kernels::KernelTarget::kScalar);
    // Per-target throughput counters in the global registry. A
    // scalar-pinned engine never touches KernelDispatch (its label is
    // known); everything else resolves the active target — which any
    // run() would have resolved anyway.
    const char *target =
        options_.forceScalarKernels
            ? kernels::kernelTargetName(kernels::KernelTarget::kScalar)
            : kernels::kernelTargetName(kernels::KernelDispatch::active());
    telemetry::MetricRegistry &reg = telemetry::MetricRegistry::global();
    batchesCounter_ = &reg.counter("engine.batches", {{"target", target}});
    rowsCounter_ = &reg.counter("engine.rows", {{"target", target}});
}

InferenceEngine
InferenceEngine::fromModel(const ir::ModelIr &model, EngineOptions options)
{
    return InferenceEngine(ir::ExecutablePlan::compile(model), options);
}

std::size_t
InferenceEngine::jobs() const
{
    return poolFor(options_).resolve(options_.jobs);
}

std::size_t
InferenceEngine::shardRowsFor(std::size_t rows) const
{
    // Aim for ~4 shards per worker so work-stealing can even out rows
    // whose models traverse differently (trees), bounded below so a
    // dispatch always amortizes and above so shards stay cache-sized.
    // A caller-set maxShardRows is a hard ceiling: it wins over the
    // dispatch-amortization floor when the two conflict.
    std::size_t workers = jobs();
    std::size_t target = (rows + workers * 4 - 1) / (workers * 4);
    std::size_t max_shard = std::max<std::size_t>(1, options_.maxShardRows);
    return std::clamp(target, std::min(kMinShardRows, max_shard),
                      max_shard);
}

void
InferenceEngine::run(const math::Matrix &x, int *labels) const
{
    ir::ExecutablePlan::Scratch scratch;
    run(x, labels, scratch);
}

void
InferenceEngine::run(const math::Matrix &x, int *labels,
                     ir::ExecutablePlan::Scratch &scratch) const
{
    batchesCounter_->add();
    rowsCounter_->add(x.rows());
    std::size_t workers = jobs();
    if (workers <= 1 || x.rows() < options_.minRowsToShard) {
        plan_.runRange(x, 0, x.rows(), labels, scratch);
        return;
    }
    runSharded(poolFor(options_), workers, x.rows(),
               shardRowsFor(x.rows()),
               [&](std::size_t begin, std::size_t end,
                   ir::ExecutablePlan::Scratch &scratch) {
                   plan_.runRange(x, begin, end, labels + begin, scratch);
               });
}

void
InferenceEngine::run(const ir::QuantizedMatrix &x, int *labels) const
{
    batchesCounter_->add();
    rowsCounter_->add(x.rows());
    std::size_t workers = jobs();
    if (workers <= 1 || x.rows() < options_.minRowsToShard) {
        ir::ExecutablePlan::Scratch scratch;
        plan_.runRange(x, 0, x.rows(), labels, scratch);
        return;
    }
    runSharded(poolFor(options_), workers, x.rows(),
               shardRowsFor(x.rows()),
               [&](std::size_t begin, std::size_t end,
                   ir::ExecutablePlan::Scratch &scratch) {
                   plan_.runRange(x, begin, end, labels + begin, scratch);
               });
}

std::vector<int>
InferenceEngine::run(const math::Matrix &x) const
{
    std::vector<int> labels(x.rows());
    if (!labels.empty())
        run(x, labels.data());
    return labels;
}

std::vector<int>
InferenceEngine::run(const ir::QuantizedMatrix &x) const
{
    std::vector<int> labels(x.rows());
    if (!labels.empty())
        run(x, labels.data());
    return labels;
}

}  // namespace homunculus::runtime
