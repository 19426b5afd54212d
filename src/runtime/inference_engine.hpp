/**
 * @file
 * InferenceEngine: multi-core execution of one compiled ExecutablePlan.
 *
 * PR 2 made batch inference compile-then-execute; this engine makes it
 * scale across cores, the same data-parallel row sharding MapReduce-style
 * operator frameworks (ASAP) use. A batch is split into contiguous row
 * shards, fanned out over common::parallelForChunks, and each worker
 * executes the shared immutable plan with its own Scratch arena, writing
 * labels directly into that shard's slice of the output vector — so the
 * stitched result preserves row order and is bit-identical to the
 * single-threaded path at any jobs width (every path replays the
 * reference interpreter's exact saturating-arithmetic sequence).
 *
 * The engine serves two masters with one knob:
 *  - deployment: the trace-replay serving harness (runtime::StreamHarness)
 *    and homc --replay shard micro-batches across cores;
 *  - compilation: candidate scoring inside the Bayesian search
 *    (Platform::evaluate with EvalOptions::jobs) shards large test
 *    partitions, shrinking the search's innermost loop.
 *
 * Small batches stay inline on the calling thread (options.minRowsToShard)
 * — pool handoff under a few hundred rows costs more than it saves.
 */
#pragma once

#include <cstddef>
#include <vector>

#include "ir/exec_plan.hpp"
#include "runtime/telemetry.hpp"

namespace homunculus::runtime {

class Executor;

/** Execution knobs of an engine. */
struct EngineOptions
{
    /** Worker threads for batch sharding (0 = one per hardware thread,
     *  1 = run inline on the caller's thread). */
    std::size_t jobs = 1;
    /**
     * Batches smaller than this run inline even when jobs > 1. The
     * 2048 default dated from per-dispatch thread spawn (~50 us each);
     * with the persistent Executor a dispatch is a ~1-2 us queue
     * handoff, and re-measuring on the bench MLP found the crossover
     * where sharding starts winning near a few hundred rows — 512
     * keeps a safety margin over the crossover for cheaper plans
     * (trees) while letting mid-size batches parallelize.
     */
    std::size_t minRowsToShard = 512;
    /** Upper bound on rows per shard (smaller shards balance better;
     *  the engine also never makes fewer than ~4 shards per worker). */
    std::size_t maxShardRows = 4096;
    /** Worker pool to shard on (nullptr = the process-default
     *  Executor). Labels never depend on the pool. */
    Executor *executor = nullptr;
    /**
     * Pin this engine's plan to the scalar kernel table regardless of
     * the process-wide KernelDispatch resolution (CPU probe /
     * HOMUNCULUS_KERNELS / homc --kernel). Labels never change —
     * every kernel target is bit-identical by contract — so this is a
     * test/bench knob: differential suites and the micro-kernel bench
     * run a scalar-pinned engine next to a vectorized one in one
     * process.
     */
    bool forceScalarKernels = false;
};

/** A compiled plan plus the parallel execution policy for it. */
class InferenceEngine
{
  public:
    explicit InferenceEngine(ir::ExecutablePlan plan,
                             EngineOptions options = {});

    /** Compile @p model and wrap the plan (validates the model). */
    static InferenceEngine fromModel(const ir::ModelIr &model,
                                     EngineOptions options = {});

    /** Batched inference; one label per row, in row order. */
    std::vector<int> run(const math::Matrix &x) const;

    /** Batched inference over a pre-quantized matrix (format must match
     *  the plan's; skips per-candidate re-quantization). */
    std::vector<int> run(const ir::QuantizedMatrix &x) const;

    /** As run(), writing into caller storage of x.rows() labels. */
    void run(const math::Matrix &x, int *labels) const;
    void run(const ir::QuantizedMatrix &x, int *labels) const;

    /**
     * As run(x, labels), executing inline batches in the caller-owned
     * @p scratch instead of a fresh arena per call, so a long-lived
     * caller (one Server batcher, one Router::Scratch) runs its hops
     * allocation-free. The arena stays per-caller on purpose: shards
     * share engines across batcher threads. Sharded batches use the
     * engine's per-worker arenas and leave @p scratch untouched.
     */
    void run(const math::Matrix &x, int *labels,
             ir::ExecutablePlan::Scratch &scratch) const;

    const ir::ExecutablePlan &plan() const { return plan_; }
    const EngineOptions &options() const { return options_; }

    /** The resolved worker count (options.jobs with 0 expanded). */
    std::size_t jobs() const;

    /** Rows per shard the engine would use for an @p rows batch. */
    std::size_t shardRowsFor(std::size_t rows) const;

  private:
    ir::ExecutablePlan plan_;
    EngineOptions options_;
    /** "engine.rows"/"engine.batches" {target=scalar|avx2|neon} in the
     *  process-global telemetry registry, resolved once at
     *  construction (stable pointers; engine copies share them). */
    telemetry::Counter *rowsCounter_ = nullptr;
    telemetry::Counter *batchesCounter_ = nullptr;
};

}  // namespace homunculus::runtime
