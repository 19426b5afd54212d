/**
 * @file
 * Executor: the process's long-lived worker pool.
 *
 * Spawning fresh std::threads per parallel dispatch cost ~50 us of
 * fan-out, paid on every micro-batch the serving path classifies and
 * every candidate the search scores. This executor replaces that with
 * one persistent pool:
 *
 *  - lazy-started: no threads exist until the first dispatch that can
 *    use them, and the pool grows on demand — never beyond its
 *    configured parallelism, so an oversized jobs knob on one call
 *    cannot pin extra threads for the rest of the process;
 *  - stable worker ids: every dispatch hands each participant a slot id
 *    in [0, width) that is stable for the whole dispatch, so callers
 *    keep indexing per-worker scratch arenas exactly as before;
 *  - deterministic failures: every task runs, per-task exceptions are
 *    captured, and the lowest-index one is rethrown after the dispatch
 *    completes — the same contract the spawning pool had, so failure
 *    behavior is independent of scheduling;
 *  - safe nesting: a dispatch issued from inside a pool worker runs
 *    inline on that worker instead of fanning out again, which is what
 *    keeps search-over-inference (family searches scoring candidates on
 *    the same pool) from oversubscribing the machine or deadlocking.
 *
 * The submitting thread always participates in its own dispatch, so a
 * dispatch completes even when every pool worker is busy elsewhere —
 * concurrent submitters share the pool instead of competing spawns.
 *
 * Every parallel section in the tree (engine row shards, MAT walks,
 * family searches, candidate scoring) dispatches on processDefault(),
 * so the whole process shares one pool. Workers are joined only when
 * the Executor is destroyed.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace homunculus::runtime {

/**
 * Chunked range callback: a contiguous slice [begin, end) of the index
 * space plus the id (0 <= worker < width) of the participant running
 * it. The id is stable across every chunk that participant processes,
 * so callers can index per-worker scratch arenas with it.
 */
using ChunkFn =
    std::function<void(std::size_t begin, std::size_t end,
                       std::size_t worker)>;

/** A long-lived worker pool. */
class Executor
{
  public:
    /** Task callback: (task index, participant slot in [0, width)). */
    using TaskFn = std::function<void(std::size_t task, std::size_t worker)>;

    /** @param jobs target parallelism (0 = one per hardware thread).
     *  No threads start until the first dispatch needs them. */
    explicit Executor(std::size_t jobs = 0);

    /** Joins every worker; outstanding dispatches must have returned. */
    ~Executor();

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    /**
     * Run fn(0..num_tasks-1) across up to @p width participants
     * (0 = parallelism(); always clamped to parallelism() and
     * num_tasks). The calling thread is participant 0 and works too;
     * pool workers join as participants 1..width-1 as they free up.
     * Blocks until every task completed; rethrows the lowest-index
     * captured exception, if any. With width <= 1, a single task, or
     * when called from inside a pool worker (nested parallelism), the
     * tasks run inline on the caller in index order, same contract.
     */
    void run(std::size_t width, std::size_t num_tasks, const TaskFn &fn);

    /**
     * Chunked variant for fine-grained loops (row sharding, per-packet
     * work): fn receives contiguous [begin, end) slices of [0, count)
     * of up to @p chunk_size indices plus the participant slot, so one
     * dispatch amortizes over thousands of elements. Chunks run in
     * order on the caller when the dispatch is inline. An exception
     * inside fn abandons the rest of that chunk only; the lowest
     * failing chunk's is rethrown.
     * @throws std::invalid_argument when chunk_size == 0 and count > 0.
     */
    void runChunks(std::size_t width, std::size_t count,
                   std::size_t chunk_size, const ChunkFn &fn);

    /** The configured target width (the constructor's jobs, resolved). */
    std::size_t parallelism() const { return target_; }

    /** Resolve a caller-facing jobs knob: 0 -> parallelism(). */
    std::size_t resolve(std::size_t jobs) const
    {
        return jobs != 0 ? jobs : parallelism();
    }

    /** Currently live pool threads (excludes submitting threads). */
    std::size_t liveWorkers() const;

    /** True when the calling thread is a pool worker of any Executor.
     *  Dispatches issued here run inline (see class comment). */
    static bool onWorkerThread();

    /** Total pool threads ever spawned, process-wide — the test hook
     *  behind the "zero thread creations per batch after warm-up"
     *  guarantee: repeated dispatches must leave this counter flat. */
    static std::uint64_t threadsSpawned();

    /**
     * The process-default executor every engine, MAT walk, platform
     * evaluation and compile dispatches on. Sized to the hardware;
     * also the single place a jobs value of 0 resolves (hoisted out of
     * the old per-call-site hardware_concurrency lookups).
     */
    static Executor &processDefault();

  private:
    /** One in-flight dispatch; lives on the submitter's stack. */
    struct Job
    {
        const TaskFn *fn = nullptr;
        std::size_t numTasks = 0;
        std::size_t width = 0;           ///< max participants.
        std::atomic<std::size_t> next{0};  ///< task-claim cursor.
        /** Guarded by the pool mutex: slots handed out / still running
         *  (both include the submitter). The submitter may not return —
         *  and the Job may not be destroyed — until active reaches 0. */
        std::size_t participants = 1;
        std::size_t active = 1;
        std::vector<char> failed;          ///< per-task failure flags.
        std::vector<std::string> errors;   ///< per-task messages.
    };

    void workerMain();
    void runJobTasks(Job &job, std::size_t slot);
    void ensureWorkersLocked(std::size_t wanted);
    void eraseQueuedLocked(Job *job);

    mutable std::mutex mutex_;
    std::condition_variable workCv_;   ///< workers wait for queued jobs.
    std::condition_variable doneCv_;   ///< submitters wait for active==0.
    std::deque<Job *> queue_;          ///< jobs still accepting helpers.
    std::vector<std::thread> threads_;
    const std::size_t target_;         ///< configured width, resolved.
    bool stopping_ = false;            ///< set once, by the destructor.
};

}  // namespace homunculus::runtime
