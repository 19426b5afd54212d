/**
 * @file
 * Machinery the two serving workloads share: joining each request's
 * generator-side record with its server-side callback record, per-thread
 * result sinks, and the per-layer readings taken from ServerStats and
 * from timing the engine directly.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir/model_ir.hpp"
#include "math/matrix.hpp"
#include "measure.hpp"
#include "ml/dataset.hpp"
#include "report.hpp"
#include "runtime/inference_engine.hpp"
#include "runtime/server.hpp"

namespace perfbench {

/** Steady-clock nanoseconds (the clock Request::enqueuedAt uses). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline std::int64_t
toNs(std::chrono::steady_clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
}

/** Which part of a run a request belongs to. */
enum class Phase : std::uint8_t
{
    kWarmup,  ///< set-up traffic: verdicts checked, nothing timed.
    kTimed,   ///< end-to-end timing only.
    kTraced,  ///< end-to-end plus the per-layer timestamps.
};

/** What the generator knows about one admitted request. */
struct SentHalf
{
    std::uint64_t ticket = 0;
    std::uint32_t item = 0;       ///< index into the input pool.
    std::int64_t dueNs = 0;       ///< open loop: schedule time; closed:
                                  ///< the submit call's start.
    std::int64_t startNs = 0;     ///< submit call entered.
    std::int64_t endNs = 0;       ///< submit call returned.
    Phase phase = Phase::kWarmup;
};

/** What the server's callbacks reported about one request. */
struct ServedHalf
{
    std::uint64_t ticket = 0;
    std::int64_t enqueuedNs = 0;  ///< Request::enqueuedAt.
    std::int64_t verdictNs = 0;   ///< verdict callback entered.
    int verdict = -1;
    /** Routed runs: the entry hop's model version, the hop count, and
     *  the entry hop's label (0 / -1 when not routed). */
    std::uint64_t entryVersion = 0;
    std::uint32_t hops = 0;
    int entryLabel = -1;
    std::uint64_t deepVersion = 0;
};

/**
 * Pairs the two halves of every request without assuming how the
 * server numbers tickets: each half lands in a slot keyed by (shard of
 * ticket, low ticket bits), and whichever half arrives second completes
 * the pair on its own thread. Sink 0 is the generator thread; sink
 * 1 + s is shard s's batcher thread, so a sink is only ever written by
 * one thread. A slot still occupied by another ticket is a collision —
 * counted, and reported as a failed gate.
 */
class Joiner
{
  public:
    using CompleteFn = std::function<void(
        const SentHalf &, const ServedHalf &, std::size_t sink)>;

    Joiner(std::size_t shards, CompleteFn complete);

    void sent(const SentHalf &half);
    void served(const ServedHalf &half);

    /** Wait (at most 30 s) until @p admitted pairs have completed. */
    bool drain(std::uint64_t admitted) const;

    std::uint64_t collisions() const { return collisions_.load(); }
    std::uint64_t joined() const { return joined_.load(); }

  private:
    static constexpr std::size_t kSlotBits = 16;
    static constexpr std::uint32_t kSent = 1, kServed = 2;

    struct Slot
    {
        std::atomic<std::uint32_t> halves{0};
        SentHalf sent;
        ServedHalf served;
    };

    Slot &slotFor(std::uint64_t ticket);

    std::size_t shards_;
    std::unique_ptr<Slot[]> slots_;
    CompleteFn complete_;
    std::atomic<std::uint64_t> collisions_{0};
    std::atomic<std::uint64_t> joined_{0};
};

/**
 * Length of one measurement window. Latency percentiles and delivered
 * rates are taken per window, and the run reports its least-disturbed
 * decile of windows (kQuietDecile): on a shared host whose vCPUs are
 * descheduled for milliseconds many times a second, most windows carry
 * some of that stolen time and the run-wide figures swing with the
 * neighbours' load, while the quiet decile repeats and still moves with
 * every per-request cost the program adds. The run-wide tail stays
 * visible as the server.req_p99_us diagnostic.
 */
constexpr std::int64_t kWindowNs = 10'000'000;
constexpr double kQuietDecile = 0.10;

/** Per-thread results of one serving run. */
struct Sink
{
    /** End-to-end latency (us) by window of send time, subsampled to a
     *  fixed size per window so memory does not grow with throughput
     *  (peak_rss_mb then describes the program, not these buffers). */
    std::vector<Reservoir> windowUs;
    std::uint64_t rng = 0x9E3779B97F4A7C15ull;
    std::int64_t lastVerdictNs = 0;  ///< latest timed verdict seen.
    std::vector<double> lateUs;     ///< traced: generator lateness.
    std::vector<double> submitUs;   ///< traced: time inside submit.
    std::vector<double> admitUs;    ///< traced: enqueuedAt -> verdict.
    std::vector<double> overlapUs;  ///< traced: enqueuedAt -> submit end.
    std::uint64_t mismatches = 0;   ///< verdicts != the reference.
    std::string firstMismatch;
    /** confusion[truth * classes + verdict]. */
    std::vector<std::uint64_t> confusion;

    /** Verdicts delivered per window of verdict time. */
    std::vector<std::uint32_t> doneByWindow;

    /** Record one timed request sent @p sent_ns and answered
     *  @p verdict_ns into the phase (both relative to its start). */
    void record(std::int64_t sent_ns, std::int64_t verdict_ns,
                double latency_us, int truth, int verdict, int classes);
    /** Count a verdict that differs from the reference. */
    void mismatch(const std::string &what);
};

/** Latency samples each sink keeps per window. */
constexpr std::size_t kWindowKeep = 1024;

/** Empty every sink for a phase of @p windows windows. Traced runs
 *  reserve @p traced_rows per-request slots so no push_back reallocates
 *  on a batcher thread mid-run. */
void resetSinks(std::vector<Sink> &sinks, std::size_t windows,
                std::size_t traced_rows, int classes);

/** Concatenate one field of every sink. */
std::vector<double> gather(const std::vector<Sink> &sinks,
                           std::vector<double> Sink::*field);

/** The windowed end-to-end summary of one phase. */
struct Windowed
{
    double p50Us = 0.0;      ///< quiet-decile window's p50 latency.
    double p90Us = 0.0;      ///< quiet-decile window's p90 latency.
    double perSecond = 0.0;  ///< quiet-decile window's verdicts / s.
    double meanUs = 0.0;     ///< run-wide mean latency.
    double p99Us = 0.0;      ///< run-wide p99 (a diagnostic).
    std::uint64_t samples = 0;
    std::size_t windows = 0;
};

Windowed windowed(const std::vector<Sink> &sinks);

/** Binary F1 of class 1 for two classes, macro F1 otherwise — the
 *  library's ml::f1ForTask convention, from summed confusion counts. */
double f1FromConfusion(const std::vector<Sink> &sinks, int classes);

/** Multiply-accumulates one row costs in @p model's dense layers (0
 *  for non-MLP models). */
std::size_t macsPerRow(const homunculus::ir::ModelIr &model);

/**
 * ns per row of InferenceEngine::run on batches of @p batch rows drawn
 * from @p pool (already scaled), repeated for about @p budget_s.
 */
double engineNsPerRow(const homunculus::runtime::InferenceEngine &engine,
                      const homunculus::math::Matrix &pool,
                      std::size_t batch, double budget_s);

/**
 * Train a small MLP on @p raw (unscaled features), lower it to the
 * deployed Q8.8 IR, and record the training scaler in the artifact, so
 * serving applies the exact moments the model was trained against.
 */
homunculus::ir::ModelIr trainModel(const homunculus::ml::Dataset &raw,
                                   std::vector<std::size_t> hidden,
                                   std::size_t epochs, std::uint64_t seed,
                                   const std::string &name);

/** (x - mean) / std per column — the same arithmetic the server and
 *  router apply to admitted rows. */
std::vector<double> scaleRow(const std::vector<double> &row,
                             const homunculus::ir::ModelIr &model);

/** ns per item of @p fn, which handles @p items items per call, run
 *  repeatedly for about @p budget_s. */
template <typename Fn>
double
nsPerItem(std::size_t items, double budget_s, Fn &&fn)
{
    std::size_t done = 0;
    double started = nowSeconds(), elapsed = 0.0;
    while (elapsed < budget_s) {
        fn();
        done += items;
        elapsed = nowSeconds() - started;
    }
    return elapsed * 1e9 / static_cast<double>(done);
}

/** Spin until the steady clock reaches @p deadline_ns. */
void spinUntil(std::int64_t deadline_ns);

/** The untraced run's end-to-end metrics: req_p50_us / req_p90_us from
 *  the windowed summary, @p per_second as req_per_s, f1, setup_s and
 *  peak_rss_mb, plus the run-wide p99 as the server.req_p99_us
 *  diagnostic. */
void reportEndToEnd(Report &report, const Windowed &summary,
                    double per_second, double f1,
                    std::vector<double> setup_s);

/** Verdicts delivered per wall second from @p start_ns to the last
 *  timed verdict. */
double deliveredPerSecond(const std::vector<Sink> &sinks,
                          std::int64_t start_ns);

/**
 * Per-layer readings every serving workload takes from ServerStats
 * and from its traced sinks: queue batching and shedding, engine batch
 * time, admit-to-verdict and queue wait, submit time.
 */
void reportServingLayers(Report &report,
                         const homunculus::runtime::ServerStats &stats,
                         const std::vector<Sink> &sinks);

/**
 * Close a serving run: the gates every serving workload shares (the
 * timed verdicts drained, each served verdict equals the reference, the
 * join saw every request once, every admitted request resolved exactly
 * once), then attempted / failed and fail_frac from the generator's
 * @p sent counts plus the server's failed and early-dropped rows.
 */
void finishServing(Report &report,
                   const homunculus::runtime::ServerStats &stats,
                   const std::vector<Sink> &sinks, const Joiner &joiner,
                   std::uint64_t admitted, bool drained, Outcomes sent);

}  // namespace perfbench
