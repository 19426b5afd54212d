/**
 * @file
 * Server: asynchronous serving front-end over the inference runtime.
 *
 * The live-traffic counterpart of StreamHarness's trace replay. Callers
 * submit individual rows or wire frames from any thread — into one of
 * N priority lanes — and get a typed SubmitResult back immediately
 * (except in kBlockWithTimeout mode, where a submit to a full lane
 * blocks the calling thread up to blockTimeoutUs waiting for space); a
 * dedicated batcher thread drains a multi-lane RequestQueue (per-lane
 * size-or-deadline flush, strict priority among ready lanes, shed /
 * block-with-timeout / early-drop backpressure — see
 * request_queue.hpp), runs each released batch through the
 * InferenceEngine (which shards it on the shared persistent
 * runtime::Executor), and delivers verdicts through a callback. So the
 * full pipeline is: per-lane admission -> per-lane batching policy ->
 * one long-lived worker pool — no thread is created per request, per
 * batch, or per dispatch after warm-up.
 *
 * Producer-side work stays on the producer: submitFrame() parses,
 * extracts, and standardizes on the calling thread (the same split
 * StreamHarness uses), so the batcher thread spends its time in the
 * engine. Verdicts are bit-identical to running the same rows through
 * ExecutablePlan in one call — batching never changes labels. (In
 * kEarlyDrop mode an admitted row can still be dropped at flush time
 * if it aged past its lane's budget; dropped rows get no verdict and
 * are counted per lane.)
 *
 * stop() closes admissions, drains every admitted row (final partial
 * batches included), joins the batcher, and returns the run's
 * statistics — aggregate and per lane; the destructor stops
 * implicitly.
 *
 * Fault tolerance: the batcher thread is supervised. A throw anywhere
 * in batch execution (engine, router hop, fault injection, a poison
 * row) is caught per batch and — after an optional bisect-retry that
 * splits the batch in half up to retryDepth times to isolate the
 * poison rows — converted into per-request failure notifications
 * (ServerConfig::onFailure) and failedBatches/failedRows counters.
 * User callbacks (onVerdict/onTrace/onDrop/onFailure) are individually
 * guarded: a throwing callback is counted in callbackErrors and never
 * kills the batcher or loses later verdicts. Every admitted request
 * therefore resolves as exactly one of {verdict, failure, drop}.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "ml/preprocess.hpp"
#include "net/feature_extract.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/inference_engine.hpp"
#include "runtime/model_registry.hpp"
#include "runtime/request_queue.hpp"
#include "runtime/router.hpp"
#include "runtime/telemetry.hpp"

namespace homunculus::runtime {

/** Per-request failure sink: the batch carrying this request threw
 *  terminally (past any bisect-retry budget). Runs on the batcher
 *  thread; a throwing sink is counted, not fatal. */
using FailureFn = std::function<void(
    std::uint64_t ticket, std::size_t lane, const std::string &error)>;

/** Serving knobs. */
struct ServerConfig
{
    /** Lane 0 (most urgent) batching/admission policy. A single-lane
     *  kShed config is exactly the PR 4 server. */
    QueuePolicy queue;
    /** Policies for lanes 1..N, in decreasing priority. */
    std::vector<QueuePolicy> extraLanes;
    BackpressureMode backpressure = BackpressureMode::kShed;
    /** kBlockWithTimeout: longest a submit may wait for lane space. */
    std::uint64_t blockTimeoutUs = 10'000;
    /** Optional flush-time drop sink (kEarlyDrop aging a row out) so
     *  producers can retry or degrade instead of reading counters
     *  after the fact. Runs on the batcher thread, lock-free w.r.t.
     *  the queue — see runtime::DropFn. */
    DropFn onDrop;
    /** Optional per-request failure sink (see FailureFn). */
    FailureFn onFailure;
    /** Bisect-retry budget for a failed batch: how many times it may
     *  be split in half before its rows fail. 0 fails the whole batch
     *  on first throw; log2(maxBatch) isolates single poison rows. */
    std::size_t retryDepth = 0;
    /** Lane-fairness aging budget (µs) for the queue: 0 keeps strict
     *  priority; > 0 lets a lane overdue past its own deadline by this
     *  much preempt higher-priority ready lanes. See
     *  QueueConfig::fairnessAgingUs. */
    std::uint64_t fairnessAgingUs = 0;
    /**
     * First ticket value this server issues (tickets count up from
     * here). The default matches the historical "tickets start at 1".
     * ShardedServer hands each shard a disjoint high-bits namespace
     * (shard index << 48) so tickets stay globally unique — and
     * shard-recoverable — after stats merge.
     */
    std::uint64_t ticketBase = 1;
    /** Fault injector consulted at the serving sites ("engine.run",
     *  "queue.flush", "router.hop", "callback.dispatch"). nullptr uses
     *  the process-global injector (HOMUNCULUS_FAULTS) — which is
     *  disarmed, and free, unless the operator armed it. */
    faults::FaultInjector *injector = nullptr;
    /**
     * Registry every instrument of this server lives in — its own, its
     * queue's, and its router's. nullptr (the default) gives the
     * server a private registry, so each shard of a ShardedServer
     * stays independently snapshotable/mergeable. The public stats
     * structs are views materialized from this registry at stop().
     */
    std::shared_ptr<telemetry::MetricRegistry> metrics;
    /**
     * Opt-in request-lifecycle span sink (see telemetry::TraceSink).
     * Non-owning; must outlive the server. When set, every admitted
     * request records one span — served, failed, or dropped — with its
     * lane, timestamps, routed model hops, and bisect-retry depth.
     */
    telemetry::TraceSink *trace = nullptr;
};

/** How a submit was disposed of. */
enum class SubmitStatus
{
    kAdmitted,        ///< queued; a verdict will follow (or a drain).
    kShed,            ///< admission control rejected it (lane full).
    kTimedOut,        ///< block-with-timeout waited, still no space.
    kRejectedClosed,  ///< the server is stopping.
    kMalformed,       ///< submitFrame could not parse the frame.
};

/**
 * Result of one submit: the outcome, and the ticket when admitted.
 * Parse failure (kMalformed) is distinguishable from admission
 * rejection (kShed/kTimedOut) — they used to collapse into one
 * nullopt, which made overload invisible to frame producers.
 */
struct SubmitResult
{
    SubmitStatus status = SubmitStatus::kShed;
    /** Valid when admitted() — and for kMalformed, where it names the
     *  onFailure notification the parse failure was reported under, so
     *  frame producers can correlate instead of counting anonymously. */
    std::uint64_t ticket = 0;

    bool admitted() const { return status == SubmitStatus::kAdmitted; }
    explicit operator bool() const { return admitted(); }
};

/** Per-lane slice of a serving run (valid after stop()). */
struct LaneStats
{
    QueueCounters queue;             ///< this lane's admission/flushes.
    std::size_t rowsServed = 0;      ///< verdicts delivered from it.
    std::size_t rowsFailed = 0;      ///< failure notifications from it.
    std::size_t batches = 0;
    double p50RequestLatencyUs = 0.0;  ///< admission -> verdict.
    double p99RequestLatencyUs = 0.0;
    /** The lane's request-latency reservoir snapshot (µs) — what the
     *  percentiles above were computed from; ShardedServer concatenates
     *  these across shards to recompute merged percentiles. */
    std::vector<double> requestLatencySamplesUs;
};

/** Per-model slice of a routed serving run (valid after stop();
 *  empty for single-model servers). */
struct ModelStats
{
    std::string name;
    std::uint64_t activeVersion = 0;  ///< at stop() time.
    std::size_t rowsServed = 0;       ///< rows this model executed
                                      ///< (chained rows count per hop).
    std::size_t batches = 0;          ///< model executions (DAG steps).
    double p50StepLatencyUs = 0.0;    ///< engine time per execution.
    double p99StepLatencyUs = 0.0;
    /** Step-latency reservoir snapshot (µs), for cross-shard merging. */
    std::vector<double> stepLatencySamplesUs;
    /** Circuit-breaker slice at stop() time (all-zero / "closed" when
     *  breakers are disabled). */
    std::string breakerState = "closed";
    std::uint64_t breakerOpens = 0;
    std::uint64_t breakerFallbackRows = 0;
};

/** Everything one serving run produced (valid after stop()). */
struct ServerStats
{
    QueueCounters queue;             ///< counters summed over lanes.
    std::size_t rowsServed = 0;      ///< verdicts delivered.
    std::size_t batches = 0;
    std::size_t malformedFrames = 0; ///< submitFrame parse drops.
    double meanBatchRows = 0.0;
    /**
     * Latency percentiles: exact for runs up to the sampling-reservoir
     * capacity (64k batches / 64k requests), uniform-reservoir
     * estimates beyond it — memory stays O(1) no matter how long the
     * server lives. All-zero when the run served nothing.
     */
    double p50BatchLatencyUs = 0.0;  ///< engine time per batch.
    double p99BatchLatencyUs = 0.0;
    double p50RequestLatencyUs = 0.0;  ///< admission -> verdict.
    double p99RequestLatencyUs = 0.0;
    double wallSeconds = 0.0;          ///< construction -> stop().
    /**
     * Fault-tolerance counters. An admitted request resolves exactly
     * once: rowsServed + failedRows + queue.earlyDropped ==
     * queue.accepted after stop().
     */
    std::size_t failedBatches = 0;   ///< terminal batch-slice failures.
    std::size_t failedRows = 0;      ///< requests failed (not served).
    std::size_t retriedBatches = 0;  ///< bisect splits performed.
    std::size_t callbackErrors = 0;  ///< throwing user callbacks caught.
    std::size_t deadlineTruncated = 0;  ///< chain hops skipped (routed).
    std::size_t fallbackRows = 0;    ///< breaker-fallback rows (routed).
    /**
     * Latency reservoir snapshots (µs) the percentiles were computed
     * from. ShardedServer::stop() concatenates them across shards and
     * recomputes — exact whenever no shard overflowed its 64k
     * reservoir (the common case), a shard-sample-weighted estimate
     * beyond that.
     */
    std::vector<double> batchLatencySamplesUs;
    std::vector<double> requestLatencySamplesUs;
    std::vector<LaneStats> lanes;      ///< one entry per lane.
    std::vector<ModelStats> models;    ///< routed servers only.
};

class Server
{
  public:
    /** Verdict delivery, invoked on the batcher thread once per request
     *  after its batch completes (request.lane identifies the lane).
     *  Must be fast and thread-safe. */
    using VerdictFn =
        std::function<void(const Request &request, int verdict)>;

    /** Routed servers only: the full hop-by-hop execution record of a
     *  request (which models, which pinned versions, which labels),
     *  delivered with the verdict on the batcher thread. */
    using RouteTraceFn =
        std::function<void(const Request &request,
                           const RouteTrace &trace)>;

    /**
     * Starts the batcher thread.
     * @param engine compiled model + execution policy (jobs, pool)
     * @param config lane policies + backpressure mode
     * @param on_verdict optional verdict sink
     * @param scaler optional fitted feature scaler applied to every
     *        submitted row (the training-time one; see ModelIr scaler
     *        provenance); nullopt serves raw features
     */
    explicit Server(InferenceEngine engine, ServerConfig config = {},
                    VerdictFn on_verdict = {},
                    std::optional<ml::StandardScaler> scaler =
                        std::nullopt);

    /**
     * Routed (multi-model) server: the batcher thread executes the
     * router's schedule-DAG per batch — lane bindings pick the entry
     * model, chain rules move rows between models — against epochs
     * pinned from @p registry once per batch, so a concurrent
     * registry.swap() never mixes plan versions inside a batch.
     *
     * Submission differences from the single-model form: submit()
     * stores *raw* features (each hop standardizes with its own
     * epoch's artifact scaler inside the router — one shared producer
     * side scaler can't serve models with different training moments),
     * and every routed model must consume one shared input width.
     */
    Server(std::shared_ptr<ModelRegistry> registry, RouteConfig route,
           ServerConfig config = {}, VerdictFn on_verdict = {},
           RouteTraceFn on_trace = {});

    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Admit one feature row (extractor-domain values; the scaler, when
     * bound, is applied here on the calling thread) into @p lane.
     * Throws std::out_of_range for an unknown lane and
     * std::runtime_error for a row of the wrong width.
     */
    SubmitResult submit(std::vector<double> features,
                        std::size_t lane = 0);

    /** Parse a wire frame and admit it. A malformed frame is counted,
     *  assigned a ticket, reported through onFailure under that
     *  ticket, and returned as kMalformed. The engine's model must
     *  consume the packet extractor's schema. */
    SubmitResult submitFrame(const std::vector<std::uint8_t> &frame,
                             std::size_t lane = 0);

    /** Extract + admit an already-parsed packet. */
    SubmitResult submitPacket(const net::RawPacket &packet,
                              std::size_t lane = 0);

    /** Extract + admit a parsed frame whose payload stays in the
     *  caller's buffer (read only during the call). */
    SubmitResult submitPacket(const net::PacketView &packet,
                              std::size_t lane = 0);

    /** Close admissions, drain, join, and return the stats. Idempotent
     *  (later calls return the same snapshot). */
    ServerStats stop();

    /** Rows currently queued across all lanes (admission backlog). */
    std::size_t depth() const { return queue_.depth(); }
    /** Rows currently queued in one lane. */
    std::size_t depth(std::size_t lane) const
    {
        return queue_.depth(lane);
    }
    std::size_t lanes() const { return queue_.lanes(); }

    /** Single-model servers only (routed servers have no single
     *  engine — ask the registry). */
    const InferenceEngine &engine() const { return *engine_; }
    /** Routed servers only; nullptr for the single-model form. */
    const Router *router() const
    {
        return router_ ? &*router_ : nullptr;
    }
    const std::shared_ptr<ModelRegistry> &registry() const
    {
        return registry_;
    }
    const ServerConfig &config() const { return config_; }

    /** The registry holding every instrument of this server (the
     *  config's, or the private one created at construction). Live —
     *  snapshot() works mid-run; the stats structs returned by stop()
     *  are views materialized from it. */
    telemetry::MetricRegistry &metrics() const { return *metrics_; }
    const std::shared_ptr<telemetry::MetricRegistry> &
    metricsHandle() const
    {
        return metrics_;
    }

  private:
    /** The batcher loop's reusable buffers, threaded through the slice
     *  recursion so a bisect-retry allocates nothing new. */
    struct ServeBuffers
    {
        math::Matrix features;
        std::vector<int> labels;
        ir::ExecutablePlan::Scratch engineScratch;  ///< single-model.
        Router::Scratch scratch;
        std::vector<RouteTrace> traces;
        std::vector<RouteStepStats> steps;
    };

    void serveLoop();
    /**
     * Execute requests [begin, end) of @p batch as one engine batch,
     * supervised: a throw bisects (while depth < retryDepth and the
     * slice splits) or fails the slice. Success records stats and
     * delivers guarded callbacks.
     */
    void runSlice(RequestBatch &batch, std::size_t begin,
                  std::size_t end, std::size_t depth,
                  ServeBuffers &buffers);
    /** Terminal failure of [begin, end): counters + onFailure each
     *  (@p depth is the bisect depth the slice died at, for spans). */
    void failSlice(const RequestBatch &batch, std::size_t begin,
                   std::size_t end, std::size_t depth,
                   const std::string &error);
    /** Record one served slice into the registry instruments (lane +
     *  aggregate; @p steps adds per-model instruments when routed). */
    void servedSliceStats(const RequestBatch &batch, std::size_t begin,
                          std::size_t end,
                          std::chrono::steady_clock::time_point finished,
                          double batch_us,
                          const std::vector<RouteStepStats> *steps,
                          const RouteBatchOutcome &outcome);
    /** Record one span per request of [begin, end) into the trace
     *  sink (no-op when no sink is bound). @p traces supplies routed
     *  hop records, index-aligned with the slice rows. */
    void recordSpans(const RequestBatch &batch, std::size_t begin,
                     std::size_t end,
                     std::chrono::steady_clock::time_point finished,
                     std::size_t depth, telemetry::SpanOutcome outcome,
                     const std::vector<RouteTrace> *traces);
    /** Resolve every aggregate/lane/model instrument in metrics_
     *  (constructor body, before the batcher starts). */
    void bindInstruments();
    /** The queue config, with the user's onDrop wrapped in the
     *  callback guard (and span recording when a sink is bound). */
    QueueConfig makeQueueConfig();

    /** The one model (single-model form) or nothing (routed form —
     *  plans live in registry_ and are pinned per batch). */
    std::optional<InferenceEngine> engine_;
    std::shared_ptr<ModelRegistry> registry_;  ///< routed form only.
    std::optional<Router> router_;             ///< routed form only.
    std::size_t inputDim_ = 0;  ///< submit-side width check.
    ServerConfig config_;
    VerdictFn onVerdict_;
    RouteTraceFn onTrace_;
    std::optional<ml::StandardScaler> scaler_;
    net::FeatureExtractor extractor_;
    /** Fault-injection hook point (never null after construction). */
    faults::FaultInjector *injector_ = nullptr;
    /** The registry behind every stat of this server (the config's or
     *  a private one). Declared before queue_ so makeQueueConfig() can
     *  hand it to the queue's lane counters. */
    std::shared_ptr<telemetry::MetricRegistry> metrics_;
    RequestQueue queue_;
    std::thread batcher_;
    std::atomic<std::uint64_t> nextId_{1};
    std::chrono::steady_clock::time_point startedAt_;

    /**
     * The server's aggregate instruments, resolved once from metrics_
     * by bindInstruments() — the hot path updates through these stable
     * pointers (relaxed-atomic counters, per-histogram-mutex
     * reservoirs) and never takes a shared stats lock. The old
     * statsMutex_-guarded tallies and reservoirs live in the registry
     * now; stop() materializes ServerStats from a snapshot.
     */
    struct Instruments
    {
        telemetry::Counter *rowsServed = nullptr;
        telemetry::Counter *batches = nullptr;
        telemetry::Counter *failedBatches = nullptr;
        telemetry::Counter *failedRows = nullptr;
        telemetry::Counter *retriedBatches = nullptr;
        telemetry::Counter *deadlineTruncated = nullptr;
        telemetry::Counter *fallbackRows = nullptr;
        telemetry::Counter *callbackErrors = nullptr;
        telemetry::Counter *malformedFrames = nullptr;
        telemetry::Histogram *batchLatencyUs = nullptr;
        telemetry::Histogram *requestLatencyUs = nullptr;
    };

    /** Per-lane instruments ("server.lane.*" {lane=N}). */
    struct LaneInstruments
    {
        telemetry::Counter *rowsServed = nullptr;
        telemetry::Counter *rowsFailed = nullptr;
        telemetry::Counter *batches = nullptr;
        telemetry::Histogram *requestLatencyUs = nullptr;
    };

    /** Per-model instruments of a routed run ("server.model.*"
     *  {model=name}), index-aligned with router_->models(). */
    struct ModelInstruments
    {
        telemetry::Counter *rows = nullptr;
        telemetry::Counter *steps = nullptr;  ///< DAG executions.
        telemetry::Histogram *stepLatencyUs = nullptr;
    };

    Instruments ins_;
    std::vector<LaneInstruments> laneIns_;
    std::vector<ModelInstruments> modelIns_;
    /** Span ids of router_->models(), interned into config_.trace at
     *  construction so hop recording is an array write. */
    std::vector<std::uint16_t> spanModelIds_;

    std::mutex stopMutex_;    ///< serializes stop() callers.
    bool stopped_ = false;
    ServerStats finalStats_;  ///< valid once stopped_.
};

}  // namespace homunculus::runtime
