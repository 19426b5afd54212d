/**
 * @file
 * Router: per-lane model binding and label-driven DAG chaining over a
 * ModelRegistry.
 *
 * The batcher thread used to execute one fixed plan; with a registry of
 * co-resident models the question per batch becomes *which* plan — and
 * for chained apps (the paper's flagship deployment: a cheap front
 * classifier whose verdict routes suspicious rows into a deeper
 * per-app model), *which plans, in what order*. The router answers
 * both from a declarative RouteConfig, the ASAP-style workflow-spec
 * idiom: lanes bind to entry models, chain rules map (model, output
 * label) to the next model, and runBatch() executes the resulting
 * small schedule-DAG for one admitted batch:
 *
 *   1. every row starts at its lane's entry model;
 *   2. rows are grouped by model, each group runs as one engine batch
 *      (per-model scaling applied from the epoch's artifact scaler);
 *   3. a row whose (model, label) matches a chain rule moves to the
 *      next model's group for the next round; everything else keeps
 *      its label as the final verdict;
 *   4. rounds repeat until no rule fires or maxChainDepth model
 *      executions have been spent on the row (which also bounds
 *      accidental rule cycles).
 *
 * Plan-version semantics — the hot-swap contract: snapshot() pins the
 * active epoch of every routed model *once*, and a batch executes
 * entirely against that snapshot. A registry swap mid-batch therefore
 * never mixes plan versions inside a batch; the batch finishes on the
 * epochs it started with and the *next* batch picks up the new
 * versions. Labels are bit-identical to running the same rows
 * single-threaded through the snapshot's plans (the engine's
 * determinism contract, composed per hop).
 *
 * All routed models must consume the same feature schema (equal input
 * width) — chaining re-reads the admitted row, it does not transform
 * features between hops.
 *
 * Fault tolerance (opt-in, zero-cost when unconfigured):
 *
 *   - Per-model circuit breakers: when breakerThreshold consecutive
 *     executions of a model throw, its breaker opens and the model is
 *     taken out of rotation. After breakerCooldownUs the breaker
 *     half-opens — the next group routed to the model runs as a probe
 *     batch; success closes the breaker, failure reopens it for another
 *     cooldown. While open, groups follow the model's FallbackRule: to
 *     a fallback model (rows merge into its group for the round) or to
 *     a static verdict label (rows resolve immediately). An open
 *     breaker with no fallback fails the batch — the Server supervisor
 *     turns that into per-request failures.
 *
 *   - Request deadlines: with deadlineUs set, a row whose admission age
 *     exceeds the budget does not start another chain hop — it keeps
 *     the label of the hop it already completed, counted in
 *     RouteBatchOutcome::deadlineTruncated. The entry hop always runs
 *     (an admitted request is owed a verdict); only escalations are
 *     truncated.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "math/matrix.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/model_registry.hpp"
#include "runtime/request_queue.hpp"
#include "runtime/telemetry.hpp"

namespace homunculus::runtime {

/** One chaining edge: @p fromModel emitting @p label sends the row on
 *  to @p toModel. */
struct ChainRule
{
    std::string fromModel;
    int label = 0;
    std::string toModel;
};

/**
 * Where rows routed to @p model go while its circuit breaker is open:
 * exactly one of @p toModel (another routed model) or @p label (a
 * static verdict in the broken model's class space) must be set.
 */
struct FallbackRule
{
    std::string model;
    std::string toModel;  ///< fallback model; empty when label is used.
    int label = -1;       ///< static verdict; -1 when toModel is used.
};

/** Declarative routing spec (validated by the Router constructor). */
struct RouteConfig
{
    /** Entry model for lanes without an explicit binding. */
    std::string defaultModel;
    /** Per-lane entry models; empty strings (and lanes beyond the
     *  list) fall back to defaultModel. */
    std::vector<std::string> laneModels;
    /** Label-driven chaining edges; at most one per (model, label). */
    std::vector<ChainRule> chain;
    /** Most model executions any one row may consume (>= 1); bounds
     *  chain length and rule cycles alike. */
    std::size_t maxChainDepth = 4;
    /** Consecutive execution failures that open a model's circuit
     *  breaker; 0 disables the breakers entirely. */
    std::size_t breakerThreshold = 0;
    /** How long an open breaker rejects traffic before half-opening
     *  for a probe batch. */
    std::uint64_t breakerCooldownUs = 100'000;
    /** Per-model open-breaker fallbacks; at most one per model. */
    std::vector<FallbackRule> fallbacks;
    /** Per-request chain budget in us from admission; 0 = unbounded.
     *  Rows over budget keep their current hop's label instead of
     *  starting another hop. */
    std::uint64_t deadlineUs = 0;
};

/** One model execution a request went through. */
struct RouteHop
{
    std::string model;
    std::uint64_t version = 0;
    int label = 0;
};

/** The full per-request execution record (last hop's label is the
 *  final verdict). */
struct RouteTrace
{
    std::vector<RouteHop> hops;
};

/** Per-model-execution accounting for one batch. */
struct RouteStepStats
{
    std::size_t model = 0;        ///< index into Router::models().
    std::uint64_t version = 0;
    std::size_t rows = 0;
    double engineUs = 0.0;
};

/** What one runBatch() resolved outside the normal hop path. */
struct RouteBatchOutcome
{
    /** Rows that kept a completed hop's label because the next hop
     *  exceeded their deadline budget. */
    std::size_t deadlineTruncated = 0;
    /** Rows resolved through an open breaker's fallback (redirected to
     *  the fallback model or given its static verdict). */
    std::size_t fallbackRows = 0;
};

/** Circuit-breaker lifecycle (see RouteConfig::breakerThreshold). */
enum class BreakerState
{
    kClosed,    ///< normal service.
    kOpen,      ///< rejecting traffic until the cooldown elapses.
    kHalfOpen,  ///< cooldown elapsed; next group runs as a probe.
};

/** Point-in-time view of one model's breaker. */
struct BreakerSnapshot
{
    BreakerState state = BreakerState::kClosed;
    std::uint64_t opens = 0;        ///< closed/half-open -> open flips.
    std::uint64_t failures = 0;     ///< execution failures recorded.
    std::uint64_t consecutiveFailures = 0;
    std::uint64_t probes = 0;       ///< half-open probe batches granted.
    std::uint64_t fallbackRows = 0; ///< rows routed around this model.
};

const char *breakerStateName(BreakerState state);

class Router
{
  public:
    /**
     * Binds @p config against @p registry, resolving model names and
     * validating the spec: every referenced model must be loaded, all
     * must share one input width, chain labels must fit the source
     * model's class count, and no (model, label) may have two rules.
     * @throws std::runtime_error on any violation.
     */
    Router(std::shared_ptr<ModelRegistry> registry, RouteConfig config,
           telemetry::MetricRegistry *metrics = nullptr);

    /**
     * The pinned plan versions one batch executes against: one epoch
     * per routed model, captured atomically-per-model from the
     * registry. Hold it for the whole batch.
     */
    struct Snapshot
    {
        std::vector<std::shared_ptr<const ModelEpoch>> epochs;
    };

    /** Pin every routed model's active epoch into @p out, replacing
     *  what it held; a reused Snapshot keeps its capacity. */
    void snapshot(Snapshot &out) const;

    /** Reusable buffers so steady-state runBatch() calls stay
     *  allocation-light. Not shareable between concurrent calls. */
    struct Scratch
    {
        math::Matrix input;
        std::vector<int> labels;
        std::vector<std::vector<std::size_t>> current;  ///< per model.
        std::vector<std::vector<std::size_t>> next;
        /** Engine arena shared by every hop (each plan resizes it to
         *  its own shape; capacity is kept across hops and batches). */
        ir::ExecutablePlan::Scratch engine;
    };

    /**
     * Execute the schedule-DAG for the @p rows requests at @p requests
     * admitted on @p lane against @p snapshot. Writes one final label
     * per request into @p final_labels (row order preserved), appends
     * one RouteStepStats per model execution to @p steps (cleared
     * first), and — when @p traces is non-null — records every hop per
     * request. @p injector, when non-null, is consulted at
     * "router.hop" (and "router.hop.<model>") before every model
     * execution.
     *
     * Failure semantics: a throwing model execution records a breaker
     * failure for that model and rethrows — the caller owns the batch
     * outcome (the Server supervisor bisects or fails it). The scratch
     * and output buffers are reset on entry, so a failed call may
     * simply be retried.
     */
    RouteBatchOutcome runBatch(const Snapshot &snapshot, std::size_t lane,
                               const Request *requests, std::size_t rows,
                               std::vector<int> &final_labels,
                               std::vector<RouteTrace> *traces,
                               std::vector<RouteStepStats> &steps,
                               Scratch &scratch,
                               faults::FaultInjector *injector =
                                   nullptr) const;

    /** This model's breaker right now (index into models()). */
    BreakerSnapshot breaker(std::size_t model) const;

    /** The shared feature width every routed model consumes. */
    std::size_t inputDim() const { return inputDim_; }

    /** Routed model names, index-aligned with Snapshot::epochs and
     *  RouteStepStats::model. */
    const std::vector<std::string> &models() const { return models_; }

    /** Entry-model name for @p lane. */
    const std::string &modelForLane(std::size_t lane) const;

    const RouteConfig &config() const { return config_; }
    const std::shared_ptr<ModelRegistry> &registry() const
    {
        return registry_;
    }

  private:
    /** Mutable breaker state-machine fields, guarded by breakerMutex_
     *  (runBatch is const; the breakers are bookkeeping, not routing
     *  config). The monotonic counts (opens/failures/probes/
     *  fallbackRows) live in the telemetry registry — BreakerSnapshot
     *  is a view over those instruments. */
    struct Breaker
    {
        BreakerState state = BreakerState::kClosed;
        std::size_t consecutive = 0;
        std::chrono::steady_clock::time_point openedAt;
    };

    /** Per-model breaker + hop instruments ("router.*" {model=name}),
     *  resolved once at construction. */
    struct ModelInstruments
    {
        telemetry::Counter *hops = nullptr;      ///< group executions.
        telemetry::Counter *hopRows = nullptr;   ///< rows per execution.
        telemetry::Counter *opens = nullptr;
        telemetry::Counter *failures = nullptr;
        telemetry::Counter *probes = nullptr;
        telemetry::Counter *fallbackRows = nullptr;
    };

    std::size_t indexOf(const std::string &model) const;
    /** May this model execute a group now? Grants the half-open probe
     *  when the cooldown has elapsed. */
    bool breakerAllows(std::size_t model) const;
    void recordFailure(std::size_t model) const;
    void recordSuccess(std::size_t model) const;

    std::shared_ptr<ModelRegistry> registry_;
    RouteConfig config_;
    std::vector<std::string> models_;       ///< unique, route order.
    std::vector<std::size_t> laneModel_;    ///< lane -> model index.
    std::size_t defaultModel_ = 0;          ///< model index.
    /** nextModel_[m][label] = successor model index, or npos. */
    std::vector<std::vector<std::size_t>> nextModel_;
    /** Per-model open-breaker redirects (npos / -1 when unset). */
    std::vector<std::size_t> fallbackModel_;
    std::vector<int> fallbackLabel_;
    std::size_t inputDim_ = 0;

    /** Private registry when the constructor got none (standalone
     *  routers in tests); Server passes its own so router instruments
     *  land in the same snapshot as queue and server ones. */
    std::unique_ptr<telemetry::MetricRegistry> metricsOwned_;
    telemetry::MetricRegistry *metrics_ = nullptr;
    std::vector<ModelInstruments> modelIns_;  ///< aligned with models_.
    telemetry::Counter *deadlineTruncated_ = nullptr;

    mutable std::mutex breakerMutex_;
    mutable std::vector<Breaker> breakers_;
};

}  // namespace homunculus::runtime
