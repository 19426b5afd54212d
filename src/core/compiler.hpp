/**
 * @file
 * The staged compiler session API (paper Figure 2, bottom-to-top flow).
 *
 * A Compiler holds options; each openSession() yields an independent,
 * reentrant CompileSession that exposes the pipeline as explicit stages:
 *
 *   loadData -> selectFamilies -> searchFamilies -> pickWinner -> emit
 *
 * Stages must run in order (out-of-order calls return FAILED_PRECONDITION)
 * and report Status values with per-spec diagnostics instead of silent
 * booleans. Sessions support a progress-observer callback, cooperative
 * cancellation via CancellationToken, and run the per-family Bayesian-
 * optimization searches of each spec concurrently on the process-default
 * runtime::Executor, which serving-time inference shares (results are
 * bit-identical for a fixed seed regardless of thread count: every
 * family search derives its own seed and owns all of its state).
 * Compiler::compile() runs every stage in one call.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/alchemy.hpp"
#include "core/schedule.hpp"
#include "core/status.hpp"
#include "core/trainer.hpp"
#include "ir/passes.hpp"

namespace homunculus::runtime {
class QuantCache;
}

namespace homunculus::core {

/** Pipeline stages, in execution order. */
enum class Stage {
    kIdle = 0,         ///< session created, nothing run yet.
    kLoadData,
    kSelectFamilies,
    kSearchFamilies,
    kPickWinner,
    kEmit,
};

std::string stageName(Stage stage);

/** One progress notification from a running session. */
struct ProgressEvent
{
    Stage stage = Stage::kIdle;
    std::string specName;   ///< empty for session-level events.
    std::string family;     ///< set for per-family search events.
    std::size_t evalsDone = 0;   ///< family evaluations completed so far.
    std::size_t evalsTotal = 0;  ///< family evaluation budget.
    std::string message;
};

/** Observer callback; may be invoked from worker threads (serialized). */
using ProgressObserver = std::function<void(const ProgressEvent &)>;

/** Shared-state cancellation handle; copy freely across threads. */
class CancellationToken
{
  public:
    CancellationToken()
        : cancelled_(std::make_shared<std::atomic<bool>>(false))
    {
    }

    void requestCancel() const { cancelled_->store(true); }
    bool cancelRequested() const { return cancelled_->load(); }

    /** Re-arm after a cancellation, e.g. before reusing a Compiler
     *  whose options share this token across sessions. */
    void reset() const { cancelled_->store(false); }

  private:
    std::shared_ptr<std::atomic<bool>> cancelled_;
};

/** Knobs of one compile session. */
struct CompileOptions
{
    /**
     * Per-candidate-family search budget. Any shouldStop/onEvaluation
     * hooks set here are chained with (not replaced by) the session's
     * own cancellation/progress wiring, and run unserialized on search
     * worker threads — unlike `observer`, which is serialized. A
     * non-empty `bo.costMetricKey` must be one of evalMetricKeys(), or
     * loadData() fails with INVALID_ARGUMENT.
     */
    opt::BoConfig bo;
    std::uint64_t seed = 9;      ///< training/search determinism.
    /**
     * Search pool width (0 = #cores): every family's warm-up candidates
     * go out as one flat dispatch, then the per-family guided phases.
     */
    std::size_t jobs = 1;
    /**
     * Row-shard width for scoring each candidate on its test partition
     * (0 = one per hardware thread, 1 = inline). Orthogonal to `jobs`:
     * `jobs` parallelizes across candidates and families, `inferJobs`
     * parallelizes inside one candidate's evaluate — useful when specs
     * have few families but large test partitions. Results are
     * bit-identical at any width.
     */
    std::size_t inferJobs = 1;
    ProgressObserver observer;   ///< optional stage/search callback.
    CancellationToken cancelToken;  ///< cancel from any thread.

    /**
     * IR passes the emit stage runs on every winning model before code
     * generation (homc --passes). Empty selects the default
     * ir::PassManager::optimizationPipeline(); names must be in
     * ir::passNames() or emit() fails with INVALID_ARGUMENT.
     * Every built-in pass preserves predictions bit-for-bit, so the
     * reported objective still describes the emitted artifact.
     */
    std::vector<std::string> emitPasses;
    ir::PassDumpHook passDump;   ///< fired after each emit-stage pass.

    CompileOptions()
    {
        bo.numInitSamples = 5;
        bo.numIterations = 15;
    }
};

/** The winning artifact for one scheduled model spec. */
struct GeneratedModel
{
    std::string specName;
    Algorithm algorithm = Algorithm::kDnn;
    ir::ModelIr model;
    backends::ResourceReport report;
    double objective = 0.0;       ///< metric on the test partition.
    std::string code;             ///< emitted platform program.
    opt::BoResult searchHistory;  ///< winning family's BO trace.
    /** Every family's trace, keyed by algorithm name (regret plots). */
    std::map<std::string, opt::BoResult> perAlgorithm;
};

/** One family's completed search within a spec. */
struct FamilySearch
{
    Algorithm algorithm = Algorithm::kDnn;
    opt::BoResult search;
    CandidateEvaluation best;  ///< best feasible evaluation's artifacts.
    bool hasBest = false;
    bool failed = false;  ///< the search raised internally.
    std::string error;    ///< diagnostic when failed (may be empty).
};

/** Everything a finished session produced. */
struct CompileReport
{
    std::vector<GeneratedModel> models;  ///< one per scheduled leaf spec.
    /** Aggregate resources per schedule (Table 3 accounting). */
    std::vector<ScheduleResources> scheduleResources;

    /** Find a generated model by spec name (nullptr when absent). */
    const GeneratedModel *find(const std::string &spec_name) const;
};

/**
 * One in-flight compilation of a platform's schedules. Sessions are
 * single-use: each stage runs once, in order. The PlatformHandle must
 * outlive the session and must not be re-scheduled while it runs.
 */
class CompileSession
{
  public:
    CompileSession(PlatformHandle &platform, CompileOptions options);

    /** Stage 1: resolve every scheduled spec's data loader. */
    Status loadData();
    /** Stage 2: candidate algorithm families per spec (paper §3.2.1). */
    Status selectFamilies();
    /** Stage 3: per-family constrained BO searches, possibly parallel. */
    Status searchFamilies();
    /** Stage 4: best feasible model across families, per spec. */
    Status pickWinner();
    /**
     * Stage 5: run the IR pass pipeline (CompileOptions::emitPasses or
     * the default optimization pipeline) on every winning model,
     * refresh its resource report, then generate backend code.
     */
    Status emit();

    /** Drive every remaining stage in order; stops at the first error. */
    Status run();

    /** The last successfully completed stage. */
    Stage completedStage() const { return completed_; }

    /** Token shared with CompileOptions::cancelToken. */
    CancellationToken cancellation() const { return options_.cancelToken; }

    /** Valid after pickWinner() (code filled in by emit()). */
    const CompileReport &report() const { return report_; }

    /** Move the report out of a finished session (report() is then
     *  empty); avoids copying models/traces for one-shot compiles. */
    CompileReport takeReport() { return std::move(report_); }

    /** Scheduled (deduplicated) spec names, after loadData(). */
    std::vector<std::string> specNames() const;

    /** Candidate families of one spec, after selectFamilies(). */
    const std::vector<Algorithm> *familiesFor(
        const std::string &spec_name) const;

    /** Per-family search outcomes of one spec, after searchFamilies(). */
    const std::vector<FamilySearch> *searchesFor(
        const std::string &spec_name) const;

  private:
    struct SpecState
    {
        const ModelSpec *spec = nullptr;
        ml::DataSplit split;
        std::vector<Algorithm> candidates;
        std::vector<FamilySearch> searches;  ///< candidate order.
        /** Per-format quantized views of split.test.x, shared by every
         *  family search of this spec (see runtime::QuantCache). */
        std::shared_ptr<runtime::QuantCache> quantCache;
    };

    Status requireStage(Stage expected, const char *stage_name) const;
    Status checkCancelled(const char *stage_name) const;
    void notify(ProgressEvent event);
    SpecState *findSpec(const std::string &spec_name);
    const SpecState *findSpec(const std::string &spec_name) const;

    PlatformHandle &platform_;
    CompileOptions options_;
    Stage completed_ = Stage::kIdle;
    std::vector<SpecState> specs_;
    CompileReport report_;
    /** Serializes observer callbacks from search worker threads. */
    std::shared_ptr<std::mutex> observerMutex_;
};

/** The reentrant driver: options + session factory + one-shot compile. */
class Compiler
{
  public:
    explicit Compiler(CompileOptions options = {});

    CompileSession openSession(PlatformHandle &platform) const;

    /** Run a full session and return its report. */
    Result<CompileReport> compile(PlatformHandle &platform) const;

    const CompileOptions &options() const { return options_; }

  private:
    CompileOptions options_;
};

}  // namespace homunculus::core
