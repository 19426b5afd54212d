#include "core/compiler.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "common/logging.hpp"
#include "common/string_util.hpp"
#include "core/design_space.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/quant_cache.hpp"

namespace homunculus::core {

std::string
stageName(Stage stage)
{
    switch (stage) {
      case Stage::kIdle: return "idle";
      case Stage::kLoadData: return "loadData";
      case Stage::kSelectFamilies: return "selectFamilies";
      case Stage::kSearchFamilies: return "searchFamilies";
      case Stage::kPickWinner: return "pickWinner";
      case Stage::kEmit: return "emit";
    }
    return "?";
}

const GeneratedModel *
CompileReport::find(const std::string &spec_name) const
{
    for (const auto &model : models)
        if (model.specName == spec_name)
            return &model;
    return nullptr;
}

namespace {

/** One (spec, family) unit of search work, writing into @p slot. */
struct FamilyWork
{
    const ModelSpec *spec = nullptr;
    const ml::DataSplit *split = nullptr;
    Algorithm algorithm = Algorithm::kDnn;
    FamilySearch *slot = nullptr;
    /** The spec's shared test-partition quantization cache (optional). */
    const runtime::QuantCache *quantCache = nullptr;
};

/**
 * One family's constrained-BO search, split at the warm-up: every mutable
 * object (search space, optimizer, best-evaluation cache) is owned here,
 * the RNG seed derives only from (session seed, family), and the platform
 * is used through its const interface. Warm-up results are told to the
 * optimizer, and folded into the best-evaluation cache, strictly in
 * warm-up index order whatever order the pool finishes them in — which
 * is what keeps the session bit-identical for a fixed seed at any pool
 * width.
 */
struct FamilyRun
{
    /** One warm-up configuration's outcome, filled in by its pool task.
     *  Neither set: still running, skipped on shouldStop, or not run. */
    struct Warmup
    {
        std::optional<CandidateEvaluation> evaluation;  ///< until told.
        std::optional<std::string> error;  ///< the evaluation threw.
    };

    const FamilyWork *work = nullptr;
    backends::EvalOptions eval;
    std::unique_ptr<opt::BayesianOptimizer> optimizer;
    std::vector<opt::Configuration> warmup;  ///< the optimizer's batch.

    /** Guards everything below, and *work->slot while warm-up tasks run. */
    std::mutex mutex;
    std::vector<Warmup> results;  ///< per warm-up index.
    std::size_t told = 0;  ///< warm-up prefix told to the optimizer.
    /** Lowest skipped or failed warm-up index: later ones are not run. */
    std::size_t firstGap = 0;

    CandidateEvaluation
    evaluate(const opt::Configuration &config,
             const backends::Platform &target,
             const CompileOptions &options) const
    {
        return evaluateCandidate(work->algorithm, config, *work->spec,
                                 *work->split, target, options.seed, eval);
    }

    /**
     * Cache @p evaluation as the family's best when it beats the best so
     * far, so the winner's IR needs no retraining after the search; then
     * return what the optimizer is told. Called in evaluation order.
     */
    opt::EvalResult
    keep(CandidateEvaluation evaluation)
    {
        FamilySearch &out = *work->slot;
        opt::EvalResult result = toEvalResult(evaluation);
        if (evaluation.report.feasible &&
            (!out.hasBest || evaluation.objective > out.best.objective)) {
            out.best = std::move(evaluation);
            out.hasBest = true;
        }
        return result;
    }

    void
    fail(std::string error)
    {
        work->slot->failed = true;
        work->slot->error = std::move(error);
    }
};

std::string
describeException(std::exception_ptr error)
{
    try {
        std::rethrow_exception(error);
    } catch (const std::exception &caught) {
        return caught.what();
    } catch (...) {
        return "unknown exception";
    }
}

/**
 * Build @p run's optimizer and draw its warm-up batch; chains rather than
 * clobbers the hooks the caller set on options.bo.
 */
void
prepareFamily(FamilyRun &run, const backends::Platform &target,
              const CompileOptions &options,
              const std::function<bool()> &should_stop,
              const std::function<void(const ProgressEvent &)> &notify)
{
    const FamilyWork &item = *run.work;
    item.slot->algorithm = item.algorithm;
    run.eval.jobs = options.inferJobs;
    run.eval.quantCache = item.quantCache;
    run.eval.executor = options.executor;

    opt::BoConfig bo_config = options.bo;
    bo_config.seed = options.seed ^
                     (0x9E37ull * (static_cast<std::uint64_t>(
                                       algorithmKind(item.algorithm)) + 1));
    if (std::function<bool()> user_stop = bo_config.shouldStop) {
        bo_config.shouldStop = [user_stop, should_stop] {
            return user_stop() || should_stop();
        };
    } else {
        bo_config.shouldStop = should_stop;
    }
    auto progress = [&notify, &item](std::size_t done, std::size_t total) {
        if (!notify)
            return;
        ProgressEvent event;
        event.stage = Stage::kSearchFamilies;
        event.specName = item.spec->name;
        event.family = algorithmName(item.algorithm);
        event.evalsDone = done;
        event.evalsTotal = total;
        notify(event);
    };
    if (std::function<void(std::size_t, std::size_t)> user_eval =
            bo_config.onEvaluation) {
        bo_config.onEvaluation = [user_eval, progress](std::size_t done,
                                                       std::size_t total) {
            user_eval(done, total);
            progress(done, total);
        };
    } else {
        bo_config.onEvaluation = progress;
    }

    run.optimizer = std::make_unique<opt::BayesianOptimizer>(
        buildDesignSpace(item.algorithm, *item.spec, target), bo_config);
    run.warmup = run.optimizer->ask();
    run.results.resize(run.warmup.size());
    run.firstGap = run.warmup.size();
}

/**
 * Evaluate warm-up configuration @p index of @p run (one pool task), then
 * tell the optimizer every result that now extends the in-order prefix.
 * A task that sees shouldStop, or whose evaluation throws, leaves a gap:
 * nothing after it is run or told.
 */
void
runWarmupTask(FamilyRun &run, std::size_t index,
              const backends::Platform &target, const CompileOptions &options)
{
    {
        std::lock_guard<std::mutex> lock(run.mutex);
        if (index > run.firstGap || run.work->slot->failed)
            return;
    }
    const opt::BoConfig &bo = run.optimizer->config();
    const bool stopped = bo.shouldStop && bo.shouldStop();
    FamilyRun::Warmup outcome;
    if (!stopped) {
        try {
            outcome.evaluation =
                run.evaluate(run.warmup[index], target, options);
        } catch (...) {
            outcome.error = describeException(std::current_exception());
        }
    }

    // The tells stay under the lock, progress events included: the
    // optimizer must see results in index order, and two workers
    // finishing together must not interleave theirs.
    std::lock_guard<std::mutex> lock(run.mutex);
    if (stopped || outcome.error)
        run.firstGap = std::min(run.firstGap, index);
    run.results[index] = std::move(outcome);
    while (run.told < run.results.size() && !run.work->slot->failed) {
        FamilyRun::Warmup &next = run.results[run.told];
        if (next.error) {
            run.fail(*next.error);
            break;
        }
        if (!next.evaluation)
            break;
        try {
            run.optimizer->tell(run.warmup[run.told],
                                run.keep(std::move(*next.evaluation)));
        } catch (...) {
            run.fail(describeException(std::current_exception()));
            break;
        }
        next.evaluation.reset();
        ++run.told;
    }
}

/**
 * Run a list of family searches on the options' pool, wiring cancellation
 * and per-family progress events. Two dispatches: first one flat
 * `jobs`-wide dispatch over every (spec, family, warm-up index) — no
 * warm-up draw depends on an earlier result, so this is where the pool
 * fills up even when one family dominates — then one task per family for
 * its surrogate-guided phase. CompileSession::searchFamilies and
 * searchSpec() both orchestrate through this one helper, which keeps
 * their behavior — and the determinism guarantee — identical. @p notify
 * must already be serialized (or empty).
 */
void
runFamilySearches(const std::vector<FamilyWork> &work,
                  const backends::Platform &target,
                  const CompileOptions &options,
                  const std::function<void(const ProgressEvent &)> &notify)
{
    CancellationToken token = options.cancelToken;
    std::function<bool()> should_stop = [token] {
        return token.cancelRequested();
    };
    runtime::Executor &pool =
        options.executor != nullptr ? *options.executor
                                    : runtime::Executor::processDefault();

    // Families and their warm-up tasks, flattened family-major.
    std::vector<FamilyRun> runs(work.size());
    std::vector<std::pair<FamilyRun *, std::size_t>> warmup_tasks;
    for (std::size_t f = 0; f < work.size(); ++f) {
        FamilyRun &run = runs[f];
        run.work = &work[f];
        try {
            prepareFamily(run, target, options, should_stop, notify);
        } catch (...) {
            run.fail(describeException(std::current_exception()));
            continue;
        }
        for (std::size_t i = 0; i < run.warmup.size(); ++i)
            warmup_tasks.emplace_back(&run, i);
    }

    pool.run(options.jobs, warmup_tasks.size(),
             [&](std::size_t task, std::size_t) {
                 auto [run, index] = warmup_tasks[task];
                 runWarmupTask(*run, index, target, options);
             });

    pool.run(options.jobs, runs.size(), [&](std::size_t f, std::size_t) {
        FamilyRun &run = runs[f];
        FamilySearch &out = *run.work->slot;
        if (out.failed)
            return;
        if (run.told < run.warmup.size()) {
            out.search = run.optimizer->cancel();  // stopped mid-warm-up.
            return;
        }
        opt::ObjectiveFn objective = [&](const opt::Configuration &config) {
            return run.keep(run.evaluate(config, target, options));
        };
        try {
            out.search = run.optimizer->optimize(objective);
        } catch (...) {
            run.fail(describeException(std::current_exception()));
        }
    });
}

void
logFamilyOutcome(const ModelSpec &spec, const FamilySearch &family)
{
    HOM_LOG(kInfo, "compiler")
        << spec.name << "/" << algorithmName(family.algorithm)
        << (family.search.foundFeasible
                ? common::format(": best %s=%.4f",
                                 metricName(spec.optimizationMetric)
                                     .c_str(),
                                 family.search.bestResult.objective)
                : std::string(": no feasible configuration"));
}

/**
 * Fold one spec's search outcomes into a Status: worker-side exceptions
 * become one INTERNAL status with per-family context, a cancelled search
 * reports CANCELLED, and surviving families get their log line.
 */
Status
foldSearchOutcomes(const ModelSpec &spec,
                   const std::vector<FamilySearch> &searches)
{
    Status internal_error = Status::internal("family search failed");
    bool any_error = false;
    bool any_cancelled = false;
    for (const FamilySearch &family : searches) {
        if (family.failed) {
            any_error = true;
            internal_error.withContext(
                "spec '" + spec.name + "' family " +
                algorithmName(family.algorithm) + ": " +
                (family.error.empty() ? std::string("unknown error")
                                      : family.error));
            continue;
        }
        any_cancelled |= family.search.cancelled;
        logFamilyOutcome(spec, family);
    }
    if (any_error)
        return internal_error;
    if (any_cancelled)
        return Status::cancelled("compilation cancelled during family "
                                 "search");
    return Status::ok();
}

/**
 * Run the emit-stage IR pass pipeline on a winning model and refresh its
 * resource report (passes only ever shrink the artifact, so a feasible
 * model stays feasible). Predictions — and therefore the reported
 * objective — are bit-identical across every registered pass.
 */
Status
runEmitPasses(const CompileOptions &options,
              const backends::Platform &target, GeneratedModel &model)
{
    try {
        ir::PassManager passes;
        if (options.emitPasses.empty()) {
            passes = ir::PassManager::optimizationPipeline();
        } else {
            for (const std::string &name : options.emitPasses)
                passes.append(name);  // throws naming the known passes.
        }
        if (options.passDump)
            passes.setDumpHook(options.passDump);
        if (passes.run(model.model))
            model.report = target.estimate(model.model);
    } catch (const std::exception &error) {
        Status status = Status::invalidArgument(
            "emit passes failed for spec '" + model.specName + "'");
        status.withContext(error.what());
        return status;
    }
    return Status::ok();
}

/** Backend codegen with exceptions converted to an INTERNAL Status. */
Status
emitModelCode(const backends::Platform &target, GeneratedModel &model)
{
    try {
        model.code = target.generateCode(model.model);
    } catch (const std::exception &error) {
        Status status = Status::internal(
            "code generation failed for spec '" + model.specName + "'");
        status.withContext(error.what());
        return status;
    }
    return Status::ok();
}

/** Best feasible family, iterated in candidate order (deterministic). */
Result<GeneratedModel>
pickWinnerFromSearches(const ModelSpec &spec,
                       const std::vector<FamilySearch> &searches)
{
    GeneratedModel winner;
    winner.specName = spec.name;
    bool have_winner = false;

    for (const FamilySearch &family : searches) {
        winner.perAlgorithm[algorithmName(family.algorithm)] =
            family.search;
        if (family.search.foundFeasible && family.hasBest &&
            (!have_winner ||
             family.best.objective > winner.objective)) {
            winner.algorithm = family.algorithm;
            winner.model = family.best.model;
            winner.report = family.best.report;
            winner.objective = family.best.objective;
            winner.searchHistory = family.search;
            have_winner = true;
        }
    }

    if (!have_winner) {
        Status status = Status::infeasible(
            "no feasible model found for spec '" + spec.name + "'");
        for (const FamilySearch &family : searches) {
            status.withContext(
                "family " + algorithmName(family.algorithm) +
                (family.search.history.empty()
                     ? ": no evaluations"
                     : ": no feasible configuration"));
        }
        return status;
    }
    return winner;
}

}  // namespace

// --------------------------------------------------------- CompileSession

CompileSession::CompileSession(PlatformHandle &platform,
                               CompileOptions options)
    : platform_(platform), options_(std::move(options)),
      observerMutex_(std::make_shared<std::mutex>())
{
}

Status
CompileSession::requireStage(Stage expected, const char *stage_name) const
{
    if (completed_ != expected)
        return Status::failedPrecondition(
            std::string(stage_name) + " cannot run now (last completed "
            "stage: " + stageName(completed_) + ")");
    return Status::ok();
}

Status
CompileSession::checkCancelled(const char *stage_name) const
{
    if (options_.cancelToken.cancelRequested())
        return Status::cancelled(std::string("compilation cancelled before ")
                                 + stage_name);
    return Status::ok();
}

void
CompileSession::notify(ProgressEvent event)
{
    if (!options_.observer)
        return;
    std::lock_guard<std::mutex> lock(*observerMutex_);
    options_.observer(event);
}

CompileSession::SpecState *
CompileSession::findSpec(const std::string &spec_name)
{
    for (auto &state : specs_)
        if (state.spec->name == spec_name)
            return &state;
    return nullptr;
}

const CompileSession::SpecState *
CompileSession::findSpec(const std::string &spec_name) const
{
    for (const auto &state : specs_)
        if (state.spec->name == spec_name)
            return &state;
    return nullptr;
}

std::vector<std::string>
CompileSession::specNames() const
{
    std::vector<std::string> names;
    names.reserve(specs_.size());
    for (const auto &state : specs_)
        names.push_back(state.spec->name);
    return names;
}

const std::vector<Algorithm> *
CompileSession::familiesFor(const std::string &spec_name) const
{
    const SpecState *state = findSpec(spec_name);
    return state ? &state->candidates : nullptr;
}

const std::vector<FamilySearch> *
CompileSession::searchesFor(const std::string &spec_name) const
{
    const SpecState *state = findSpec(spec_name);
    return state ? &state->searches : nullptr;
}

Status
CompileSession::loadData()
{
    if (Status status = requireStage(Stage::kIdle, "loadData"); !status)
        return status;
    if (Status status = checkCancelled("loadData"); !status)
        return status;

    Status bad = Status::invalidArgument(
        "scheduled spec lacks a data loader");
    bool any_bad = false;
    for (const ScheduleNode &schedule : platform_.schedules()) {
        for (const ModelSpec *spec : schedule.leafSpecs()) {
            if (!spec) {
                any_bad = true;
                bad.withContext("schedule contains an empty spec node");
                continue;
            }
            if (findSpec(spec->name) != nullptr)
                continue;  // identical spec reused across the DAG.
            if (!spec->dataLoader) {
                any_bad = true;
                bad.withContext("spec '" + spec->name + "'");
                continue;
            }
            SpecState state;
            state.spec = spec;
            specs_.push_back(std::move(state));
        }
    }
    if (any_bad) {
        specs_.clear();
        return bad;
    }

    for (auto &state : specs_) {
        try {
            state.split = state.spec->dataLoader();
        } catch (const std::exception &error) {
            Status status = Status::internal(
                "data loader raised for spec '" + state.spec->name + "'");
            status.withContext(error.what());
            specs_.clear();
            return status;
        }
        ProgressEvent event;
        event.stage = Stage::kLoadData;
        event.specName = state.spec->name;
        event.message = common::format(
            "%zu train / %zu test rows", state.split.train.numSamples(),
            state.split.test.numSamples());
        notify(event);
    }

    completed_ = Stage::kLoadData;
    return Status::ok();
}

Status
CompileSession::selectFamilies()
{
    if (Status status = requireStage(Stage::kLoadData, "selectFamilies");
        !status)
        return status;
    if (Status status = checkCancelled("selectFamilies"); !status)
        return status;

    const backends::Platform &target = platform_.platform();
    Status bad = Status::infeasible("no feasible algorithm family");
    bool any_bad = false;
    for (auto &state : specs_) {
        state.candidates = selectCandidates(
            *state.spec, target, state.split.train.numFeatures(),
            state.split.train.numClasses);
        if (state.candidates.empty()) {
            any_bad = true;
            bad.withContext("spec '" + state.spec->name + "' on " +
                            target.name());
            continue;
        }
        ProgressEvent event;
        event.stage = Stage::kSelectFamilies;
        event.specName = state.spec->name;
        std::string families;
        for (Algorithm algorithm : state.candidates) {
            if (!families.empty())
                families += ", ";
            families += algorithmName(algorithm);
        }
        event.message = families;
        notify(event);
    }
    if (any_bad)
        return bad;

    completed_ = Stage::kSelectFamilies;
    return Status::ok();
}

Status
CompileSession::searchFamilies()
{
    if (Status status =
            requireStage(Stage::kSelectFamilies, "searchFamilies");
        !status)
        return status;
    if (Status status = checkCancelled("searchFamilies"); !status)
        return status;
    // Injected search failure (global injector only): surfaces as a
    // Status like every other stage error, never as a throw — the
    // session API's contract.
    if (runtime::faults::FaultInjector::global().shouldFail(
            runtime::faults::kSiteCompileSearch))
        return Status::internal("fault-injected: compile.search");

    std::vector<FamilyWork> work;
    for (auto &state : specs_) {
        state.searches.assign(state.candidates.size(), {});
        // One quantization cache per spec, shared across its family
        // searches: candidates with the same FixedPointFormat reuse one
        // quantized view of the test partition (thread-safe; see
        // runtime::QuantCache).
        state.quantCache =
            std::make_shared<runtime::QuantCache>(state.split.test.x);
        for (std::size_t f = 0; f < state.candidates.size(); ++f)
            work.push_back({state.spec, &state.split,
                            state.candidates[f], &state.searches[f],
                            state.quantCache.get()});
    }
    runFamilySearches(work, platform_.platform(), options_,
                      [this](const ProgressEvent &event) {
                          notify(event);
                      });

    // Report outcomes sequentially (deterministic log order) and fold
    // worker-side failures / cancellation into a diagnostic Status.
    for (const auto &state : specs_)
        if (Status status = foldSearchOutcomes(*state.spec, state.searches);
            !status)
            return status;
    if (options_.cancelToken.cancelRequested())
        return Status::cancelled("compilation cancelled during family "
                                 "search");

    completed_ = Stage::kSearchFamilies;
    return Status::ok();
}

Status
CompileSession::pickWinner()
{
    if (Status status = requireStage(Stage::kSearchFamilies, "pickWinner");
        !status)
        return status;
    if (Status status = checkCancelled("pickWinner"); !status)
        return status;

    std::map<std::string, backends::ResourceReport> reports;
    for (const auto &state : specs_) {
        Result<GeneratedModel> winner =
            pickWinnerFromSearches(*state.spec, state.searches);
        if (!winner.isOk()) {
            report_ = CompileReport{};
            return winner.status();
        }
        reports[winner->specName] = winner->report;
        ProgressEvent event;
        event.stage = Stage::kPickWinner;
        event.specName = winner->specName;
        event.message = algorithmName(winner->algorithm) + " " +
                        common::format("%s=%.4f",
                                       metricName(state.spec
                                                      ->optimizationMetric)
                                           .c_str(),
                                       winner->objective);
        notify(event);
        report_.models.push_back(std::move(winner.value()));
    }

    for (const ScheduleNode &schedule : platform_.schedules())
        report_.scheduleResources.push_back(
            composeResources(schedule, reports));

    completed_ = Stage::kPickWinner;
    return Status::ok();
}

Status
CompileSession::emit()
{
    if (Status status = requireStage(Stage::kPickWinner, "emit"); !status)
        return status;
    if (Status status = checkCancelled("emit"); !status)
        return status;

    const backends::Platform &target = platform_.platform();
    for (GeneratedModel &model : report_.models) {
        if (Status status = runEmitPasses(options_, target, model); !status)
            return status;
        if (options_.emitCode) {
            if (Status status = emitModelCode(target, model); !status)
                return status;
        }
        ProgressEvent event;
        event.stage = Stage::kEmit;
        event.specName = model.specName;
        event.message = common::format("%zu passes, %zu bytes",
                                       model.model.passes.size(),
                                       model.code.size());
        notify(event);
    }

    completed_ = Stage::kEmit;
    return Status::ok();
}

Status
CompileSession::run()
{
    if (completed_ == Stage::kIdle)
        if (Status status = loadData(); !status)
            return status;
    if (completed_ == Stage::kLoadData)
        if (Status status = selectFamilies(); !status)
            return status;
    if (completed_ == Stage::kSelectFamilies)
        if (Status status = searchFamilies(); !status)
            return status;
    if (completed_ == Stage::kSearchFamilies)
        if (Status status = pickWinner(); !status)
            return status;
    if (completed_ == Stage::kPickWinner)
        if (Status status = emit(); !status)
            return status;
    return Status::ok();
}

// --------------------------------------------------------------- Compiler

Compiler::Compiler(CompileOptions options) : options_(std::move(options))
{
}

CompileSession
Compiler::openSession(PlatformHandle &platform) const
{
    return CompileSession(platform, options_);
}

Result<CompileReport>
Compiler::compile(PlatformHandle &platform) const
{
    CompileSession session(platform, options_);
    if (Status status = session.run(); !status)
        return status;
    return session.takeReport();
}

// ------------------------------------------------------------- searchSpec

Result<GeneratedModel>
searchSpec(const ModelSpec &spec, PlatformHandle &platform,
           const CompileOptions &options, const ml::DataSplit &split)
{
    const backends::Platform &target = platform.platform();
    std::vector<Algorithm> candidates = selectCandidates(
        spec, target, split.train.numFeatures(), split.train.numClasses);
    if (candidates.empty())
        return Status::infeasible("no feasible algorithm family for spec '" +
                                  spec.name + "' on " + target.name());

    std::mutex observer_mutex;
    std::function<void(const ProgressEvent &)> notify;
    if (options.observer)
        notify = [&options, &observer_mutex](const ProgressEvent &event) {
            std::lock_guard<std::mutex> lock(observer_mutex);
            options.observer(event);
        };

    runtime::QuantCache quant_cache(split.test.x);
    std::vector<FamilySearch> searches(candidates.size());
    std::vector<FamilyWork> work;
    work.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i)
        work.push_back({&spec, &split, candidates[i], &searches[i],
                        &quant_cache});
    runFamilySearches(work, target, options, notify);

    if (Status status = foldSearchOutcomes(spec, searches); !status)
        return status;
    if (options.cancelToken.cancelRequested())
        return Status::cancelled(
            "compilation cancelled during family search");

    Result<GeneratedModel> winner = pickWinnerFromSearches(spec, searches);
    if (winner.isOk()) {
        // Same emit contract as CompileSession::emit(): pass pipeline,
        // refreshed report, then codegen.
        if (Status status = runEmitPasses(options, target, winner.value());
            !status)
            return status;
        if (options.emitCode)
            if (Status status = emitModelCode(target, winner.value());
                !status)
                return status;
    }
    return winner;
}

}  // namespace homunculus::core
