/**
 * @file
 * Constrained Bayesian optimization over a mixed search space.
 *
 * This is the paper's optimization core (§3.2.3-§3.2.4), i.e. the
 * HyperMapper configuration it describes (§5): a uniform random-sampling
 * initialization phase, a random-forest surrogate (well-suited to the
 * discrete, non-continuous response surfaces of systems workloads), the
 * Expected Improvement criterion, and a feasibility model learned from
 * the backend's constraint verdicts that multiplies the acquisition so
 * infeasible regions are vacated quickly.
 */
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ml/random_forest.hpp"
#include "opt/pareto.hpp"
#include "opt/search_space.hpp"

namespace homunculus::opt {

/** What one black-box evaluation reports back. */
struct EvalResult
{
    double objective = 0.0;   ///< e.g. F1 score of the trained model.
    bool feasible = false;    ///< backend constraint verdict.
    std::map<std::string, double> metrics;  ///< extra telemetry (CUs, ns…).
};

/** The black box: train + map + test one configuration. */
using ObjectiveFn = std::function<EvalResult(const Configuration &)>;

/** Optimizer settings. */
struct BoConfig
{
    std::size_t numInitSamples = 6;   ///< uniform warmup evaluations.
    std::size_t numIterations = 20;   ///< model-guided evaluations.
    std::size_t candidatePool = 600;  ///< acquisition sampling budget.
    bool maximize = true;
    double xi = 0.01;                 ///< EI exploration jitter.
    ml::ForestConfig surrogate;       ///< RF surrogate settings.
    std::uint64_t seed = 2024;

    /**
     * Multi-objective mode (paper §6: "multi-objective optimization is
     * a crucial matter"): when non-empty, the named EvalResult metric is
     * treated as a cost to minimize alongside the maximized objective.
     * The optimizer then runs random-scalarization BO (Paria et al.)
     * and reports the Pareto front of feasible evaluations.
     */
    std::string costMetricKey;

    /**
     * Cooperative cancellation: polled before every black-box evaluation.
     * When it returns true the run stops, marks the result cancelled, and
     * returns the partial trace. NOTE: when the optimizer runs inside a
     * parallel compile session, these hooks fire concurrently from pool
     * worker threads (unlike the session's serialized ProgressObserver)
     * — they must be thread-safe.
     */
    std::function<bool()> shouldStop;

    /** Progress hook: (evaluations completed, evaluations planned).
     *  Same threading caveat as shouldStop. */
    std::function<void(std::size_t, std::size_t)> onEvaluation;
};

/** One step of the optimization trace (regret-plot material). */
struct BoRecord
{
    Configuration config;
    EvalResult result;
    double bestSoFar = 0.0;  ///< best feasible objective after this step.
    bool fromWarmup = false;
};

/** Final outcome. */
struct BoResult
{
    bool foundFeasible = false;
    bool cancelled = false;  ///< BoConfig::shouldStop ended the run early.
    Configuration bestConfig;
    EvalResult bestResult;
    std::vector<BoRecord> history;

    /** Non-dominated (objective, cost) set; empty in single-objective
     *  mode. */
    ParetoFront front;

    /** Best-so-far series (one point per evaluation) for regret plots. */
    std::vector<double> bestSoFarSeries() const;
};

/**
 * The optimizer, driven either end to end by optimize() or step by step
 * through ask()/tell().
 *
 * The ask/tell split exists because the warm-up phase has no data
 * dependence: every uniform draw is made before any result comes back, so
 * a caller may evaluate the whole warm-up batch concurrently (the
 * compiler evaluates every family's batch in one flat pool dispatch) and
 * tell the results afterwards. Results must be told in the order ask()
 * handed the configurations out; then the trace is bit-identical to a
 * serial optimize() run.
 */
class BayesianOptimizer
{
  public:
    BayesianOptimizer(SearchSpace space, BoConfig config);

    /**
     * Run the search against the black box: evaluate every configuration
     * ask() hands out, polling BoConfig::shouldStop before each one, and
     * tell() each result back. Starts from wherever the run is — a fresh
     * optimizer runs the whole warm-up + BO budget; one whose warm-up
     * batch the caller already told continues with the guided phase —
     * then hands the result over and restarts, so a second call repeats
     * the same search.
     */
    BoResult optimize(const ObjectiveFn &objective);

    /**
     * The next configurations to evaluate: the first call returns the
     * whole numInitSamples warm-up batch (uniform draws), every later
     * call one surrogate-guided configuration fitted on everything told
     * so far, and an empty batch once the budget is spent.
     */
    std::vector<Configuration> ask();

    /** Record one evaluation (in ask() order); fires onEvaluation. */
    void tell(const Configuration &config, const EvalResult &eval);

    /** End the run early: hand over the trace so far, marked cancelled,
     *  and restart. */
    BoResult cancel();

    const SearchSpace &space() const { return space_; }
    const BoConfig &config() const { return config_; }

  private:
    /** Everything one run accumulates; replaced wholesale on restart. */
    struct Run
    {
        explicit Run(std::uint64_t seed) : rng(seed) {}

        common::Rng rng;
        BoResult result;
        double best = 0.0;  ///< best feasible objective so far.
        std::vector<std::vector<double>> encoded;
        std::vector<double> objectives;
        std::vector<double> costs;     ///< multi-objective cost per eval.
        std::vector<int> feasibility;  ///< 1 = feasible.
        bool warmupAsked = false;
        std::size_t guidedAsked = 0;
    };

    Run freshRun() const;
    Configuration askGuided();
    /** Hand the result over and start a fresh run. */
    BoResult finish();

    SearchSpace space_;
    BoConfig config_;
    Run run_;
};

/** Uniform random search at equal budget — the ablation baseline. */
BoResult randomSearch(const SearchSpace &space, const ObjectiveFn &objective,
                      std::size_t num_evaluations, bool maximize,
                      std::uint64_t seed);

}  // namespace homunculus::opt
