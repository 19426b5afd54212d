#include "opt/bayes_opt.hpp"

#include <algorithm>
#include <limits>

#include "common/logging.hpp"
#include "opt/acquisition.hpp"

namespace homunculus::opt {

std::vector<double>
BoResult::bestSoFarSeries() const
{
    std::vector<double> series;
    series.reserve(history.size());
    for (const auto &record : history)
        series.push_back(record.bestSoFar);
    return series;
}

BayesianOptimizer::BayesianOptimizer(SearchSpace space, BoConfig config)
    : space_(std::move(space)), config_(std::move(config)),
      run_(freshRun())
{
    if (space_.size() == 0)
        common::panic("bayes_opt", "empty search space");
    // Surrogate trees consider every dimension at each split: the spaces
    // are low-dimensional and the default d/3 subsampling starves them.
    if (config_.surrogate.tree.maxFeatures == 0)
        config_.surrogate.tree.maxFeatures = space_.size();
}

BayesianOptimizer::Run
BayesianOptimizer::freshRun() const
{
    Run run(config_.seed);
    run.best = config_.maximize ? -std::numeric_limits<double>::infinity()
                                : std::numeric_limits<double>::infinity();
    return run;
}

BoResult
BayesianOptimizer::finish()
{
    BoResult result = std::move(run_.result);
    run_ = freshRun();
    return result;
}

BoResult
BayesianOptimizer::cancel()
{
    run_.result.cancelled = true;
    return finish();
}

BoResult
BayesianOptimizer::optimize(const ObjectiveFn &objective)
{
    try {
        for (std::vector<Configuration> batch = ask(); !batch.empty();
             batch = ask()) {
            for (const Configuration &config : batch) {
                if (config_.shouldStop && config_.shouldStop())
                    return cancel();
                tell(config, objective(config));
            }
        }
    } catch (...) {
        run_ = freshRun();
        throw;
    }
    return finish();
}

std::vector<Configuration>
BayesianOptimizer::ask()
{
    // --- Phase 1: uniform random sampling (paper §5 initialization). ----
    if (!run_.warmupAsked) {
        run_.warmupAsked = true;
        if (config_.numInitSamples > 0) {
            std::vector<Configuration> batch;
            batch.reserve(config_.numInitSamples);
            for (std::size_t i = 0; i < config_.numInitSamples; ++i)
                batch.push_back(space_.sample(run_.rng));
            return batch;
        }
    }
    // --- Phase 2: surrogate-guided iterations. ---------------------------
    if (run_.guidedAsked == config_.numIterations)
        return {};
    ++run_.guidedAsked;
    return {askGuided()};
}

void
BayesianOptimizer::tell(const Configuration &config, const EvalResult &eval)
{
    const bool multi_objective = !config_.costMetricKey.empty();
    const bool warmup = run_.result.history.size() < config_.numInitSamples;
    BoResult &result = run_.result;

    run_.encoded.push_back(space_.encode(config));
    run_.objectives.push_back(eval.objective);
    double cost = 0.0;
    if (multi_objective) {
        auto it = eval.metrics.find(config_.costMetricKey);
        if (it != eval.metrics.end())
            cost = it->second;
    }
    run_.costs.push_back(cost);
    run_.feasibility.push_back(eval.feasible ? 1 : 0);
    if (multi_objective && eval.feasible) {
        ParetoPoint point;
        point.config = config;
        point.objective = eval.objective;
        point.cost = cost;
        result.front.insert(std::move(point));
    }

    double &best = run_.best;
    bool better = eval.feasible &&
                  (config_.maximize ? eval.objective > best
                                    : eval.objective < best);
    if (better || (eval.feasible && !result.foundFeasible)) {
        best = eval.objective;
        result.bestConfig = config;
        result.bestResult = eval;
        result.foundFeasible = true;
    }
    BoRecord record;
    record.config = config;
    record.result = eval;
    record.bestSoFar = result.foundFeasible ? best : 0.0;
    record.fromWarmup = warmup;
    result.history.push_back(std::move(record));
    if (config_.onEvaluation)
        config_.onEvaluation(result.history.size(),
                             config_.numInitSamples + config_.numIterations);
}

Configuration
BayesianOptimizer::askGuided()
{
    const bool multi_objective = !config_.costMetricKey.empty();
    common::Rng &rng = run_.rng;
    const BoResult &result = run_.result;
    const std::vector<std::vector<double>> &encoded = run_.encoded;
    const std::vector<double> &objectives = run_.objectives;
    const std::vector<double> &costs = run_.costs;
    const std::vector<int> &feasibility = run_.feasibility;

    // Random scalarization (multi-objective mode): redraw the
    // objective/cost trade-off weight every iteration so successive
    // iterations chase different regions of the Pareto front.
    double weight = multi_objective ? rng.uniform(0.15, 1.0) : 1.0;
    double obj_lo = 0.0, obj_hi = 1.0, cost_lo = 0.0, cost_hi = 1.0;
    if (multi_objective) {
        bool first = true;
        for (std::size_t i = 0; i < encoded.size(); ++i) {
            if (feasibility[i] != 1)
                continue;
            if (first) {
                obj_lo = obj_hi = objectives[i];
                cost_lo = cost_hi = costs[i];
                first = false;
            } else {
                obj_lo = std::min(obj_lo, objectives[i]);
                obj_hi = std::max(obj_hi, objectives[i]);
                cost_lo = std::min(cost_lo, costs[i]);
                cost_hi = std::max(cost_hi, costs[i]);
            }
        }
    }

    // Fit the objective surrogate on feasible observations (objective
    // values of infeasible points are dominated by the constraint
    // model and would only distort the regression). In multi-
    // objective mode the regression target is the scalarized value.
    math::Matrix fx;
    std::vector<double> fy;
    double scalarized_best = -std::numeric_limits<double>::infinity();
    {
        std::vector<std::vector<double>> rows;
        for (std::size_t i = 0; i < encoded.size(); ++i) {
            if (feasibility[i] == 1) {
                rows.push_back(encoded[i]);
                double target =
                    multi_objective
                        ? scalarize(objectives[i], costs[i], obj_lo,
                                    obj_hi, cost_lo, cost_hi, weight)
                        : objectives[i];
                fy.push_back(target);
                scalarized_best = std::max(scalarized_best, target);
            }
        }
        if (!rows.empty())
            fx = math::Matrix::fromRows(rows);
    }

    bool have_surrogate = fx.rows() >= 3;
    ml::RandomForestRegressor surrogate(config_.surrogate);
    if (have_surrogate)
        surrogate.train(fx, fy);

    // Feasibility model: only meaningful once both verdicts observed.
    bool have_feasibility_model = false;
    ml::ForestConfig feas_config = config_.surrogate;
    feas_config.seed ^= 0xFEA51B1Eull;
    ml::RandomForestClassifier feasibility_model(feas_config);
    {
        bool any_infeasible =
            std::find(feasibility.begin(), feasibility.end(), 0) !=
            feasibility.end();
        bool any_feasible =
            std::find(feasibility.begin(), feasibility.end(), 1) !=
            feasibility.end();
        if (any_infeasible && any_feasible) {
            ml::Dataset feas_data;
            feas_data.x = math::Matrix::fromRows(encoded);
            feas_data.y = feasibility;
            feas_data.numClasses = 2;
            feasibility_model.train(feas_data);
            have_feasibility_model = true;
        }
    }

    // Acquisition: best feasibility-weighted EI over a random pool,
    // refined with local perturbations of the incumbent.
    Configuration best_candidate = space_.sample(rng);
    double best_score = -std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < config_.candidatePool; ++c) {
        Configuration candidate;
        if (result.foundFeasible && c % 4 == 0) {
            candidate = space_.perturb(result.bestConfig, rng);
        } else if (result.foundFeasible && c % 4 == 1) {
            candidate = space_.perturbLocal(result.bestConfig, rng);
        } else {
            candidate = space_.sample(rng);
        }
        std::vector<double> row = space_.encode(candidate);

        double score;
        if (have_surrogate) {
            ml::ForestPrediction pred =
                surrogate.predictWithVariance(row);
            double incumbent =
                multi_objective ? scalarized_best : run_.best;
            bool maximize =
                multi_objective ? true : config_.maximize;
            score = expectedImprovement(pred.mean, pred.variance,
                                        incumbent, maximize,
                                        config_.xi);
        } else {
            score = 1.0;  // no model yet: rank by feasibility alone.
        }
        if (have_feasibility_model) {
            std::vector<double> probs =
                feasibility_model.predictProbaPoint(row);
            score *= std::max(probs[1], 1e-3);
        }
        // Deterministic tie-break jitter keeps the argmax unique.
        score += rng.uniform(0.0, 1e-9);
        if (score > best_score) {
            best_score = score;
            best_candidate = candidate;
        }
    }
    return best_candidate;
}

BoResult
randomSearch(const SearchSpace &space, const ObjectiveFn &objective,
             std::size_t num_evaluations, bool maximize, std::uint64_t seed)
{
    common::Rng rng(seed);
    BoResult result;
    double best = maximize ? -std::numeric_limits<double>::infinity()
                           : std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < num_evaluations; ++i) {
        Configuration config = space.sample(rng);
        EvalResult eval = objective(config);
        bool better = eval.feasible && (maximize ? eval.objective > best
                                                 : eval.objective < best);
        if (better || (eval.feasible && !result.foundFeasible)) {
            best = eval.objective;
            result.bestConfig = config;
            result.bestResult = eval;
            result.foundFeasible = true;
        }
        BoRecord record;
        record.config = config;
        record.result = eval;
        record.bestSoFar = result.foundFeasible ? best : 0.0;
        record.fromWarmup = false;
        result.history.push_back(std::move(record));
    }
    return result;
}

}  // namespace homunculus::opt
