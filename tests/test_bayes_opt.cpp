/**
 * @file
 * Tests for the constrained Bayesian optimizer.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "opt/bayes_opt.hpp"

namespace ho = homunculus::opt;

namespace {

/** Smooth 2-D bowl with the optimum at (3, -2); maximize the negative. */
ho::EvalResult
bowl(const ho::Configuration &config)
{
    double x = config.real("x");
    double y = config.real("y");
    ho::EvalResult result;
    result.objective = -((x - 3.0) * (x - 3.0) + (y + 2.0) * (y + 2.0));
    result.feasible = true;
    return result;
}

ho::SearchSpace
bowlSpace()
{
    ho::SearchSpace space;
    space.addReal("x", -10.0, 10.0);
    space.addReal("y", -10.0, 10.0);
    return space;
}

}  // namespace

TEST(BayesOpt, HistoryLengthIsWarmupPlusIterations)
{
    ho::BoConfig config;
    config.numInitSamples = 4;
    config.numIterations = 6;
    ho::BayesianOptimizer optimizer(bowlSpace(), config);
    auto result = optimizer.optimize(bowl);
    EXPECT_EQ(result.history.size(), 10u);
    int warmup = 0;
    for (const auto &record : result.history)
        if (record.fromWarmup)
            ++warmup;
    EXPECT_EQ(warmup, 4);
}

TEST(BayesOpt, BestSoFarIsMonotoneNonDecreasing)
{
    ho::BoConfig config;
    config.numInitSamples = 5;
    config.numIterations = 10;
    ho::BayesianOptimizer optimizer(bowlSpace(), config);
    auto result = optimizer.optimize(bowl);
    auto series = result.bestSoFarSeries();
    for (std::size_t i = 1; i < series.size(); ++i)
        EXPECT_GE(series[i], series[i - 1] - 1e-12);
}

TEST(BayesOpt, FindsNearOptimumOnSmoothBowl)
{
    ho::BoConfig config;
    config.numInitSamples = 8;
    config.numIterations = 25;
    config.seed = 5;
    ho::BayesianOptimizer optimizer(bowlSpace(), config);
    auto result = optimizer.optimize(bowl);
    ASSERT_TRUE(result.foundFeasible);
    // Optimum is 0; random-uniform over [-10,10]^2 averages around -70.
    EXPECT_GT(result.bestResult.objective, -8.0);
}

TEST(BayesOpt, RespectsFeasibilityConstraints)
{
    // Only the x > 5 half-space is feasible; the optimum there is x = 5.
    auto constrained = [](const ho::Configuration &config) {
        double x = config.real("x");
        ho::EvalResult result;
        result.objective = -x;
        result.feasible = x > 5.0;
        return result;
    };
    ho::SearchSpace space;
    space.addReal("x", 0.0, 10.0);
    ho::BoConfig config;
    config.numInitSamples = 6;
    config.numIterations = 20;
    ho::BayesianOptimizer optimizer(space, config);
    auto result = optimizer.optimize(constrained);
    ASSERT_TRUE(result.foundFeasible);
    EXPECT_GT(result.bestConfig.real("x"), 5.0);
    // And the optimizer pushed toward the boundary, not just anywhere.
    EXPECT_LT(result.bestConfig.real("x"), 8.0);
}

TEST(BayesOpt, DeterministicGivenSeed)
{
    ho::BoConfig config;
    config.numInitSamples = 4;
    config.numIterations = 8;
    config.seed = 77;
    ho::BayesianOptimizer a(bowlSpace(), config);
    ho::BayesianOptimizer b(bowlSpace(), config);
    auto ra = a.optimize(bowl);
    auto rb = b.optimize(bowl);
    ASSERT_EQ(ra.history.size(), rb.history.size());
    for (std::size_t i = 0; i < ra.history.size(); ++i)
        EXPECT_DOUBLE_EQ(ra.history[i].result.objective,
                         rb.history[i].result.objective);
}

TEST(BayesOpt, AllInfeasibleReportsNoFeasible)
{
    auto hopeless = [](const ho::Configuration &) {
        ho::EvalResult result;
        result.objective = 1.0;
        result.feasible = false;
        return result;
    };
    ho::BoConfig config;
    config.numInitSamples = 3;
    config.numIterations = 4;
    ho::BayesianOptimizer optimizer(bowlSpace(), config);
    auto result = optimizer.optimize(hopeless);
    EXPECT_FALSE(result.foundFeasible);
    EXPECT_EQ(result.history.size(), 7u);
}

TEST(BayesOpt, BeatsRandomSearchOnAverage)
{
    // Aggregate over seeds to keep the comparison statistically stable.
    double bo_total = 0.0, random_total = 0.0;
    const int trials = 10;
    const std::size_t budget = 30;
    for (int trial = 0; trial < trials; ++trial) {
        ho::BoConfig config;
        config.numInitSamples = 6;
        config.numIterations = budget - config.numInitSamples;
        config.seed = 100 + static_cast<std::uint64_t>(trial);
        ho::BayesianOptimizer optimizer(bowlSpace(), config);
        bo_total += optimizer.optimize(bowl).bestResult.objective;

        auto random = ho::randomSearch(bowlSpace(), bowl, budget, true,
                                       200 + static_cast<std::uint64_t>(
                                                 trial));
        random_total += random.bestResult.objective;
    }
    // BO should match or beat random search on average; allow a small
    // slack because 10 trials still carry sampling noise.
    EXPECT_GE(bo_total, random_total - 0.1 * std::fabs(random_total));
}

TEST(RandomSearch, TracksBestAndHistory)
{
    auto result = ho::randomSearch(bowlSpace(), bowl, 15, true, 3);
    EXPECT_TRUE(result.foundFeasible);
    EXPECT_EQ(result.history.size(), 15u);
    auto series = result.bestSoFarSeries();
    for (std::size_t i = 1; i < series.size(); ++i)
        EXPECT_GE(series[i], series[i - 1] - 1e-12);
}

TEST(BayesOpt, MinimizationModeWorks)
{
    auto cost = [](const ho::Configuration &config) {
        double x = config.real("x");
        ho::EvalResult result;
        result.objective = (x - 4.0) * (x - 4.0);
        result.feasible = true;
        return result;
    };
    ho::SearchSpace space;
    space.addReal("x", -10.0, 10.0);
    ho::BoConfig config;
    config.maximize = false;
    config.numInitSamples = 6;
    config.numIterations = 18;
    ho::BayesianOptimizer optimizer(space, config);
    auto result = optimizer.optimize(cost);
    EXPECT_LT(result.bestResult.objective, 2.0);
}

namespace {

/** Bowl with a feasibility cut and a "cost" metric, so the ask/tell
 *  comparison exercises the feasibility model and multi-objective mode. */
ho::EvalResult
constrainedBowl(const ho::Configuration &config)
{
    ho::EvalResult result = bowl(config);
    result.feasible = config.real("x") > -6.0;
    result.metrics["cost"] = std::fabs(config.real("y"));
    return result;
}

void
expectSameTrace(const ho::BoResult &a, const ho::BoResult &b)
{
    EXPECT_EQ(a.cancelled, b.cancelled);
    EXPECT_EQ(a.foundFeasible, b.foundFeasible);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t i = 0; i < a.history.size(); ++i) {
        const ho::BoRecord &ra = a.history[i];
        const ho::BoRecord &rb = b.history[i];
        EXPECT_EQ(ra.config.toString(), rb.config.toString()) << i;
        EXPECT_EQ(ra.result.objective, rb.result.objective) << i;
        EXPECT_EQ(ra.result.feasible, rb.result.feasible) << i;
        EXPECT_EQ(ra.bestSoFar, rb.bestSoFar) << i;
        EXPECT_EQ(ra.fromWarmup, rb.fromWarmup) << i;
    }
    EXPECT_EQ(a.bestConfig.toString(), b.bestConfig.toString());
    ASSERT_EQ(a.front.size(), b.front.size());
    for (std::size_t i = 0; i < a.front.size(); ++i) {
        EXPECT_EQ(a.front.points()[i].config.toString(),
                  b.front.points()[i].config.toString());
        EXPECT_EQ(a.front.points()[i].objective,
                  b.front.points()[i].objective);
        EXPECT_EQ(a.front.points()[i].cost, b.front.points()[i].cost);
    }
}

}  // namespace

TEST(BayesOpt, AskTellReproducesOptimize)
{
    for (const char *cost_key : {"", "cost"}) {
        ho::BoConfig config;
        config.numInitSamples = 5;
        config.numIterations = 6;
        config.seed = 31;
        config.costMetricKey = cost_key;
        std::size_t events = 0;
        config.onEvaluation = [&events](std::size_t done, std::size_t total) {
            EXPECT_EQ(done, ++events);
            EXPECT_EQ(total, 11u);
        };

        ho::BayesianOptimizer reference(bowlSpace(), config);
        ho::BoResult expected = reference.optimize(constrainedBowl);
        EXPECT_EQ(events, 11u);
        if (*cost_key != '\0') {
            EXPECT_FALSE(expected.front.empty());
        }

        // Hand-driven: the whole warm-up batch is asked first and
        // evaluated out of order before any result is told, as the
        // compiler's flat pool dispatch does.
        events = 0;
        ho::BayesianOptimizer driven(bowlSpace(), config);
        std::vector<ho::Configuration> warmup = driven.ask();
        ASSERT_EQ(warmup.size(), 5u);
        std::vector<ho::EvalResult> results(warmup.size());
        for (std::size_t i = warmup.size(); i-- > 0;)
            results[i] = constrainedBowl(warmup[i]);
        for (std::size_t i = 0; i < warmup.size(); ++i)
            driven.tell(warmup[i], results[i]);
        std::size_t guided = 0;
        for (auto batch = driven.ask(); !batch.empty(); batch = driven.ask()) {
            ASSERT_EQ(batch.size(), 1u);
            driven.tell(batch.front(), constrainedBowl(batch.front()));
            ++guided;
        }
        EXPECT_EQ(guided, 6u);
        ho::BoResult actual = driven.optimize(constrainedBowl);
        expectSameTrace(expected, actual);

        // optimize() handed the run over and restarted: a second call
        // repeats the same search.
        events = 0;
        expectSameTrace(expected, reference.optimize(constrainedBowl));
    }
}

TEST(BayesOpt, StopMidWarmupReturnsEvaluatedPrefix)
{
    std::size_t evaluations = 0;
    ho::BoConfig config;
    config.numInitSamples = 6;
    config.numIterations = 4;
    config.seed = 8;
    config.shouldStop = [&evaluations] { return evaluations == 3; };
    auto counted = [&evaluations](const ho::Configuration &c) {
        ++evaluations;
        return bowl(c);
    };
    ho::BayesianOptimizer optimizer(bowlSpace(), config);
    ho::BoResult result = optimizer.optimize(counted);
    EXPECT_TRUE(result.cancelled);
    ASSERT_EQ(result.history.size(), 3u);
    EXPECT_EQ(evaluations, 3u);

    // The prefix is exactly the first three draws of the full run.
    config.shouldStop = nullptr;
    ho::BayesianOptimizer full(bowlSpace(), config);
    ho::BoResult complete = full.optimize(bowl);
    ASSERT_EQ(complete.history.size(), 10u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(result.history[i].config.toString(),
                  complete.history[i].config.toString());
        EXPECT_EQ(result.history[i].bestSoFar,
                  complete.history[i].bestSoFar);
        EXPECT_TRUE(result.history[i].fromWarmup);
    }

    // Ask/tell: telling a prefix and cancelling gives the same trace.
    ho::BayesianOptimizer driven(bowlSpace(), config);
    std::vector<ho::Configuration> warmup = driven.ask();
    for (std::size_t i = 0; i < 3; ++i)
        driven.tell(warmup[i], bowl(warmup[i]));
    ho::BoResult cancelled = driven.cancel();
    expectSameTrace(result, cancelled);
}
