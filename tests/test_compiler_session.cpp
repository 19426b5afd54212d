/**
 * @file
 * Tests for the staged Compiler / CompileSession API: stage ordering,
 * Status propagation, progress observation, cooperative cancellation,
 * and bit-identical results across search-pool widths.
 */
#include <gtest/gtest.h>

#include <mutex>
#include <vector>

#include "core/compiler.hpp"
#include "core/generate.hpp"
#include "data/anomaly_generator.hpp"

namespace hcore = homunculus::core;
namespace hd = homunculus::data;

namespace {

hcore::ModelSpec
adSpec(std::size_t samples = 900)
{
    hcore::ModelSpec spec;
    spec.name = "ad";
    spec.optimizationMetric = hcore::Metric::kF1;
    spec.algorithms = {hcore::Algorithm::kDnn};
    spec.dataLoader = [samples] {
        hd::AnomalyConfig config;
        config.numSamples = samples;
        return hd::generateAnomalySplit(config);
    };
    return spec;
}

hcore::CompileOptions
tinyOptions()
{
    hcore::CompileOptions options;
    options.bo.numInitSamples = 3;
    options.bo.numIterations = 4;
    return options;
}

}  // namespace

TEST(CompilerSession, StagesMustRunInOrder)
{
    auto platform = hcore::Platforms::taurus();
    platform.constrain({1.0, 500.0}, {16, 16});
    platform.schedule(adSpec());

    hcore::Compiler compiler(tinyOptions());
    hcore::CompileSession session = compiler.openSession(platform);
    EXPECT_EQ(session.completedStage(), hcore::Stage::kIdle);

    // Every stage but the first is premature right now.
    EXPECT_EQ(session.selectFamilies().code(),
              hcore::StatusCode::kFailedPrecondition);
    EXPECT_EQ(session.searchFamilies().code(),
              hcore::StatusCode::kFailedPrecondition);
    EXPECT_EQ(session.pickWinner().code(),
              hcore::StatusCode::kFailedPrecondition);
    EXPECT_EQ(session.emit().code(),
              hcore::StatusCode::kFailedPrecondition);

    ASSERT_TRUE(session.loadData().isOk());
    EXPECT_EQ(session.completedStage(), hcore::Stage::kLoadData);
    EXPECT_EQ(session.specNames(), std::vector<std::string>{"ad"});
    // Stages are single-use.
    EXPECT_EQ(session.loadData().code(),
              hcore::StatusCode::kFailedPrecondition);

    ASSERT_TRUE(session.selectFamilies().isOk());
    ASSERT_NE(session.familiesFor("ad"), nullptr);
    EXPECT_EQ(session.familiesFor("ad")->size(), 1u);

    // run() finishes whatever remains.
    ASSERT_TRUE(session.run().isOk());
    EXPECT_EQ(session.completedStage(), hcore::Stage::kEmit);
    const auto *model = session.report().find("ad");
    ASSERT_NE(model, nullptr);
    EXPECT_TRUE(model->report.feasible);
    EXPECT_FALSE(model->code.empty());

    ASSERT_NE(session.searchesFor("ad"), nullptr);
    EXPECT_EQ(session.searchesFor("ad")->size(), 1u);
}

TEST(CompilerSession, CompileMatchesLegacyGenerateShim)
{
    auto spec = adSpec();

    auto platform_new = hcore::Platforms::taurus();
    platform_new.constrain({1.0, 500.0}, {16, 16});
    platform_new.schedule(spec);
    hcore::Compiler compiler(tinyOptions());
    auto compiled = compiler.compile(platform_new);
    ASSERT_TRUE(compiled.isOk());

    auto platform_old = hcore::Platforms::taurus();
    platform_old.constrain({1.0, 500.0}, {16, 16});
    platform_old.schedule(spec);
    hcore::GenerateOptions legacy;
    legacy.bo.numInitSamples = 3;
    legacy.bo.numIterations = 4;
    auto generated = hcore::generate(platform_old, legacy);
    ASSERT_TRUE(generated.success);

    const auto *model_new = compiled->find("ad");
    const auto *model_old = generated.find("ad");
    ASSERT_NE(model_new, nullptr);
    ASSERT_NE(model_old, nullptr);
    EXPECT_EQ(model_new->algorithm, model_old->algorithm);
    EXPECT_EQ(model_new->objective, model_old->objective);  // bit-exact.
    EXPECT_EQ(model_new->code, model_old->code);
    EXPECT_EQ(model_new->model.paramCount(), model_old->model.paramCount());
}

TEST(CompilerSession, ResultsBitIdenticalAcrossJobs)
{
    // Empty pool on Taurus -> all four families are searched, which is
    // where thread-count nondeterminism would show up.
    auto spec = adSpec(700);
    spec.algorithms.clear();

    auto run = [&](std::size_t jobs) {
        auto platform = hcore::Platforms::taurus();
        platform.constrain({1.0, 500.0}, {16, 16});
        platform.schedule(spec);
        auto options = tinyOptions();
        options.jobs = jobs;
        hcore::Compiler compiler(options);
        auto compiled = compiler.compile(platform);
        EXPECT_TRUE(compiled.isOk()) << compiled.status().toString();
        return compiled.value();
    };

    // Width 2 and 4 split the flat warm-up dispatch differently (and
    // width 4 runs all four families' guided phases at once).
    hcore::CompileReport serial = run(1);
    for (std::size_t jobs : {2u, 4u}) {
        hcore::CompileReport parallel = run(jobs);
        const auto *model_serial = serial.find("ad");
        const auto *model_parallel = parallel.find("ad");
        ASSERT_NE(model_serial, nullptr);
        ASSERT_NE(model_parallel, nullptr);

        EXPECT_EQ(model_serial->algorithm, model_parallel->algorithm);
        EXPECT_EQ(model_serial->objective, model_parallel->objective);
        EXPECT_EQ(model_serial->code, model_parallel->code);

        // Every family's full trace must match evaluation by evaluation.
        ASSERT_EQ(model_serial->perAlgorithm.size(), 4u);
        ASSERT_EQ(model_parallel->perAlgorithm.size(), 4u);
        for (const auto &[family, trace] : model_serial->perAlgorithm) {
            const auto &other = model_parallel->perAlgorithm.at(family);
            ASSERT_EQ(trace.history.size(), other.history.size())
                << family << " jobs " << jobs;
            for (std::size_t i = 0; i < trace.history.size(); ++i) {
                EXPECT_EQ(trace.history[i].config.toString(),
                          other.history[i].config.toString())
                    << family << " eval " << i << " jobs " << jobs;
                EXPECT_EQ(trace.history[i].result.objective,
                          other.history[i].result.objective)
                    << family << " eval " << i << " jobs " << jobs;
                EXPECT_EQ(trace.history[i].result.feasible,
                          other.history[i].result.feasible)
                    << family << " eval " << i << " jobs " << jobs;
            }
            EXPECT_EQ(trace.bestSoFarSeries(), other.bestSoFarSeries())
                << family << " jobs " << jobs;
        }
    }
}

TEST(CompilerSession, CancellationMidSearchReturnsCancelled)
{
    auto platform = hcore::Platforms::taurus();
    platform.constrain({1.0, 500.0}, {16, 16});
    platform.schedule(adSpec());

    auto options = tinyOptions();
    hcore::CancellationToken token = options.cancelToken;
    options.observer = [token](const hcore::ProgressEvent &event) {
        // Cancel once the search is underway but far from finished.
        if (event.stage == hcore::Stage::kSearchFamilies &&
            event.evalsDone >= 2)
            token.requestCancel();
    };

    hcore::Compiler compiler(options);
    hcore::CompileSession session = compiler.openSession(platform);
    hcore::Status status = session.run();
    EXPECT_EQ(status.code(), hcore::StatusCode::kCancelled);
    // The search stage did not complete, and no winner was picked.
    EXPECT_EQ(session.completedStage(), hcore::Stage::kSelectFamilies);
    EXPECT_TRUE(session.report().models.empty());
}

TEST(CompilerSession, CancelDuringWarmupIsCancelled)
{
    auto platform = hcore::Platforms::taurus();
    platform.constrain({1.0, 500.0}, {16, 16});
    auto spec = adSpec(600);
    spec.algorithms = {hcore::Algorithm::kDnn, hcore::Algorithm::kSvm};
    platform.schedule(spec);

    for (std::size_t jobs : {1u, 2u}) {
        auto options = tinyOptions();
        options.bo.numInitSamples = 6;
        options.jobs = jobs;
        hcore::CancellationToken token = options.cancelToken;
        // The first told warm-up result cancels: every family's warm-up
        // batch is still in flight.
        options.observer = [token](const hcore::ProgressEvent &event) {
            if (event.stage == hcore::Stage::kSearchFamilies)
                token.requestCancel();
        };

        hcore::Compiler compiler(options);
        hcore::CompileSession session = compiler.openSession(platform);
        hcore::Status status = session.run();
        EXPECT_EQ(status.code(), hcore::StatusCode::kCancelled) << jobs;
        EXPECT_EQ(session.completedStage(), hcore::Stage::kSelectFamilies);
        EXPECT_TRUE(session.report().models.empty());

        // Each family kept only an in-order warm-up prefix, marked
        // cancelled; with one worker only the first result got told.
        const auto *searches = session.searchesFor("ad");
        ASSERT_NE(searches, nullptr);
        ASSERT_EQ(searches->size(), 2u);
        std::size_t told = 0;
        for (const hcore::FamilySearch &family : *searches) {
            EXPECT_FALSE(family.failed) << family.error;
            EXPECT_TRUE(family.search.cancelled);
            EXPECT_LT(family.search.history.size(), 6u);
            for (const auto &record : family.search.history)
                EXPECT_TRUE(record.fromWarmup);
            told += family.search.history.size();
        }
        EXPECT_GE(told, 1u);
        if (jobs == 1) {
            EXPECT_EQ(told, 1u);
        }
    }
}

TEST(CompilerSession, CancelBeforeRunShortCircuitsEveryStage)
{
    auto platform = hcore::Platforms::taurus();
    platform.schedule(adSpec());
    auto options = tinyOptions();
    options.cancelToken.requestCancel();
    hcore::Compiler compiler(options);
    hcore::CompileSession session = compiler.openSession(platform);
    EXPECT_EQ(session.loadData().code(), hcore::StatusCode::kCancelled);
    EXPECT_EQ(session.run().code(), hcore::StatusCode::kCancelled);

    // reset() re-arms the shared token, so the same Compiler can open a
    // fresh, workable session afterwards.
    options.cancelToken.reset();
    hcore::CompileSession fresh = compiler.openSession(platform);
    EXPECT_TRUE(fresh.loadData().isOk());
}

TEST(CompilerSession, InfeasibleEnvelopeYieldsInfeasibleStatus)
{
    auto platform = hcore::Platforms::taurus();
    // 50 GPkt/s at 1 ns is beyond any mapping the grid can produce.
    platform.constrain({50.0, 1.0}, {4, 4});
    platform.schedule(adSpec(600));

    hcore::Compiler compiler(tinyOptions());
    auto compiled = compiler.compile(platform);
    ASSERT_FALSE(compiled.isOk());
    EXPECT_EQ(compiled.status().code(), hcore::StatusCode::kInfeasible);
    // Whether candidate selection or winner picking rejects it, the
    // diagnostics must name the failing spec.
    EXPECT_NE(compiled.status().toString().find("ad"), std::string::npos);
    EXPECT_FALSE(compiled.status().context().empty());

    // The legacy shim surfaces the same failure as its usual exception.
    auto platform_old = hcore::Platforms::taurus();
    platform_old.constrain({50.0, 1.0}, {4, 4});
    platform_old.schedule(adSpec(600));
    hcore::GenerateOptions legacy;
    legacy.bo.numInitSamples = 3;
    legacy.bo.numIterations = 4;
    EXPECT_THROW(hcore::generate(platform_old, legacy),
                 std::runtime_error);
}

TEST(CompilerSession, MissingLoaderYieldsInvalidArgument)
{
    auto platform = hcore::Platforms::taurus();
    hcore::ModelSpec broken;
    broken.name = "no_loader";
    platform.schedule(broken);

    hcore::Compiler compiler(tinyOptions());
    hcore::CompileSession session = compiler.openSession(platform);
    hcore::Status status = session.loadData();
    EXPECT_EQ(status.code(), hcore::StatusCode::kInvalidArgument);
    ASSERT_EQ(status.context().size(), 1u);
    EXPECT_NE(status.context()[0].find("no_loader"), std::string::npos);
}

TEST(CompilerSession, ProgressObserverSeesStagesInOrder)
{
    auto platform = hcore::Platforms::taurus();
    platform.constrain({1.0, 500.0}, {16, 16});
    platform.schedule(adSpec(600));

    std::mutex mutex;
    std::vector<hcore::Stage> stages;
    auto options = tinyOptions();
    options.jobs = 2;
    options.observer = [&](const hcore::ProgressEvent &event) {
        std::lock_guard<std::mutex> lock(mutex);
        stages.push_back(event.stage);
    };

    hcore::Compiler compiler(options);
    ASSERT_TRUE(compiler.compile(platform).isOk());

    ASSERT_FALSE(stages.empty());
    // Monotone: once a later stage appears, earlier ones never recur.
    for (std::size_t i = 1; i < stages.size(); ++i)
        EXPECT_GE(static_cast<int>(stages[i]),
                  static_cast<int>(stages[i - 1]));
    EXPECT_EQ(stages.front(), hcore::Stage::kLoadData);
    EXPECT_EQ(stages.back(), hcore::Stage::kEmit);
}

TEST(CompilerSession, SearchSpecMatchesSessionWinner)
{
    auto spec = adSpec(700);
    auto split = spec.dataLoader();

    auto platform = hcore::Platforms::taurus();
    platform.constrain({1.0, 500.0}, {16, 16});
    auto direct =
        hcore::searchSpec(spec, platform, tinyOptions(), split);
    ASSERT_TRUE(direct.isOk());

    auto platform_session = hcore::Platforms::taurus();
    platform_session.constrain({1.0, 500.0}, {16, 16});
    platform_session.schedule(spec);
    hcore::Compiler compiler(tinyOptions());
    auto compiled = compiler.compile(platform_session);
    ASSERT_TRUE(compiled.isOk());

    const auto *session_model = compiled->find("ad");
    ASSERT_NE(session_model, nullptr);
    EXPECT_EQ(direct->objective, session_model->objective);
    EXPECT_EQ(direct->algorithm, session_model->algorithm);
    EXPECT_EQ(direct->code, session_model->code);
}
