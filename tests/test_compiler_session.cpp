/**
 * @file
 * Tests for the staged Compiler / CompileSession API: stage ordering,
 * Status propagation, progress observation, cooperative cancellation,
 * bit-identical results across search-pool widths, and full compiles on
 * every backend (small budgets keep the suite fast; the benches run
 * the paper-scale budgets).
 */
#include <gtest/gtest.h>

#include <mutex>
#include <vector>

#include "bench_common.hpp"
#include "core/compiler.hpp"
#include "core/trainer.hpp"
#include "data/anomaly_generator.hpp"
#include "data/iot_traffic_generator.hpp"
#include "ir/serialize.hpp"
#include "ml/metrics.hpp"

namespace hcore = homunculus::core;
namespace hd = homunculus::data;
namespace hb = homunculus::bench;
namespace hir = homunculus::ir;
namespace hml = homunculus::ml;

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

/** 64-bit FNV-1a step over @p size raw bytes. */
void
fnvMix(std::uint64_t &hash, const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001B3ull;
    }
}

void
fnvMix(std::uint64_t &hash, double value)
{
    fnvMix(hash, &value, sizeof value);
}

void
fnvMix(std::uint64_t &hash, const std::string &text)
{
    fnvMix(hash, text.data(), text.size());
    fnvMix(hash, "", 1);  // terminator: "ab"+"c" != "a"+"bc".
}

/** An AD-shaped MLP (7 features, 2 classes, batch 16) with the given
 *  hidden widths. */
hml::MlpConfig
adMlpConfig(std::vector<std::size_t> hidden)
{
    hml::MlpConfig config;
    config.inputDim = 7;
    config.numClasses = 2;
    config.hiddenLayers = std::move(hidden);
    config.batchSize = 16;
    config.epochs = 2;
    config.seed = 5;
    return config;
}

/** The dnn design-space configuration that builds @p config's net. */
homunculus::opt::Configuration
dnnConfiguration(const hml::MlpConfig &config)
{
    homunculus::opt::Configuration out;
    out.set("num_layers",
            static_cast<std::int64_t>(config.hiddenLayers.size()));
    for (std::size_t l = 0; l < config.hiddenLayers.size(); ++l)
        out.set("width_" + std::to_string(l),
                static_cast<std::int64_t>(config.hiddenLayers[l]));
    out.set("learning_rate", 0.01);
    out.set("batch_size", static_cast<std::int64_t>(config.batchSize));
    out.set("activation", std::string("relu"));
    return out;
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

// ------------------------------------------------- end to end, per backend

TEST(CompilerEndToEnd, TaurusProducesFeasibleDnn)
{
    auto platform = hcore::Platforms::taurus();
    platform.constrain({1.0, 500.0}, {16, 16, {}});
    platform.schedule(adSpec(1200));

    auto compiled = hcore::Compiler(tinyOptions()).compile(platform);
    ASSERT_TRUE(compiled.isOk()) << compiled.status().toString();
    const auto *model = compiled->find("ad");
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->algorithm, hcore::Algorithm::kDnn);
    EXPECT_TRUE(model->report.feasible);
    EXPECT_GT(model->objective, 0.5);
    EXPECT_FALSE(model->code.empty());
    EXPECT_NE(model->code.find("@spatial"), std::string::npos);
}

TEST(CompilerEndToEnd, MatPrunesDnnAndStillSucceeds)
{
    auto platform = hcore::Platforms::tofino();
    hcore::ModelSpec spec;
    spec.name = "tc";
    spec.optimizationMetric = hcore::Metric::kF1;
    // Empty pool: let candidate selection do the pruning.
    spec.dataLoader = [] {
        hd::IotTrafficConfig config;
        config.numSamples = 1000;
        return hd::generateIotTrafficSplit(config);
    };
    platform.schedule(spec);

    auto compiled = hcore::Compiler(tinyOptions()).compile(platform);
    ASSERT_TRUE(compiled.isOk()) << compiled.status().toString();
    const auto *model = compiled->find("tc");
    ASSERT_NE(model, nullptr);
    EXPECT_NE(model->algorithm, hcore::Algorithm::kDnn);
    EXPECT_TRUE(model->report.feasible);
    EXPECT_GT(model->report.matTables, 0u);
    EXPECT_NE(model->code.find("control MlIngress"), std::string::npos);
}

TEST(CompilerEndToEnd, Fpga)
{
    auto platform = hcore::Platforms::fpga();
    platform.schedule(adSpec(800));
    auto compiled = hcore::Compiler(tinyOptions()).compile(platform);
    ASSERT_TRUE(compiled.isOk()) << compiled.status().toString();
    const auto *model = compiled->find("ad");
    ASSERT_NE(model, nullptr);
    EXPECT_GT(model->report.powerWatts, 15.131);
    EXPECT_GT(model->report.lutPercent, 5.36);
}

TEST(CompilerEndToEnd, ScheduleResourcesAccountForAllLeaves)
{
    auto platform = hcore::Platforms::taurus();
    auto a = adSpec(600);
    a.name = "ad_a";
    auto b = adSpec(600);
    b.name = "ad_b";
    platform.schedule(a > b);

    auto compiled = hcore::Compiler(tinyOptions()).compile(platform);
    ASSERT_TRUE(compiled.isOk()) << compiled.status().toString();
    ASSERT_EQ(compiled->models.size(), 2u);
    ASSERT_EQ(compiled->scheduleResources.size(), 1u);
    const auto &total = compiled->scheduleResources[0];
    EXPECT_EQ(total.computeUnits,
              compiled->models[0].report.computeUnits +
                  compiled->models[1].report.computeUnits);
}

TEST(CompilerEndToEnd, SearchHistoryIsUsableForRegretPlots)
{
    auto platform = hcore::Platforms::taurus();
    platform.schedule(adSpec(800));
    auto options = tinyOptions();
    auto compiled = hcore::Compiler(options).compile(platform);
    ASSERT_TRUE(compiled.isOk()) << compiled.status().toString();
    const auto *model = compiled->find("ad");
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->searchHistory.history.size(),
              options.bo.numInitSamples + options.bo.numIterations);
    auto series = model->searchHistory.bestSoFarSeries();
    for (std::size_t i = 1; i < series.size(); ++i)
        EXPECT_GE(series[i], series[i - 1] - 1e-12);
}

TEST(CompilerEndToEnd, ObjectiveComesFromQuantizedBackendEvaluation)
{
    // The reported objective must equal re-running the winner's IR
    // through the platform simulator — not the float model.
    auto platform = hcore::Platforms::taurus();
    auto spec = adSpec(1000);
    platform.schedule(spec);
    auto compiled = hcore::Compiler(tinyOptions()).compile(platform);
    ASSERT_TRUE(compiled.isOk()) << compiled.status().toString();
    const auto *model = compiled->find("ad");
    ASSERT_NE(model, nullptr);

    auto split = spec.dataLoader();
    auto predictions =
        platform.platform().evaluate(model->model, split.test.x);
    double f1 = homunculus::ml::f1ForTask(split.test.y, predictions,
                                          split.test.numClasses);
    EXPECT_NEAR(f1, model->objective, 1e-12);
}

// ------------------------------------------- feasibility before training

TEST(CompilerSession, MlpShapeEstimateMatchesTrainedEstimate)
{
    // evaluateCandidate estimates a DNN on its untrained lowering and
    // trains only a feasible shape. That is sound because every
    // platform's MLP estimate reads layer sizes only: pin it here, on
    // both sides of each envelope.
    auto split = hd::generateAnomalySplit([] {
        hd::AnomalyConfig config;
        config.numSamples = 300;
        return config;
    }());
    ASSERT_EQ(split.train.numFeatures(), 7u);

    std::vector<hcore::PlatformHandle> platforms;
    for (const char *name : {"taurus", "tofino", "tofino-mat", "fpga"}) {
        auto handle = hcore::Platforms::byName(name);
        ASSERT_TRUE(handle.isOk()) << name;
        platforms.push_back(handle.value());
    }
    platforms.push_back(hb::paperTaurus());
    // 8% LUT admits nets under ~585 parameters.
    auto capped_fpga = hcore::Platforms::fpga();
    hcore::ResourceBudget lut_cap;
    lut_cap.fpgaLutPercent = 8.0;
    capped_fpga.constrain({0.1, 2000.0}, lut_cap);
    platforms.push_back(capped_fpga);

    const std::vector<std::vector<std::size_t>> shapes = {
        {},          {4},         {16, 8},         {32, 32, 24, 10},
        {64, 64},    {12, 6, 3},  {8, 8, 8, 8, 8},
    };
    std::size_t feasible = 0, infeasible = 0;
    for (const auto &hidden : shapes) {
        hml::Mlp untrained(adMlpConfig(hidden));
        hml::Mlp trained(adMlpConfig(hidden));
        trained.train(split.train);
        auto format = homunculus::common::FixedPointFormat::q88();
        hir::ModelIr shape_ir = hir::lowerMlp(untrained, format, "ad");
        hir::ModelIr trained_ir = hir::lowerMlp(trained, format, "ad");
        ASSERT_TRUE(hir::serializeModel(shape_ir) !=
                    hir::serializeModel(trained_ir));

        for (const auto &handle : platforms) {
            const auto &platform = handle.platform();
            std::string where = platform.name() + " hidden " +
                                std::to_string(hidden.size()) + "/" +
                                std::to_string(shape_ir.paramCount());
            hcore::CandidateEvaluation shape, full;
            shape.model = shape_ir;
            shape.report = platform.estimate(shape_ir);
            full.model = trained_ir;
            full.report = platform.estimate(trained_ir);
            const auto &a = shape.report;
            const auto &b = full.report;
            EXPECT_EQ(a.computeUnits, b.computeUnits) << where;
            EXPECT_EQ(a.memoryUnits, b.memoryUnits) << where;
            EXPECT_EQ(a.matTables, b.matTables) << where;
            EXPECT_EQ(a.matEntries, b.matEntries) << where;
            EXPECT_EQ(a.lutPercent, b.lutPercent) << where;
            EXPECT_EQ(a.ffPercent, b.ffPercent) << where;
            EXPECT_EQ(a.bramPercent, b.bramPercent) << where;
            EXPECT_EQ(a.powerWatts, b.powerWatts) << where;
            EXPECT_EQ(a.latencyNs, b.latencyNs) << where;
            EXPECT_EQ(a.throughputGpps, b.throughputGpps) << where;
            EXPECT_EQ(a.feasible, b.feasible) << where;
            EXPECT_EQ(a.infeasibleReason, b.infeasibleReason) << where;
            EXPECT_EQ(hcore::toEvalResult(shape).metrics,
                      hcore::toEvalResult(full).metrics)
                << where;
            (a.feasible ? feasible : infeasible) += 1;
        }
    }
    // Both verdicts occur, so the equality covers both branches.
    EXPECT_GT(feasible, 0u);
    EXPECT_GT(infeasible, 0u);
}

TEST(CompilerSession, InfeasibleMlpCandidateIsNotTrained)
{
    // compile_ad's costliest warm-up draw: 7 -> 32/32/24/10 -> 2 at
    // batch 16 (2,376 parameters) overflows Taurus 16x16.
    auto platform = hb::paperTaurus();
    auto spec = adSpec(600);
    auto split = spec.dataLoader();
    hml::MlpConfig mlp_config = adMlpConfig({32, 32, 24, 10});
    mlp_config.epochs = hcore::kCandidateTrainEpochs;
    mlp_config.seed = hb::kBenchSeed;

    auto evaluation = hcore::evaluateCandidate(
        hcore::Algorithm::kDnn, dnnConfiguration(mlp_config), spec, split,
        platform.platform(), hb::kBenchSeed);
    EXPECT_FALSE(evaluation.report.feasible);
    EXPECT_FALSE(evaluation.report.infeasibleReason.empty());
    EXPECT_EQ(evaluation.objective, 0.0);
    EXPECT_EQ(evaluation.model.paramCount(), 2376u);

    // The returned IR carries the He init, not trained weights.
    hir::ModelIr untrained = hir::lowerMlp(
        hml::Mlp(mlp_config), homunculus::common::FixedPointFormat::q88(),
        spec.name);
    untrained.scalerMeans = split.scalerMeans;
    untrained.scalerStds = split.scalerStds;
    untrained.scalerRecorded = true;
    EXPECT_TRUE(hir::serializeModel(evaluation.model) ==
                hir::serializeModel(untrained));

    auto result = hcore::toEvalResult(evaluation);
    EXPECT_FALSE(result.feasible);
    EXPECT_EQ(result.objective, 0.0);
}

TEST(CompilerSession, SearchHistoryMatchesPinnedDigest)
{
    // A compile shaped like perfbench's compile_ad on the fixed bench AD
    // data: dnn + svm, BO 6 + 2, Taurus 16x16 at 1 GPkt/s / 500 ns. The
    // digest covers every record the optimizer was told, so skipping a
    // step of an evaluation must leave it unchanged.
    // Captured from the train-then-estimate evaluator.
    constexpr std::uint64_t kPinned = 0xae977410750bbceaull;
    for (std::size_t jobs : {1u, 2u}) {
        auto platform = hb::paperTaurus();
        hcore::ModelSpec spec = hb::appSpec(hb::App::kAd);
        spec.algorithms = {hcore::Algorithm::kDnn, hcore::Algorithm::kSvm};
        platform.schedule(spec);
        hcore::CompileOptions options;
        options.bo.numInitSamples = 6;
        options.bo.numIterations = 2;
        options.seed = hb::kBenchSeed;
        options.jobs = jobs;
        auto compiled = hcore::Compiler(options).compile(platform);
        ASSERT_TRUE(compiled.isOk()) << compiled.status().toString();
        const auto *model = compiled->find(spec.name);
        ASSERT_NE(model, nullptr);
        ASSERT_EQ(model->perAlgorithm.size(), 2u);

        std::uint64_t hash = 0xCBF29CE484222325ull;
        for (const auto &[family, trace] : model->perAlgorithm) {
            fnvMix(hash, family);
            for (const auto &record : trace.history) {
                fnvMix(hash, record.config.toString());
                fnvMix(hash, record.result.objective);
                fnvMix(hash, record.result.feasible ? 1.0 : 0.0);
                for (const auto &[name, value] : record.result.metrics) {
                    fnvMix(hash, name);
                    fnvMix(hash, value);
                }
            }
        }
        EXPECT_EQ(hash, kPinned) << "jobs " << jobs << std::hex
                                 << " digest 0x" << hash;
    }
}
