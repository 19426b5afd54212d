// compile_ad: the paper's compiler on its anomaly-detection application.
//
// Each compile is one CompileSession run stage by stage on the AD data
// (bench_common's loader), for the Taurus 16x16 target at 1 GPkt/s /
// 500 ns, with a fixed BO budget over two candidate families and two
// search jobs. Serving code does no work here: BO search, training,
// feasibility and codegen do. A run makes a fixed number of compiles
// derived from --seconds (never from how fast they go), each with its
// own seed drawn from the workload seed, so the winners — and their
// F1 — repeat exactly for a given seed.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>

#include "bench_common.hpp"
#include "common/logging.hpp"
#include "core/compiler.hpp"
#include "core/design_space.hpp"
#include "core/trainer.hpp"
#include "data/anomaly_generator.hpp"
#include "measure.hpp"
#include "ml/metrics.hpp"
#include "opt/bayes_opt.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace hc = homunculus::core;
namespace hb = homunculus::bench;

constexpr std::size_t kBoInit = 6;
constexpr std::size_t kBoIterations = 2;
constexpr std::size_t kJobs = 2;
/** Compiles per run: one per this many seconds of --seconds. */
constexpr double kSecondsPerCompile = 2.0;

/** The AD data exactly as bench_common's loadAd() draws it, but from
 *  @p seed instead of the fixed bench seed. */
homunculus::ml::DataSplit
loadAd(std::uint64_t seed)
{
    homunculus::data::AnomalyConfig config;
    config.numSamples = 4000;
    config.noiseLevel = 1.8;
    config.stealthFraction = 0.12;
    config.labelNoise = 0.04;
    config.seed = seed;
    return homunculus::data::generateAnomalySplit(config);
}

hc::ModelSpec
adSpec(std::uint64_t data_seed)
{
    hc::ModelSpec spec = hb::appSpec(hb::App::kAd);
    spec.algorithms = {hc::Algorithm::kDnn, hc::Algorithm::kSvm};
    spec.dataLoader = [data_seed] { return loadAd(data_seed); };
    return spec;
}

/** Everything one staged compile produced. */
struct Compile
{
    bool ok = false;
    std::string error;
    std::uint64_t dataSeed = 0;
    double setupS = 0.0;  ///< session open + loadData.
    double compileS = 0.0;  ///< selectFamilies through emit.
    double stageS[5] = {0, 0, 0, 0, 0};  ///< load, select, search, pick, emit
    std::map<std::string, double> familyS;  ///< traced: per family.
    hc::GeneratedModel winner;
    std::vector<hc::FamilySearch> searches;
};

Compile
compileOnce(std::uint64_t data_seed, bool traced)
{
    Compile out;
    out.dataSeed = data_seed;
    hc::PlatformHandle platform = hb::paperTaurus();
    platform.schedule(adSpec(data_seed));
    hc::CompileOptions options;
    options.bo.numInitSamples = kBoInit;
    options.bo.numIterations = kBoIterations;
    options.seed = hb::kBenchSeed;
    options.jobs = kJobs;
    options.inferJobs = 1;

    // Family search time: from the search stage's start to the
    // family's last progress event (both families start together).
    std::mutex mutex;
    double search_started = 0.0;
    if (traced)
        options.observer = [&](const hc::ProgressEvent &event) {
            if (event.stage != hc::Stage::kSearchFamilies ||
                event.family.empty())
                return;
            std::lock_guard<std::mutex> lock(mutex);
            out.familyS[event.family] = nowSeconds() - search_started;
        };

    double t0 = nowSeconds();
    hc::CompileSession session(platform, options);
    hc::Status status = session.loadData();
    double t1 = nowSeconds();
    out.setupS = t1 - t0;
    out.stageS[0] = t1 - t0;

    using StageFn = hc::Status (hc::CompileSession::*)();
    const StageFn stages[4] = {
        &hc::CompileSession::selectFamilies,
        &hc::CompileSession::searchFamilies,
        &hc::CompileSession::pickWinner, &hc::CompileSession::emit};
    double compile_started = nowSeconds();
    for (int s = 0; s < 4 && status.ok(); ++s) {
        double started = nowSeconds();
        if (s == 1) {
            std::lock_guard<std::mutex> lock(mutex);
            search_started = started;
        }
        status = (session.*stages[s])();
        out.stageS[s + 1] = nowSeconds() - started;
    }
    out.compileS = nowSeconds() - compile_started;
    if (!status.ok() || session.report().models.empty()) {
        out.error = status.ok() ? "no model generated" : status.toString();
        return out;
    }
    out.winner = session.report().models.front();
    if (const auto *searches = session.searchesFor(out.winner.specName))
        out.searches = *searches;
    out.ok = true;
    return out;
}

/** executeIr over the test partition must reproduce the reported F1
 *  bit for bit, and the winner must fit the platform. */
bool
rescoreMatches(const Compile &c, std::string &detail)
{
    const homunculus::ml::DataSplit split = loadAd(c.dataSeed);
    std::vector<int> predicted(split.test.x.rows());
    for (std::size_t r = 0; r < split.test.x.rows(); ++r) {
        std::vector<double> row(split.test.x.rowPtr(r),
                                split.test.x.rowPtr(r) + split.test.x.cols());
        predicted[r] = homunculus::ir::executeIr(c.winner.model, row);
    }
    double f1 = homunculus::ml::f1ForTask(split.test.y, predicted,
                                          split.test.numClasses);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "reported %.17g, executeIr %.17g, feasible %s",
                  c.winner.objective, f1,
                  c.winner.report.feasible ? "yes" : "no");
    detail = buf;
    return f1 == c.winner.objective && c.winner.report.feasible;
}

double
median(std::vector<double> values)
{
    return nearestRank(values, 0.5).value;
}

/** ms per evaluation of BayesianOptimizer::optimize over the DNN design
 *  space with an objective that costs nothing. */
double
boIterMs(std::uint64_t seed)
{
    hc::PlatformHandle platform = hb::paperTaurus();
    homunculus::opt::BoConfig config;
    config.numInitSamples = kBoInit;
    config.numIterations = kBoIterations;
    config.seed = seed;
    homunculus::opt::BayesianOptimizer optimizer(
        hc::buildDesignSpace(hc::Algorithm::kDnn, adSpec(seed),
                             platform.platform()),
        config);
    auto objective = [](const homunculus::opt::Configuration &c) {
        homunculus::opt::EvalResult result;
        std::size_t h = std::hash<std::string>{}(c.toString());
        result.objective = 0.5 + 0.5 * static_cast<double>(h % 1000) / 1000.0;
        result.feasible = true;
        return result;
    };
    std::size_t evals = 0;
    double started = nowSeconds();
    for (int rep = 0; rep < 5; ++rep)
        evals += optimizer.optimize(objective).history.size();
    return (nowSeconds() - started) * 1e3 / static_cast<double>(evals);
}

/** ms per evaluateCandidate call over the configurations one compile
 *  visited, on the same data and platform. */
double
trainerEvalMs(const Compile &c)
{
    hc::PlatformHandle platform = hb::paperTaurus();
    hc::ModelSpec spec = adSpec(c.dataSeed);
    const homunculus::ml::DataSplit split = loadAd(c.dataSeed);
    std::size_t evals = 0;
    double started = nowSeconds();
    for (const hc::FamilySearch &family : c.searches)
        for (const auto &record : family.search.history) {
            (void)hc::evaluateCandidate(family.algorithm, record.config, spec,
                                        split, platform.platform(),
                                        hb::kBenchSeed);
            ++evals;
        }
    return evals ? (nowSeconds() - started) * 1e3 / static_cast<double>(evals)
                 : 0.0;
}

}  // namespace

void
runCompileAd(const Args &args, Report &report)
{
    const auto compiles = static_cast<std::size_t>(std::max<long long>(
        2, std::llround(args.seconds / kSecondsPerCompile)));
    homunculus::common::setLogThreshold(homunculus::common::LogLevel::kWarn);
    report.meta("compile_ad.compiles", std::to_string(compiles));
    report.meta("compile_ad.bo_budget",
                std::to_string(kBoInit) + "+" + std::to_string(kBoIterations));

    // A traced run compiles the first half of the seeds untraced and
    // then the same seeds traced, so the tracing overhead compares like
    // with like.
    std::vector<Compile> runs, traced_runs;
    const std::size_t untraced = args.trace ? (compiles + 1) / 2 : compiles;
    for (std::size_t k = 0; k < untraced; ++k)
        runs.push_back(compileOnce(args.seed * 1000 + k, false));
    if (args.trace)
        for (std::size_t k = 0; k < untraced; ++k)
            traced_runs.push_back(compileOnce(args.seed * 1000 + k, true));

    std::uint64_t failed = 0;
    std::string first_error, rescore_detail;
    bool rescored = true;
    for (const auto *set : {&runs, &traced_runs})
        for (const Compile &c : *set) {
            if (!c.ok) {
                if (failed++ == 0)
                    first_error = c.error;
                continue;
            }
            std::string detail;
            bool matches = rescoreMatches(c, detail);
            if (rescored)
                rescore_detail = detail;  // the first mismatch, else the last
            rescored = rescored && matches;
        }
    for (std::size_t k = 0; k < traced_runs.size(); ++k)
        if (runs[k].ok && traced_runs[k].ok &&
            runs[k].winner.objective != traced_runs[k].winner.objective) {
            rescored = false;
            rescore_detail = "traced and untraced compiles of one seed "
                             "picked different winners";
        }
    const std::uint64_t attempted = runs.size() + traced_runs.size();
    report.gate("compiles_succeeded", failed == 0,
                std::to_string(attempted - failed) + " of " +
                    std::to_string(attempted) +
                    (first_error.empty() ? ""
                                         : "; first error: " + first_error));
    report.gate("winner_rescored_by_executeIr", rescored && failed < attempted,
                rescore_detail);
    report.outcomes(attempted, failed);
    report.metric("fail_frac",
                  static_cast<double>(failed) / static_cast<double>(attempted),
                  "ratio", attempted);
    if (failed > 0)
        return;

    std::vector<double> compile_us, setup_s, f1;
    for (const Compile &c : runs) {
        compile_us.push_back(c.compileS * 1e6);
        setup_s.push_back(c.setupS);
        f1.push_back(c.winner.objective);
    }

    if (!args.trace) {
        double total_s = 0.0;
        for (double us : compile_us)
            total_s += us / 1e6;
        Percentile p50 = nearestRank(compile_us, 0.50);
        Percentile p90 = nearestRank(compile_us, 0.90);
        report.metric("req_p50_us", p50.value, "us", p50.count);
        report.metric("req_p90_us", p90.value, "us", p90.count);
        report.metric("compile_s", p50.value / 1e6, "s", p50.count);
        report.metric("req_per_s", static_cast<double>(runs.size()) / total_s,
                      "1/s", runs.size());
        report.metric("f1", median(f1), "ratio", f1.size());
        reportSetup(report, setup_s);
        report.metric("peak_rss_mb", peakRssMb(), "MiB");
        return;
    }

    std::vector<double> traced_us, stage[5], overlap, evals, feasible;
    std::map<std::string, std::vector<double>> family;
    for (const Compile &c : traced_runs) {
        traced_us.push_back(c.compileS * 1e6);
        for (int s = 0; s < 5; ++s)
            stage[s].push_back(c.stageS[s]);
        double family_sum = 0.0;
        for (const auto &[name, seconds] : c.familyS) {
            family[name].push_back(seconds);
            family_sum += seconds;
        }
        overlap.push_back(family_sum / c.stageS[2]);
        std::size_t n = 0, ok = 0;
        for (const hc::FamilySearch &f : c.searches)
            for (const auto &record : f.search.history) {
                ++n;
                ok += record.result.feasible ? 1 : 0;
            }
        evals.push_back(static_cast<double>(n));
        feasible.push_back(n ? static_cast<double>(ok) / static_cast<double>(n)
                             : 0.0);
    }
    report.metric("trace.overhead_p50_us",
                  median(traced_us) - median(compile_us), "us",
                  traced_us.size());
    const char *stage_names[5] = {"compiler.load_s", "compiler.select_s",
                                  "compiler.search_s", "compiler.pick_s",
                                  "compiler.emit_s"};
    for (int s = 0; s < 5; ++s)
        report.metric(stage_names[s], median(stage[s]), "s", stage[s].size());
    for (const auto &[name, seconds] : family)
        report.metric("compiler.family_s." + name, median(seconds), "s",
                      seconds.size());
    report.metric("executor.search_overlap", median(overlap), "ratio",
                  overlap.size());
    report.metric("bo.evals", median(evals), "count", evals.size());
    report.metric("bo.feasible_frac", median(feasible), "ratio",
                  feasible.size());
    report.metric("bo.iter_ms", boIterMs(args.seed), "ms");
    report.metric("trainer.eval_ms",
                  trainerEvalMs(traced_runs.front()), "ms");
    const hc::GeneratedModel &winner = traced_runs.front().winner;
    report.metric("codegen.bytes", static_cast<double>(winner.code.size()),
                  "bytes");
    report.metric("winner.params",
                  static_cast<double>(winner.model.paramCount()), "count");
    report.metric("winner_f1", median(f1), "ratio", f1.size());
    report.absent("loadgen.busy_frac", "no load generator: compiles run back "
                                       "to back");
}

}  // namespace perfbench
