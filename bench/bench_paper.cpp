/**
 * @file
 * The paper's evaluation (§5) in one executable: every table, figure and
 * ablation the reproduction reports is an experiment, selected by name.
 * Each experiment prints its table next to the paper's numbers, then one
 * `[shape]` line per qualitative claim; bench_paper exits 1 when any shape
 * fails, so a change that breaks a paper result fails CI.
 *
 * Usage: bench_paper [--exp NAME] [--json PATH]
 *   --exp NAME   run one experiment (default: all of them, in the order
 *                of kExperiments at the bottom of this file)
 *   --json PATH  write every measured value, the paper's value where it
 *                reports one, and every shape bit as a BenchJson document
 * Exit status: 0 every shape held, 1 a shape failed (or the JSON could
 * not be written), 2 usage error or unknown experiment name.
 *
 * Every search compiles through core::Compiler over a scheduled spec.
 */
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>

#include "backends/fpga.hpp"
#include "backends/mat_platform.hpp"
#include "bench_common.hpp"
#include "common/table_printer.hpp"
#include "core/design_space.hpp"
#include "core/fusion.hpp"
#include "core/schedule.hpp"
#include "ir/exec_plan.hpp"
#include "ml/metrics.hpp"
#include "runtime/executor.hpp"

using namespace homunculus;
using namespace homunculus::bench;
using common::TablePrinter;

namespace {

std::string
count(std::size_t value)
{
    return TablePrinter::cell(static_cast<long long>(value));
}

const char *
yesNo(bool holds)
{
    return holds ? "YES" : "NO";
}

/** Record an experiment's shape bits; returns whether all of them held. */
bool
recordShapes(BenchJson &json, const std::string &experiment,
             const std::vector<std::pair<std::string, bool>> &shapes)
{
    std::vector<std::pair<std::string, double>> bits;
    bool all_held = true;
    for (const auto &[name, holds] : shapes) {
        bits.emplace_back(name, holds ? 1.0 : 0.0);
        all_held &= holds;
    }
    json.add(experiment + "/shapes", bits);
    return all_held;
}

/** Compile @p spec alone on @p platform and return its winner. */
core::GeneratedModel
compileSpec(const core::ModelSpec &spec, core::PlatformHandle platform,
            const core::CompileOptions &options)
{
    platform.schedule(spec);
    return std::move(
        core::Compiler(options).compile(platform).value().models.front());
}

/** One app's data split and its Table 2 Hom-* winner. */
struct AppRun
{
    ml::DataSplit split;
    core::GeneratedModel hom;
};

/**
 * The Table 2 run of @p app, loaded and searched once per process: Table 5
 * measures the same models, and loading BD alone takes seconds.
 */
const AppRun &
table2Run(App app)
{
    static std::map<App, AppRun> runs;
    auto found = runs.find(app);
    if (found == runs.end()) {
        AppRun run;
        run.split = appSpec(app).dataLoader();
        core::ModelSpec spec = appSpec(app);
        spec.dataLoader = [&run] { return run.split; };
        run.hom = compileSpec(spec, paperTaurus(), searchBudget(5, 15));
        found = runs.emplace(app, std::move(run)).first;
    }
    return found->second;
}

// ------------------------------------------------------------- Table 2

/*
 * Table 2 reproduction: hand-tuned baseline models vs. Homunculus-
 * generated models for AD, TC, and BD on the Taurus target.
 *
 * Paper reference (Table 2):
 *   Base-AD  7 feat  203 params  F1 71.10  CUs  24  MUs  48
 *   Hom-AD   7 feat  254 params  F1 83.10  CUs  41  MUs  67
 *   Base-TC  7 feat  275 params  F1 61.04  CUs  31  MUs  59
 *   Hom-TC   7 feat  370 params  F1 68.75  CUs  54  MUs  97
 *   Base-BD 30 feat  662 params  F1 77.00  CUs 167  MUs  45
 *   Hom-BD  30 feat  501 params  F1 79.80  CUs  53  MUs 151
 *
 * Expected shape on our synthetic substrate: Hom-* beats Base-* on F1 for
 * every application, and every Hom-* winner is feasible on the 16x16
 * grid; Hom models use the platform more aggressively; the BD evaluation
 * runs on per-packet partial histograms (reaction time in nanoseconds
 * instead of FlowLens's 3600 s aggregation window).
 */
bool
table2(BenchJson &json)
{
    struct PaperRow
    {
        double params, f1, cus, mus;
    };
    const PaperRow paper[] = {{203, 71.10, 24, 48},  {254, 83.10, 41, 67},
                              {275, 61.04, 31, 59},  {370, 68.75, 54, 97},
                              {662, 77.00, 167, 45}, {501, 79.80, 53, 151}};

    std::cout << "=== Table 2: hand-tuned baselines vs. Homunculus "
                 "(Taurus, 1 GPkt/s, 500 ns, 16x16) ===\n\n";

    TablePrinter table(
        {"Application", "Features", "# NN Param", "F1 Score", "CUs", "MUs"});
    std::vector<double> f1s;
    bool feasible = true;
    auto add = [&](const std::string &name, std::size_t features,
                   const ir::ModelIr &model,
                   const backends::ResourceReport &report, double objective) {
        const PaperRow &ref = paper[f1s.size()];
        f1s.push_back(100.0 * objective);
        table.addRow({name, count(features), count(model.paramCount()),
                      TablePrinter::cell(f1s.back(), 2),
                      count(report.computeUnits), count(report.memoryUnits)});
        json.add("table2/" + name,
                 {{"features", static_cast<double>(features)},
                  {"params", static_cast<double>(model.paramCount())},
                  {"f1", f1s.back()},
                  {"cus", static_cast<double>(report.computeUnits)},
                  {"mus", static_cast<double>(report.memoryUnits)},
                  {"paper_params", ref.params},
                  {"paper_f1", ref.f1},
                  {"paper_cus", ref.cus},
                  {"paper_mus", ref.mus}});
    };
    for (App app : {App::kAd, App::kTc, App::kBd}) {
        auto platform = paperTaurus();
        const AppRun &run = table2Run(app);
        std::size_t features = run.split.train.numFeatures();
        auto baseline = trainBaseline(app, run.split, platform.platform());
        add("Base-" + appName(app), features, baseline.model,
            baseline.report, baseline.objective);
        const core::GeneratedModel &hom = run.hom;
        add("Hom-" + appName(app), features, hom.model, hom.report,
            hom.objective);
        feasible &= hom.report.feasible;
    }
    table.print();

    std::cout << "\n";
    printPaperNote("Base-AD 71.10 vs Hom-AD 83.10; Base-TC 61.04 vs "
                   "Hom-TC 68.75; Base-BD 77.00 vs Hom-BD 79.80");
    printPaperNote("shape check: Hom-* F1 > Base-* F1 for every app; BD "
                   "tested on per-packet partial histograms");

    bool beats = f1s[1] > f1s[0] && f1s[3] > f1s[2] && f1s[5] > f1s[4];
    std::cout << "  [shape] Homunculus beats baseline on all apps: "
              << yesNo(beats) << "\n"
              << "  [shape] every Hom-* winner feasible on Taurus 16x16: "
              << yesNo(feasible) << "\n\n";
    return recordShapes(json, "table2",
                        {{"hom_beats_base", beats},
                         {"hom_feasible", feasible}});
}

// ------------------------------------------------------------- Table 3

/*
 * Table 3 reproduction: resource scaling for application-chaining
 * strategies on a single Taurus switch.
 *
 * Paper reference (Table 3) — four copies of the AD DNN:
 *   DNN > DNN > DNN > DNN          24 CUs  24 MUs
 *   DNN | DNN | DNN | DNN          24 CUs  24 MUs
 *   DNN > (DNN | DNN) > DNN        24 CUs  24 MUs
 *
 * The paper's observation: resource totals are identical across chaining
 * strategies because model-management glue folds into CUs already in use.
 * We reproduce the invariance (same totals for all three strategies) and
 * additionally report the latency/throughput composition, which *does*
 * depend on the strategy.
 */
bool
table3(BenchJson &json)
{
    std::cout << "=== Table 3: resource scaling for app-chaining "
                 "strategies (4x AD DNN on one Taurus switch) ===\n\n";

    // Train one AD model and virtualize four copies of it, exactly like
    // the paper's experiment.
    auto platform = paperTaurus();
    auto split = loadAd();
    auto trained = trainBaseline(App::kAd, split, platform.platform());

    core::ModelSpec specs[4];
    std::map<std::string, backends::ResourceReport> reports;
    for (int i = 0; i < 4; ++i) {
        specs[i] = appSpec(App::kAd);
        specs[i].name = "ad_" + std::to_string(i);
        reports[specs[i].name] = trained.report;
    }

    const std::pair<std::string, core::ScheduleNode> strategies[] = {
        {"DNN > DNN > DNN > DNN", specs[0] > specs[1] > specs[2] > specs[3]},
        {"DNN | DNN | DNN | DNN", specs[0] | specs[1] | specs[2] | specs[3]},
        {"DNN > (DNN | DNN) > DNN",
         core::leaf(specs[0]) > (specs[1] | specs[2]) >
             core::leaf(specs[3])}};

    TablePrinter table({"Model", "CUs", "MUs", "Latency(ns)", "Thr(Gpps)"});
    std::vector<core::ScheduleResources> totals;
    for (const auto &[notation, node] : strategies) {
        auto resources = core::composeResources(node, reports);
        totals.push_back(resources);
        table.addRow({notation, count(resources.computeUnits),
                      count(resources.memoryUnits),
                      TablePrinter::cell(resources.latencyNs, 1),
                      TablePrinter::cell(resources.throughputGpps, 2)});
        json.add("table3/" + notation,
                 {{"cus", static_cast<double>(resources.computeUnits)},
                  {"mus", static_cast<double>(resources.memoryUnits)},
                  {"latency_ns", resources.latencyNs},
                  {"thr_gpps", resources.throughputGpps},
                  {"paper_cus", 24},
                  {"paper_mus", 24}});
    }
    table.print();

    std::cout << "\n";
    printPaperNote("all three strategies: 24 CUs / 24 MUs (identical "
                   "totals; glue logic is negligible)");
    bool invariant = totals[0].computeUnits == totals[1].computeUnits &&
                     totals[1].computeUnits == totals[2].computeUnits &&
                     totals[0].memoryUnits == totals[1].memoryUnits &&
                     totals[1].memoryUnits == totals[2].memoryUnits;
    std::cout << "  [shape] CU/MU totals invariant across strategies: "
              << yesNo(invariant) << "\n\n";
    return recordShapes(json, "table3", {{"totals_invariant", invariant}});
}

// ------------------------------------------------------------- Table 4

/*
 * Table 4 reproduction: model fusion resource usage.
 *
 * Paper reference (Table 4):
 *   AD: Part 1   44 PCUs   81 PMUs
 *   AD: Part 2   51 PCUs   96 PMUs
 *   AD: Fused    48 PCUs   83 PMUs
 *
 * Setup: the AD dataset is split into two halves and a model is searched
 * for each half independently (as if two tenants each brought half the
 * data). Since the two halves share all features, Homunculus fuses them
 * into a single model trained on the union. The paper's observation:
 * the fused model costs about the same as ONE split model — i.e. roughly
 * half the resources of deploying both — because the two halves encode
 * the same network characteristics.
 */
bool
table4(BenchJson &json)
{
    std::cout << "=== Table 4: fused resource usage (AD dataset split "
                 "into two halves) ===\n\n";

    auto full = loadAd();
    auto [part1, part2] = core::halveSplit(full, kBenchSeed);

    // Fusion policy check: the halves share every feature.
    auto overlap = core::assessFeatureOverlap(part1.train, part2.train);
    std::cout << "  feature overlap: " << overlap.fraction * 100.0
              << "% -> fuse = "
              << (core::shouldFuse(part1.train, part2.train) ? "yes" : "no")
              << "\n\n";

    auto search_on = [](const ml::DataSplit &split, const std::string &name) {
        core::ModelSpec spec = appSpec(App::kAd);
        spec.name = name;
        spec.dataLoader = [split] { return split; };
        return compileSpec(spec, paperTaurus(), searchBudget(4, 8));
    };
    auto model1 = search_on(part1, "ad_part1");
    auto model2 = search_on(part2, "ad_part2");
    auto fused = search_on(core::fuseSplits(part1, part2), "ad_fused");

    TablePrinter table({"Application", "PCUs", "PMUs", "F1"});
    auto add = [&](const std::string &name, const core::GeneratedModel &model,
                   double paper_cus, double paper_mus) {
        table.addRow({name, count(model.report.computeUnits),
                      count(model.report.memoryUnits),
                      TablePrinter::cell(100.0 * model.objective, 2)});
        json.add("table4/" + name,
                 {{"pcus", static_cast<double>(model.report.computeUnits)},
                  {"pmus", static_cast<double>(model.report.memoryUnits)},
                  {"f1", 100.0 * model.objective},
                  {"paper_pcus", paper_cus},
                  {"paper_pmus", paper_mus}});
    };
    add("AD: Part 1", model1, 44, 81);
    add("AD: Part 2", model2, 51, 96);
    add("AD: Fused", fused, 48, 83);
    table.print();

    std::cout << "\n";
    printPaperNote("Part1 44/81, Part2 51/96, Fused 48/83 — fused cost is "
                   "about one split model, i.e. ~2x saving vs deploying "
                   "both");
    std::size_t both_cus =
        model1.report.computeUnits + model2.report.computeUnits;
    std::size_t both_mus =
        model1.report.memoryUnits + model2.report.memoryUnits;
    bool cheaper = fused.report.computeUnits < both_cus &&
                   fused.report.memoryUnits < both_mus;
    std::cout << "  [shape] fused < part1 + part2 on both CU and MU: "
              << yesNo(cheaper) << " (both = " << both_cus << "/"
              << both_mus << ")\n\n";
    return recordShapes(json, "table4", {{"fused_cheaper", cheaper}});
}

// ------------------------------------------------------------- Table 5

/*
 * Table 5 reproduction: resource consumption and power of the Table 2
 * models on the Taurus FPGA testbed (Alveo-style bump-in-the-wire). The
 * Hom-* rows are the Table 2 winners themselves (table2Run).
 *
 * Paper reference (Table 5):
 *   Loopback  -    LUT 5.36  FF 3.64  BRAM 4.15  15.131 W
 *   Base-AD   DNN  LUT 6.55  FF 4.30  BRAM 4.15  16.969 W
 *   Hom-AD    DNN  LUT 6.61  FF 4.43  BRAM 4.15  17.440 W
 *   Base-TC   DNN  LUT 6.69  FF 4.48  BRAM 4.15  17.553 W
 *   Hom-TC    DNN  LUT 7.48  FF 4.77  BRAM 4.15  18.405 W
 *   Base-BD   DNN  LUT 7.29  FF 4.68  BRAM 4.15  17.807 W
 *   Hom-BD    DNN  LUT 6.72  FF 4.49  BRAM 4.15  17.309 W
 *
 * Shape: every model costs more than loopback; resource use (and hence
 * power) tracks parameter count, so larger Hom models for AD/TC cost
 * more than their baselines, while a smaller winning model costs less.
 */
bool
table5(BenchJson &json)
{
    struct PaperRow
    {
        double lut, ff, bram, watts;
    };
    const PaperRow paper[] = {
        {5.36, 3.64, 4.15, 15.131}, {6.55, 4.30, 4.15, 16.969},
        {6.61, 4.43, 4.15, 17.440}, {6.69, 4.48, 4.15, 17.553},
        {7.48, 4.77, 4.15, 18.405}, {7.29, 4.68, 4.15, 17.807},
        {6.72, 4.49, 4.15, 17.309}};

    std::cout << "=== Table 5: FPGA testbed resource/power for the "
                 "Table 2 models ===\n\n";

    backends::FpgaPlatform fpga;
    TablePrinter table({"Application", "Model", "LUT%", "FFs%", "BRAM%",
                        "Power (W)"});
    std::vector<double> power, lut;
    std::vector<std::size_t> params;
    std::size_t row = 0;
    auto add = [&](const std::string &name, const std::string &model,
                   const backends::ResourceReport &report) {
        const PaperRow &ref = paper[row++];
        table.addRow({name, model, TablePrinter::cell(report.lutPercent, 2),
                      TablePrinter::cell(report.ffPercent, 2),
                      TablePrinter::cell(report.bramPercent, 2),
                      TablePrinter::cell(report.powerWatts, 3)});
        json.add("table5/" + name, {{"lut_pct", report.lutPercent},
                                    {"ff_pct", report.ffPercent},
                                    {"bram_pct", report.bramPercent},
                                    {"power_w", report.powerWatts},
                                    {"paper_lut_pct", ref.lut},
                                    {"paper_ff_pct", ref.ff},
                                    {"paper_bram_pct", ref.bram},
                                    {"paper_power_w", ref.watts}});
    };

    auto measure = [&](const std::string &name, const ir::ModelIr &model) {
        auto report = fpga.estimate(model);
        add(name, "DNN", report);
        power.push_back(report.powerWatts);
        lut.push_back(report.lutPercent);
        params.push_back(model.paramCount());
    };

    auto loopback = fpga.loopbackReport();
    add("Loopback", "-", loopback);
    for (App app : {App::kAd, App::kTc, App::kBd}) {
        const AppRun &run = table2Run(app);
        measure("Base-" + appName(app),
                trainBaseline(app, run.split, fpga).model);
        measure("Hom-" + appName(app), run.hom.model);
    }
    table.print();

    std::cout << "\n";
    printPaperNote("loopback 15.131 W; every model adds 1.8-3.3 W; power "
                   "tracks parameter count (LUTs store the parameters)");
    bool all_above = true;
    for (double p : power)
        all_above &= p > loopback.powerWatts;
    // Power and LUTs should order with parameter count.
    auto orders_with_params = [&](const std::vector<double> &cost) {
        for (std::size_t i = 0; i < cost.size(); ++i)
            for (std::size_t j = 0; j < cost.size(); ++j)
                if (params[i] < params[j] && cost[i] > cost[j] + 1e-9)
                    return false;
        return true;
    };
    bool power_monotone = orders_with_params(power);
    bool lut_monotone = orders_with_params(lut);
    std::cout << "  [shape] all models above loopback power: "
              << yesNo(all_above) << "\n"
              << "  [shape] power monotone in parameter count: "
              << yesNo(power_monotone) << "\n"
              << "  [shape] LUT% monotone in parameter count: "
              << yesNo(lut_monotone) << "\n\n";
    return recordShapes(json, "table5",
                        {{"above_loopback", all_above},
                         {"power_monotone", power_monotone},
                         {"lut_monotone", lut_monotone}});
}

// ------------------------------------------------------------ Figure 4

/*
 * Figure 4 reproduction: regret plot with the F1-score metric for the
 * anomaly-detection DNN on the MapReduce grid.
 *
 * Paper reference: F1 starts poor (~20-40), stabilizes within a few
 * iterations, then jumps when the optimizer discovers a significantly
 * better variant (exploitation/exploration trade) — reaching ~80+ by
 * iteration ~20.
 *
 * Output: one line per optimization iteration with the evaluated F1 and
 * the best-so-far envelope, plus an ASCII sparkline of the series. Shape:
 * the envelope is monotone and ends above the best warm-up evaluation.
 */
std::string
sparkline(const std::vector<double> &values, double lo, double hi)
{
    static const char *levels[] = {"_", ".", ":", "-", "=", "+", "*", "#"};
    std::string out;
    for (double v : values) {
        double t = (v - lo) / (hi - lo);
        int idx = std::clamp(static_cast<int>(t * 7.0), 0, 7);
        out += levels[idx];
    }
    return out;
}

bool
fig4(BenchJson &json)
{
    std::cout << "=== Figure 4: regret plot, F1 vs. BO iteration "
                 "(AD DNN on the Taurus MapReduce grid) ===\n\n";

    auto generated =
        compileSpec(appSpec(App::kAd), paperTaurus(), searchBudget(5, 20));

    const auto &history = generated.searchHistory.history;
    TablePrinter table({"Iter", "Phase", "F1", "Best-so-far", "Feasible"});
    std::vector<double> evaluated;
    for (std::size_t i = 0; i < history.size(); ++i) {
        const auto &record = history[i];
        evaluated.push_back(100.0 * record.result.objective);
        table.addRow({count(i + 1),
                      record.fromWarmup ? "warmup" : "bayes-opt",
                      TablePrinter::cell(100.0 * record.result.objective, 2),
                      TablePrinter::cell(100.0 * record.bestSoFar, 2),
                      record.result.feasible ? "yes" : "no"});
    }
    table.print();

    std::cout << "\n  evaluated F1 per iteration: "
              << sparkline(evaluated, 0.0, 100.0) << "\n";
    auto best = generated.searchHistory.bestSoFarSeries();
    for (double &v : best)
        v *= 100.0;
    std::cout << "  best-so-far envelope:       "
              << sparkline(best, 0.0, 100.0) << "\n\n";

    printPaperNote("initial iterations poor, quick stabilization, "
                   "occasional exploration dips, best F1 ~83 at "
                   "iteration ~20");
    // The warm-up best is the envelope at the last warm-up record.
    std::size_t warmup_end = 0;
    for (std::size_t i = 0; i < history.size(); ++i)
        if (history[i].fromWarmup)
            warmup_end = i;
    double warmup_best = best[warmup_end];
    bool improves = best.back() > warmup_best + 1e-9;
    bool monotone = true;
    for (std::size_t i = 1; i < best.size(); ++i)
        monotone &= best[i] >= best[i - 1] - 1e-12;
    std::cout << "  [shape] best-so-far envelope monotone: "
              << yesNo(monotone)
              << "; improves over warmup: " << yesNo(improves) << "\n\n";
    json.add("fig4/AD", {{"evaluations", static_cast<double>(best.size())},
                         {"warmup_best_f1", warmup_best},
                         {"best_f1", best.back()},
                         {"paper_best_f1", 83}});
    return recordShapes(json, "fig4",
                        {{"envelope_monotone", monotone},
                         {"improves_over_warmup", improves}});
}

// ------------------------------------------------------------ Figure 6

/*
 * Figure 6 reproduction: botnet vs. benign flow-level packet-length (PL)
 * and inter-arrival-time (IPT) histograms averaged across all flows.
 *
 * Paper reference: PL bin size 64 B (bins 2-22 shown), IPT bin size 512 s
 * (bins 1-6). Benign P2P mass spans the full packet-size range with a
 * heavy tail; botnet mass concentrates in the small-packet bins and its
 * IPT histogram has mass in the later (long-gap) bins. Certain bins stay
 * near-empty for botnets early on — the divergence that makes per-packet
 * partial-histogram detection possible.
 */
bool
fig6(BenchJson &json)
{
    std::cout << "=== Figure 6: botnet vs. benign flow-level PL and IPT "
                 "histograms (averaged across flows) ===\n\n";

    data::P2pTraceConfig config;
    config.numFlows = 600;
    config.seed = kBenchSeed ^ 0xF16ull;
    auto flows = data::generateP2pFlows(config);
    auto marker_config = data::homunculusCompressedConfig();
    auto histograms = data::averageClassHistograms(flows, marker_config);

    auto print = [](const std::vector<double> &benign,
                    const std::vector<double> &botnet, std::size_t bins) {
        TablePrinter table({"Bin", "Benign", "Malicious"});
        for (std::size_t b = 0; b < bins; ++b)
            table.addRow({count(b), TablePrinter::cell(benign[b], 3),
                          TablePrinter::cell(botnet[b], 3)});
        table.print();
    };
    std::cout << "--- Avg. packet-length counts (bin size 64 B) ---\n";
    print(histograms.benignPl, histograms.botnetPl, marker_config.plBins);
    std::cout << "\n--- Avg. inter-arrival-time counts (bin size 512 s) "
                 "---\n";
    print(histograms.benignIpt, histograms.botnetIpt, marker_config.iptBins);

    std::cout << "\n";
    printPaperNote("benign flows: heavy-tailed PL spanning all bins, IPT "
                   "mass in bin 0; botnet flows: PL concentrated in small "
                   "bins, IPT mass spread into later bins");

    double benign_pl_tail = 0, botnet_pl_tail = 0;
    for (std::size_t b = 8; b < marker_config.plBins; ++b) {
        benign_pl_tail += histograms.benignPl[b];
        botnet_pl_tail += histograms.botnetPl[b];
    }
    double botnet_ipt_late = 0, benign_ipt_late = 0;
    for (std::size_t b = 1; b < marker_config.iptBins; ++b) {
        botnet_ipt_late += histograms.botnetIpt[b];
        benign_ipt_late += histograms.benignIpt[b];
    }
    bool pl_tail = benign_pl_tail > botnet_pl_tail;
    bool ipt_late = botnet_ipt_late > benign_ipt_late;
    std::cout << "  [shape] benign PL tail mass > botnet PL tail mass: "
              << yesNo(pl_tail) << "\n"
              << "  [shape] botnet late-IPT mass > benign late-IPT mass: "
              << yesNo(ipt_late) << "\n\n";
    json.add("fig6/mass", {{"benign_pl_tail", benign_pl_tail},
                           {"botnet_pl_tail", botnet_pl_tail},
                           {"benign_ipt_late", benign_ipt_late},
                           {"botnet_ipt_late", botnet_ipt_late}});
    return recordShapes(json, "fig6",
                        {{"benign_pl_tail_heavier", pl_tail},
                         {"botnet_ipt_later", ipt_late}});
}

// ------------------------------------------------------------ Figure 7

/*
 * Figure 7 reproduction: V-measure regret for Homunculus-generated
 * KMeans traffic classification under varying MAT budgets (IIsy backend).
 *
 * Paper reference: five series KMeans1..KMeans5, where KMeansN runs with
 * N available tables (1 table per cluster). More tables -> finer cluster
 * groupings -> higher V-measure; Homunculus automatically coarsens the
 * clustering when tables are scarce, trading fidelity for fit.
 */
bool
fig7(BenchJson &json)
{
    std::cout << "=== Figure 7: V-measure for generated KMeans under "
                 "1..5 available MATs (IIsy backend) ===\n\n";

    auto split = loadTcClustering();

    TablePrinter table({"Series", "MAT budget", "Clusters", "Tables used",
                        "Best V-score", "Per-iter V-scores"});
    std::vector<double> best_scores;

    // KMeans1: a single table can only host one coarse grouping — every
    // packet lands in the same cluster, V-measure 0 by definition.
    {
        std::vector<int> one_cluster(split.test.numSamples(), 0);
        double v = ml::vMeasure(split.test.y, one_cluster);
        best_scores.push_back(v);
        table.addRow({"KMeans1", "1", "1", "1",
                      TablePrinter::cell(100.0 * v, 2),
                      "(degenerate single grouping)"});
        json.add("fig7/KMeans1", {{"budget", 1}, {"best_v", 100.0 * v}});
    }

    for (std::size_t budget = 2; budget <= 5; ++budget) {
        // Search a KMeans TC model under a budget-table MAT pipeline.
        backends::MatConfig mat_config;
        mat_config.numTables = budget;
        auto platform = core::Platforms::tofino(mat_config);
        backends::ResourceBudget tables;
        tables.matTables = budget;
        platform.constrain({1.0, 600.0}, tables);
        core::ModelSpec spec;
        spec.name = "kmeans_tc_" + std::to_string(budget);
        spec.optimizationMetric = core::Metric::kVMeasure;
        spec.algorithms = {core::Algorithm::kKMeans};
        spec.dataLoader = [split] { return split; };
        auto generated = compileSpec(spec, platform, searchBudget(3, 6));
        best_scores.push_back(generated.objective);

        std::string series;
        for (const auto &record : generated.searchHistory.history) {
            if (!series.empty())
                series += " ";
            series += TablePrinter::cell(100.0 * record.result.objective, 1);
        }
        std::string name = "KMeans" + std::to_string(budget);
        table.addRow({name, std::to_string(budget),
                      std::to_string(generated.model.centroids.size()),
                      std::to_string(generated.report.matTables),
                      TablePrinter::cell(100.0 * generated.objective, 2),
                      series});
        json.add("fig7/" + name,
                 {{"budget", static_cast<double>(budget)},
                  {"clusters",
                   static_cast<double>(generated.model.centroids.size())},
                  {"tables", static_cast<double>(generated.report.matTables)},
                  {"best_v", 100.0 * generated.objective}});
    }
    table.print();

    std::cout << "\n";
    printPaperNote("V-score rises with table budget: K5 > K4 > ... > K1; "
                   "Homunculus coarsens clusters to fit scarce MATs");
    bool monotone = true;
    for (std::size_t i = 1; i < best_scores.size(); ++i)
        monotone &= best_scores[i] >= best_scores[i - 1] - 0.02;
    std::cout << "  [shape] best V-score non-decreasing in MAT budget: "
              << yesNo(monotone) << "\n\n";
    return recordShapes(json, "fig7", {{"v_monotone_in_budget", monotone}});
}

// ------------------------------------------------ Ablation: BO vs random

/*
 * Ablation: Bayesian optimization vs. uniform random search at equal
 * evaluation budget, on the AD-DNN design space (the paper's §5 setup
 * justifies the HyperMapper RF+EI configuration; this experiment
 * quantifies what that machinery buys over the trivial sampler).
 */
bool
boVsRandom(BenchJson &json)
{
    std::cout << "=== Ablation: BO (RF surrogate + EI + feasibility "
                 "model) vs. random search, equal budget ===\n\n";

    auto platform = paperTaurus();
    core::ModelSpec spec = appSpec(App::kAd);
    auto split = spec.dataLoader();
    auto space = core::buildDesignSpace(core::Algorithm::kDnn, spec,
                                        platform.platform());

    const std::size_t budget = 18;
    TablePrinter table({"Seed", "BO best F1", "Random best F1",
                        "BO iters to 82", "Random iters to 82"});

    // First evaluation that clears the threshold (budget+1 = never).
    auto iters_to = [budget](const opt::BoResult &result,
                             double threshold) {
        for (std::size_t i = 0; i < result.history.size(); ++i)
            if (result.history[i].result.feasible &&
                result.history[i].result.objective >= threshold)
                return i + 1;
        return budget + 1;
    };

    // Every search is seeded, so the six of them (BO and random for
    // each seed) run as one dispatch on the shared pool and are reported
    // afterwards in seed order: the output does not depend on how the
    // pool schedules them. BO tasks come first because they run longest.
    const std::vector<std::uint64_t> seeds = {1, 2, 3};
    std::vector<opt::BoResult> bo_runs(seeds.size());
    std::vector<opt::BoResult> random_runs(seeds.size());
    runtime::Executor::processDefault().run(
        0, 2 * seeds.size(), [&](std::size_t task, std::size_t) {
            const std::size_t index = task % seeds.size();
            const std::uint64_t seed = seeds[index];
            auto objective =
                [&](const opt::Configuration &config) -> opt::EvalResult {
                auto evaluation = core::evaluateCandidate(
                    core::Algorithm::kDnn, config, spec, split,
                    platform.platform(), kBenchSeed + seed);
                return core::toEvalResult(evaluation);
            };
            if (task < seeds.size()) {
                opt::BoConfig bo_config;
                bo_config.numInitSamples = 5;
                bo_config.numIterations = budget - 5;
                bo_config.seed = seed;
                opt::BayesianOptimizer optimizer(space, bo_config);
                bo_runs[index] = optimizer.optimize(objective);
            } else {
                random_runs[index] = opt::randomSearch(
                    space, objective, budget, true, seed + 100);
            }
        });

    double bo_total = 0.0, random_total = 0.0;
    double bo_iters = 0.0, random_iters = 0.0;
    for (std::size_t index = 0; index < seeds.size(); ++index) {
        const std::uint64_t seed = seeds[index];
        const opt::BoResult &bo = bo_runs[index];
        const opt::BoResult &random = random_runs[index];

        const double threshold = 0.82;
        std::size_t bo_to = iters_to(bo, threshold);
        std::size_t random_to = iters_to(random, threshold);
        bo_total += bo.bestResult.objective;
        random_total += random.bestResult.objective;
        bo_iters += static_cast<double>(bo_to);
        random_iters += static_cast<double>(random_to);
        table.addRow(
            {std::to_string(seed),
             TablePrinter::cell(100.0 * bo.bestResult.objective, 2),
             TablePrinter::cell(100.0 * random.bestResult.objective, 2),
             std::to_string(bo_to), std::to_string(random_to)});
        json.add("bo_vs_random/seed" + std::to_string(seed),
                 {{"bo_best_f1", 100.0 * bo.bestResult.objective},
                  {"random_best_f1", 100.0 * random.bestResult.objective},
                  {"bo_iters_to_82", static_cast<double>(bo_to)},
                  {"random_iters_to_82", static_cast<double>(random_to)}});
    }
    table.print();

    std::cout << "\n  mean best F1: BO "
              << TablePrinter::cell(bo_total / 3.0 * 100.0, 2)
              << " vs random "
              << TablePrinter::cell(random_total / 3.0 * 100.0, 2) << "\n";
    std::cout << "  mean iterations to F1 >= 82: BO "
              << TablePrinter::cell(bo_iters / 3.0, 1) << " vs random "
              << TablePrinter::cell(random_iters / 3.0, 1) << "\n";
    // The AD landscape plateaus near F1 ~83, so both samplers reach the
    // plateau; BO must match random's best within noise and should not
    // need more evaluations to get there.
    bool best_ok = bo_total >= random_total - 0.01 * 3;
    bool efficiency_ok = bo_iters <= random_iters + 3.0;
    std::cout << "  [shape] BO best within noise of random: "
              << yesNo(best_ok) << "\n"
              << "  [shape] BO sample efficiency >= random: "
              << yesNo(efficiency_ok) << "\n\n";
    return recordShapes(json, "bo_vs_random",
                        {{"bo_best_within_noise", best_ok},
                         {"bo_efficiency", efficiency_ok}});
}

// ---------------------------------------------------- Ablation: Pareto

/*
 * Ablation: multi-objective search — the F1 / compute-unit trade-off.
 *
 * The paper's §3 framing ("the most efficient model will use as many
 * resources as needed without over-provisioning") is fundamentally a
 * Pareto statement. This experiment runs the optimizer in random-
 * scalarization multi-objective mode (objective = F1, cost = CUs) on the
 * AD design space and prints the resulting front: the menu of models an
 * operator can pick from when the switch is shared.
 */
bool
pareto(BenchJson &json)
{
    std::cout << "=== Ablation: Pareto front of F1 vs. compute units "
                 "(AD DNN, multi-objective BO) ===\n\n";

    auto platform = paperTaurus();
    core::ModelSpec spec = appSpec(App::kAd);
    auto split = spec.dataLoader();
    auto space = core::buildDesignSpace(core::Algorithm::kDnn, spec,
                                        platform.platform());

    auto objective =
        [&](const opt::Configuration &config) -> opt::EvalResult {
        auto evaluation = core::evaluateCandidate(
            core::Algorithm::kDnn, config, spec, split,
            platform.platform(), kBenchSeed);
        return core::toEvalResult(evaluation);
    };

    opt::BoConfig bo_config;
    bo_config.numInitSamples = 6;
    bo_config.numIterations = 18;
    bo_config.costMetricKey = "cus";
    bo_config.seed = kBenchSeed;
    opt::BayesianOptimizer optimizer(space, bo_config);
    auto result = optimizer.optimize(objective);

    auto sorted = result.front.sortedByCost();
    TablePrinter table({"CUs", "F1", "Configuration"});
    for (const auto &point : sorted)
        table.addRow({TablePrinter::cell(point.cost, 0),
                      TablePrinter::cell(100.0 * point.objective, 2),
                      point.config.toString().substr(0, 60)});
    table.print();

    double hypervolume = result.front.hypervolume(0.0, 256.0);
    std::cout << "\n  front size: " << result.front.size()
              << " non-dominated models out of " << result.history.size()
              << " evaluations\n"
              << "  hypervolume (ref 0 F1 / 256 CUs): "
              << TablePrinter::cell(hypervolume, 1) << "\n";

    bool trade_off = sorted.size() >= 2 &&
                     sorted.front().cost < sorted.back().cost &&
                     sorted.front().objective < sorted.back().objective;
    std::cout << "  [shape] front exposes a real quality/resource "
                 "trade-off: "
              << yesNo(trade_off) << "\n\n";
    json.add("pareto/front",
             {{"front_size", static_cast<double>(result.front.size())},
              {"evaluations", static_cast<double>(result.history.size())},
              {"hypervolume", hypervolume}});
    return recordShapes(json, "pareto", {{"trade_off", trade_off}});
}

// --------------------------------------------------- Ablation: pruning

/*
 * Ablation: feasibility pruning of the design space (paper §3.2.2).
 *
 * Quantifies the two pruning mechanisms:
 *   1. Candidate-family pruning — families the platform cannot host (DNN
 *      on a MAT switch) or whose minimal configuration is infeasible.
 *   2. Bound tightening — physical resources shrink variable bounds
 *      (KMeans cluster count capped by the MAT budget), multiplying down
 *      the design-space cardinality.
 * Shapes: a smaller target keeps a subset of a larger one's families, a
 * MAT switch never keeps dnn, and more tables never shrink the KMeans
 * space.
 */
bool
pruning(BenchJson &json)
{
    std::cout << "=== Ablation: feasibility pruning of candidates and "
                 "design-space bounds ===\n\n";

    // ---- 1. Candidate-family pruning per platform. ---------------------
    core::ModelSpec spec;
    spec.name = "tc";
    spec.optimizationMetric = core::Metric::kF1;

    backends::MatConfig tiny;
    tiny.numTables = 2;
    const std::pair<std::string, core::PlatformHandle> targets[] = {
        {"taurus (16x16)", core::Platforms::taurus()},
        {"tofino-mat (12 MATs)", core::Platforms::tofino()},
        {"tofino-mat (2 MATs)", core::Platforms::tofino(tiny)},
        {"fpga (U250)", core::Platforms::fpga()}};

    TablePrinter families({"Platform", "Families kept", "Pruned"});
    std::vector<std::vector<core::Algorithm>> kept;
    for (const auto &[name, handle] : targets) {
        kept.push_back(core::selectCandidates(spec, handle.platform(),
                                              /*input_dim=*/7,
                                              /*num_classes=*/5));
        std::string kept_names;
        for (auto algorithm : kept.back()) {
            if (!kept_names.empty())
                kept_names += ", ";
            kept_names += core::algorithmName(algorithm);
        }
        std::size_t pruned = core::allAlgorithms().size() - kept.back().size();
        families.addRow({name, kept_names, std::to_string(pruned)});
        json.add("pruning/" + name,
                 {{"kept", static_cast<double>(kept.back().size())},
                  {"pruned", static_cast<double>(pruned)}});
    }
    families.print();

    // ---- 2. Bound tightening: KMeans space size vs. MAT budget. --------
    std::cout << "\n--- KMeans design-space cardinality vs. MAT budget "
                 "---\n";
    TablePrinter bounds({"MAT budget", "k upper bound", "Space cardinality"});
    std::vector<double> cardinality;
    for (std::size_t budget : {2, 3, 4, 5, 8, 12}) {
        backends::MatConfig config;
        config.numTables = budget;
        auto handle = core::Platforms::tofino(config);
        auto space = core::buildDesignSpace(core::Algorithm::kKMeans, spec,
                                            handle.platform());
        const auto &domain =
            std::get<opt::IntDomain>(space.find("num_clusters")->domain);
        cardinality.push_back(space.cardinalityEstimate());
        bounds.addRow({std::to_string(budget), std::to_string(domain.hi),
                       TablePrinter::cell(cardinality.back(), 0)});
        json.add("pruning/kmeans_mats" + std::to_string(budget),
                 {{"k_upper_bound", static_cast<double>(domain.hi)},
                  {"cardinality", cardinality.back()}});
    }
    bounds.print();

    std::cout << "\n";
    printPaperNote("resource/network constraints shrink the search space "
                   "rather than expand it (paper §3.2.3)");

    auto keeps = [&](std::size_t target, core::Algorithm algorithm) {
        return std::find(kept[target].begin(), kept[target].end(),
                         algorithm) != kept[target].end();
    };
    auto subset = [&](std::size_t small, std::size_t large) {
        return std::all_of(kept[small].begin(), kept[small].end(),
                           [&](core::Algorithm a) { return keeps(large, a); });
    };
    bool nested = subset(2, 1) && subset(1, 0);
    bool no_mat_dnn = !keeps(1, core::Algorithm::kDnn) &&
                      !keeps(2, core::Algorithm::kDnn);
    bool grows = std::is_sorted(cardinality.begin(), cardinality.end());
    std::cout << "  [shape] families kept on 2 MATs within 12 MATs within "
                 "taurus: "
              << yesNo(nested) << "\n"
              << "  [shape] dnn pruned on both MAT targets: "
              << yesNo(no_mat_dnn) << "\n"
              << "  [shape] KMeans space cardinality non-decreasing in MAT "
                 "budget: "
              << yesNo(grows) << "\n\n";
    return recordShapes(json, "pruning",
                        {{"families_nested", nested},
                         {"dnn_pruned_on_mat", no_mat_dnn},
                         {"cardinality_monotone", grows}});
}

// ---------------------------------------------- Ablation: quantization

/*
 * Ablation: Q-format fractional-bit sweep for data-plane inference.
 *
 * The compiler reports the accuracy of the *quantized* artifact the
 * backend deploys. This experiment quantifies the F1 cost of the default
 * Q8.8 format against coarser and finer formats, on the trained AD model.
 */
bool
quantization(BenchJson &json)
{
    std::cout << "=== Ablation: fixed-point precision sweep (AD DNN, "
                 "Q8.n for n in 1..12) ===\n\n";

    auto split = loadAd();
    ml::Mlp mlp(baselineConfig(App::kAd, split));
    mlp.train(split.train);

    // Float reference.
    double float_f1 = ml::f1ForTask(split.test.y, mlp.predict(split.test.x),
                                    split.test.numClasses);

    TablePrinter table({"Format", "Frac bits", "F1", "Delta vs float"});
    std::vector<double> f1_series;
    for (int frac : {1, 2, 4, 6, 8, 10, 12}) {
        auto ir_model =
            ir::lowerMlp(mlp, common::FixedPointFormat(8, frac), "ad_q");
        auto predicted =
            ir::ExecutablePlan::compile(ir_model).run(split.test.x);
        double f1 = ml::f1ForTask(split.test.y, predicted,
                                  split.test.numClasses);
        f1_series.push_back(f1);
        std::string format = "Q8." + std::to_string(frac);
        table.addRow({format, std::to_string(frac),
                      TablePrinter::cell(100.0 * f1, 2),
                      TablePrinter::cell(100.0 * (f1 - float_f1), 2)});
        json.add("quantization/" + format,
                 {{"frac_bits", frac}, {"f1", 100.0 * f1}});
    }
    table.print();
    json.add("quantization/float", {{"f1", 100.0 * float_f1}});

    std::cout << "\n  float32 reference F1: "
              << TablePrinter::cell(100.0 * float_f1, 2) << "\n";
    bool q88_close = std::fabs(f1_series[4] - float_f1) < 0.03;
    bool coarse_hurts = f1_series[0] < f1_series.back() + 1e-9;
    std::cout << "  [shape] Q8.8 within 3 F1 points of float: "
              << yesNo(q88_close) << "\n"
              << "  [shape] 1 fractional bit degrades vs 12: "
              << yesNo(coarse_hurts) << "\n\n";
    return recordShapes(json, "quantization",
                        {{"q88_close_to_float", q88_close},
                         {"coarse_hurts", coarse_hurts}});
}

struct Experiment
{
    const char *name;
    bool (*run)(BenchJson &);  ///< true when every shape held.
};

const Experiment kExperiments[] = {
    {"table2", table2},         {"table3", table3},
    {"table4", table4},         {"table5", table5},
    {"fig4", fig4},             {"fig6", fig6},
    {"fig7", fig7},             {"bo_vs_random", boVsRandom},
    {"pareto", pareto},         {"pruning", pruning},
    {"quantization", quantization}};

}  // namespace

int
main(int argc, char **argv)
{
    std::string json_path = extractJsonPath(argc, argv);
    std::string only;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--exp" && i + 1 < argc) {
            only = argv[++i];
            continue;
        }
        std::cerr << "usage: bench_paper [--exp NAME] [--json PATH]\n";
        return 2;
    }
    auto selected = [&](const Experiment &experiment) {
        return only.empty() || only == experiment.name;
    };
    if (std::none_of(std::begin(kExperiments), std::end(kExperiments),
                     selected)) {
        std::cerr << "bench_paper: unknown experiment '" << only
                  << "'; known:";
        for (const auto &experiment : kExperiments)
            std::cerr << " " << experiment.name;
        std::cerr << "\n";
        return 2;
    }

    BenchJson json;
    bool all_held = true;
    for (const auto &experiment : kExperiments)
        if (selected(experiment))
            all_held &= experiment.run(json);
    if (!json_path.empty() && !json.write(json_path))
        return 1;
    return all_held ? 0 : 1;
}
