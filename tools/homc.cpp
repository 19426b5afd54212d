/**
 * @file
 * homc — the Homunculus command-line compiler driver.
 *
 * Compiles one of the built-in applications (or a CSV dataset) for a
 * chosen data-plane target and writes the generated platform program.
 * --platform names one of core::Platforms::names() (--list-platforms).
 *
 * Flag parsing (strict: unknown flags error with a did-you-mean hint,
 * numeric values are validated) lives in homc_cli.{hpp,cpp}; run
 * `homc --help` for the full reference. Highlights:
 *
 *   homc --app ad|tc|bd            built-in synthetic application
 *   homc --train t.csv --test e.csv   or: bring your own CSV data
 *        [--platform NAME]         target (default taurus)
 *        [--replay TRACE]          replay a packet trace through the
 *                                  winner on the serving runtime
 *                                  (one lane, size-only flushes)
 *        [--serve TRACE]           async serving mode through the
 *                                  multi-lane admission queue:
 *                                  --serve-lanes N priority lanes with
 *                                  per-lane --serve-lane-delays-us /
 *                                  -depths / -batches policies,
 *                                  --serve-backpressure
 *                                  shed|block|early-drop, and
 *                                  --serve-probe-every routing every
 *                                  Nth frame to the probe lane
 *        [--serve-model NAME=FILE] multi-model serving from saved
 *                                  artifacts (ModelRegistry + Router,
 *                                  no compile): --serve-lane-models
 *                                  lane bindings, --serve-chain
 *                                  label-driven chaining, and the
 *                                  --serve-swap-after hot-swap hook
 *   homc --list-platforms          enumerate the target names
 *   homc --list-passes             enumerate the built-in IR passes
 */
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "common/string_util.hpp"
#include "data/loaders.hpp"
#include "homc_cli.hpp"
#include "ir/passes.hpp"
#include "kernels/kernel_dispatch.hpp"
#include "ir/serialize.hpp"
#include "runtime/server.hpp"
#include "runtime/sharded_server.hpp"
#include "runtime/telemetry.hpp"

namespace {

using namespace homunculus;
using tools::CliOptions;

// homc_cli duplicates the seed literal to avoid linking the bench
// substrate; pin the two here, where both headers are visible.
static_assert(tools::kDefaultSeed == bench::kBenchSeed,
              "homc default seed drifted from bench::kBenchSeed");

core::ModelSpec
buildSpec(const CliOptions &options)
{
    core::ModelSpec spec;
    if (!options.app.empty()) {
        if (options.app == "ad") {
            spec = bench::appSpec(bench::App::kAd);
        } else if (options.app == "tc") {
            spec = bench::appSpec(bench::App::kTc);
        } else if (options.app == "bd") {
            spec = bench::appSpec(bench::App::kBd);
        } else {
            throw std::runtime_error("unknown --app '" + options.app + "'");
        }
        spec.algorithms.clear();  // CLI pool decides below.
    } else {
        spec.name = "csv_model";
        spec.optimizationMetric = core::Metric::kF1;
        spec.dataLoader = data::csvLoader(options.trainCsv, options.testCsv,
                                          /*has_header=*/true);
    }

    if (!options.algorithms.empty()) {
        // parseArgs admitted only names from core::allAlgorithms().
        for (const auto &entry : common::split(options.algorithms, ',')) {
            std::string name = common::trim(entry);
            for (core::Algorithm algorithm : core::allAlgorithms())
                if (core::algorithmName(algorithm) == name)
                    spec.algorithms.push_back(algorithm);
        }
    }
    return spec;
}

core::Result<core::PlatformHandle>
buildPlatform(const CliOptions &options)
{
    core::Result<core::PlatformHandle> handle =
        core::Platforms::byName(options.platform);
    if (!handle.isOk())
        return handle;

    // --grid/--tables flow through the ResourceBudget alone; each
    // backend applies the fields that describe its fabric and ignores
    // the rest.
    core::ResourceBudget budget;
    budget.gridRows = options.grid;
    budget.gridCols = options.grid;
    budget.matTables = options.tables;

    // Every backend ships its own default envelope (the FPGA NIC path,
    // for instance, tolerates far more latency than a switch ASIC); only
    // override the parts the user asked for.
    backends::PerfConstraints perf = handle->platform().constraints();
    if (options.throughputSet)
        perf.minThroughputGpps = options.throughputGpps;
    if (options.latencySet)
        perf.maxLatencyNs = options.latencyNs;
    handle->constrain(perf, budget);
    return handle;
}

/** One provenance line for the serving summaries: which kernel table
 *  inference dispatches to, and why it was picked. */
void
printKernelLine(std::ostream &out)
{
    out << "kernel    : "
        << kernels::kernelTargetName(kernels::KernelDispatch::active())
        << " (" << kernels::KernelDispatch::provenance() << ")\n";
}

/**
 * Resolve the serving-time feature scaler of a freshly compiled winner:
 * its stored training-time moments, or none when the artifact records
 * that it was trained on raw features (the trainer always records
 * which). --replay-raw disables scaling entirely. @p provenance
 * receives a printable description of the choice.
 */
std::optional<ml::StandardScaler>
resolveServingScaler(const CliOptions &options,
                     const homunculus::ir::ModelIr &model,
                     std::string &provenance)
{
    if (options.replayRaw) {
        provenance = "raw (unscaled)";
        return std::nullopt;
    }
    if (model.hasScaler()) {
        provenance = "artifact (training-time)";
        return ml::StandardScaler::fromMoments(model.scalerMeans,
                                               model.scalerStds);
    }
    provenance = "artifact (model trained on raw features)";
    return std::nullopt;
}

/**
 * Arm the global fault injector from --serve-fault specs (the
 * HOMUNCULUS_FAULTS env var is applied by the injector itself on first
 * use) and say what is armed, so a faulted run is visible in the log.
 */
void
armServeFaults(const CliOptions &options)
{
    auto &injector = runtime::faults::FaultInjector::global();
    for (const std::string &spec : options.serveFaults)
        injector.armSpec(spec);
    if (!injector.armed())
        return;
    std::cout << "faults    : armed";
    for (const runtime::faults::FaultSite &site : injector.sites())
        std::cout << common::format(
            " %s:%g:%llu", site.site.c_str(), site.rate,
            static_cast<unsigned long long>(site.seed));
    std::cout << "\n";
}

/** The post-run fault-tolerance summary of a serving run. */
void
printFaultSummary(const runtime::ServerStats &stats)
{
    std::cout << common::format(
        "failures  : %zu rows in %zu batches (%zu bisect retries, "
        "%zu callback errors, %zu deadline-truncated, "
        "%zu fallback rows)\n",
        stats.failedRows, stats.failedBatches, stats.retriedBatches,
        stats.callbackErrors, stats.deadlineTruncated,
        stats.fallbackRows);
    auto &injector = runtime::faults::FaultInjector::global();
    if (!injector.armed())
        return;
    std::cout << "faults    :";
    for (const runtime::faults::FaultSite &site : injector.sites())
        std::cout << common::format(
            " %s fired %llu/%llu", site.site.c_str(),
            static_cast<unsigned long long>(injector.fired(site.site)),
            static_cast<unsigned long long>(
                injector.checked(site.site)));
    std::cout << "\n";
}

/** Per-shard stats lines, printed after stop() when --serve-shards
 *  splits the front door. */
void
printShardLines(const runtime::ShardedServer &server)
{
    const std::vector<runtime::ServerStats> &per_shard =
        server.shardStats();
    for (std::size_t shard = 0; shard < per_shard.size(); ++shard) {
        const runtime::ServerStats &ss = per_shard[shard];
        std::cout << common::format(
            "shard %zu   : served %zu rows in %zu batches (%llu shed, "
            "%llu dropped), request p50 %.1f us / p99 %.1f us\n",
            shard, ss.rowsServed, ss.batches,
            static_cast<unsigned long long>(ss.queue.shed),
            static_cast<unsigned long long>(ss.queue.earlyDropped),
            ss.p50RequestLatencyUs, ss.p99RequestLatencyUs);
    }
}

/** The serve-header shards/aging lines (only when the knobs are on). */
void
printScaleOutLines(const CliOptions &options)
{
    if (options.serveShards > 1)
        std::cout << common::format(
            "shards    : %zu (flow-affine 5-tuple consistent hashing)\n",
            options.serveShards);
    if (options.serveAgingUs != 0)
        std::cout << common::format(
            "aging     : %llu us lane-fairness budget\n",
            static_cast<unsigned long long>(options.serveAgingUs));
}

/** The span ring behind --serve-stats-json (nullptr when the dump is
 *  off — servers then skip span recording entirely). */
std::unique_ptr<runtime::telemetry::TraceSink>
makeTraceSink(const CliOptions &options)
{
    if (options.serveStatsJson.empty())
        return nullptr;
    return std::make_unique<runtime::telemetry::TraceSink>(8192);
}

/** One live counters line on stderr (--serve-stats-every), read from
 *  the same registry instruments the final stats materialize from. */
void
printStatsLine(std::size_t frames,
               const runtime::telemetry::MetricsSnapshot &snap)
{
    std::cerr << common::format(
        "stats     : frames=%zu accepted=%llu served=%llu shed=%llu "
        "dropped=%llu failed=%llu malformed=%llu\n",
        frames,
        static_cast<unsigned long long>(
            snap.sumCounters("queue.accepted")),
        static_cast<unsigned long long>(
            snap.sumCounters("server.rows_served")),
        static_cast<unsigned long long>(snap.sumCounters("queue.shed")),
        static_cast<unsigned long long>(
            snap.sumCounters("queue.early_dropped")),
        static_cast<unsigned long long>(
            snap.sumCounters("server.failed_rows")),
        static_cast<unsigned long long>(
            snap.sumCounters("server.malformed_frames")));
}

/**
 * The --serve-stats-json dump: the serving-plane snapshot (per-shard
 * labeled when sharded) merged with the process-global registry —
 * engine throughput, fault fires, model-registry events — plus the
 * retained request spans. "-" writes to stdout.
 */
void
dumpServeStats(const CliOptions &options,
               runtime::telemetry::MetricsSnapshot snapshot,
               const runtime::telemetry::TraceSink *sink)
{
    if (options.serveStatsJson.empty())
        return;
    snapshot.merge(
        runtime::telemetry::MetricRegistry::global().snapshot());
    if (options.serveStatsJson == "-") {
        runtime::telemetry::writeServeStatsJson(std::cout, snapshot,
                                                sink);
        return;
    }
    std::ofstream out(options.serveStatsJson);
    if (!out)
        throw std::runtime_error(
            "homc: cannot write --serve-stats-json file '" +
            options.serveStatsJson + "'");
    runtime::telemetry::writeServeStatsJson(out, snapshot, sink);
    std::cout << "stats-json: " << options.serveStatsJson << "\n";
}

/** The --serve-model artifacts in one registry (a name given again
 *  stacks its next version), with one header line per load. */
std::shared_ptr<runtime::ModelRegistry>
loadRegistry(const CliOptions &options,
             const runtime::EngineOptions &engine_options)
{
    auto registry =
        std::make_shared<runtime::ModelRegistry>(engine_options);
    for (const auto &[name, path] : options.serveModels) {
        std::uint64_t version = registry->loadFile(name, path);
        auto epoch = registry->version(name, version);
        std::cout << common::format(
            "model     : %s v%llu <- %s (%zu features, %d classes, "
            "scaler %s)\n",
            name.c_str(), static_cast<unsigned long long>(version),
            path.c_str(), epoch->inputDim(), epoch->numClasses(),
            epoch->scaler ? "artifact" : "raw");
    }
    return registry;
}

/** The --serve-model route: default model, lane bindings, chain and
 *  fallback rules, with one header line per rule. */
runtime::RouteConfig
buildRoute(const CliOptions &options)
{
    runtime::RouteConfig route;
    route.defaultModel = options.serveModels.front().first;
    route.laneModels = options.serveLaneModels;
    route.chain = options.serveChain;
    for (const runtime::ChainRule &rule : options.serveChain)
        std::cout << "chain     : " << rule.fromModel << " label "
                  << rule.label << " -> " << rule.toModel << "\n";
    // Fallbacks only matter once a breaker can open, so giving any
    // --serve-fallback turns the breakers on at a default threshold
    // unless --serve-breaker-threshold says otherwise.
    route.breakerThreshold =
        options.serveBreakerThreshold != 0 ? options.serveBreakerThreshold
        : options.serveFallbacks.empty()   ? 0
                                           : 3;
    route.fallbacks = options.serveFallbacks;
    route.deadlineUs = options.serveDeadlineUs;
    for (const runtime::FallbackRule &rule : options.serveFallbacks) {
        std::cout << "fallback  : " << rule.model << " -> ";
        if (rule.toModel.empty())
            std::cout << "label " << rule.label;
        else
            std::cout << rule.toModel;
        std::cout << common::format(" (breaker threshold %zu)\n",
                                    route.breakerThreshold);
    }
    return route;
}

/**
 * --replay as a serving configuration: the whole trace through one
 * lane that flushes only at --replay-batch rows or at the end-of-trace
 * drain, with unbounded admission (nothing is shed) and no pacing.
 * Every other serving knob stays at its default.
 */
CliOptions
replayOptions(const CliOptions &options)
{
    CliOptions replay;
    replay.serve = options.replay;
    replay.serveMaxBatch = options.replayBatch;
    replay.serveMaxDelayUs = runtime::kMaxQueueDelayUs;
    replay.serveDepth = 0;
    replay.replayRaw = options.replayRaw;
    replay.inferJobs = options.inferJobs;
    return replay;
}

/**
 * The serving driver behind --replay, --serve and --serve-model: load
 * options.serve's trace, print the header, build the server, submit
 * every frame (open-loop at --serve-rate rows/s; 0 = as fast as
 * submission runs), fire the --serve-swap-after hook, stop, and print
 * admission, flush, latency, per-lane, per-model, per-shard and
 * failure statistics plus the verdict counts.
 *
 * The registry is the one place the forms differ. A compiled @p winner
 * is installed as the one model of a registry, with its artifact
 * scaler; without one, the --serve-model artifacts are loaded into a
 * registry behind their route, where a hot swap lands at the next
 * batch of every shard. Either runs on Server, or on ShardedServer
 * when --serve-shards > 1.
 */
void
serveTrace(const char *mode, const CliOptions &options,
           const homunculus::ir::ModelIr *winner)
{
    auto frames = tools::loadTrace(options.serve);
    std::vector<runtime::QueuePolicy> lanes = tools::lanePolicies(options);
    std::cout << common::format("\n%-10s: ", mode) << options.serve
              << " (" << frames.size() << " frames, " << lanes.size()
              << (lanes.size() == 1 ? " lane, " : " lanes, ")
              << runtime::backpressureModeName(options.serveBackpressure)
              << " backpressure, rate "
              << (options.serveRate <= 0.0
                      ? std::string("max")
                      : common::format("%.0f/s", options.serveRate))
              << ")\n";
    for (std::size_t lane = 0; lane < lanes.size(); ++lane)
        std::cout << common::format(
            "lane %zu    : maxBatch %zu, maxDelay %llu us, depth %zu\n",
            lane, lanes[lane].maxBatch,
            static_cast<unsigned long long>(lanes[lane].maxDelayUs),
            lanes[lane].maxDepth);
    printScaleOutLines(options);
    printKernelLine(std::cout);

    runtime::EngineOptions engine_options;
    engine_options.jobs = options.inferJobs;
    // The operator already sized the batches; shard every batch rather
    // than second-guessing with the engine's default inline threshold
    // (sub-256-row batches still run inline as a single shard).
    engine_options.minRowsToShard = 1;

    runtime::ServerConfig server_config;
    server_config.queue = lanes.front();
    server_config.extraLanes.assign(lanes.begin() + 1, lanes.end());
    server_config.backpressure = options.serveBackpressure;
    server_config.blockTimeoutUs = options.serveBlockTimeoutUs;
    server_config.retryDepth = options.serveRetryDepth;
    server_config.fairnessAgingUs = options.serveAgingUs;
    armServeFaults(options);
    auto trace_sink = makeTraceSink(options);
    server_config.trace = trace_sink.get();
    runtime::ShardedServerConfig sharded_config;
    sharded_config.shards = options.serveShards;
    sharded_config.server = server_config;

    std::mutex verdict_mutex;
    std::map<int, std::size_t> verdict_counts;
    auto on_verdict = [&](const runtime::Request &, int verdict) {
        std::lock_guard<std::mutex> lock(verdict_mutex);
        ++verdict_counts[verdict];
    };
    std::shared_ptr<runtime::ModelRegistry> registry;
    runtime::RouteConfig route;
    if (winner != nullptr) {
        std::string scaler_provenance;
        std::optional<ml::StandardScaler> scaler =
            resolveServingScaler(options, *winner, scaler_provenance);
        std::cout << "scaler    : " << scaler_provenance << "\n";
        registry = runtime::singleModelRegistry(
            runtime::InferenceEngine::fromModel(*winner, engine_options),
            std::move(scaler));
        route = runtime::singleModelRoute();
    } else {
        registry = loadRegistry(options, engine_options);
        route = buildRoute(options);
    }
    // Frames enter through submitFrame either way; a ShardedServer keys
    // each one by its 5-tuple so a flow sticks to one shard.
    std::unique_ptr<runtime::Server> server;
    std::unique_ptr<runtime::ShardedServer> sharded;
    if (options.serveShards > 1)
        sharded = std::make_unique<runtime::ShardedServer>(
            registry, route, sharded_config, on_verdict);
    else
        server = std::make_unique<runtime::Server>(
            registry, route, server_config, on_verdict);
    auto snapshot = [&] {
        return sharded ? sharded->metricsSnapshot()
                       : server->metrics().snapshot();
    };

    bool swapped = false;
    auto fire_swap = [&](std::size_t after_frames) {
        std::uint64_t previous = registry->swap(
            options.serveSwapModel, options.serveSwapVersion);
        swapped = true;
        std::cout << common::format(
            "swap      : %s v%llu -> v%llu after %zu frames\n",
            options.serveSwapModel.c_str(),
            static_cast<unsigned long long>(previous),
            static_cast<unsigned long long>(options.serveSwapVersion),
            after_frames);
    };
    using Clock = std::chrono::steady_clock;
    auto started = Clock::now();
    for (std::size_t i = 0; i < frames.size(); ++i) {
        if (options.serveRate > 0.0) {
            // Open-loop pacing: submit frame i at its scheduled arrival
            // time regardless of how the server is keeping up.
            auto due = started + std::chrono::duration_cast<
                                     Clock::duration>(
                                     std::chrono::duration<double>(
                                         static_cast<double>(i) /
                                         options.serveRate));
            std::this_thread::sleep_until(due);
        }
        std::size_t lane = tools::laneForFrame(i, options);
        if (sharded)
            sharded->submitFrame(frames[i], lane);
        else
            server->submitFrame(frames[i], lane);
        if (options.serveSwapAfter != 0 && !swapped &&
            i + 1 >= options.serveSwapAfter)
            fire_swap(i + 1);
        if (options.serveStatsEvery != 0 &&
            (i + 1) % options.serveStatsEvery == 0)
            printStatsLine(i + 1, snapshot());
    }
    // A trace shorter than N still honors the hook (exercised last).
    if (options.serveSwapAfter != 0 && !swapped)
        fire_swap(frames.size());
    runtime::ServerStats stats = sharded ? sharded->stop()
                                         : server->stop();

    std::cout << common::format(
        "admitted  : %llu rows (%llu shed, %llu early-dropped, "
        "%zu malformed) in %zu batches (mean %.1f rows)\n",
        static_cast<unsigned long long>(stats.queue.accepted),
        static_cast<unsigned long long>(stats.queue.shed),
        static_cast<unsigned long long>(stats.queue.earlyDropped),
        stats.malformedFrames, stats.batches, stats.meanBatchRows);
    std::cout << common::format(
        "flushes   : %llu size / %llu deadline / %llu drain\n",
        static_cast<unsigned long long>(stats.queue.sizeFlushes),
        static_cast<unsigned long long>(stats.queue.deadlineFlushes),
        static_cast<unsigned long long>(stats.queue.drainFlushes));
    std::cout << common::format(
        "latency   : request p50 %.1f us / p99 %.1f us, batch infer "
        "p50 %.1f us / p99 %.1f us (wall %.3fs, %.0f rows/s)\n",
        stats.p50RequestLatencyUs, stats.p99RequestLatencyUs,
        stats.p50BatchLatencyUs, stats.p99BatchLatencyUs,
        stats.wallSeconds,
        stats.wallSeconds > 0.0
            ? static_cast<double>(stats.rowsServed) / stats.wallSeconds
            : 0.0);
    if (stats.lanes.size() > 1)
        for (std::size_t lane = 0; lane < stats.lanes.size(); ++lane) {
            const runtime::LaneStats &ls = stats.lanes[lane];
            std::cout << common::format(
                "lane %zu    : served %zu (%llu shed, %llu dropped), "
                "request p50 %.1f us / p99 %.1f us\n",
                lane, ls.rowsServed,
                static_cast<unsigned long long>(ls.queue.shed),
                static_cast<unsigned long long>(ls.queue.earlyDropped),
                ls.p50RequestLatencyUs, ls.p99RequestLatencyUs);
        }
    for (const runtime::ModelStats &ms : stats.models) {
        std::cout << common::format(
            "model %s: %zu rows / %zu steps, step p50 %.1f us / "
            "p99 %.1f us (active v%llu)",
            ms.name.c_str(), ms.rowsServed, ms.batches,
            ms.p50StepLatencyUs, ms.p99StepLatencyUs,
            static_cast<unsigned long long>(ms.activeVersion));
        if (route.breakerThreshold != 0)
            std::cout << common::format(
                ", breaker %s (%llu opens, %llu fallback rows)",
                ms.breakerState.c_str(),
                static_cast<unsigned long long>(ms.breakerOpens),
                static_cast<unsigned long long>(ms.breakerFallbackRows));
        std::cout << "\n";
    }
    if (sharded)
        printShardLines(*sharded);
    printFaultSummary(stats);
    dumpServeStats(options, snapshot(), trace_sink.get());
    std::cout << "verdicts  :";
    for (const auto &[verdict, count] : verdict_counts)
        std::cout << " class " << verdict << " x" << count;
    std::cout << "\n";
}

/** Pass-name check, mirroring the --list-platforms style. */
bool
knownPass(const std::string &name)
{
    return ir::findPass(name) != nullptr;
}

std::string
knownPassList()
{
    return common::join(ir::passNames(), ", ");
}

}  // namespace

int
main(int argc, char **argv)
{
    CliOptions options;
    switch (tools::parseArgs(argc, argv, options, std::cerr)) {
      case tools::ParseResult::kHelp:
        tools::printUsage(std::cout);
        return 0;
      case tools::ParseResult::kError:
        tools::printUsage(std::cerr);
        return 2;
      case tools::ParseResult::kOk:
        break;
    }

    // Pin the kernel table before anything compiles or serves, so every
    // summary line and every inference below reflects the pin. "auto"
    // explicitly restores the probe/env resolution (a no-op unless
    // something forced earlier in this process).
    if (!options.kernel.empty()) {
        try {
            if (options.kernel == "auto")
                kernels::KernelDispatch::reset();
            else
                kernels::KernelDispatch::force(
                    kernels::parseKernelTarget(options.kernel));
        } catch (const std::exception &error) {
            std::cerr << "homc: --kernel " << options.kernel << ": "
                      << error.what() << "\n";
            return 2;
        }
    }
    if (options.listKernels) {
        try {
            const auto available = kernels::KernelDispatch::available();
            auto is_available = [&](kernels::KernelTarget target) {
                for (kernels::KernelTarget t : available)
                    if (t == target)
                        return true;
                return false;
            };
            kernels::KernelTarget active =
                kernels::KernelDispatch::active();
            for (int i = 0; i < kernels::kNumKernelTargets; ++i) {
                auto target = static_cast<kernels::KernelTarget>(i);
                std::cout << kernels::kernelTargetName(target) << "  "
                          << (is_available(target) ? "available"
                                                   : "unavailable");
                if (target == active)
                    std::cout << "  active ("
                              << kernels::KernelDispatch::provenance()
                              << ")";
                std::cout << "\n";
            }
        } catch (const std::exception &error) {
            // A bogus HOMUNCULUS_KERNELS makes resolution itself throw;
            // surface it as the listing's diagnostic.
            std::cerr << "homc: " << error.what() << "\n";
            return 2;
        }
        return 0;
    }

    if (options.listPlatforms) {
        for (const auto &name : core::Platforms::names())
            std::cout << name << "\n";
        return 0;
    }
    if (options.listPasses) {
        for (const auto &name : ir::passNames())
            std::cout << name << "  " << ir::findPass(name)->description
                      << "\n";
        return 0;
    }

    if (!options.passes.empty()) {
        for (const auto &name : common::split(options.passes, ',')) {
            std::string trimmed = common::trim(name);
            if (!knownPass(trimmed)) {
                std::cerr << "homc: unknown pass '" << trimmed
                          << "' (known passes: " << knownPassList() << ")\n";
                return 2;
            }
        }
    }
    if (!options.dumpPass.empty() && !knownPass(options.dumpPass)) {
        std::cerr << "homc: unknown pass '" << options.dumpPass
                  << "' (known passes: " << knownPassList() << ")\n";
        return 2;
    }

    if (!options.serveModels.empty()) {
        // Registry serving runs pre-compiled artifacts straight into
        // the multi-model plane — no spec, no search, no compile.
        try {
            serveTrace("serve", options, nullptr);
        } catch (const std::exception &error) {
            std::cerr << "homc: " << error.what() << "\n";
            return 1;
        }
        return 0;
    }

    try {
        core::ModelSpec spec = buildSpec(options);
        core::Result<core::PlatformHandle> platform =
            buildPlatform(options);
        if (!platform.isOk()) {
            std::cerr << "homc: " << platform.status().message() << "\n";
            return 2;
        }
        platform->schedule(spec);

        core::CompileOptions compile_options;
        compile_options.bo.numInitSamples = options.init;
        compile_options.bo.numIterations = options.iters;
        compile_options.bo.costMetricKey = options.paretoMetric;
        compile_options.seed = options.seed;
        compile_options.jobs = options.jobs;
        compile_options.inferJobs = options.inferJobs;
        if (!options.passes.empty()) {
            for (const auto &name : common::split(options.passes, ','))
                compile_options.emitPasses.push_back(common::trim(name));
        }
        if (options.dumpIr) {
            std::string filter = options.dumpPass;
            compile_options.passDump =
                [filter](const std::string &pass_name,
                         const ir::ModelIr &model) {
                    if (!filter.empty() && filter != pass_name)
                        return;
                    std::cout << "-- ir for '" << model.name
                              << "' after pass " << pass_name << " --\n"
                              << ir::serializeModel(model);
                };
        }
        if (options.progress) {
            compile_options.observer =
                [](const core::ProgressEvent &event) {
                    std::cout << "[" << core::stageName(event.stage) << "] "
                              << event.specName;
                    if (!event.family.empty())
                        std::cout << "/" << event.family << " "
                                  << event.evalsDone << "/"
                                  << event.evalsTotal;
                    if (!event.message.empty())
                        std::cout << " " << event.message;
                    std::cout << "\n";
                };
        }

        std::cout << "homc: compiling '" << spec.name << "' for "
                  << platform->platform().name() << " ("
                  << options.init + options.iters << " evaluations, "
                  << (options.jobs == 0 ? std::string("auto")
                                        : std::to_string(options.jobs))
                  << " jobs)\n";

        core::Compiler compiler(compile_options);
        core::Result<core::CompileReport> compiled =
            compiler.compile(platform.value());
        if (!compiled.isOk()) {
            std::cerr << "homc: compile failed: "
                      << compiled.status().toString() << "\n";
            return 1;
        }
        const auto &model = compiled->models.front();

        std::cout << "winner    : " << core::algorithmName(model.algorithm)
                  << " (" << model.model.paramCount() << " params)\n"
                  << "objective : " << model.objective << " ("
                  << core::metricName(spec.optimizationMetric) << ")\n"
                  << "resources : " << model.report.summary() << "\n";

        if (!options.paretoMetric.empty() &&
            !model.searchHistory.front.empty()) {
            std::cout << "pareto front (" << options.paretoMetric
                      << " vs objective):\n";
            for (const auto &point :
                 model.searchHistory.front.sortedByCost()) {
                std::cout << "  " << point.cost << " -> "
                          << point.objective << "\n";
            }
        }

        if (!options.savePath.empty()) {
            ir::saveModel(options.savePath, model.model);
            std::cout << "artifact  : " << options.savePath << "\n";
        }
        if (!options.outPath.empty()) {
            std::ofstream out(options.outPath);
            if (!out)
                throw std::runtime_error("cannot write " + options.outPath);
            out << model.code;
            std::cout << "program   : " << options.outPath << " ("
                      << model.code.size() << " bytes)\n";
        }
        if (!options.replay.empty())
            serveTrace("replay", replayOptions(options), &model.model);
        if (!options.serve.empty())
            serveTrace("serve", options, &model.model);
    } catch (const std::exception &error) {
        std::cerr << "homc: " << error.what() << "\n";
        return 1;
    }
    return 0;
}
