/**
 * @file
 * homc's command-line surface, split out of the driver so it is
 * testable: option struct, strict argument parsing (unknown flags are
 * an error with a nearest-match hint, non-numeric values for numeric
 * flags are an error instead of an uncaught std::stoull abort), the
 * serving-lane policy builder, and the trace loader.
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "runtime/request_queue.hpp"
#include "runtime/router.hpp"

namespace homunculus::tools {

/**
 * homc's default determinism seed. Kept numerically identical to
 * bench::kBenchSeed (homc.cpp static_asserts the two match) without
 * pulling the bench substrate into this library.
 */
constexpr std::uint64_t kDefaultSeed = 2206'05592;

/** Everything homc's flags can say. */
struct CliOptions
{
    std::string app;
    std::string trainCsv, testCsv;
    std::string platform = "taurus";
    std::string algorithms;
    std::string outPath;
    std::string savePath;
    std::string paretoMetric;
    std::string passes;
    std::string dumpPass;   ///< dump filter; empty = every pass.
    std::string replay;     ///< iot:N or a hex-frame trace file.
    std::size_t replayBatch = 1024;
    bool replayRaw = false;
    std::string serve;      ///< async-serving trace (iot:N or file).
    double serveRate = 0.0;             ///< arrival rows/s (0 = max).
    std::size_t serveMaxBatch = 1024;   ///< queue size trigger.
    std::uint64_t serveMaxDelayUs = 1000;  ///< queue deadline trigger.
    std::size_t serveDepth = 8192;      ///< admission bound (0 = inf).
    std::size_t serveLanes = 1;         ///< priority lanes (lane 0 first).
    runtime::BackpressureMode serveBackpressure =
        runtime::BackpressureMode::kShed;
    std::uint64_t serveBlockTimeoutUs = 10'000;  ///< block mode bound.
    /** Per-lane overrides, comma-separated, one entry per lane; empty
     *  lists fall back to the single-lane --serve-max-* values. */
    std::vector<std::uint64_t> serveLaneDelaysUs;
    std::vector<std::size_t> serveLaneDepths;
    std::vector<std::size_t> serveLaneBatches;
    /** Every Nth --serve frame goes to lane 0 (the probe lane); the
     *  rest round-robin over the remaining lanes. */
    std::size_t serveProbeEvery = 16;
    /**
     * Registry serving: (name, artifact path) pairs from repeatable
     * --serve-model NAME=FILE flags, in the order given. Non-empty
     * switches --serve to the multi-model plane (ModelRegistry +
     * Router) and skips the compile; the first name is the default
     * model. Loading one name repeatedly stacks versions (v1, v2, ...).
     */
    std::vector<std::pair<std::string, std::string>> serveModels;
    /** Per-lane entry-model names (comma list, one per lane; an empty
     *  entry falls back to the default model). */
    std::vector<std::string> serveLaneModels;
    /** Chain rules from --serve-chain FROM:LABEL=TO entries. */
    std::vector<runtime::ChainRule> serveChain;
    /** Hot-swap test hook (--serve-swap-after N:NAME=V): after frame
     *  N is submitted, swap NAME's active plan to version V. 0 = off. */
    std::size_t serveSwapAfter = 0;
    std::string serveSwapModel;
    std::uint64_t serveSwapVersion = 0;
    /** Fault-injection specs from repeatable --serve-fault
     *  SITE:RATE[:SEED] flags; validated at parse time, armed on the
     *  global injector by the driver. */
    std::vector<std::string> serveFaults;
    /** Bisect-retry depth for failed serving batches (0 = a failed
     *  batch fails whole). */
    std::size_t serveRetryDepth = 0;
    /** Open-breaker fallbacks from --serve-fallback MODEL=NAME|LABEL
     *  entries (an all-digits right side is a static verdict label). */
    std::vector<runtime::FallbackRule> serveFallbacks;
    /** Consecutive failures that open a model's circuit breaker; 0
     *  defers to the driver default (3 when fallbacks are given). */
    std::size_t serveBreakerThreshold = 0;
    /** Per-request chain deadline in us (0 = unbounded). */
    std::uint64_t serveDeadlineUs = 0;
    /** Serving shards (--serve-shards): 1 = one Server; > 1 runs a
     *  ShardedServer with flow-affine consistent-hash routing and
     *  per-shard + merged stats. */
    std::size_t serveShards = 1;
    /** Lane-fairness aging budget in us (--serve-aging-us): 0 keeps
     *  strict priority; > 0 lets a lane overdue past its own deadline
     *  by this much preempt higher-priority ready lanes. */
    std::uint64_t serveAgingUs = 0;
    /** End-of-run telemetry dump (--serve-stats-json PATH): the merged
     *  metric snapshot + request spans as schema-pinned JSON
     *  (telemetry::kServeStatsSchema). "-" writes to stdout. */
    std::string serveStatsJson;
    /** Periodic stats line (--serve-stats-every N): every N submitted
     *  frames, one counters line on stderr (0 = off). */
    std::size_t serveStatsEvery = 0;
    bool dumpIr = false;
    /** Kernel dispatch pin from --kernel (auto|scalar|avx2; empty
     *  = leave the dispatch to its probe / HOMUNCULUS_KERNELS). */
    std::string kernel;
    bool listKernels = false;
    std::size_t init = 5;
    std::size_t iters = 15;
    std::size_t jobs = 1;
    std::size_t inferJobs = 1;
    std::size_t grid = 16;
    std::size_t tables = 12;
    double throughputGpps = 1.0;
    double latencyNs = 500.0;
    bool throughputSet = false;
    bool latencySet = false;
    bool listPlatforms = false;
    bool progress = false;
    bool listPasses = false;
    std::uint64_t seed = kDefaultSeed;
};

/** How parseArgs() ended. */
enum class ParseResult
{
    kOk,     ///< options populated; run the compiler.
    kHelp,   ///< --help/-h: print usage, exit 0.
    kError,  ///< bad flag/value; message already on @p err, exit 2.
};

/**
 * Parse argv into @p options. Strict: every flag must be known (a
 * misspelled flag errors with a did-you-mean hint instead of being
 * silently ignored) and every numeric value must parse completely
 * ("--jobs banana" errors instead of aborting). Diagnostics go to
 * @p err.
 */
ParseResult parseArgs(int argc, const char *const *argv,
                      CliOptions &options, std::ostream &err);

/**
 * The --serve lane policies: lane i takes its maxBatch / maxDelayUs /
 * maxDepth from the per-lane list when given (parseArgs guarantees
 * list length == serveLanes), else from the single-lane defaults.
 */
std::vector<runtime::QueuePolicy> lanePolicies(const CliOptions &options);

/**
 * Load a --replay / --serve trace as wire frames. "iot:N" generates N
 * synthetic IoT packets, serialized so serving runs the full parse
 * path; anything else names a file of hex-encoded frames, one per line
 * (whitespace ignored, blank lines skipped). Throws std::runtime_error
 * for a bad "iot:" count, an unreadable file, or a line holding a
 * non-hex character or an odd digit count (the message names the line).
 */
std::vector<std::vector<std::uint8_t>> loadTrace(const std::string &trace);

/** Lane for the i-th --serve frame: every probe-every-th frame is a
 *  probe (lane 0), the rest round-robin over lanes 1..N-1. */
std::size_t laneForFrame(std::size_t index, const CliOptions &options);

/** The value-taking flags parseArgs accepts (for tests: every entry
 *  must be consumed by a take* handler, or parsing reports drift). */
std::vector<std::string> knownValueFlags();

/** The flag reference printed on --help and usage errors. */
void printUsage(std::ostream &out);

}  // namespace homunculus::tools
