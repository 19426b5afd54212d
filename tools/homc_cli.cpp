#include "homc_cli.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <stdexcept>

#include "common/string_util.hpp"
#include "runtime/fault_injector.hpp"

namespace homunculus::tools {

namespace {

/** Value-taking flags (without the leading "--"). */
const char *const kValueFlags[] = {
    "app",           "train",
    "test",          "platform",
    "algorithms",    "out",
    "save",          "pareto",
    "passes",        "replay",
    "replay-batch",  "serve",
    "serve-rate",    "serve-max-batch",
    "serve-max-delay-us",  "serve-depth",
    "serve-lanes",   "serve-backpressure",
    "serve-block-timeout-us", "serve-probe-every",
    "serve-lane-delays-us",   "serve-lane-depths",
    "serve-lane-batches",
    "serve-model",   "serve-lane-models",
    "serve-chain",   "serve-swap-after",
    "serve-fault",   "serve-retry-depth",
    "serve-fallback", "serve-breaker-threshold",
    "serve-deadline-us", "serve-shards",
    "serve-aging-us", "serve-stats-json",
    "serve-stats-every",
    "init",          "iters",
    "jobs",          "infer-jobs",
    "grid",          "tables",
    "throughput",    "latency",
    "seed",          "kernel",
};

/** Flags that take no value (for the did-you-mean pool). */
const char *const kBoolFlags[] = {
    "help",        "list-platforms", "list-passes", "progress",
    "dump-ir",     "replay-raw",     "list-kernels",
};

/** Classic edit distance, small strings only. */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            std::size_t subst = prev[j - 1] + (a[i - 1] != b[j - 1]);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, subst});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

bool
isValueFlag(const std::string &name)
{
    for (const char *flag : kValueFlags)
        if (name == flag)
            return true;
    return false;
}

/** Closest known flag to @p name, or empty when nothing is near. */
std::string
nearestFlag(const std::string &name)
{
    std::string best;
    std::size_t best_distance = 4;  // past this a hint misleads.
    auto consider = [&](const std::string &candidate) {
        std::size_t distance = editDistance(name, candidate);
        if (distance < best_distance) {
            best_distance = distance;
            best = candidate;
        }
    };
    for (const char *flag : kValueFlags)
        consider(flag);
    for (const char *flag : kBoolFlags)
        consider(flag);
    return best;
}

/** Unsigned integer, full-string, no sign tricks ("-5" would wrap). */
bool
parseU64(const std::string &flag, const std::string &text,
         std::uint64_t &into, std::ostream &err)
{
    try {
        if (text.empty() || text.find('-') != std::string::npos)
            throw std::invalid_argument(text);
        std::size_t consumed = 0;
        into = std::stoull(text, &consumed);
        if (consumed != text.size())
            throw std::invalid_argument(text);
        return true;
    } catch (const std::exception &) {
        err << "homc: --" << flag
            << " expects a non-negative integer, got '" << text << "'\n";
        return false;
    }
}

bool
parseSize(const std::string &flag, const std::string &text,
          std::size_t &into, std::ostream &err)
{
    std::uint64_t value = 0;
    if (!parseU64(flag, text, value, err))
        return false;
    into = static_cast<std::size_t>(value);
    return true;
}

bool
parseDouble(const std::string &flag, const std::string &text,
            double &into, std::ostream &err)
{
    try {
        std::size_t consumed = 0;
        into = std::stod(text, &consumed);
        if (consumed != text.size())
            throw std::invalid_argument(text);
        return true;
    } catch (const std::exception &) {
        err << "homc: --" << flag << " expects a number, got '" << text
            << "'\n";
        return false;
    }
}

/** Comma-separated unsigned list ("250,2000"). */
bool
parseU64List(const std::string &flag, const std::string &text,
             std::vector<std::uint64_t> &into, std::ostream &err)
{
    into.clear();
    for (const std::string &field : common::split(text, ',')) {
        std::uint64_t value = 0;
        if (!parseU64(flag, common::trim(field), value, err))
            return false;
        into.push_back(value);
    }
    return true;
}

bool
parseSizeList(const std::string &flag, const std::string &text,
              std::vector<std::size_t> &into, std::ostream &err)
{
    std::vector<std::uint64_t> wide;
    if (!parseU64List(flag, text, wide, err))
        return false;
    into.assign(wide.begin(), wide.end());
    return true;
}

}  // namespace

std::vector<std::string>
knownValueFlags()
{
    return {std::begin(kValueFlags), std::end(kValueFlags)};
}

ParseResult
parseArgs(int argc, const char *const *argv, CliOptions &options,
          std::ostream &err)
{
    std::map<std::string, std::string> flags;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            return ParseResult::kHelp;
        if (arg == "--list-platforms") {
            options.listPlatforms = true;
            continue;
        }
        if (arg == "--list-passes") {
            options.listPasses = true;
            continue;
        }
        if (arg == "--progress") {
            options.progress = true;
            continue;
        }
        if (arg == "--dump-ir") {
            options.dumpIr = true;
            continue;
        }
        if (arg == "--replay-raw") {
            options.replayRaw = true;
            continue;
        }
        if (arg == "--list-kernels") {
            options.listKernels = true;
            continue;
        }
        if (common::startsWith(arg, "--dump-ir=")) {
            options.dumpIr = true;
            options.dumpPass = arg.substr(std::string("--dump-ir=").size());
            continue;
        }
        if (!common::startsWith(arg, "--")) {
            err << "homc: bad argument '" << arg << "'\n";
            return ParseResult::kError;
        }
        // Gate every flag against the known set right here, so a
        // misspelled boolean flag (--progess) gets the same
        // did-you-mean treatment as a misspelled value flag and never
        // swallows the next token as its value.
        std::string name = arg.substr(2);
        if (!isValueFlag(name)) {
            err << "homc: unknown flag '--" << name << "'";
            std::string hint = nearestFlag(name);
            if (!hint.empty())
                err << " (did you mean '--" << hint << "'?)";
            err << "\n";
            return ParseResult::kError;
        }
        if (i + 1 >= argc) {
            err << "homc: --" << name << " expects a value\n";
            return ParseResult::kError;
        }
        // --serve-model is the one repeatable flag: each NAME=FILE adds
        // a model (or stacks a version onto an already-named one), so
        // it is consumed here instead of the last-one-wins flag map.
        if (name == "serve-model") {
            std::string value = argv[++i];
            auto eq = value.find('=');
            if (eq == std::string::npos || eq == 0 ||
                eq + 1 == value.size()) {
                err << "homc: --serve-model expects NAME=IR_FILE, got '"
                    << value << "'\n";
                return ParseResult::kError;
            }
            options.serveModels.emplace_back(
                common::trim(value.substr(0, eq)),
                common::trim(value.substr(eq + 1)));
            continue;
        }
        // --serve-fault is repeatable too: each SITE:RATE[:SEED] arms
        // one injection site. Validated right here so a typo'd spec
        // errors before any serving starts.
        if (name == "serve-fault") {
            std::string value = common::trim(argv[++i]);
            try {
                if (runtime::faults::FaultInjector::parseSpec(value)
                        .empty())
                    throw std::runtime_error(
                        "faults: empty spec '" + value + "'");
            } catch (const std::exception &e) {
                err << "homc: --serve-fault: " << e.what() << "\n";
                return ParseResult::kError;
            }
            options.serveFaults.push_back(std::move(value));
            continue;
        }
        flags[name] = argv[++i];
    }

    // Every take* consumes its entry, so whatever is left in the map
    // afterwards is a flag we do not know — an error, not a silent
    // no-op (--serve-max-dely-us used to be accepted and ignored).
    bool ok = true;
    auto take = [&](const char *name, std::string &into) {
        auto it = flags.find(name);
        if (it == flags.end())
            return;
        into = it->second;
        flags.erase(it);
    };
    auto take_size = [&](const char *name, std::size_t &into) {
        auto it = flags.find(name);
        if (it == flags.end())
            return;
        ok = parseSize(name, it->second, into, err) && ok;
        flags.erase(it);
    };
    auto take_u64 = [&](const char *name, std::uint64_t &into) {
        auto it = flags.find(name);
        if (it == flags.end())
            return;
        ok = parseU64(name, it->second, into, err) && ok;
        flags.erase(it);
    };
    auto take_double = [&](const char *name, double &into, bool *set) {
        auto it = flags.find(name);
        if (it == flags.end())
            return;
        ok = parseDouble(name, it->second, into, err) && ok;
        if (set)
            *set = true;
        flags.erase(it);
    };

    take("app", options.app);
    take("train", options.trainCsv);
    take("test", options.testCsv);
    take("platform", options.platform);
    take("algorithms", options.algorithms);
    take("out", options.outPath);
    take("save", options.savePath);
    take("pareto", options.paretoMetric);
    take("passes", options.passes);
    take("replay", options.replay);
    take_size("replay-batch", options.replayBatch);
    take("serve", options.serve);
    take_double("serve-rate", options.serveRate, nullptr);
    take_size("serve-max-batch", options.serveMaxBatch);
    take_u64("serve-max-delay-us", options.serveMaxDelayUs);
    take_size("serve-depth", options.serveDepth);
    take_size("serve-lanes", options.serveLanes);
    take_u64("serve-block-timeout-us", options.serveBlockTimeoutUs);
    take_size("serve-probe-every", options.serveProbeEvery);
    if (auto it = flags.find("serve-backpressure"); it != flags.end()) {
        std::string mode = common::toLower(common::trim(it->second));
        if (mode == "shed") {
            options.serveBackpressure = runtime::BackpressureMode::kShed;
        } else if (mode == "block") {
            options.serveBackpressure =
                runtime::BackpressureMode::kBlockWithTimeout;
        } else if (mode == "early-drop") {
            options.serveBackpressure =
                runtime::BackpressureMode::kEarlyDrop;
        } else {
            err << "homc: --serve-backpressure expects "
                   "shed|block|early-drop, got '"
                << it->second << "'\n";
            ok = false;
        }
        flags.erase(it);
    }
    if (auto it = flags.find("serve-lane-delays-us"); it != flags.end()) {
        ok = parseU64List("serve-lane-delays-us", it->second,
                          options.serveLaneDelaysUs, err) &&
             ok;
        flags.erase(it);
    }
    if (auto it = flags.find("serve-lane-depths"); it != flags.end()) {
        ok = parseSizeList("serve-lane-depths", it->second,
                           options.serveLaneDepths, err) &&
             ok;
        flags.erase(it);
    }
    if (auto it = flags.find("serve-lane-batches"); it != flags.end()) {
        ok = parseSizeList("serve-lane-batches", it->second,
                           options.serveLaneBatches, err) &&
             ok;
        flags.erase(it);
    }
    if (auto it = flags.find("serve-lane-models"); it != flags.end()) {
        options.serveLaneModels.clear();
        for (const std::string &field : common::split(it->second, ','))
            options.serveLaneModels.push_back(common::trim(field));
        flags.erase(it);
    }
    if (auto it = flags.find("serve-chain"); it != flags.end()) {
        for (const std::string &field : common::split(it->second, ',')) {
            std::string entry = common::trim(field);
            auto eq = entry.find('=');
            auto colon =
                eq == std::string::npos ? eq : entry.rfind(':', eq);
            std::uint64_t label = 0;
            if (eq == std::string::npos || colon == std::string::npos ||
                colon == 0 || colon + 1 >= eq || eq + 1 >= entry.size() ||
                !parseU64("serve-chain",
                          entry.substr(colon + 1, eq - colon - 1), label,
                          err)) {
                err << "homc: --serve-chain entries are FROM:LABEL=TO, "
                       "got '"
                    << entry << "'\n";
                ok = false;
                continue;
            }
            runtime::ChainRule rule;
            rule.fromModel = entry.substr(0, colon);
            rule.label = static_cast<int>(label);
            rule.toModel = entry.substr(eq + 1);
            options.serveChain.push_back(std::move(rule));
        }
        flags.erase(it);
    }
    if (auto it = flags.find("serve-swap-after"); it != flags.end()) {
        std::string value = common::trim(it->second);
        auto colon = value.find(':');
        auto eq = value.rfind('=');
        if (colon == std::string::npos || eq == std::string::npos ||
            colon == 0 || eq <= colon + 1 || eq + 1 >= value.size() ||
            !parseSize("serve-swap-after", value.substr(0, colon),
                       options.serveSwapAfter, err) ||
            !parseU64("serve-swap-after", value.substr(eq + 1),
                      options.serveSwapVersion, err) ||
            options.serveSwapAfter == 0 || options.serveSwapVersion == 0) {
            err << "homc: --serve-swap-after expects N:NAME=V (N, V "
                   "positive), got '"
                << it->second << "'\n";
            ok = false;
        } else {
            options.serveSwapModel =
                value.substr(colon + 1, eq - colon - 1);
        }
        flags.erase(it);
    }
    take_size("serve-retry-depth", options.serveRetryDepth);
    take_size("serve-breaker-threshold", options.serveBreakerThreshold);
    take_u64("serve-deadline-us", options.serveDeadlineUs);
    take_size("serve-shards", options.serveShards);
    take_u64("serve-aging-us", options.serveAgingUs);
    take("serve-stats-json", options.serveStatsJson);
    take_size("serve-stats-every", options.serveStatsEvery);
    if (auto it = flags.find("serve-fallback"); it != flags.end()) {
        for (const std::string &field : common::split(it->second, ',')) {
            std::string entry = common::trim(field);
            auto eq = entry.find('=');
            if (eq == std::string::npos || eq == 0 ||
                eq + 1 >= entry.size()) {
                err << "homc: --serve-fallback entries are "
                       "MODEL=NAME|LABEL, got '"
                    << entry << "'\n";
                ok = false;
                continue;
            }
            runtime::FallbackRule rule;
            rule.model = common::trim(entry.substr(0, eq));
            std::string to = common::trim(entry.substr(eq + 1));
            // An all-digits destination is a static verdict label;
            // anything else names the fallback model.
            if (to.find_first_not_of("0123456789") ==
                std::string::npos) {
                std::uint64_t label = 0;
                if (!parseU64("serve-fallback", to, label, err)) {
                    ok = false;
                    continue;
                }
                rule.label = static_cast<int>(label);
            } else {
                rule.toModel = std::move(to);
            }
            options.serveFallbacks.push_back(std::move(rule));
        }
        flags.erase(it);
    }
    take_size("init", options.init);
    take_size("iters", options.iters);
    take_size("jobs", options.jobs);
    take_size("infer-jobs", options.inferJobs);
    take_size("grid", options.grid);
    take_size("tables", options.tables);
    take_double("throughput", options.throughputGpps,
                &options.throughputSet);
    take_double("latency", options.latencyNs, &options.latencySet);
    take_u64("seed", options.seed);
    if (auto it = flags.find("kernel"); it != flags.end()) {
        std::string target = common::toLower(common::trim(it->second));
        if (target != "auto" && target != "scalar" && target != "avx2" &&
            target != "neon") {
            err << "homc: --kernel expects auto|scalar|avx2|neon, got '"
                << it->second << "'\n";
            ok = false;
        } else {
            options.kernel = target;
        }
        flags.erase(it);
    }

    if (!flags.empty()) {
        // The parse loop admitted only kValueFlags entries, so a
        // leftover means a flag is listed there without a take* call —
        // a table/parser drift, not a user error.
        for (const auto &[name, value] : flags) {
            (void)value;
            err << "homc: flag '--" << name
                << "' is known but unhandled (flag-table drift)\n";
        }
        return ParseResult::kError;
    }
    if (!ok)
        return ParseResult::kError;

    if (options.serveLanes == 0) {
        err << "homc: --serve-lanes expects at least 1 lane\n";
        return ParseResult::kError;
    }
    if (options.serveProbeEvery == 0) {
        err << "homc: --serve-probe-every expects a positive number\n";
        return ParseResult::kError;
    }
    if (options.serveShards == 0) {
        err << "homc: --serve-shards expects at least 1 shard\n";
        return ParseResult::kError;
    }
    if (options.serve.empty() &&
        (options.serveShards != 1 || options.serveAgingUs != 0)) {
        err << "homc: --serve-shards/--serve-aging-us require --serve\n";
        return ParseResult::kError;
    }
    if (options.serve.empty() && (!options.serveStatsJson.empty() ||
                                  options.serveStatsEvery != 0)) {
        err << "homc: --serve-stats-json/--serve-stats-every require "
               "--serve\n";
        return ParseResult::kError;
    }
    auto lane_list_fits = [&](const char *name, std::size_t length) {
        if (length == 0 || length == options.serveLanes)
            return true;
        err << "homc: --" << name << " lists " << length
            << " lanes but --serve-lanes is " << options.serveLanes
            << "\n";
        return false;
    };
    if (!lane_list_fits("serve-lane-delays-us",
                        options.serveLaneDelaysUs.size()) ||
        !lane_list_fits("serve-lane-depths",
                        options.serveLaneDepths.size()) ||
        !lane_list_fits("serve-lane-batches",
                        options.serveLaneBatches.size()) ||
        !lane_list_fits("serve-lane-models",
                        options.serveLaneModels.size()))
        return ParseResult::kError;

    if (!options.serveModels.empty() && options.serve.empty()) {
        err << "homc: --serve-model requires --serve\n";
        return ParseResult::kError;
    }
    if (options.serveModels.empty() &&
        (!options.serveLaneModels.empty() ||
         !options.serveChain.empty() || options.serveSwapAfter != 0)) {
        err << "homc: --serve-lane-models/--serve-chain/"
               "--serve-swap-after require --serve-model\n";
        return ParseResult::kError;
    }
    if (options.serve.empty() &&
        (!options.serveFaults.empty() || options.serveRetryDepth != 0)) {
        err << "homc: --serve-fault/--serve-retry-depth require "
               "--serve\n";
        return ParseResult::kError;
    }
    if (options.serveModels.empty() &&
        (!options.serveFallbacks.empty() ||
         options.serveBreakerThreshold != 0 ||
         options.serveDeadlineUs != 0)) {
        err << "homc: --serve-fallback/--serve-breaker-threshold/"
               "--serve-deadline-us require --serve-model\n";
        return ParseResult::kError;
    }
    if (!options.serveModels.empty()) {
        // Resolve every model reference against the --serve-model list
        // here, where the error can name the flag, instead of letting
        // the registry throw mid-run.
        auto loads_of = [&](const std::string &name) {
            std::size_t count = 0;
            for (const auto &[model, path] : options.serveModels) {
                (void)path;
                count += model == name;
            }
            return count;
        };
        auto known_model = [&](const char *flag,
                               const std::string &name) {
            if (name.empty() || loads_of(name) > 0)
                return true;
            err << "homc: --" << flag << " references model '" << name
                << "' but no --serve-model loads it\n";
            return false;
        };
        for (const std::string &name : options.serveLaneModels)
            if (!known_model("serve-lane-models", name))
                return ParseResult::kError;
        for (const runtime::ChainRule &rule : options.serveChain)
            if (!known_model("serve-chain", rule.fromModel) ||
                !known_model("serve-chain", rule.toModel))
                return ParseResult::kError;
        for (const runtime::FallbackRule &rule : options.serveFallbacks)
            if (!known_model("serve-fallback", rule.model) ||
                !known_model("serve-fallback", rule.toModel))
                return ParseResult::kError;
        if (options.serveSwapAfter != 0) {
            if (!known_model("serve-swap-after", options.serveSwapModel))
                return ParseResult::kError;
            if (options.serveSwapVersion >
                loads_of(options.serveSwapModel)) {
                err << "homc: --serve-swap-after wants '"
                    << options.serveSwapModel << "' v"
                    << options.serveSwapVersion << " but only "
                    << loads_of(options.serveSwapModel)
                    << " version(s) are loaded\n";
                return ParseResult::kError;
            }
        }
    }

    if (options.listPlatforms || options.listPasses ||
        options.listKernels)
        return ParseResult::kOk;
    // Registry serving runs pre-compiled artifacts — no --app/--train
    // needed (and none is consulted).
    if (!options.serveModels.empty())
        return ParseResult::kOk;
    if (options.app.empty() && options.trainCsv.empty()) {
        err << "homc: need --app or --train/--test\n";
        return ParseResult::kError;
    }
    return ParseResult::kOk;
}

std::vector<runtime::QueuePolicy>
lanePolicies(const CliOptions &options)
{
    std::vector<runtime::QueuePolicy> policies(options.serveLanes);
    for (std::size_t lane = 0; lane < options.serveLanes; ++lane) {
        runtime::QueuePolicy &policy = policies[lane];
        // Apply the queue's clamps here too, so --serve's printout
        // shows the policy actually in force, not the raw flags.
        policy.maxBatch = options.serveLaneBatches.empty()
                              ? options.serveMaxBatch
                              : options.serveLaneBatches[lane];
        if (policy.maxBatch == 0)
            policy.maxBatch = 1;
        policy.maxDelayUs =
            std::min(options.serveLaneDelaysUs.empty()
                         ? options.serveMaxDelayUs
                         : options.serveLaneDelaysUs[lane],
                     runtime::kMaxQueueDelayUs);
        policy.maxDepth = options.serveLaneDepths.empty()
                              ? options.serveDepth
                              : options.serveLaneDepths[lane];
    }
    return policies;
}

std::size_t
laneForFrame(std::size_t index, const CliOptions &options)
{
    if (options.serveLanes <= 1)
        return 0;
    if (index % options.serveProbeEvery == 0)
        return 0;
    // Round-robin by bulk ordinal, not by the global index: the global
    // index modulo (lanes - 1) skips the residues probe frames occupy,
    // which can starve a bulk lane outright when probe-every shares a
    // factor with the bulk-lane count (e.g. 3 lanes, probe-every 2).
    std::size_t probes_before = (index - 1) / options.serveProbeEvery + 1;
    std::size_t bulk_ordinal = index - probes_before;
    return 1 + bulk_ordinal % (options.serveLanes - 1);
}

void
printUsage(std::ostream &out)
{
    out <<
        "homc — Homunculus data-plane ML compiler\n"
        "  --app ad|tc|bd           built-in application\n"
        "  --train FILE --test FILE CSV data (last column = label)\n"
        "  --platform NAME          target backend (see --list-platforms)\n"
        "  --list-platforms         enumerate registered backends\n"
        "  --algorithms LIST        comma-separated family pool\n"
        "  --init N --iters N       search budget\n"
        "  --jobs N                 search pool width: every family's\n"
        "                           warm-up candidates, then the\n"
        "                           per-family searches (0 = #cores)\n"
        "  --infer-jobs N           row-shard width for scoring + replay\n"
        "                           (0 = #cores)\n"
        "  --replay TRACE           serving mode: replay iot:N or a\n"
        "                           hex-frame file through the winner\n"
        "  --replay-batch N         replay micro-batch rows (default 1024)\n"
        "  --replay-raw             skip feature standardization on replay\n"
        "                           and --serve\n"
        "  --serve TRACE            async serving mode: feed the trace\n"
        "                           through the admission queue + \n"
        "                           size-or-deadline batcher\n"
        "  --serve-rate RPS         arrival rate, rows/s (0 = max speed)\n"
        "  --serve-max-batch N      flush at N rows (default 1024)\n"
        "  --serve-max-delay-us N   flush at N us queueing (default 1000)\n"
        "  --serve-depth N          shed beyond N queued rows (0 = inf)\n"
        "  --serve-lanes N          priority lanes, lane 0 most urgent\n"
        "                           (default 1)\n"
        "  --serve-backpressure M   shed|block|early-drop (default shed)\n"
        "  --serve-block-timeout-us N  block mode: producer wait bound\n"
        "  --serve-lane-delays-us L comma list, per-lane maxDelay us\n"
        "  --serve-lane-depths L    comma list, per-lane shed depth\n"
        "  --serve-lane-batches L   comma list, per-lane flush size\n"
        "  --serve-probe-every N    every Nth frame -> lane 0 (default 16)\n"
        "  --serve-model NAME=FILE  registry serving: load a homunculus-ir\n"
        "                           artifact under NAME (repeatable; same\n"
        "                           NAME again stacks v2, v3, ...; first\n"
        "                           NAME is the default model; skips the\n"
        "                           compile entirely)\n"
        "  --serve-lane-models L    comma list, per-lane entry model\n"
        "                           (empty entry = default model)\n"
        "  --serve-chain L          comma list of FROM:LABEL=TO rules:\n"
        "                           rows FROM labels LABEL go on to TO\n"
        "  --serve-swap-after N:NAME=V  after frame N, hot-swap NAME's\n"
        "                           active plan to version V (test hook)\n"
        "  --serve-fault SITE:RATE[:SEED]  arm deterministic fault\n"
        "                           injection at SITE (engine.run,\n"
        "                           router.hop, queue.flush, ...) with\n"
        "                           Bernoulli RATE (repeatable; also via\n"
        "                           HOMUNCULUS_FAULTS env)\n"
        "  --serve-retry-depth N    bisect-retry failed batches up to N\n"
        "                           splits to isolate poison rows\n"
        "                           (default 0 = fail whole batch)\n"
        "  --serve-fallback L       comma list of MODEL=NAME|LABEL rules:\n"
        "                           while MODEL's breaker is open, rows\n"
        "                           go to model NAME or resolve as the\n"
        "                           static verdict LABEL\n"
        "  --serve-breaker-threshold N  consecutive failures that open a\n"
        "                           model's circuit breaker (default 3\n"
        "                           when --serve-fallback is given,\n"
        "                           else off)\n"
        "  --serve-deadline-us N    per-request chain budget from\n"
        "                           admission; over-budget rows skip\n"
        "                           further chain hops (0 = unbounded)\n"
        "  --serve-shards N         scale out: N independent servers\n"
        "                           (queue + batcher + engine each),\n"
        "                           frames hashed to shards by 5-tuple\n"
        "                           flow key; prints per-shard + merged\n"
        "                           stats (default 1 = unsharded)\n"
        "  --serve-aging-us N       lane-fairness aging: a lane overdue\n"
        "                           past its own deadline by N us may\n"
        "                           preempt strict priority (default 0\n"
        "                           = strict)\n"
        "  --serve-stats-json PATH  end-of-run telemetry dump: every\n"
        "                           metric (queue, lanes, models,\n"
        "                           breakers, faults, shards) + request\n"
        "                           spans as JSON ('-' = stdout)\n"
        "  --serve-stats-every N    every N submitted frames, print one\n"
        "                           live counters line to stderr\n"
        "                           (default 0 = off)\n"
        "  --kernel T               pin the CPU kernel table: auto|\n"
        "                           scalar|avx2|neon (default auto =\n"
        "                           probe; errors when T is not\n"
        "                           available on this host)\n"
        "  --list-kernels           enumerate kernel targets: which are\n"
        "                           available here and which the probe\n"
        "                           (or HOMUNCULUS_KERNELS) picks\n"
        "  --grid N                 Taurus grid side\n"
        "  --tables N               MAT stage budget\n"
        "  --throughput GPPS --latency NS\n"
        "  --pareto METRIC          multi-objective cost (cus|mus|...)\n"
        "  --passes LIST            emit-stage IR passes (--list-passes)\n"
        "  --dump-ir[=PASS]         print the IR after each emit pass\n"
        "  --list-passes            enumerate registered IR passes\n"
        "  --progress               print compile-stage progress\n"
        "  --seed N --out FILE --save ARTIFACT\n";
}

}  // namespace homunculus::tools
