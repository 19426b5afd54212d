/**
 * @file
 * Tests for homc's command-line contract (tools/homc_cli.*): strict
 * unknown-flag rejection with a did-you-mean hint, numeric-value
 * validation (no more uncaught std::stoull aborts on "--jobs banana"),
 * the serving-lane flags, the lane policy/routing helpers, and the
 * trace loader's input checks.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "homc_cli.hpp"

namespace ht = homunculus::tools;
namespace hr = homunculus::runtime;

namespace {

/** Run parseArgs over a brace-list of flags (argv[0] included). */
ht::ParseResult
parse(std::initializer_list<const char *> args, ht::CliOptions &options,
      std::string &errors)
{
    std::vector<const char *> argv{"homc"};
    argv.insert(argv.end(), args.begin(), args.end());
    std::ostringstream err;
    ht::ParseResult result = ht::parseArgs(
        static_cast<int>(argv.size()), argv.data(), options, err);
    errors = err.str();
    return result;
}

}  // namespace

TEST(HomcCli, UnknownFlagIsAnErrorWithNearestMatchHint)
{
    ht::CliOptions options;
    std::string errors;
    // The motivating bug: a typo'd flag was accepted and ignored, so
    // the run silently used the default policy.
    EXPECT_EQ(parse({"--app", "ad", "--serve-max-dely-us", "250"},
                    options, errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("unknown flag '--serve-max-dely-us'"),
              std::string::npos)
        << errors;
    EXPECT_NE(errors.find("did you mean '--serve-max-delay-us'"),
              std::string::npos)
        << errors;
}

TEST(HomcCli, UnknownFlagFarFromEverythingGetsNoHint)
{
    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--app", "ad", "--frobnicate", "1"}, options,
                    errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("unknown flag '--frobnicate'"),
              std::string::npos);
    EXPECT_EQ(errors.find("did you mean"), std::string::npos) << errors;
}

TEST(HomcCli, NonNumericValueForNumericFlagIsAFriendlyError)
{
    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--app", "ad", "--jobs", "banana"}, options,
                    errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("--jobs expects"), std::string::npos)
        << errors;
    EXPECT_NE(errors.find("banana"), std::string::npos) << errors;
}

TEST(HomcCli, TrailingGarbageAndNegativesAreRejected)
{
    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--app", "ad", "--init", "12abc"}, options, errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("--init expects"), std::string::npos);

    // std::stoull would happily wrap "-5" into a huge depth.
    EXPECT_EQ(parse({"--app", "ad", "--serve-depth", "-5"}, options,
                    errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("--serve-depth expects"), std::string::npos);
}

TEST(HomcCli, BadDoubleIsRejected)
{
    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--app", "ad", "--serve-rate", "fast"}, options,
                    errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("--serve-rate expects a number"),
              std::string::npos)
        << errors;
    EXPECT_EQ(parse({"--app", "ad", "--throughput", "2.5"}, options,
                    errors),
              ht::ParseResult::kOk);
    EXPECT_DOUBLE_EQ(options.throughputGpps, 2.5);
    EXPECT_TRUE(options.throughputSet);
}

TEST(HomcCli, HelpShortCircuits)
{
    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--help"}, options, errors), ht::ParseResult::kHelp);
    EXPECT_EQ(parse({"-h"}, options, errors), ht::ParseResult::kHelp);
}

TEST(HomcCli, ListModesNeedNoApp)
{
    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--list-platforms"}, options, errors),
              ht::ParseResult::kOk);
    EXPECT_TRUE(options.listPlatforms);
}

TEST(HomcCli, MissingAppIsStillAnError)
{
    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--jobs", "2"}, options, errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("need --app or --train/--test"),
              std::string::npos);
}

TEST(HomcCli, ServeLaneFlagsParseAndBuildPolicies)
{
    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--app", "tc", "--serve", "iot:100",
                     "--serve-lanes", "2", "--serve-backpressure",
                     "early-drop", "--serve-lane-delays-us", "250,2000",
                     "--serve-lane-depths", "128,8192",
                     "--serve-lane-batches", "16,1024",
                     "--serve-block-timeout-us", "5000",
                     "--serve-probe-every", "8"},
                    options, errors),
              ht::ParseResult::kOk)
        << errors;
    EXPECT_EQ(options.serveLanes, 2u);
    EXPECT_EQ(options.serveBackpressure,
              hr::BackpressureMode::kEarlyDrop);
    EXPECT_EQ(options.serveBlockTimeoutUs, 5000u);

    auto lanes = ht::lanePolicies(options);
    ASSERT_EQ(lanes.size(), 2u);
    EXPECT_EQ(lanes[0].maxBatch, 16u);
    EXPECT_EQ(lanes[0].maxDelayUs, 250u);
    EXPECT_EQ(lanes[0].maxDepth, 128u);
    EXPECT_EQ(lanes[1].maxBatch, 1024u);
    EXPECT_EQ(lanes[1].maxDelayUs, 2000u);
    EXPECT_EQ(lanes[1].maxDepth, 8192u);

    // Frame routing: every 8th frame probes lane 0, the rest bulk.
    EXPECT_EQ(ht::laneForFrame(0, options), 0u);
    EXPECT_EQ(ht::laneForFrame(1, options), 1u);
    EXPECT_EQ(ht::laneForFrame(8, options), 0u);
    EXPECT_EQ(ht::laneForFrame(9, options), 1u);
}

TEST(HomcCli, LanesDefaultToTheSingleLaneFlags)
{
    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--app", "tc", "--serve", "iot:10",
                     "--serve-lanes", "3", "--serve-max-batch", "64",
                     "--serve-max-delay-us", "750", "--serve-depth",
                     "333"},
                    options, errors),
              ht::ParseResult::kOk);
    auto lanes = ht::lanePolicies(options);
    ASSERT_EQ(lanes.size(), 3u);
    for (const auto &lane : lanes) {
        EXPECT_EQ(lane.maxBatch, 64u);
        EXPECT_EQ(lane.maxDelayUs, 750u);
        EXPECT_EQ(lane.maxDepth, 333u);
    }
    // Single-lane routing sends everything to lane 0.
    ht::CliOptions single;
    EXPECT_EQ(ht::laneForFrame(5, single), 0u);
}

TEST(HomcCli, LaneListLengthMustMatchLaneCount)
{
    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--app", "tc", "--serve-lanes", "2",
                     "--serve-lane-delays-us", "1,2,3"},
                    options, errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("lists 3 lanes but --serve-lanes is 2"),
              std::string::npos)
        << errors;
}

TEST(HomcCli, BackpressureModeMustBeKnown)
{
    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--app", "tc", "--serve-backpressure", "yolo"},
                    options, errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("shed|block|early-drop"), std::string::npos)
        << errors;

    EXPECT_EQ(parse({"--app", "tc", "--serve-backpressure", "block"},
                    options, errors),
              ht::ParseResult::kOk);
    EXPECT_EQ(options.serveBackpressure,
              hr::BackpressureMode::kBlockWithTimeout);
}

TEST(HomcCli, ZeroLanesAndZeroProbeEveryAreRejected)
{
    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--app", "tc", "--serve-lanes", "0"}, options,
                    errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("--serve-lanes"), std::string::npos);

    ht::CliOptions fresh;  // the first parse left serveLanes at 0.
    EXPECT_EQ(parse({"--app", "tc", "--serve-probe-every", "0"}, fresh,
                    errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("--serve-probe-every"), std::string::npos);
}

TEST(HomcCli, EveryDocumentedFlagIsConsumed)
{
    // A sweep over the full surface: if a take* call is missing for a
    // flag, it would now be reported as unknown — the exact regression
    // this suite pins.
    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--app",  "ad",      "--platform", "taurus",
                     "--algorithms", "svm,kmeans",
                     "--init", "2",       "--iters",    "3",
                     "--jobs", "2",       "--infer-jobs", "2",
                     "--grid", "8",       "--tables",   "4",
                     "--throughput", "1.5", "--latency", "400",
                     "--seed", "42",      "--out",      "/tmp/x.p4",
                     "--save", "/tmp/x.ir", "--pareto", "cus",
                     "--replay", "iot:10", "--replay-batch", "64",
                     "--serve", "iot:10", "--serve-rate", "1000",
                     "--serve-max-batch", "32", "--serve-max-delay-us",
                     "500", "--serve-depth", "64",
                     "--serve-model", "a=/tmp/a.ir",
                     "--serve-model", "b=/tmp/b.ir",
                     "--serve-fault", "engine.run:0.01",
                     "--serve-retry-depth", "3",
                     "--serve-fallback", "a=b",
                     "--serve-breaker-threshold", "2",
                     "--serve-deadline-us", "800",
                     "--serve-shards", "2",
                     "--serve-aging-us", "150"},
                    options, errors),
              ht::ParseResult::kOk)
        << errors;
    EXPECT_EQ(options.seed, 42u);
    EXPECT_EQ(options.replayBatch, 64u);
    EXPECT_DOUBLE_EQ(options.serveRate, 1000.0);
    EXPECT_EQ(options.serveMaxDelayUs, 500u);
    EXPECT_EQ(options.serveFaults.size(), 1u);
    EXPECT_EQ(options.serveRetryDepth, 3u);
    EXPECT_EQ(options.serveFallbacks.size(), 1u);
    EXPECT_EQ(options.serveBreakerThreshold, 2u);
    EXPECT_EQ(options.serveDeadlineUs, 800u);
    EXPECT_EQ(options.serveShards, 2u);
    EXPECT_EQ(options.serveAgingUs, 150u);
}

TEST(HomcCli, MisspelledBooleanFlagGetsAHintAndSwallowsNothing)
{
    // A typo'd no-value flag must not consume the next token as its
    // value (which used to shift the blame onto a later valid
    // argument) and must still get the did-you-mean treatment.
    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--progess", "--app", "ad"}, options, errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("unknown flag '--progess'"),
              std::string::npos)
        << errors;
    EXPECT_NE(errors.find("did you mean '--progress'"),
              std::string::npos)
        << errors;

    EXPECT_EQ(parse({"--app", "ad", "--replay-rw"}, options, errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("did you mean '--replay-raw'"),
              std::string::npos)
        << errors;
}

TEST(HomcCli, ValueFlagAtEndOfLineReportsMissingValue)
{
    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--app", "ad", "--jobs"}, options, errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("--jobs expects a value"), std::string::npos)
        << errors;
}

TEST(HomcCli, EveryRegisteredValueFlagHasAHandler)
{
    // Guards the flag-table/handler sync: an entry in the known-flag
    // table without a matching take* call would survive to the
    // leftover check and report drift instead of parsing.
    for (const std::string &flag : ht::knownValueFlags()) {
        ht::CliOptions options;
        std::string errors;
        parse({"--app", "ad", ("--" + flag).c_str(), "1"}, options,
              errors);
        EXPECT_EQ(errors.find("flag-table drift"), std::string::npos)
            << "flag --" << flag << ": " << errors;
        EXPECT_EQ(errors.find("unknown flag"), std::string::npos)
            << "flag --" << flag << ": " << errors;
    }
}

TEST(HomcCli, BulkLanesRoundRobinByBulkOrdinal)
{
    // 3 lanes with probe-every 2: the non-probe (odd) indices must
    // alternate lanes 1 and 2 — routing by global index modulo 2 would
    // send every one of them to the same lane.
    ht::CliOptions options;
    std::string errors;
    ASSERT_EQ(parse({"--app", "tc", "--serve-lanes", "3",
                     "--serve-probe-every", "2"},
                    options, errors),
              ht::ParseResult::kOk);
    EXPECT_EQ(ht::laneForFrame(0, options), 0u);  // probe.
    EXPECT_EQ(ht::laneForFrame(1, options), 1u);
    EXPECT_EQ(ht::laneForFrame(2, options), 0u);  // probe.
    EXPECT_EQ(ht::laneForFrame(3, options), 2u);
    EXPECT_EQ(ht::laneForFrame(4, options), 0u);  // probe.
    EXPECT_EQ(ht::laneForFrame(5, options), 1u);
    EXPECT_EQ(ht::laneForFrame(7, options), 2u);

    std::size_t lane1 = 0, lane2 = 0;
    for (std::size_t i = 0; i < 1000; ++i) {
        std::size_t lane = ht::laneForFrame(i, options);
        lane1 += lane == 1;
        lane2 += lane == 2;
    }
    EXPECT_EQ(lane1, 250u);  // even split of the 500 bulk frames.
    EXPECT_EQ(lane2, 250u);
}

TEST(HomcCli, ServeFaultFlagsParseRepeatablyWithRetryDepth)
{
    ht::CliOptions options;
    std::string errors;
    ASSERT_EQ(parse({"--app", "tc", "--serve", "iot:10",
                     "--serve-fault", "engine.run:0.01",
                     "--serve-fault", "router.hop:0.5:9",
                     "--serve-retry-depth", "4"},
                    options, errors),
              ht::ParseResult::kOk)
        << errors;
    ASSERT_EQ(options.serveFaults.size(), 2u);
    EXPECT_EQ(options.serveFaults[0], "engine.run:0.01");
    EXPECT_EQ(options.serveFaults[1], "router.hop:0.5:9");
    EXPECT_EQ(options.serveRetryDepth, 4u);
}

TEST(HomcCli, MalformedServeFaultSpecsErrorAtParseTime)
{
    // A typo'd spec must fail the parse, not blow up (or silently arm
    // nothing) once serving has already started.
    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--app", "tc", "--serve", "iot:10",
                     "--serve-fault", "engine.run"},
                    options, errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("homc: --serve-fault:"), std::string::npos)
        << errors;

    EXPECT_EQ(parse({"--app", "tc", "--serve", "iot:10",
                     "--serve-fault", "engine.run:2.0"},
                    options, errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("rate must be in [0, 1]"), std::string::npos)
        << errors;
}

TEST(HomcCli, FaultAndRetryFlagsRequireServe)
{
    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--app", "tc", "--serve-fault", "engine.run:0.1"},
                    options, errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("require --serve"), std::string::npos)
        << errors;

    EXPECT_EQ(parse({"--app", "tc", "--serve-retry-depth", "2"},
                    options, errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("require --serve"), std::string::npos)
        << errors;
}

TEST(HomcCli, ServeFallbackParsesModelAndStaticLabelDestinations)
{
    ht::CliOptions options;
    std::string errors;
    ASSERT_EQ(parse({"--app", "tc", "--serve", "iot:10",
                     "--serve-model", "a=/tmp/a.ir",
                     "--serve-model", "b=/tmp/b.ir",
                     "--serve-fallback", "a=b,b=2",
                     "--serve-breaker-threshold", "5",
                     "--serve-deadline-us", "750"},
                    options, errors),
              ht::ParseResult::kOk)
        << errors;
    ASSERT_EQ(options.serveFallbacks.size(), 2u);
    EXPECT_EQ(options.serveFallbacks[0].model, "a");
    EXPECT_EQ(options.serveFallbacks[0].toModel, "b");
    EXPECT_EQ(options.serveFallbacks[0].label, -1);
    EXPECT_EQ(options.serveFallbacks[1].model, "b");
    EXPECT_TRUE(options.serveFallbacks[1].toModel.empty());
    EXPECT_EQ(options.serveFallbacks[1].label, 2);
    EXPECT_EQ(options.serveBreakerThreshold, 5u);
    EXPECT_EQ(options.serveDeadlineUs, 750u);
}

TEST(HomcCli, MalformedServeFallbackEntriesAreRejected)
{
    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--app", "tc", "--serve", "iot:10",
                     "--serve-model", "a=/tmp/a.ir",
                     "--serve-fallback", "a"},
                    options, errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("MODEL=NAME|LABEL"), std::string::npos)
        << errors;
}

TEST(HomcCli, ServeFallbackReferencingAnUnloadedModelIsRejected)
{
    // Catch the dangling reference at the flag, where the error can
    // name it, instead of letting the router throw mid-run.
    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--app", "tc", "--serve", "iot:10",
                     "--serve-model", "a=/tmp/a.ir",
                     "--serve-fallback", "a=ghost"},
                    options, errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("references model 'ghost'"),
              std::string::npos)
        << errors;
    EXPECT_NE(errors.find("no --serve-model loads it"),
              std::string::npos)
        << errors;
}

TEST(HomcCli, BreakerAndDeadlineFlagsRequireServeModel)
{
    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--app", "tc", "--serve", "iot:10",
                     "--serve-breaker-threshold", "3"},
                    options, errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("require --serve-model"), std::string::npos)
        << errors;

    EXPECT_EQ(parse({"--app", "tc", "--serve", "iot:10",
                     "--serve-deadline-us", "500"},
                    options, errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("require --serve-model"), std::string::npos)
        << errors;
}

TEST(HomcCli, NonNumericFaultToleranceValuesAreRejected)
{
    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--app", "tc", "--serve", "iot:10",
                     "--serve-retry-depth", "banana"},
                    options, errors),
              ht::ParseResult::kError);
    EXPECT_NE(
        errors.find(
            "--serve-retry-depth expects a non-negative integer"),
        std::string::npos)
        << errors;

    EXPECT_EQ(parse({"--app", "tc", "--serve", "iot:10",
                     "--serve-model", "a=/tmp/a.ir",
                     "--serve-deadline-us", "-5"},
                    options, errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("--serve-deadline-us expects a non-negative "
                          "integer"),
              std::string::npos)
        << errors;
}

TEST(HomcCli, MisspelledFaultFlagGetsAHint)
{
    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--app", "tc", "--serve", "iot:10",
                     "--serve-falt", "engine.run:0.1"},
                    options, errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("did you mean '--serve-fault'"),
              std::string::npos)
        << errors;
}

TEST(HomcCli, ServeShardAndAgingFlagsParseWithServe)
{
    ht::CliOptions options;
    std::string errors;
    ASSERT_EQ(parse({"--app", "tc", "--serve", "iot:10",
                     "--serve-shards", "4",
                     "--serve-aging-us", "250"},
                    options, errors),
              ht::ParseResult::kOk)
        << errors;
    EXPECT_EQ(options.serveShards, 4u);
    EXPECT_EQ(options.serveAgingUs, 250u);
}

TEST(HomcCli, ZeroServeShardsIsRejected)
{
    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--app", "tc", "--serve", "iot:10",
                     "--serve-shards", "0"},
                    options, errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("at least 1 shard"), std::string::npos)
        << errors;
}

TEST(HomcCli, ShardAndAgingFlagsRequireServe)
{
    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--app", "tc", "--serve-shards", "2"}, options,
                    errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("require --serve"), std::string::npos)
        << errors;

    EXPECT_EQ(parse({"--app", "tc", "--serve-aging-us", "100"},
                    options, errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("require --serve"), std::string::npos)
        << errors;

    // --serve-shards 1 is the default single-server door; saying it
    // explicitly without --serve stays harmless.
    ht::CliOptions fresh;
    EXPECT_EQ(parse({"--app", "tc", "--serve-shards", "1"}, fresh,
                    errors),
              ht::ParseResult::kOk)
        << errors;
}

TEST(HomcCli, MisspelledShardFlagGetsAHint)
{
    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--app", "tc", "--serve", "iot:10",
                     "--serve-shard", "2"},
                    options, errors),
              ht::ParseResult::kError);
    EXPECT_NE(errors.find("did you mean '--serve-shards'"),
              std::string::npos)
        << errors;
}

// ------------------------------------------------------------ traces ---

TEST(HomcCli, MalformedIotTraceCountIsAUsageError)
{
    // A negative, trailing-garbage or empty count is a usage error at
    // parse time, before any compile runs.
    for (const char *flag : {"--replay", "--serve"})
        for (const char *spec : {"iot:-1", "iot:5x", "iot:"}) {
            ht::CliOptions options;
            std::string errors;
            EXPECT_EQ(parse({"--app", "tc", flag, spec}, options, errors),
                      ht::ParseResult::kError)
                << flag << " " << spec;
            EXPECT_NE(errors.find("iot:N expects a non-negative integer"),
                      std::string::npos)
                << errors;
        }

    ht::CliOptions options;
    std::string errors;
    EXPECT_EQ(parse({"--app", "tc", "--replay", "iot:5"}, options,
                    errors),
              ht::ParseResult::kOk)
        << errors;
    EXPECT_EQ(ht::loadTrace(options.replay).size(), 5u);
    for (const char *spec : {"iot:-1", "iot:5x", "iot:"})
        EXPECT_THROW(ht::loadTrace(spec), std::runtime_error) << spec;
}

TEST(HomcCli, HexTraceTakesOnlyHexDigitsAndNamesTheBadLine)
{
    const std::string path = ::testing::TempDir() + "homc_cli_trace.hex";
    auto load = [&](const std::string &text) {
        std::ofstream(path) << text;
        return ht::loadTrace(path);
    };
    auto frames = load("0a0B ff\n\n  00 11\n");
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0], (std::vector<std::uint8_t>{0x0a, 0x0b, 0xff}));
    EXPECT_EQ(frames[1], (std::vector<std::uint8_t>{0x00, 0x11}));

    // Signs and non-hex digits are rejected, never decoded as a byte.
    for (const char *bad : {"0g", "-1", "+f", "abc"}) {
        try {
            load(std::string("0a0b\n") + bad + "\n");
            ADD_FAILURE() << "accepted '" << bad << "'";
        } catch (const std::runtime_error &error) {
            EXPECT_NE(std::string(error.what()).find("trace line 2"),
                      std::string::npos)
                << error.what();
        }
    }
    EXPECT_THROW(ht::loadTrace(path + ".missing"), std::runtime_error);
}
