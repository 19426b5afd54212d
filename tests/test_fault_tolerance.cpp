/**
 * @file
 * Fault-tolerant serving suite: FaultInjector determinism and spec
 * parsing, the supervised batcher (per-batch failure containment,
 * bisect-retry poison isolation, guarded callbacks, the
 * served+failed+dropped == accepted resolution invariant), and the
 * router's circuit breakers (open / half-open / close transitions,
 * model and static-label fallbacks, deadline-truncated chains) — the
 * breaker-under-concurrent-swap test runs under TSAN in CI.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "math/matrix.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/model_registry.hpp"
#include "runtime/router.hpp"
#include "runtime/server.hpp"

namespace hc = homunculus::common;
namespace hi = homunculus::ir;
namespace hm = homunculus::math;
namespace hr = homunculus::runtime;
namespace hf = homunculus::runtime::faults;

namespace {

/** A small deterministic MLP of the given shape. */
hi::ModelIr
mlpModel(std::uint64_t seed, std::size_t input_dim, std::size_t classes)
{
    hc::Rng rng(seed);
    hi::ModelIr model;
    model.kind = hi::ModelKind::kMlp;
    model.inputDim = input_dim;
    model.numClasses = static_cast<int>(classes);
    std::size_t prev = input_dim;
    for (std::size_t width : {std::size_t{12}, classes}) {
        hi::QuantizedLayer layer;
        layer.inputDim = prev;
        layer.outputDim = width;
        layer.weights.resize(prev * width);
        layer.biases.resize(width);
        for (auto &w : layer.weights)
            w = static_cast<std::int32_t>(rng.uniformInt(-32768, 32767));
        for (auto &b : layer.biases)
            b = static_cast<std::int32_t>(rng.uniformInt(-32768, 32767));
        model.layers.push_back(std::move(layer));
        prev = width;
    }
    model.validate();
    return model;
}

/** Deterministic feature rows in the extractor-ish value range. */
hm::Matrix
featureRows(std::uint64_t seed, std::size_t rows, std::size_t cols)
{
    hc::Rng rng(seed);
    hm::Matrix x(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            x(r, c) = rng.uniform(-2.0, 2.0);
    return x;
}

/** Requests viewing the rows of @p x, which must outlive them. */
std::vector<hr::Request>
requestsFrom(const hm::Matrix &x)
{
    std::vector<hr::Request> requests(x.rows());
    auto now = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < x.rows(); ++r) {
        requests[r].id = r + 1;
        requests[r].features = hr::RowView(x.rowPtr(r), x.cols());
        requests[r].enqueuedAt = now;
    }
    return requests;
}

/** Thread-safe served/failed collectors for resolution-invariant
 *  checks. */
struct Outcomes
{
    std::mutex mutex;
    std::map<std::uint64_t, int> verdicts;
    std::set<std::uint64_t> failed;

    hr::Server::VerdictFn verdictSink()
    {
        return [this](const hr::Request &request, int verdict) {
            std::lock_guard<std::mutex> lock(mutex);
            verdicts[request.id] = verdict;
        };
    }

    hr::FailureFn failureSink()
    {
        return [this](std::uint64_t ticket, std::size_t,
                      const std::string &) {
            std::lock_guard<std::mutex> lock(mutex);
            failed.insert(ticket);
        };
    }
};

}  // namespace

// --------------------------------------------------- FaultInjector

TEST(FaultInjector, ParseSpecAcceptsSiteRateSeedEntries)
{
    auto sites = hf::FaultInjector::parseSpec(
        "engine.run:0.01, router.hop:1:99 ,queue.flush:0");
    ASSERT_EQ(sites.size(), 3u);
    EXPECT_EQ(sites[0].site, "engine.run");
    EXPECT_DOUBLE_EQ(sites[0].rate, 0.01);
    EXPECT_EQ(sites[0].seed, hf::kDefaultFaultSeed);
    EXPECT_EQ(sites[1].site, "router.hop");
    EXPECT_DOUBLE_EQ(sites[1].rate, 1.0);
    EXPECT_EQ(sites[1].seed, 99u);
    EXPECT_DOUBLE_EQ(sites[2].rate, 0.0);

    EXPECT_THROW(hf::FaultInjector::parseSpec("engine.run"),
                 std::runtime_error);
    EXPECT_THROW(hf::FaultInjector::parseSpec("engine.run:banana"),
                 std::runtime_error);
    EXPECT_THROW(hf::FaultInjector::parseSpec("engine.run:1.5"),
                 std::runtime_error);
    EXPECT_THROW(hf::FaultInjector::parseSpec("engine.run:-0.1"),
                 std::runtime_error);
    EXPECT_THROW(hf::FaultInjector::parseSpec("engine.run:0.5:-3"),
                 std::runtime_error);
    EXPECT_THROW(hf::FaultInjector::parseSpec(":0.5"),
                 std::runtime_error);
    EXPECT_THROW(hf::FaultInjector::parseSpec("a:0.5:1:extra"),
                 std::runtime_error);
}

TEST(FaultInjector, DecisionSequenceIsAPureFunctionOfSeed)
{
    auto sequence = [](std::uint64_t seed, std::size_t n) {
        hf::FaultInjector injector;
        injector.arm("s", 0.3, seed);
        std::vector<bool> fires;
        for (std::size_t i = 0; i < n; ++i)
            fires.push_back(injector.shouldFail("s"));
        return fires;
    };
    auto a = sequence(42, 512);
    EXPECT_EQ(a, sequence(42, 512));  // replayable run-to-run.
    EXPECT_NE(a, sequence(43, 512));  // and actually seed-dependent.

    // ~30% of draws fire — it is a rate, not a countdown.
    std::size_t fired = 0;
    for (bool f : a)
        fired += f;
    EXPECT_GT(fired, 512 * 0.2);
    EXPECT_LT(fired, 512 * 0.4);
}

TEST(FaultInjector, RateEndpointsAndCountersAndDisarm)
{
    hf::FaultInjector injector;
    EXPECT_FALSE(injector.armed());
    EXPECT_NO_THROW(injector.maybe("anything"));  // disarmed = free.

    injector.arm("never", 0.0);
    injector.arm("always", 1.0);
    for (int i = 0; i < 64; ++i) {
        EXPECT_FALSE(injector.shouldFail("never"));
        EXPECT_NO_THROW(injector.maybe("unarmed.site"));
    }
    EXPECT_THROW(injector.maybe("always"), hf::FaultInjectedError);
    try {
        injector.maybe("always");
    } catch (const hf::FaultInjectedError &e) {
        EXPECT_EQ(e.site(), "always");
        EXPECT_NE(std::string(e.what()).find("always"),
                  std::string::npos);
    }
    EXPECT_EQ(injector.checked("never"), 64u);
    EXPECT_EQ(injector.fired("never"), 0u);
    EXPECT_EQ(injector.checked("always"), 2u);
    EXPECT_EQ(injector.fired("always"), 2u);
    EXPECT_EQ(injector.checked("unarmed.site"), 0u);

    EXPECT_THROW(injector.arm("bad", 1.5), std::runtime_error);
    EXPECT_THROW(injector.arm("", 0.5), std::runtime_error);

    injector.disarm("always");
    EXPECT_TRUE(injector.armed());  // "never" is still armed.
    injector.disarm();
    EXPECT_FALSE(injector.armed());
    EXPECT_NO_THROW(injector.maybe("always"));
}

// ------------------------------------------------------ ServerFault

TEST(ServerFault, InjectedEngineFaultsFailBatchesNotTheServer)
{
    hi::ModelIr ir = mlpModel(7, 4, 3);
    hf::FaultInjector injector;
    injector.arm(hf::kSiteEngineRun, 0.3, 11);

    hr::ServerConfig config;
    config.queue.maxBatch = 16;
    config.queue.maxDelayUs = 1'000'000;  // size-only flushes.
    config.injector = &injector;
    Outcomes outcomes;
    config.onFailure = outcomes.failureSink();
    hr::Server server(hr::InferenceEngine::fromModel(ir, {}), config,
                      outcomes.verdictSink());

    hm::Matrix x = featureRows(5, 160, 4);
    std::vector<std::uint64_t> tickets;
    for (std::size_t r = 0; r < x.rows(); ++r) {
        hr::SubmitResult result = server.submit(x.row(r));
        ASSERT_TRUE(result.admitted());
        tickets.push_back(result.ticket);
    }
    hr::ServerStats stats = server.stop();

    // The injector fired (rate 0.3 over 10+ batches) yet the server
    // survived to serve the rest, and every admitted request resolved
    // exactly once.
    EXPECT_GT(stats.failedBatches, 0u);
    EXPECT_GT(stats.failedRows, 0u);
    EXPECT_GT(stats.rowsServed, 0u);
    EXPECT_EQ(stats.rowsServed + stats.failedRows,
              static_cast<std::size_t>(stats.queue.accepted));
    EXPECT_EQ(outcomes.verdicts.size(), stats.rowsServed);
    EXPECT_EQ(outcomes.failed.size(), stats.failedRows);
    for (std::uint64_t ticket : tickets) {
        bool served = outcomes.verdicts.count(ticket) > 0;
        bool failed = outcomes.failed.count(ticket) > 0;
        EXPECT_TRUE(served != failed) << "ticket " << ticket;
    }

    // Non-failed rows are bit-identical to the fault-free plan.
    hr::InferenceEngine reference = hr::InferenceEngine::fromModel(ir, {});
    std::vector<int> expected = reference.run(x);
    for (std::size_t r = 0; r < x.rows(); ++r)
        if (auto it = outcomes.verdicts.find(tickets[r]);
            it != outcomes.verdicts.end())
            EXPECT_EQ(it->second, expected[r]);
}

TEST(ServerFault, SameSeedFailsTheSameRequests)
{
    hi::ModelIr ir = mlpModel(7, 4, 3);
    hm::Matrix x = featureRows(5, 160, 4);

    auto failedTickets = [&] {
        hf::FaultInjector injector;
        injector.arm(hf::kSiteEngineRun, 0.25, 77);
        hr::ServerConfig config;
        config.queue.maxBatch = 16;
        config.queue.maxDelayUs = 1'000'000;
        config.injector = &injector;
        Outcomes outcomes;
        config.onFailure = outcomes.failureSink();
        hr::Server server(hr::InferenceEngine::fromModel(ir, {}), config);
        for (std::size_t r = 0; r < x.rows(); ++r)
            server.submit(x.row(r));
        server.stop();
        return outcomes.failed;
    };

    std::set<std::uint64_t> first = failedTickets();
    EXPECT_FALSE(first.empty());
    // Size-only flushes make batch composition deterministic, and the
    // injector's draws are a pure function of (seed, check ordinal) —
    // so the very same requests fail on a replay.
    EXPECT_EQ(first, failedTickets());
}

TEST(ServerFault, EngineRunFiresOncePerSliceOnRoutedServers)
{
    // engine.run is the batch-execution site of every Server: it fires
    // once per slice attempt, before the router runs any hop.
    hi::ModelIr ir = mlpModel(7, 4, 3);
    auto registry = std::make_shared<hr::ModelRegistry>();
    registry->load("m", ir);
    hr::RouteConfig route;
    route.defaultModel = "m";

    hf::FaultInjector injector;
    injector.arm(hf::kSiteEngineRun, 1.0, 3);
    injector.arm(hf::kSiteRouterHop, 0.0, 3);  // counted, never fires.
    hr::ServerConfig config;
    config.queue.maxBatch = 16;
    config.queue.maxDelayUs = 1'000'000;  // size-only flushes.
    config.retryDepth = 0;
    config.injector = &injector;
    hr::Server server(registry, route, config);

    hm::Matrix x = featureRows(5, 160, 4);
    for (std::size_t r = 0; r < x.rows(); ++r)
        ASSERT_TRUE(server.submit(x.row(r)).admitted());
    hr::ServerStats stats = server.stop();

    const std::uint64_t batches = stats.queue.sizeFlushes +
                                  stats.queue.deadlineFlushes +
                                  stats.queue.drainFlushes;
    EXPECT_EQ(batches, 10u);
    EXPECT_EQ(stats.failedBatches, batches);
    EXPECT_EQ(stats.failedRows, x.rows());
    EXPECT_EQ(stats.rowsServed, 0u);
    EXPECT_EQ(injector.checked(hf::kSiteEngineRun), batches);
    EXPECT_EQ(injector.fired(hf::kSiteEngineRun), batches);
    EXPECT_EQ(injector.checked(hf::kSiteRouterHop), 0u);
}

TEST(ServerFault, BisectRetryIsolatesThePoisonRow)
{
    hi::ModelIr ir = mlpModel(7, 4, 3);
    hr::ServerConfig config;
    config.queue.maxBatch = 64;
    config.queue.maxDelayUs = 1'000'000;
    config.retryDepth = 6;  // log2(64): bisect down to singletons.
    Outcomes outcomes;
    config.onFailure = outcomes.failureSink();
    hr::Server server(hr::InferenceEngine::fromModel(ir, {}), config,
                      outcomes.verdictSink());

    hm::Matrix x = featureRows(5, 64, 4);
    x(37, 2) = std::numeric_limits<double>::quiet_NaN();  // poison.
    std::uint64_t poison_ticket = 0;
    for (std::size_t r = 0; r < x.rows(); ++r) {
        hr::SubmitResult result = server.submit(x.row(r));
        if (r == 37)
            poison_ticket = result.ticket;
    }
    hr::ServerStats stats = server.stop();

    // Exactly the poison row failed; its 63 batchmates were served.
    EXPECT_EQ(stats.failedRows, 1u);
    EXPECT_EQ(stats.rowsServed, 63u);
    EXPECT_GT(stats.retriedBatches, 0u);
    ASSERT_EQ(outcomes.failed.size(), 1u);
    EXPECT_EQ(*outcomes.failed.begin(), poison_ticket);
    EXPECT_EQ(outcomes.verdicts.size(), 63u);
    EXPECT_EQ(stats.lanes.at(0).rowsFailed, 1u);
}

TEST(ServerFault, WithoutRetryDepthThePoisonRowSinksItsWholeBatch)
{
    hi::ModelIr ir = mlpModel(7, 4, 3);
    hr::ServerConfig config;
    config.queue.maxBatch = 64;
    config.queue.maxDelayUs = 1'000'000;
    Outcomes outcomes;
    config.onFailure = outcomes.failureSink();
    hr::Server server(hr::InferenceEngine::fromModel(ir, {}), config,
                      outcomes.verdictSink());

    hm::Matrix x = featureRows(5, 64, 4);
    x(37, 2) = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t r = 0; r < x.rows(); ++r)
        server.submit(x.row(r));
    hr::ServerStats stats = server.stop();

    EXPECT_EQ(stats.failedRows, 64u);
    EXPECT_EQ(stats.retriedBatches, 0u);
    EXPECT_EQ(outcomes.failed.size(), 64u);
    // Every failure carries the thrown error text.
    EXPECT_EQ(stats.failedBatches, 1u);
}

TEST(ServerFault, ThrowingVerdictCallbackLosesNothingElse)
{
    hi::ModelIr ir = mlpModel(7, 4, 3);
    hr::ServerConfig config;
    config.queue.maxBatch = 16;
    config.queue.maxDelayUs = 1'000'000;

    std::mutex mutex;
    std::map<std::uint64_t, int> verdicts;
    std::atomic<bool> thrown{false};
    // The regression: a throwing verdict sink used to unwind the
    // batcher thread, silently killing every later verdict.
    hr::Server server(
        hr::InferenceEngine::fromModel(ir, {}), config,
        [&](const hr::Request &request, int verdict) {
            if (!thrown.exchange(true))
                throw std::runtime_error("verdict sink exploded");
            std::lock_guard<std::mutex> lock(mutex);
            verdicts[request.id] = verdict;
        });

    hm::Matrix x = featureRows(5, 160, 4);
    for (std::size_t r = 0; r < x.rows(); ++r)
        ASSERT_TRUE(server.submit(x.row(r)).admitted());
    hr::ServerStats stats = server.stop();

    EXPECT_EQ(stats.rowsServed, x.rows());  // the batch still served.
    EXPECT_EQ(stats.failedRows, 0u);
    EXPECT_EQ(stats.callbackErrors, 1u);
    EXPECT_EQ(verdicts.size(), x.rows() - 1);  // only the throw lost.
}

// ---------------------------------------------------------- Breaker

namespace {

/** Registry with models "a" and "b" plus a Router over them. */
struct BreakerRig
{
    hi::ModelIr a_ir = mlpModel(31, 4, 3);
    hi::ModelIr b_ir = mlpModel(32, 4, 3);
    std::shared_ptr<hr::ModelRegistry> registry =
        std::make_shared<hr::ModelRegistry>();

    explicit BreakerRig(hr::RouteConfig route)
    {
        registry->load("a", a_ir);
        registry->load("b", b_ir);
        router.emplace(registry, std::move(route));
    }

    std::optional<hr::Router> router;
    std::vector<int> labels;
    std::vector<hr::RouteTrace> traces;
    std::vector<hr::RouteStepStats> steps;
    hr::Router::Scratch scratch;

    hr::RouteBatchOutcome run(const std::vector<hr::Request> &requests,
                              hf::FaultInjector *injector)
    {
        hr::Router::Snapshot pinned;
        router->snapshot(pinned);
        return router->runBatch(pinned, 0, requests.data(),
                                requests.size(), labels, &traces, steps,
                                scratch, injector);
    }
};

}  // namespace

TEST(Breaker, ValidatesFallbackRules)
{
    auto make = [](hr::RouteConfig route) {
        route.defaultModel = "a";
        BreakerRig rig(std::move(route));
    };
    hr::RouteConfig both;
    both.fallbacks = {{"a", "b", 2}};
    EXPECT_THROW(make(both), std::runtime_error);
    hr::RouteConfig neither;
    neither.fallbacks = {{"a", "", -1}};
    EXPECT_THROW(make(neither), std::runtime_error);
    hr::RouteConfig duplicate;
    duplicate.fallbacks = {{"a", "b", -1}, {"a", "", 1}};
    EXPECT_THROW(make(duplicate), std::runtime_error);
    hr::RouteConfig self_loop;
    self_loop.fallbacks = {{"a", "a", -1}};
    EXPECT_THROW(make(self_loop), std::runtime_error);
    hr::RouteConfig bad_label;
    bad_label.fallbacks = {{"a", "", 3}};  // 3-class model: labels 0-2.
    EXPECT_THROW(make(bad_label), std::runtime_error);
    hr::RouteConfig good;
    good.fallbacks = {{"a", "b", -1}};
    EXPECT_NO_THROW(make(good));
}

TEST(Breaker, OpensAfterThresholdAndRoutesToFallbackModel)
{
    hr::RouteConfig route;
    route.defaultModel = "a";
    route.breakerThreshold = 2;
    route.breakerCooldownUs = 3'600'000'000ull;  // stays open.
    route.fallbacks = {{"a", "b", -1}};
    BreakerRig rig(route);

    hf::FaultInjector injector;
    injector.arm("router.hop.a", 1.0, 1);  // a always fails.

    hm::Matrix x = featureRows(41, 24, 4);
    std::vector<hr::Request> requests = requestsFrom(x);
    // Two failures open the breaker; each one surfaces to the caller
    // (the Server supervisor owns the batch outcome).
    EXPECT_THROW(rig.run(requests, &injector), hf::FaultInjectedError);
    EXPECT_THROW(rig.run(requests, &injector), hf::FaultInjectedError);
    hr::BreakerSnapshot snap = rig.router->breaker(0);
    EXPECT_EQ(snap.state, hr::BreakerState::kOpen);
    EXPECT_EQ(snap.opens, 1u);
    EXPECT_EQ(snap.failures, 2u);

    // While open, the whole group re-routes to b — verdicts are b's,
    // bit-identical to running b directly.
    hr::RouteBatchOutcome outcome = rig.run(requests, &injector);
    EXPECT_EQ(outcome.fallbackRows, x.rows());
    std::vector<int> expected =
        hr::InferenceEngine::fromModel(rig.b_ir, {}).run(x);
    ASSERT_EQ(rig.labels.size(), x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r) {
        EXPECT_EQ(rig.labels[r], expected[r]);
        ASSERT_EQ(rig.traces[r].hops.size(), 1u);
        EXPECT_EQ(rig.traces[r].hops[0].model, "b");
    }
    EXPECT_EQ(rig.router->breaker(0).fallbackRows, x.rows());
    EXPECT_EQ(hr::breakerStateName(hr::BreakerState::kOpen),
              std::string("open"));
}

TEST(Breaker, StaticLabelFallbackResolvesRowsImmediately)
{
    hr::RouteConfig route;
    route.defaultModel = "a";
    route.breakerThreshold = 1;
    route.breakerCooldownUs = 3'600'000'000ull;
    route.fallbacks = {{"a", "", 2}};
    BreakerRig rig(route);

    hf::FaultInjector injector;
    injector.arm("router.hop.a", 1.0, 1);
    hm::Matrix x = featureRows(42, 8, 4);
    std::vector<hr::Request> requests = requestsFrom(x);
    EXPECT_THROW(rig.run(requests, &injector), hf::FaultInjectedError);

    hr::RouteBatchOutcome outcome = rig.run(requests, &injector);
    EXPECT_EQ(outcome.fallbackRows, x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r) {
        EXPECT_EQ(rig.labels[r], 2);  // the static verdict.
        ASSERT_EQ(rig.traces[r].hops.size(), 1u);
        EXPECT_EQ(rig.traces[r].hops[0].model, "a");
        EXPECT_EQ(rig.traces[r].hops[0].label, 2);
    }
}

TEST(Breaker, OpenWithoutFallbackFailsTheBatch)
{
    hr::RouteConfig route;
    route.defaultModel = "a";
    route.breakerThreshold = 1;
    route.breakerCooldownUs = 3'600'000'000ull;
    BreakerRig rig(route);

    hf::FaultInjector injector;
    injector.arm("router.hop.a", 1.0, 1);
    hm::Matrix x = featureRows(43, 4, 4);
    std::vector<hr::Request> requests = requestsFrom(x);
    EXPECT_THROW(rig.run(requests, &injector), hf::FaultInjectedError);
    // Open + no fallback: the router refuses the batch outright (the
    // Server supervisor turns this into per-request failures).
    EXPECT_THROW(rig.run(requests, &injector), std::runtime_error);
}

TEST(Breaker, HalfOpenProbeClosesOnSuccessReopensOnFailure)
{
    hr::RouteConfig route;
    route.defaultModel = "a";
    route.breakerThreshold = 1;
    route.breakerCooldownUs = 1'000;  // 1 ms.
    route.fallbacks = {{"a", "b", -1}};
    BreakerRig rig(route);

    hf::FaultInjector injector;
    injector.arm("router.hop.a", 1.0, 1);
    hm::Matrix x = featureRows(44, 8, 4);
    std::vector<hr::Request> requests = requestsFrom(x);
    EXPECT_THROW(rig.run(requests, &injector), hf::FaultInjectedError);
    EXPECT_EQ(rig.router->breaker(0).state, hr::BreakerState::kOpen);

    // Cooldown elapses while a is still broken: the probe batch fails
    // and the breaker reopens for another cooldown.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_THROW(rig.run(requests, &injector), hf::FaultInjectedError);
    hr::BreakerSnapshot reopened = rig.router->breaker(0);
    EXPECT_EQ(reopened.state, hr::BreakerState::kOpen);
    EXPECT_EQ(reopened.opens, 2u);
    EXPECT_EQ(reopened.probes, 1u);

    // Cooldown elapses after a recovers: the probe succeeds and the
    // breaker closes — a owns its traffic again.
    injector.disarm("router.hop.a");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    hr::RouteBatchOutcome outcome = rig.run(requests, &injector);
    EXPECT_EQ(outcome.fallbackRows, 0u);
    hr::BreakerSnapshot closed = rig.router->breaker(0);
    EXPECT_EQ(closed.state, hr::BreakerState::kClosed);
    EXPECT_EQ(closed.probes, 2u);
    std::vector<int> expected =
        hr::InferenceEngine::fromModel(rig.a_ir, {}).run(x);
    for (std::size_t r = 0; r < x.rows(); ++r)
        EXPECT_EQ(rig.labels[r], expected[r]);
}

TEST(Breaker, DeadlineTruncatesChainHopsButNeverTheEntryHop)
{
    hi::ModelIr front_ir = mlpModel(51, 4, 3);
    hi::ModelIr deep_ir = mlpModel(52, 4, 3);
    auto registry = std::make_shared<hr::ModelRegistry>();
    registry->load("front", front_ir);
    registry->load("deep", deep_ir);

    hm::Matrix x = featureRows(45, 64, 4);
    std::vector<int> front_labels =
        hr::InferenceEngine::fromModel(front_ir, {}).run(x);
    int hot = front_labels.front();
    std::size_t hot_rows = 0;
    for (int label : front_labels)
        hot_rows += label == hot;

    hr::RouteConfig route;
    route.defaultModel = "front";
    route.chain = {{"front", hot, "deep"}};
    route.deadlineUs = 1'000;  // 1 ms chain budget from admission.
    hr::Router router(registry, route);

    // Rows admitted 10 ms ago are over budget before the second hop:
    // they keep the entry hop's label and are counted, not dropped.
    std::vector<hr::Request> requests = requestsFrom(x);
    for (hr::Request &request : requests)
        request.enqueuedAt -= std::chrono::milliseconds(10);
    std::vector<int> labels;
    std::vector<hr::RouteTrace> traces;
    std::vector<hr::RouteStepStats> steps;
    hr::Router::Scratch scratch;
    hr::Router::Snapshot pinned;
    router.snapshot(pinned);
    hr::RouteBatchOutcome outcome =
        router.runBatch(pinned, 0, requests.data(), requests.size(),
                        labels, &traces, steps, scratch);

    EXPECT_EQ(outcome.deadlineTruncated, hot_rows);
    ASSERT_GT(hot_rows, 0u);
    for (std::size_t r = 0; r < x.rows(); ++r) {
        EXPECT_EQ(labels[r], front_labels[r]);  // entry hop always ran.
        EXPECT_EQ(traces[r].hops.size(), 1u);   // escalation skipped.
    }

    // Fresh admissions fit the budget: the chain runs normally.
    std::vector<hr::Request> fresh = requestsFrom(x);
    hr::RouteBatchOutcome unbounded =
        router.runBatch(pinned, 0, fresh.data(), fresh.size(), labels,
                        &traces, steps, scratch);
    EXPECT_EQ(unbounded.deadlineTruncated, 0u);
    std::size_t chained = 0;
    for (std::size_t r = 0; r < x.rows(); ++r)
        chained += traces[r].hops.size() == 2;
    EXPECT_EQ(chained, hot_rows);
}

TEST(Breaker, TransitionsUnderConcurrentSwapKeepTheResolutionInvariant)
{
    hi::ModelIr a_v1 = mlpModel(61, 4, 3);
    hi::ModelIr a_v2 = mlpModel(62, 4, 3);
    hi::ModelIr b_ir = mlpModel(63, 4, 3);
    auto registry = std::make_shared<hr::ModelRegistry>();
    registry->load("a", a_v1);
    registry->load("a", a_v2);
    registry->load("b", b_ir);

    hr::RouteConfig route;
    route.defaultModel = "a";
    route.breakerThreshold = 2;
    route.breakerCooldownUs = 500;
    route.fallbacks = {{"a", "b", -1}};

    hf::FaultInjector injector;
    injector.arm("router.hop.a", 0.4, 9);

    hr::ServerConfig config;
    config.queue.maxBatch = 32;
    config.queue.maxDelayUs = 200;
    config.queue.maxDepth = 0;  // unbounded: nothing sheds.
    config.injector = &injector;
    Outcomes outcomes;
    config.onFailure = outcomes.failureSink();
    hr::Server server(registry, route, config, outcomes.verdictSink());

    // A writer flips a's active version while batches fail, open the
    // breaker, fall back to b, half-open, and recover — the TSAN run
    // checks the breaker bookkeeping races with swap/snapshot on
    // nothing.
    std::atomic<bool> done{false};
    std::thread swapper([&] {
        std::uint64_t version = 2;
        while (!done.load()) {
            registry->swap("a", version);
            version = version == 2 ? 1 : 2;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });

    hm::Matrix x = featureRows(46, 2000, 4);
    std::size_t admitted = 0;
    for (std::size_t r = 0; r < x.rows(); ++r)
        admitted += server.submit(x.row(r)).admitted();
    hr::ServerStats stats = server.stop();
    done.store(true);
    swapper.join();

    EXPECT_EQ(admitted, x.rows());
    EXPECT_EQ(stats.rowsServed + stats.failedRows, admitted);
    EXPECT_EQ(outcomes.verdicts.size() + outcomes.failed.size(),
              admitted);
    // The fault rate (0.4 per a-hop) guarantees both outcomes and at
    // least one open/fallback cycle on this much traffic.
    EXPECT_GT(stats.failedRows, 0u);
    EXPECT_GT(stats.rowsServed, 0u);
    ASSERT_EQ(stats.models.size(), 2u);
    EXPECT_EQ(stats.models[0].name, "a");
    EXPECT_GT(stats.models[0].breakerOpens, 0u);
    EXPECT_GT(stats.fallbackRows, 0u);
    EXPECT_EQ(stats.models[1].name, "b");
    EXPECT_GT(stats.models[1].rowsServed, 0u);
}

// --------------------------------------- compile-pipeline fault sites

#include "core/compiler.hpp"
#include "data/anomaly_generator.hpp"
#include "runtime/quant_cache.hpp"
#include "runtime/telemetry.hpp"

namespace {

namespace hcore = homunculus::core;
namespace hd = homunculus::data;
namespace ht = homunculus::runtime::telemetry;

/** A tiny anomaly-detection compile spec (fast search). */
hcore::ModelSpec
tinyAdSpec()
{
    hcore::ModelSpec spec;
    spec.name = "ad";
    spec.optimizationMetric = hcore::Metric::kF1;
    spec.algorithms = {hcore::Algorithm::kDnn};
    spec.dataLoader = [] {
        hd::AnomalyConfig config;
        config.numSamples = 600;
        return hd::generateAnomalySplit(config);
    };
    return spec;
}

hcore::CompileOptions
tinyCompileOptions()
{
    hcore::CompileOptions options;
    options.bo.numInitSamples = 2;
    options.bo.numIterations = 2;
    return options;
}

/** Disarms the global injector on scope exit — compile-site tests arm
 *  the process-global instance, and leaking an armed site would fail
 *  unrelated tests in the same process. */
struct GlobalDisarm
{
    ~GlobalDisarm() { hf::FaultInjector::global().disarm(); }
};

}  // namespace

TEST(CompileFault, InjectedSearchFaultSurfacesAsAnInternalStatus)
{
    GlobalDisarm guard;
    auto platform = hcore::Platforms::taurus();
    platform.constrain({1.0, 500.0}, {16, 16});
    platform.schedule(tinyAdSpec());

    hcore::Compiler compiler(tinyCompileOptions());
    hcore::CompileSession session = compiler.openSession(platform);
    ASSERT_TRUE(session.loadData().isOk());
    ASSERT_TRUE(session.selectFamilies().isOk());

    const std::uint64_t fired_before =
        ht::MetricRegistry::global()
            .snapshot()
            .counterValue("faults.fired",
                          {{"site", hf::kSiteCompileSearch}});
    hf::FaultInjector::global().arm(hf::kSiteCompileSearch, 1.0);
    hcore::Status status = session.searchFamilies();
    hf::FaultInjector::global().disarm();

    // The session API's contract: stage errors are Status, never a
    // throw escaping the call.
    EXPECT_EQ(status.code(), hcore::StatusCode::kInternal);
    EXPECT_NE(status.message().find(hf::kSiteCompileSearch),
              std::string::npos);
    // And the fire was mirrored into the global telemetry registry.
    EXPECT_EQ(ht::MetricRegistry::global().snapshot().counterValue(
                  "faults.fired", {{"site", hf::kSiteCompileSearch}}),
              fired_before + 1);
}

TEST(CompileFault, DisarmedCompileSearchSiteCompilesClean)
{
    GlobalDisarm guard;
    auto platform = hcore::Platforms::taurus();
    platform.constrain({1.0, 500.0}, {16, 16});
    platform.schedule(tinyAdSpec());

    // Rate 0.0 armed: the site is consulted but never fires — the
    // pipeline must be byte-for-byte a normal compile.
    hf::FaultInjector::global().arm(hf::kSiteCompileSearch, 0.0);
    hcore::Compiler compiler(tinyCompileOptions());
    auto compiled = compiler.compile(platform);
    ASSERT_TRUE(compiled.isOk());
    EXPECT_NE(compiled->find("ad"), nullptr);
    EXPECT_GT(hf::FaultInjector::global().checked(
                  hf::kSiteCompileSearch),
              0u);
}

TEST(CompileFault, QuantizeCacheFaultFoldsIntoTheSearchStatus)
{
    GlobalDisarm guard;
    auto platform = hcore::Platforms::taurus();
    platform.constrain({1.0, 500.0}, {16, 16});
    platform.schedule(tinyAdSpec());

    // cache.quantize throws on the first cache *miss* inside the
    // family-search workers; the worker catches it and the stage folds
    // it into a non-OK Status naming the search failure.
    hf::FaultInjector::global().arm(hf::kSiteCacheQuantize, 1.0);
    hcore::Compiler compiler(tinyCompileOptions());
    hcore::CompileSession session = compiler.openSession(platform);
    ASSERT_TRUE(session.loadData().isOk());
    ASSERT_TRUE(session.selectFamilies().isOk());
    hcore::Status status = session.searchFamilies();
    hf::FaultInjector::global().disarm();

    EXPECT_FALSE(status.isOk());
    EXPECT_NE(status.toString().find("fault-injected"),
              std::string::npos);
}

TEST(CompileFault, QuantCacheHitsNeverConsultTheInjector)
{
    GlobalDisarm guard;
    hm::Matrix x(8, 3);
    for (std::size_t r = 0; r < 8; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            x(r, c) = static_cast<double>(r) + 0.1 * c;
    hr::QuantCache cache(x);
    homunculus::common::FixedPointFormat format(4, 4);

    // Warm the entry while disarmed...
    const auto &first = cache.get(format);
    // ...then arm at rate 1.0: a hit is a memoized read and cannot
    // fail, so the armed site must not fire.
    hf::FaultInjector::global().arm(hf::kSiteCacheQuantize, 1.0);
    const auto &again = cache.get(format);
    EXPECT_EQ(&first, &again);
    // A *miss* under the armed site does fire.
    homunculus::common::FixedPointFormat other(6, 2);
    EXPECT_THROW(cache.get(other), hf::FaultInjectedError);
}
