/**
 * @file
 * Tests for the multi-model serving plane: ModelRegistry versioning
 * and atomic hot swap (pinned epochs keep executing the plan they
 * started with, bit-identically), unload-when-idle / unload-while-
 * pinned safety, Router spec validation, label-driven DAG chaining
 * with per-request traces and the chain-depth cap, and the routed
 * runtime::Server — lane→model attribution in ServerStats and
 * swap-under-load verdict exactness against whichever plan version
 * admitted each batch. The swap/lookup and server handoffs run under
 * TSAN in CI.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "ir/exec_plan.hpp"
#include "math/matrix.hpp"
#include "runtime/model_registry.hpp"
#include "runtime/router.hpp"
#include "runtime/server.hpp"

namespace hc = homunculus::common;
namespace hi = homunculus::ir;
namespace hm = homunculus::math;
namespace hr = homunculus::runtime;

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
    for (std::size_t r = 0; r < x.rows(); ++r) {
        requests[r].id = r + 1;
        requests[r].features = hr::RowView(x.rowPtr(r), x.cols());
    }
    return requests;
}

}  // namespace

// ----------------------------------------------------------- ModelRegistry

TEST(ModelRegistry, LoadAssignsVersionsAndFirstBecomesActive)
{
    hr::ModelRegistry registry;
    EXPECT_FALSE(registry.contains("m"));
    EXPECT_EQ(registry.load("m", mlpModel(1, 4, 3)), 1u);
    EXPECT_EQ(registry.load("m", mlpModel(2, 4, 3)), 2u);
    EXPECT_EQ(registry.load("other", mlpModel(3, 6, 2)), 1u);

    EXPECT_TRUE(registry.contains("m"));
    EXPECT_EQ(registry.activeVersion("m"), 1u);  // later loads stay idle.
    EXPECT_EQ(registry.active("m")->version, 1u);
    EXPECT_EQ(registry.active("m")->inputDim(), 4u);
    EXPECT_EQ(registry.active("m")->numClasses(), 3);
    EXPECT_EQ(registry.versions("m"),
              (std::vector<std::uint64_t>{1, 2}));
    EXPECT_EQ(registry.names(),
              (std::vector<std::string>{"m", "other"}));

    EXPECT_THROW(registry.active("nope"), std::out_of_range);
    EXPECT_THROW(registry.load("", mlpModel(4, 4, 3)),
                 std::runtime_error);
    EXPECT_EQ(registry.version("m", 7), nullptr);
    EXPECT_EQ(registry.version("nope", 1), nullptr);
}

TEST(ModelRegistry, RejectsNonDropInReplacements)
{
    hr::ModelRegistry registry;
    registry.load("m", mlpModel(1, 4, 3));
    // A swap can never hand the router a plan the admitted rows don't
    // fit, so version 2+ must match version 1's schema exactly.
    EXPECT_THROW(registry.load("m", mlpModel(2, 5, 3)),
                 std::runtime_error);  // width differs.
    EXPECT_THROW(registry.load("m", mlpModel(3, 4, 2)),
                 std::runtime_error);  // label space differs.
    EXPECT_EQ(registry.versions("m"),
              (std::vector<std::uint64_t>{1}));
}

TEST(ModelRegistry, SwapFlipsActiveAndValidatesTargets)
{
    hr::ModelRegistry registry;
    registry.load("m", mlpModel(1, 4, 3));
    registry.load("m", mlpModel(2, 4, 3));

    EXPECT_EQ(registry.swap("m", 2), 1u);  // returns the previous.
    EXPECT_EQ(registry.activeVersion("m"), 2u);
    EXPECT_EQ(registry.swap("m", 2), 2u);  // re-swap is a no-op.

    EXPECT_THROW(registry.swap("nope", 1), std::out_of_range);
    EXPECT_THROW(registry.swap("m", 9), std::out_of_range);
    // A failed swap of an unknown name must not create a phantom entry.
    EXPECT_FALSE(registry.contains("nope"));
}

TEST(ModelRegistry, PinnedEpochSurvivesSwapWithBitIdenticalLabels)
{
    hi::ModelIr v1 = mlpModel(10, 5, 3);
    hi::ModelIr v2 = mlpModel(20, 5, 3);
    hr::ModelRegistry registry;
    registry.load("m", v1);
    registry.load("m", v2);
    hm::Matrix x = featureRows(99, 200, 5);

    std::shared_ptr<const hr::ModelEpoch> pinned = registry.active("m");
    registry.swap("m", 2);

    // The pin still executes exactly the v1 plan it started with,
    // while fresh lookups get v2 — there is no in-between state.
    EXPECT_EQ(pinned->version, 1u);
    EXPECT_EQ(pinned->engine.run(x),
              hr::InferenceEngine::fromModel(v1, {}).run(x));
    EXPECT_EQ(registry.active("m")->version, 2u);
    EXPECT_EQ(registry.active("m")->engine.run(x),
              hr::InferenceEngine::fromModel(v2, {}).run(x));
}

TEST(ModelRegistry, UnloadRefusesActiveAndPinsKeepEpochsAlive)
{
    hi::ModelIr v2 = mlpModel(2, 4, 3);
    hr::ModelRegistry registry;
    registry.load("m", mlpModel(1, 4, 3));
    registry.load("m", v2);

    EXPECT_THROW(registry.unload("m", 1), std::invalid_argument);

    // Force-unload the idle v2 while a pin holds it: the table entry
    // disappears immediately, the epoch itself lives on under the pin.
    std::shared_ptr<const hr::ModelEpoch> pinned =
        registry.version("m", 2);
    ASSERT_NE(pinned, nullptr);
    EXPECT_TRUE(registry.unload("m", 2));
    EXPECT_EQ(registry.version("m", 2), nullptr);
    EXPECT_FALSE(registry.unload("m", 2));  // already gone.
    EXPECT_FALSE(registry.unload("nope", 1));

    hm::Matrix x = featureRows(7, 64, 4);
    EXPECT_EQ(pinned->engine.run(x),
              hr::InferenceEngine::fromModel(v2, {}).run(x));
}

TEST(ModelRegistry, UnloadIdleSkipsPinnedVersionsUntilReleased)
{
    hr::ModelRegistry registry;
    registry.load("m", mlpModel(1, 4, 3));
    registry.load("m", mlpModel(2, 4, 3));
    registry.swap("m", 2);

    std::shared_ptr<const hr::ModelEpoch> pinned =
        registry.version("m", 1);
    // v1 is retired but pinned; v2 is active: nothing to collect yet.
    EXPECT_EQ(registry.unloadIdle("m"), 0u);
    EXPECT_NE(registry.version("m", 1), nullptr);

    pinned.reset();
    EXPECT_EQ(registry.unloadIdle("m"), 1u);
    EXPECT_EQ(registry.version("m", 1), nullptr);
    EXPECT_EQ(registry.versions("m"),
              (std::vector<std::uint64_t>{2}));
    EXPECT_EQ(registry.unloadIdle("nope"), 0u);
}

TEST(ModelRegistry, SwapUnderConcurrentLookupsServesOneVersionPerPin)
{
    hi::ModelIr v1 = mlpModel(11, 5, 3);
    hi::ModelIr v2 = mlpModel(22, 5, 3);
    hr::telemetry::MetricRegistry metrics;
    auto registry =
        std::make_shared<hr::ModelRegistry>(hr::EngineOptions{}, &metrics);
    registry->load("m", v1);
    registry->load("m", v2);
    hm::Matrix x = featureRows(5, 64, 5);
    std::vector<int> ref1 = hr::InferenceEngine::fromModel(v1, {}).run(x);
    std::vector<int> ref2 = hr::InferenceEngine::fromModel(v2, {}).run(x);
    ASSERT_NE(ref1, ref2);  // the versions are distinguishable.

    // One thread flips the active version continuously; the consumer
    // pins and executes. Every pinned batch must match the reference
    // of exactly the version it pinned — never a mix, never a torn
    // plan. (This is the handoff TSAN watches.)
    std::atomic<bool> stop{false};
    std::thread swapper([&] {
        std::uint64_t next = 2;
        while (!stop.load()) {
            registry->swap("m", next);
            next = next == 2 ? 1 : 2;
        }
    });
    // At least 300 pinned batches, and keep pinning (bounded by wall
    // clock, yielding) until both versions were observed — on a
    // single-core host the consumer can otherwise outrun the swapper's
    // first scheduling slice entirely.
    std::set<std::uint64_t> seen;
    std::uint64_t pins = 0;
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (int i = 0;
         i < 300 || (seen.size() < 2 &&
                     std::chrono::steady_clock::now() < deadline);
         ++i, ++pins) {
        std::shared_ptr<const hr::ModelEpoch> epoch =
            registry->active("m");
        seen.insert(epoch->version);
        EXPECT_EQ(epoch->engine.run(x),
                  epoch->version == 1 ? ref1 : ref2);
        if (seen.size() < 2)
            std::this_thread::yield();
    }
    stop.store(true);
    swapper.join();
    EXPECT_EQ(seen, (std::set<std::uint64_t>{1, 2}));
    // Every pin counts once, racing swaps or not.
    EXPECT_EQ(metrics.counter("registry.pins", {{"model", "m"}}).value(),
              pins);
}

// ------------------------------------------------------------------ Router

TEST(Router, ValidatesSpecAgainstRegistry)
{
    auto registry = std::make_shared<hr::ModelRegistry>();
    registry->load("a", mlpModel(1, 4, 3));
    registry->load("b", mlpModel(2, 4, 3));
    registry->load("wide", mlpModel(3, 5, 3));

    auto make = [&](hr::RouteConfig config) {
        return hr::Router(registry, std::move(config));
    };
    hr::RouteConfig ok;
    ok.defaultModel = "a";
    ok.laneModels = {"", "b"};
    ok.chain = {{"a", 1, "b"}};
    EXPECT_NO_THROW(make(ok));

    EXPECT_THROW(hr::Router(nullptr, ok), std::runtime_error);
    hr::RouteConfig bad = ok;
    bad.defaultModel = "";
    EXPECT_THROW(make(bad), std::runtime_error);
    bad = ok;
    bad.laneModels = {"a", "nope"};
    EXPECT_THROW(make(bad), std::runtime_error);
    bad = ok;
    bad.laneModels = {"a", "wide"};  // schema mismatch.
    EXPECT_THROW(make(bad), std::runtime_error);
    bad = ok;
    bad.chain = {{"a", 3, "b"}};  // label outside a's 3 classes.
    EXPECT_THROW(make(bad), std::runtime_error);
    bad = ok;
    bad.chain = {{"a", 1, "b"}, {"a", 1, "a"}};  // duplicate rule.
    EXPECT_THROW(make(bad), std::runtime_error);
    bad = ok;
    bad.maxChainDepth = 0;
    EXPECT_THROW(make(bad), std::runtime_error);

    hr::Router router = make(ok);
    EXPECT_EQ(router.inputDim(), 4u);
    EXPECT_EQ(router.models(), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(router.modelForLane(0), "a");   // empty binding.
    EXPECT_EQ(router.modelForLane(1), "b");
    EXPECT_EQ(router.modelForLane(9), "a");   // past the list.
}

TEST(Router, ChainsRowsByLabelWithTracesAgainstAManualReference)
{
    hi::ModelIr front_ir = mlpModel(5, 4, 3);
    hi::ModelIr deep_ir = mlpModel(6, 4, 3);
    auto registry = std::make_shared<hr::ModelRegistry>();
    registry->load("front", front_ir);
    registry->load("deep", deep_ir);

    hm::Matrix x = featureRows(77, 128, 4);
    hr::InferenceEngine front_ref =
        hr::InferenceEngine::fromModel(front_ir, {});
    hr::InferenceEngine deep_ref =
        hr::InferenceEngine::fromModel(deep_ir, {});
    std::vector<int> front_labels = front_ref.run(x);
    // Chain on a label the front model actually emits for these rows.
    int hot = front_labels.front();

    hr::RouteConfig route;
    route.defaultModel = "front";
    route.chain = {{"front", hot, "deep"}};
    hr::Router router(registry, route);

    std::vector<hr::Request> requests = requestsFrom(x);
    std::vector<int> labels;
    std::vector<hr::RouteTrace> traces;
    std::vector<hr::RouteStepStats> steps;
    hr::Router::Scratch scratch;
    hr::Router::Snapshot pinned;
    router.snapshot(pinned);
    router.runBatch(pinned, /*lane=*/0, requests.data(), requests.size(),
                    labels, &traces, steps, scratch);

    ASSERT_EQ(labels.size(), x.rows());
    ASSERT_EQ(traces.size(), x.rows());
    std::size_t chained = 0;
    for (std::size_t r = 0; r < x.rows(); ++r) {
        std::vector<double> row = x.row(r);
        if (front_labels[r] == hot) {
            // front said `hot` -> the deep model owns the verdict.
            ++chained;
            EXPECT_EQ(labels[r],
                      deep_ref.plan().runRow(row.data(), row.size()));
            ASSERT_EQ(traces[r].hops.size(), 2u);
            EXPECT_EQ(traces[r].hops[0].model, "front");
            EXPECT_EQ(traces[r].hops[0].label, hot);
            EXPECT_EQ(traces[r].hops[1].model, "deep");
            EXPECT_EQ(traces[r].hops[1].label, labels[r]);
        } else {
            EXPECT_EQ(labels[r], front_labels[r]);
            ASSERT_EQ(traces[r].hops.size(), 1u);
            EXPECT_EQ(traces[r].hops[0].model, "front");
        }
        for (const hr::RouteHop &hop : traces[r].hops)
            EXPECT_EQ(hop.version, 1u);
    }
    ASSERT_GT(chained, 0u);

    // Step accounting: one front execution over every row, one deep
    // execution over exactly the chained rows.
    ASSERT_EQ(steps.size(), 2u);
    EXPECT_EQ(steps[0].model, 0u);
    EXPECT_EQ(steps[0].rows, x.rows());
    EXPECT_EQ(steps[1].model, 1u);
    EXPECT_EQ(steps[1].rows, chained);
}

TEST(Router, MaxChainDepthBoundsRuleCycles)
{
    hi::ModelIr ir = mlpModel(5, 4, 3);
    auto registry = std::make_shared<hr::ModelRegistry>();
    registry->load("m", ir);
    hm::Matrix x = featureRows(77, 32, 4);
    std::vector<int> ref = hr::InferenceEngine::fromModel(ir, {}).run(x);
    int hot = ref.front();

    // A self-loop rule: without the depth cap a `hot`-labeled row
    // would re-enter the same deterministic model forever.
    hr::RouteConfig route;
    route.defaultModel = "m";
    route.chain = {{"m", hot, "m"}};
    route.maxChainDepth = 3;
    hr::Router router(registry, route);

    std::vector<hr::Request> requests = requestsFrom(x);
    std::vector<int> labels;
    std::vector<hr::RouteTrace> traces;
    std::vector<hr::RouteStepStats> steps;
    hr::Router::Scratch scratch;
    hr::Router::Snapshot pinned;
    router.snapshot(pinned);
    router.runBatch(pinned, 0, requests.data(), requests.size(), labels,
                    &traces, steps, scratch);

    for (std::size_t r = 0; r < x.rows(); ++r) {
        EXPECT_EQ(labels[r], ref[r]);  // re-running can't change it.
        EXPECT_EQ(traces[r].hops.size(),
                  ref[r] == hot ? 3u : 1u);
    }
}

// ----------------------------------------------------- routed Server

TEST(ServerRouting, LaneBindingsAttributePerModelStats)
{
    hi::ModelIr a_ir = mlpModel(31, 4, 3);
    hi::ModelIr b_ir = mlpModel(32, 4, 3);
    auto registry = std::make_shared<hr::ModelRegistry>();
    registry->load("a", a_ir);
    registry->load("b", b_ir);

    hr::RouteConfig route;
    route.defaultModel = "a";
    route.laneModels = {"a", "b"};

    hr::ServerConfig config;
    config.queue.maxBatch = 32;
    config.queue.maxDelayUs = 200;
    config.extraLanes = {config.queue};

    std::mutex verdict_mutex;
    std::map<std::uint64_t, int> verdicts;
    std::map<std::uint64_t, std::size_t> request_lane;
    hr::Server server(registry, route, config,
                      [&](const hr::Request &request, int verdict) {
                          std::lock_guard<std::mutex> lock(verdict_mutex);
                          verdicts[request.id] = verdict;
                          request_lane[request.id] = request.lane;
                      });

    hm::Matrix x0 = featureRows(41, 150, 4);
    hm::Matrix x1 = featureRows(42, 90, 4);
    std::map<std::uint64_t, std::size_t> ticket_row0, ticket_row1;
    for (std::size_t r = 0; r < x0.rows(); ++r)
        ticket_row0[server.submit(x0.row(r), 0).ticket] = r;
    for (std::size_t r = 0; r < x1.rows(); ++r)
        ticket_row1[server.submit(x1.row(r), 1).ticket] = r;
    hr::ServerStats stats = server.stop();

    // Lane→model attribution: every lane-0 row ran (only) model a,
    // every lane-1 row ran model b.
    ASSERT_EQ(stats.models.size(), 2u);
    EXPECT_EQ(stats.models[0].name, "a");
    EXPECT_EQ(stats.models[0].rowsServed, x0.rows());
    EXPECT_EQ(stats.models[0].activeVersion, 1u);
    EXPECT_GT(stats.models[0].batches, 0u);
    EXPECT_EQ(stats.models[1].name, "b");
    EXPECT_EQ(stats.models[1].rowsServed, x1.rows());
    ASSERT_EQ(stats.lanes.size(), 2u);
    EXPECT_EQ(stats.lanes[0].rowsServed, x0.rows());
    EXPECT_EQ(stats.lanes[1].rowsServed, x1.rows());

    // And the verdicts are each lane's own model, bit-identical to a
    // single-threaded run.
    std::vector<int> ref0 = hr::InferenceEngine::fromModel(a_ir, {}).run(x0);
    std::vector<int> ref1 = hr::InferenceEngine::fromModel(b_ir, {}).run(x1);
    ASSERT_EQ(verdicts.size(), x0.rows() + x1.rows());
    for (const auto &[ticket, row] : ticket_row0) {
        EXPECT_EQ(verdicts.at(ticket), ref0[row]);
        EXPECT_EQ(request_lane.at(ticket), 0u);
    }
    for (const auto &[ticket, row] : ticket_row1)
        EXPECT_EQ(verdicts.at(ticket), ref1[row]);
}

TEST(ServerRouting, HotSwapUnderLoadKeepsEveryBatchOnItsPinnedVersion)
{
    hi::ModelIr front_v1 = mlpModel(51, 4, 3);
    hi::ModelIr front_v2 = mlpModel(52, 4, 3);
    hi::ModelIr deep_ir = mlpModel(53, 4, 3);
    auto registry = std::make_shared<hr::ModelRegistry>();
    registry->load("front", front_v1);
    registry->load("front", front_v2);
    registry->load("deep", deep_ir);

    hr::RouteConfig route;
    route.defaultModel = "front";
    route.chain = {{"front", 1, "deep"}};

    hr::ServerConfig config;
    config.queue.maxBatch = 64;
    config.queue.maxDelayUs = 200;

    // Capture the raw features and full route trace of every request;
    // the verdict exactness check replays each hop single-threaded
    // through the exact plan version the trace says executed it.
    struct Observed
    {
        std::vector<double> features;
        hr::RouteTrace trace;
    };
    std::mutex trace_mutex;
    std::vector<Observed> observed;
    hr::Server server(
        registry, route, config, {},
        [&](const hr::Request &request, const hr::RouteTrace &trace) {
            std::lock_guard<std::mutex> lock(trace_mutex);
            observed.push_back({std::vector<double>(
                                    request.features.begin(),
                                    request.features.end()),
                                trace});
        });

    hm::Matrix x = featureRows(404, 2000, 4);
    for (std::size_t r = 0; r < 1000; ++r)
        server.submit(x.row(r));
    // Let the batcher drain pre-swap rows onto v1-pinned batches, then
    // flip mid-run: later batches pin v2, in-flight ones finish on v1.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    registry->swap("front", 2);
    for (std::size_t r = 1000; r < x.rows(); ++r)
        server.submit(x.row(r));
    hr::ServerStats stats = server.stop();
    EXPECT_EQ(stats.rowsServed, x.rows());

    std::set<std::uint64_t> front_versions;
    std::lock_guard<std::mutex> lock(trace_mutex);
    ASSERT_EQ(observed.size(), x.rows());
    for (const Observed &entry : observed) {
        ASSERT_FALSE(entry.trace.hops.empty());
        for (const hr::RouteHop &hop : entry.trace.hops) {
            if (hop.model == "front")
                front_versions.insert(hop.version);
            std::shared_ptr<const hr::ModelEpoch> epoch =
                registry->version(hop.model, hop.version);
            ASSERT_NE(epoch, nullptr);
            EXPECT_EQ(hop.label,
                      epoch->engine.plan().runRow(
                          entry.features.data(), entry.features.size()));
        }
    }
    // The swap actually landed mid-run: batches executed both front
    // versions, each bit-identically to its own pinned plan.
    EXPECT_EQ(front_versions, (std::set<std::uint64_t>{1, 2}));
}
