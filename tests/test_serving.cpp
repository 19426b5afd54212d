/**
 * @file
 * Tests for the async serving front-end: RequestQueue size/deadline
 * flush and bounded-depth shedding, priority lanes (strict priority
 * among ready lanes, cross-lane deadline ordering, no starvation of
 * drained lanes), the three backpressure modes (shed /
 * block-with-timeout / early-drop), the maxDelayUs overflow clamp,
 * drain-on-close semantics, and runtime::Server end-to-end verdict
 * correctness (batching never changes labels — verdicts are
 * bit-identical to one plan run over the same rows) including per-lane
 * statistics and typed submit results. The scale-out section pins the
 * lock-free admission door: exact shed-vs-admit accounting under
 * multi-producer contention, FIFO arrival-order grants for blocked
 * producers, and opt-in fairness aging (off by default) that lets a
 * starving bulk lane preempt strict priority. The producer/batcher
 * handoffs run under TSAN in CI.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "ir/exec_plan.hpp"
#include "net/feature_extract.hpp"
#include "net/packet.hpp"
#include "runtime/request_queue.hpp"
#include "runtime/server.hpp"

namespace hc = homunculus::common;
namespace hi = homunculus::ir;
namespace hm = homunculus::math;
namespace hn = homunculus::net;
namespace hr = homunculus::runtime;
namespace ml = homunculus::ml;

namespace {

using Clock = std::chrono::steady_clock;

/** Push ticket @p id into @p lane with a row of queue.width() copies
 *  of the id. */
hr::Admission
pushRow(hr::RequestQueue &queue, std::uint64_t id, std::size_t lane = 0)
{
    std::vector<double> row(queue.width(), static_cast<double>(id));
    return queue.push(id, row.data(), lane);
}

/** A small MLP consuming the packet extractor's schema. */
hi::ModelIr
tcModel(std::uint64_t seed)
{
    hc::Rng rng(seed);
    hi::ModelIr model;
    model.kind = hi::ModelKind::kMlp;
    model.inputDim = hn::kNumTcFeatures;
    model.numClasses = 4;
    std::size_t prev = model.inputDim;
    for (std::size_t width : {std::size_t{10}, std::size_t{4}}) {
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

}  // namespace

// ----------------------------------------------------------- RequestQueue

TEST(RequestQueue, SizeFlushPreservesArrivalOrder)
{
    hr::QueuePolicy policy;
    policy.maxBatch = 8;
    policy.maxDelayUs = 60'000'000;  // deadline can't fire in this test.
    hr::RequestQueue queue(policy, 2);

    for (std::uint64_t i = 0; i < 20; ++i)
        EXPECT_EQ(pushRow(queue, i), hr::Admission::kAdmitted);

    hr::RequestBatch first;
    ASSERT_TRUE(queue.pop(first));
    EXPECT_EQ(first.reason, hr::FlushReason::kSize);
    ASSERT_EQ(first.requests.size(), 8u);
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(first.requests[i].id, i);

    hr::RequestBatch second;
    ASSERT_TRUE(queue.pop(second));
    EXPECT_EQ(second.requests.front().id, 8u);
    EXPECT_EQ(queue.depth(), 4u);  // 4 rows below the size trigger left.
    EXPECT_EQ(queue.counters().sizeFlushes, 2u);
}

TEST(RequestQueue, DeadlineFlushReleasesPartialBatch)
{
    hr::QueuePolicy policy;
    policy.maxBatch = 1024;      // size trigger unreachable here.
    policy.maxDelayUs = 20'000;  // 20 ms — CI-proof margin.
    hr::RequestQueue queue(policy, 2);

    auto started = Clock::now();
    for (std::uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(pushRow(queue, i), hr::Admission::kAdmitted);
    hr::RequestBatch batch;
    const bool popped = queue.pop(batch);
    double waited_us = std::chrono::duration<double, std::micro>(
                           Clock::now() - started)
                           .count();

    ASSERT_TRUE(popped);
    EXPECT_EQ(batch.reason, hr::FlushReason::kDeadline);
    EXPECT_EQ(batch.requests.size(), 5u);
    // The flush must wait roughly maxDelay: not (much) less, and the
    // upper bound is loose only to survive loaded CI machines.
    EXPECT_GE(waited_us, 15'000.0);
    EXPECT_LT(waited_us, 2'000'000.0);
    EXPECT_EQ(queue.counters().deadlineFlushes, 1u);
}

TEST(RequestQueue, AdmissionControlShedsBeyondDepth)
{
    hr::QueuePolicy policy;
    policy.maxBatch = 64;        // > depth: no size flush interferes.
    policy.maxDelayUs = 60'000'000;
    policy.maxDepth = 10;
    hr::RequestQueue queue(policy, 2);

    std::size_t admitted = 0, shed = 0;
    for (std::uint64_t i = 0; i < 25; ++i)
        hr::admitted(pushRow(queue, i)) ? ++admitted : ++shed;
    EXPECT_EQ(admitted, 10u);
    EXPECT_EQ(shed, 15u);
    EXPECT_EQ(queue.depth(), 10u);
    EXPECT_EQ(queue.counters().accepted, 10u);
    EXPECT_EQ(queue.counters().shed, 15u);

    // Draining reopens admission for new arrivals.
    queue.close();
    hr::RequestBatch drained;
    ASSERT_TRUE(queue.pop(drained));
    EXPECT_EQ(drained.requests.size(), 10u);
}

TEST(RequestQueue, CloseDrainsEverythingThenReportsExhaustion)
{
    hr::QueuePolicy policy;
    policy.maxBatch = 4;
    policy.maxDelayUs = 60'000'000;
    hr::RequestQueue queue(policy, 2);
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(pushRow(queue, i), hr::Admission::kAdmitted);
    queue.close();
    EXPECT_EQ(pushRow(queue, 99),
              hr::Admission::kRejectedClosed);  // closed door.

    // 10 rows at maxBatch 4: two full batches + a 2-row drain tail.
    std::size_t rows = 0;
    std::size_t batches = 0;
    hr::RequestBatch batch;
    while (queue.pop(batch)) {
        rows += batch.requests.size();
        ++batches;
        if (batch.requests.size() < 4)
            EXPECT_EQ(batch.reason, hr::FlushReason::kDrain);
    }
    EXPECT_EQ(rows, 10u);
    EXPECT_EQ(batches, 3u);
    EXPECT_EQ(queue.counters().rejectedClosed, 1u);
    EXPECT_FALSE(queue.pop(batch));  // stays exhausted.
}

TEST(RequestQueue, ConsumerBlockedOnEmptyQueueWakesOnPushAndClose)
{
    hr::QueuePolicy policy;
    policy.maxBatch = 2;
    policy.maxDelayUs = 60'000'000;
    hr::RequestQueue queue(policy, 2);

    std::thread producer([&queue] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        pushRow(queue, 1);
        pushRow(queue, 2);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        queue.close();
    });
    hr::RequestBatch batch;
    ASSERT_TRUE(queue.pop(batch));          // blocks until the size flush.
    EXPECT_EQ(batch.requests.size(), 2u);
    EXPECT_FALSE(queue.pop(batch));  // wakes on close.
    producer.join();
}

TEST(RequestQueue, LoneRowDeadlineFlushNeverBeatsMaxDelay)
{
    // The batcher polls the rings for a short while before it parks;
    // that spin must never run past a staged deadline nor flush before
    // it. Deadlines on both sides of the spin budget, with the row
    // staged before pop() and pushed while the consumer waits.
    for (std::uint64_t max_delay_us : {20ull, 5'000ull}) {
        hr::QueuePolicy policy;
        policy.maxBatch = 1024;
        policy.maxDelayUs = max_delay_us;
        hr::RequestQueue queue(policy, 2);
        int rounds = max_delay_us < 1000 ? 40 : 4;
        for (int round = 0; round < rounds; ++round) {
            std::thread producer;
            if (round % 2 == 0) {
                pushRow(queue, static_cast<std::uint64_t>(round));
            } else {
                producer = std::thread([&queue, round] {
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(10 * round));
                    pushRow(queue, static_cast<std::uint64_t>(round));
                });
            }
            hr::RequestBatch batch;
            const bool got = queue.pop(batch);
            auto popped = Clock::now();
            if (producer.joinable())
                producer.join();
            ASSERT_TRUE(got);
            ASSERT_EQ(batch.requests.size(), 1u);
            EXPECT_EQ(batch.reason, hr::FlushReason::kDeadline);
            auto waited = popped - batch.requests[0].enqueuedAt;
            EXPECT_GE(waited, std::chrono::microseconds(max_delay_us))
                << "maxDelayUs " << max_delay_us << ", round " << round;
            EXPECT_LT(waited, std::chrono::seconds(2));
        }
        EXPECT_EQ(queue.counters().deadlineFlushes,
                  static_cast<std::uint64_t>(rounds));
    }
}

TEST(RequestQueue, CloseWhileConsumerWaitsOnEmptyQueueReturnsPromptly)
{
    // close() lands at offsets inside and past the consumer's spin
    // window; pop() must see it either way and report exhaustion.
    for (int round = 0; round < 40; ++round) {
        hr::RequestQueue queue(hr::QueuePolicy{});
        std::atomic<bool> waiting{false};
        hr::RequestBatch batch;
        bool popped = true;
        Clock::time_point returned;
        std::thread consumer([&] {
            waiting.store(true);
            popped = queue.pop(batch);
            returned = Clock::now();
        });
        while (!waiting.load())
            std::this_thread::yield();
        auto close_at = Clock::now() + std::chrono::microseconds(5 * round);
        while (Clock::now() < close_at) {
        }
        auto closed = Clock::now();
        queue.close();
        consumer.join();
        EXPECT_FALSE(popped);
        EXPECT_LT(returned - closed, std::chrono::milliseconds(500))
            << "round " << round;
    }
}

TEST(RequestQueue, IdleConsumerParksAfterABoundedSpin)
{
    // The pre-park spin is bounded: a consumer waiting 200 ms on an
    // empty queue must spend almost none of it on a CPU.
    hr::QueuePolicy policy;
    policy.maxBatch = 2;
    policy.maxDelayUs = 60'000'000;
    hr::RequestQueue queue(policy, 2);
    auto thread_cpu = [] {
        timespec ts{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return std::chrono::seconds(ts.tv_sec) +
               std::chrono::nanoseconds(ts.tv_nsec);
    };
    std::chrono::nanoseconds cpu_used{0};
    std::thread consumer([&] {
        auto before = thread_cpu();
        hr::RequestBatch batch;
        const bool popped = queue.pop(batch);
        cpu_used = thread_cpu() - before;
        EXPECT_TRUE(popped);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    pushRow(queue, 1);
    pushRow(queue, 2);
    consumer.join();
    double cpu_ms =
        std::chrono::duration<double, std::milli>(cpu_used).count();
    EXPECT_LT(cpu_ms, 50.0);
}

// ----------------------------------------------------------------- Server

TEST(Server, VerdictsBitIdenticalToOnePlanRun)
{
    auto model = tcModel(17);
    hc::Rng rng(23);
    constexpr std::size_t kRows = 3000;
    hm::Matrix features(kRows, model.inputDim);
    for (double &v : features.data())
        v = rng.uniform(-4.0, 4.0);

    std::mutex verdict_mutex;
    std::map<std::uint64_t, int> verdicts;
    hr::ServerConfig config;
    config.queue.maxBatch = 256;
    config.queue.maxDelayUs = 500;
    config.queue.maxDepth = 0;  // unbounded: no shedding in this test.
    hr::EngineOptions engine_options;
    engine_options.jobs = 2;
    engine_options.minRowsToShard = 1;
    hr::Server server(
        hr::InferenceEngine::fromModel(model, engine_options), config,
        [&](const hr::Request &request, int verdict) {
            std::lock_guard<std::mutex> lock(verdict_mutex);
            verdicts[request.id] = verdict;
        });

    std::vector<std::uint64_t> tickets(kRows);
    for (std::size_t r = 0; r < kRows; ++r) {
        hr::SubmitResult result = server.submit(features.row(r));
        ASSERT_TRUE(result.admitted());
        tickets[r] = result.ticket;
    }
    hr::ServerStats stats = server.stop();

    EXPECT_EQ(stats.rowsServed, kRows);
    EXPECT_EQ(stats.queue.accepted, kRows);
    EXPECT_EQ(stats.queue.shed, 0u);
    EXPECT_GT(stats.batches, 0u);
    EXPECT_GE(stats.p99RequestLatencyUs, stats.p50RequestLatencyUs);

    auto reference = hi::ExecutablePlan::compile(model).run(features);
    ASSERT_EQ(verdicts.size(), kRows);
    for (std::size_t r = 0; r < kRows; ++r)
        EXPECT_EQ(verdicts.at(tickets[r]), reference[r]) << "row " << r;
}

TEST(Server, ReplayConfigFlushesBySizeAndKeepsSubmissionOrder)
{
    // homc --replay's configuration: one lane that flushes only at
    // maxBatch rows or at the end-of-trace drain, unbounded admission.
    // 997 frames at 256 rows: 3 size flushes + a 229-row drain.
    auto model = tcModel(83);
    hn::IotPacketConfig packet_config;
    packet_config.numPackets = 997;
    packet_config.seed = 5;
    std::vector<hn::LabeledPacket> packets =
        hn::generateIotPackets(packet_config);

    std::mutex verdict_mutex;
    std::vector<std::uint64_t> delivered;
    std::vector<int> verdicts;
    hr::ServerConfig config;
    config.queue.maxBatch = 256;
    config.queue.maxDelayUs = hr::kMaxQueueDelayUs;
    config.queue.maxDepth = 0;
    hr::EngineOptions engine_options;
    engine_options.jobs = 2;
    engine_options.minRowsToShard = 1;
    hr::Server server(
        hr::InferenceEngine::fromModel(model, engine_options), config,
        [&](const hr::Request &request, int verdict) {
            std::lock_guard<std::mutex> lock(verdict_mutex);
            delivered.push_back(request.id);
            verdicts.push_back(verdict);
        });

    std::vector<std::uint64_t> tickets;
    for (const auto &labeled : packets) {
        hr::SubmitResult result =
            server.submitFrame(hn::serialize(labeled.packet));
        ASSERT_TRUE(result.admitted());
        tickets.push_back(result.ticket);
    }
    hr::ServerStats stats = server.stop();

    EXPECT_EQ(stats.queue.sizeFlushes, 3u);
    EXPECT_EQ(stats.queue.deadlineFlushes, 0u);
    EXPECT_EQ(stats.queue.drainFlushes, 1u);
    EXPECT_EQ(stats.batches, 4u);
    EXPECT_EQ(delivered, tickets);

    // Verdicts match one plan run over the whole extracted matrix.
    hn::FeatureExtractor extractor;
    hm::Matrix features(packets.size(), hn::kNumTcFeatures);
    for (std::size_t r = 0; r < packets.size(); ++r) {
        auto row = extractor.extract(packets[r].packet);
        for (std::size_t c = 0; c < row.size(); ++c)
            features(r, c) = row[c];
    }
    EXPECT_EQ(verdicts, hi::ExecutablePlan::compile(model).run(features));
}

TEST(Server, AppliesStoredScalerLikeTheTrainingTransform)
{
    auto model = tcModel(31);
    model.scalerMeans.assign(model.inputDim, 2.0);
    model.scalerStds.assign(model.inputDim, 0.5);
    model.validate();

    hc::Rng rng(37);
    constexpr std::size_t kRows = 200;
    hm::Matrix raw(kRows, model.inputDim);
    for (double &v : raw.data())
        v = rng.uniform(-3.0, 3.0);

    std::mutex verdict_mutex;
    std::map<std::uint64_t, int> verdicts;
    hr::ServerConfig config;
    config.queue.maxBatch = 64;
    config.queue.maxDepth = 0;
    hr::Server server(
        hr::InferenceEngine::fromModel(model, {}), config,
        [&](const hr::Request &request, int verdict) {
            std::lock_guard<std::mutex> lock(verdict_mutex);
            verdicts[request.id] = verdict;
        },
        ml::StandardScaler::fromMoments(model.scalerMeans,
                                        model.scalerStds));

    std::vector<std::uint64_t> tickets(kRows);
    for (std::size_t r = 0; r < kRows; ++r)
        tickets[r] = server.submit(raw.row(r)).ticket;
    server.stop();

    // Reference: scale manually, then run the plan once.
    hm::Matrix scaled = raw;
    for (std::size_t r = 0; r < kRows; ++r)
        for (std::size_t c = 0; c < scaled.cols(); ++c)
            scaled(r, c) = (scaled(r, c) - 2.0) / 0.5;
    auto reference = hi::ExecutablePlan::compile(model).run(scaled);
    for (std::size_t r = 0; r < kRows; ++r)
        EXPECT_EQ(verdicts.at(tickets[r]), reference[r]);
}

TEST(Server, ShedsWhenDepthExceededAndCountsIt)
{
    auto model = tcModel(41);
    hr::ServerConfig config;
    // maxBatch above maxDepth and a long deadline: the batcher cannot
    // flush before the burst fills the bounded queue, so the overflow
    // deterministically sheds.
    config.queue.maxBatch = 4096;
    config.queue.maxDelayUs = 200'000;
    config.queue.maxDepth = 32;
    hr::Server server(hr::InferenceEngine::fromModel(model, {}), config);

    std::size_t admitted = 0, shed = 0;
    std::vector<double> row(model.inputDim, 1.0);
    for (int i = 0; i < 100; ++i)
        server.submit(row).admitted() ? ++admitted : ++shed;
    hr::ServerStats stats = server.stop();

    EXPECT_EQ(admitted, 32u);
    EXPECT_EQ(shed, 68u);
    EXPECT_EQ(stats.queue.shed, 68u);
    EXPECT_EQ(stats.rowsServed, 32u);  // admitted rows all drain.
}

TEST(Server, WireFramesServeAndMalformedFramesDrop)
{
    auto model = tcModel(43);
    hn::IotPacketConfig packet_config;
    packet_config.numPackets = 300;
    packet_config.seed = 7;

    std::mutex verdict_mutex;
    std::size_t delivered = 0;
    hr::ServerConfig config;
    config.queue.maxBatch = 128;
    config.queue.maxDepth = 0;
    hr::Server server(
        hr::InferenceEngine::fromModel(model, {}), config,
        [&](const hr::Request &, int) {
            std::lock_guard<std::mutex> lock(verdict_mutex);
            ++delivered;
        });

    std::vector<hn::LabeledPacket> packets =
        hn::generateIotPackets(packet_config);
    for (const auto &labeled : packets)
        EXPECT_TRUE(
            server.submitFrame(hn::serialize(labeled.packet)).admitted());
    EXPECT_EQ(server.submitFrame({0xde, 0xad}).status,
              hr::SubmitStatus::kMalformed);
    // A frame shorter than its IPv4 totalLength was cut off in transit;
    // it is malformed, not a packet with a shorter payload.
    std::vector<std::uint8_t> cut = hn::serialize(packets[0].packet);
    cut.pop_back();
    EXPECT_EQ(server.submitFrame(cut).status, hr::SubmitStatus::kMalformed);

    hr::ServerStats stats = server.stop();
    EXPECT_EQ(stats.rowsServed, 300u);
    EXPECT_EQ(stats.malformedFrames, 2u);
    EXPECT_EQ(delivered, 300u);
}

TEST(Server, RejectsUnfittedOrMismatchedScalerAndBadRowWidth)
{
    auto model = tcModel(47);
    EXPECT_THROW(hr::Server(hr::InferenceEngine::fromModel(model, {}),
                            {}, {}, ml::StandardScaler()),
                 std::runtime_error);

    hr::Server server(hr::InferenceEngine::fromModel(model, {}), {});
    EXPECT_THROW(server.submit(std::vector<double>(3, 0.0)),
                 std::runtime_error);
    server.stop();
}

TEST(Server, SingleModelFormIsAOneModelRoute)
{
    // Server(engine, scaler) is shorthand for a one-model registry
    // behind the default route: the same rows get the same verdicts,
    // and both forms report that one model's slice.
    auto model = tcModel(59);
    model.scalerMeans.assign(model.inputDim, 1.5);
    model.scalerStds.assign(model.inputDim, 0.75);
    model.validate();
    hc::Rng rng(61);
    hm::Matrix raw(500, model.inputDim);
    for (double &v : raw.data())
        v = rng.uniform(-4.0, 4.0);
    hr::ServerConfig config;
    config.queue.maxBatch = 64;
    config.queue.maxDepth = 0;

    auto verdicts_of = [&](auto make_server) {
        std::mutex mutex;
        std::map<std::uint64_t, int> by_ticket;
        std::unique_ptr<hr::Server> server =
            make_server([&](const hr::Request &request, int verdict) {
                std::lock_guard<std::mutex> lock(mutex);
                by_ticket[request.id] = verdict;
            });
        std::vector<std::uint64_t> tickets;
        for (std::size_t r = 0; r < raw.rows(); ++r)
            tickets.push_back(server->submit(raw.row(r)).ticket);
        hr::ServerStats stats = server->stop();
        EXPECT_EQ(stats.rowsServed, raw.rows());
        EXPECT_EQ(stats.models.size(), 1u);
        for (const hr::ModelStats &model_stats : stats.models)
            EXPECT_EQ(model_stats.rowsServed, stats.rowsServed);
        std::vector<int> verdicts;
        for (std::uint64_t ticket : tickets)
            verdicts.push_back(by_ticket.at(ticket));
        return verdicts;
    };
    auto registry = std::make_shared<hr::ModelRegistry>();
    registry->load("m", model);
    hr::RouteConfig route;
    route.defaultModel = "m";
    EXPECT_EQ(verdicts_of([&](hr::Server::VerdictFn sink) {
                  return std::make_unique<hr::Server>(
                      hr::InferenceEngine::fromModel(model, {}), config,
                      sink,
                      ml::StandardScaler::fromMoments(model.scalerMeans,
                                                      model.scalerStds));
              }),
              verdicts_of([&](hr::Server::VerdictFn sink) {
                  return std::make_unique<hr::Server>(registry, route,
                                                      config, sink);
              }));
}

// ------------------------------------------------- lanes + backpressure

TEST(RequestQueue, MaxDelayClampPreventsDeadlineOverflow)
{
    // Regression: enqueuedAt + microseconds(maxDelayUs) used to wrap
    // for huge values, turning the deadline negative and flushing
    // every row immediately. The policy now clamps at construction.
    hr::QueuePolicy policy;
    policy.maxBatch = 1024;
    policy.maxDelayUs = std::numeric_limits<std::uint64_t>::max();
    hr::RequestQueue queue(policy, 2);
    EXPECT_EQ(queue.policy().maxDelayUs, hr::kMaxQueueDelayUs);

    // Behavioral half: with two rows pending and a (clamped) one-hour
    // deadline, pop() must still be waiting when close() arrives —
    // an overflowed deadline would release a kDeadline batch at once.
    EXPECT_EQ(pushRow(queue, 1), hr::Admission::kAdmitted);
    EXPECT_EQ(pushRow(queue, 2), hr::Admission::kAdmitted);
    auto started = Clock::now();
    std::thread closer([&queue] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        queue.close();
    });
    hr::RequestBatch batch;
    const bool popped = queue.pop(batch);
    double waited_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - started)
            .count();
    closer.join();
    ASSERT_TRUE(popped);
    EXPECT_EQ(batch.reason, hr::FlushReason::kDrain);
    EXPECT_EQ(batch.requests.size(), 2u);
    EXPECT_GE(waited_ms, 20.0);
}

TEST(RequestQueue, StrictPriorityAmongReadyLanes)
{
    hr::QueueConfig config;
    hr::QueuePolicy probe;
    probe.maxBatch = 4;
    probe.maxDelayUs = 60'000'000;
    hr::QueuePolicy bulk = probe;
    config.lanes = {probe, bulk};
    hr::RequestQueue queue(config, 2);

    // Bulk becomes size-ready first, then probe: the probe batch must
    // still come out before any bulk batch.
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(pushRow(queue, 100 + i, 1),
                  hr::Admission::kAdmitted);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(pushRow(queue, i, 0),
                  hr::Admission::kAdmitted);

    hr::RequestBatch first;
    ASSERT_TRUE(queue.pop(first));
    EXPECT_EQ(first.lane, 0u);
    EXPECT_EQ(first.reason, hr::FlushReason::kSize);
    EXPECT_EQ(first.requests.front().id, 0u);
    EXPECT_EQ(first.requests.front().lane, 0u);

    hr::RequestBatch second;
    ASSERT_TRUE(queue.pop(second));
    EXPECT_EQ(second.lane, 1u);
    EXPECT_EQ(second.requests.front().id, 100u);
    EXPECT_EQ(queue.depth(0), 0u);
    EXPECT_EQ(queue.depth(1), 4u);
    EXPECT_EQ(queue.counters(0).sizeFlushes, 1u);
    EXPECT_EQ(queue.counters(1).sizeFlushes, 1u);
}

TEST(RequestQueue, IdleHighPriorityLaneDoesNotStarveLowerLanes)
{
    hr::QueueConfig config;
    hr::QueuePolicy lane;
    lane.maxBatch = 2;
    lane.maxDelayUs = 60'000'000;
    config.lanes = {lane, lane, lane};
    hr::RequestQueue queue(config, 2);

    EXPECT_EQ(pushRow(queue, 7, 2), hr::Admission::kAdmitted);
    EXPECT_EQ(pushRow(queue, 8, 2), hr::Admission::kAdmitted);
    hr::RequestBatch batch;
    ASSERT_TRUE(queue.pop(batch));
    EXPECT_EQ(batch.lane, 2u);
    EXPECT_EQ(batch.requests.size(), 2u);
}

TEST(RequestQueue, EarliestDeadlineAcrossLanesWinsWhenNoneSizeReady)
{
    // Lane 0 has the longer delay budget: a waiting consumer must wake
    // for lane 1's earlier deadline even though lane 0 outranks it.
    hr::QueueConfig config;
    hr::QueuePolicy slow;
    slow.maxBatch = 1024;
    slow.maxDelayUs = 60'000'000;  // lane 0: ~never.
    hr::QueuePolicy fast = slow;
    fast.maxDelayUs = 20'000;      // lane 1: 20 ms.
    config.lanes = {slow, fast};
    hr::RequestQueue queue(config, 2);

    EXPECT_EQ(pushRow(queue, 1, 0), hr::Admission::kAdmitted);
    EXPECT_EQ(pushRow(queue, 2, 1), hr::Admission::kAdmitted);

    hr::RequestBatch batch;
    ASSERT_TRUE(queue.pop(batch));
    EXPECT_EQ(batch.lane, 1u);
    EXPECT_EQ(batch.reason, hr::FlushReason::kDeadline);
    EXPECT_EQ(batch.requests.front().id, 2u);
    EXPECT_EQ(queue.depth(0), 1u);
}

TEST(RequestQueue, DrainReleasesHighestPriorityLaneFirst)
{
    hr::QueueConfig config;
    hr::QueuePolicy lane;
    lane.maxBatch = 1024;
    lane.maxDelayUs = 60'000'000;
    config.lanes = {lane, lane};
    hr::RequestQueue queue(config, 2);
    EXPECT_EQ(pushRow(queue, 2, 1), hr::Admission::kAdmitted);
    EXPECT_EQ(pushRow(queue, 1, 0), hr::Admission::kAdmitted);
    queue.close();

    hr::RequestBatch first;
    hr::RequestBatch second;
    ASSERT_TRUE(queue.pop(first));
    ASSERT_TRUE(queue.pop(second));
    EXPECT_EQ(first.lane, 0u);
    EXPECT_EQ(second.lane, 1u);
    EXPECT_EQ(first.reason, hr::FlushReason::kDrain);
    EXPECT_FALSE(queue.pop(first));
}

TEST(RequestQueue, EarlyDropShedsRowsPastTheirBudgetDeterministically)
{
    hr::QueueConfig config;
    hr::QueuePolicy lane;
    lane.maxBatch = 1024;
    lane.maxDelayUs = 60'000'000;  // no deadline flush in this test.
    lane.dropAfterUs = 1000;       // 1 ms budget, exceeded by sleeping.
    config.lanes = {lane};
    config.backpressure = hr::BackpressureMode::kEarlyDrop;
    hr::RequestQueue queue(config, 2);

    for (std::uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(pushRow(queue, i), hr::Admission::kAdmitted);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.close();
    // Every admitted row is now ~20 ms past a 1 ms budget: the drain
    // flush drops them all and pop() reports clean exhaustion instead
    // of serving hopelessly late rows.
    hr::RequestBatch batch;
    EXPECT_FALSE(queue.pop(batch));
    EXPECT_EQ(queue.counters().earlyDropped, 5u);
    EXPECT_EQ(queue.counters().drainFlushes, 0u);
    EXPECT_EQ(queue.depth(), 0u);
}

TEST(RequestQueue, EarlyDropServesFreshRowsUntouched)
{
    hr::QueueConfig config;
    hr::QueuePolicy lane;
    lane.maxBatch = 1024;
    lane.maxDelayUs = 10'000;       // 10 ms deadline flush...
    lane.dropAfterUs = 60'000'000;  // ...far inside a huge drop budget.
    config.lanes = {lane};
    config.backpressure = hr::BackpressureMode::kEarlyDrop;
    hr::RequestQueue queue(config, 2);

    for (std::uint64_t i = 0; i < 3; ++i)
        EXPECT_EQ(pushRow(queue, i), hr::Admission::kAdmitted);
    hr::RequestBatch batch;
    ASSERT_TRUE(queue.pop(batch));
    EXPECT_EQ(batch.reason, hr::FlushReason::kDeadline);
    EXPECT_EQ(batch.requests.size(), 3u);
    EXPECT_EQ(queue.counters().earlyDropped, 0u);
}

TEST(RequestQueue, DefaultDropBudgetIsTwiceMaxDelayWithAFloor)
{
    hr::QueuePolicy lane;
    lane.maxDelayUs = 750;
    EXPECT_EQ(lane.effectiveDropAfterUs(), 1500u);
    lane.dropAfterUs = 9000;
    EXPECT_EQ(lane.effectiveDropAfterUs(), 9000u);

    // maxDelayUs 0 ("flush immediately") must not double into a zero
    // drop budget — that would early-drop every admitted row.
    hr::QueuePolicy immediate;
    immediate.maxDelayUs = 0;
    EXPECT_EQ(immediate.effectiveDropAfterUs(), hr::kMinDropBudgetUs);
    immediate.dropAfterUs = 200;  // explicit sub-floor values too.
    EXPECT_EQ(immediate.effectiveDropAfterUs(), hr::kMinDropBudgetUs);
}

TEST(RequestQueue, BlockWithTimeoutUnblocksWhenAFlushFreesSpace)
{
    hr::QueueConfig config;
    hr::QueuePolicy lane;
    lane.maxBatch = 4;
    lane.maxDelayUs = 60'000'000;
    lane.maxDepth = 4;
    config.lanes = {lane};
    config.backpressure = hr::BackpressureMode::kBlockWithTimeout;
    config.blockTimeoutUs = 60'000'000;  // practically forever.
    hr::RequestQueue queue(config, 2);

    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(pushRow(queue, i), hr::Admission::kAdmitted);

    hr::Admission fifth = hr::Admission::kShed;
    std::thread producer([&] {
        fifth = pushRow(queue, 99);  // blocks: lane full.
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(queue.depth(), 4u);  // still blocked, nothing admitted.

    hr::RequestBatch batch;
    const bool popped = queue.pop(batch);  // size flush frees the lane...
    producer.join();                       // ...which unblocks the producer.
    ASSERT_TRUE(popped);
    EXPECT_EQ(batch.requests.size(), 4u);
    EXPECT_EQ(fifth, hr::Admission::kAdmitted);
    EXPECT_EQ(queue.depth(), 1u);
    EXPECT_EQ(queue.counters().accepted, 5u);
    EXPECT_EQ(queue.counters().blockTimeouts, 0u);
    queue.close();
}

TEST(RequestQueue, BlockWithTimeoutGivesUpAndCountsIt)
{
    hr::QueueConfig config;
    hr::QueuePolicy lane;
    lane.maxBatch = 64;
    lane.maxDelayUs = 60'000'000;
    lane.maxDepth = 2;
    config.lanes = {lane};
    config.backpressure = hr::BackpressureMode::kBlockWithTimeout;
    config.blockTimeoutUs = 5'000;  // 5 ms, then give up.
    hr::RequestQueue queue(config, 2);

    EXPECT_EQ(pushRow(queue, 1), hr::Admission::kAdmitted);
    EXPECT_EQ(pushRow(queue, 2), hr::Admission::kAdmitted);
    auto started = Clock::now();
    EXPECT_EQ(pushRow(queue, 3), hr::Admission::kTimedOut);
    double waited_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - started)
            .count();
    EXPECT_GE(waited_ms, 4.0);  // actually waited the bound out.
    EXPECT_EQ(queue.counters().shed, 1u);
    EXPECT_EQ(queue.counters().blockTimeouts, 1u);
}

TEST(RequestQueue, BlockedProducerFailsFastOnClose)
{
    hr::QueueConfig config;
    hr::QueuePolicy lane;
    lane.maxBatch = 64;
    lane.maxDelayUs = 60'000'000;
    lane.maxDepth = 1;
    config.lanes = {lane};
    config.backpressure = hr::BackpressureMode::kBlockWithTimeout;
    config.blockTimeoutUs = 60'000'000;
    hr::RequestQueue queue(config, 2);

    EXPECT_EQ(pushRow(queue, 1), hr::Admission::kAdmitted);
    hr::Admission second = hr::Admission::kAdmitted;
    std::thread producer(
        [&] { second = pushRow(queue, 2); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.close();
    producer.join();
    EXPECT_EQ(second, hr::Admission::kRejectedClosed);
}

TEST(RequestQueue, PushToUnknownLaneThrows)
{
    hr::RequestQueue queue;  // one lane.
    EXPECT_THROW(pushRow(queue, 1, 1), std::out_of_range);
}

// --------------------------------------------------- Server, multi-lane

TEST(Server, TwoLaneServingKeepsVerdictsAndAttributesLaneStats)
{
    auto model = tcModel(53);
    hc::Rng rng(59);
    constexpr std::size_t kRows = 600;  // 300 per lane.
    hm::Matrix features(kRows, model.inputDim);
    for (double &v : features.data())
        v = rng.uniform(-4.0, 4.0);

    hr::ServerConfig config;
    config.queue.maxBatch = 32;        // probe lane: small batches.
    config.queue.maxDelayUs = 500;
    config.queue.maxDepth = 0;
    hr::QueuePolicy bulk;
    bulk.maxBatch = 128;
    bulk.maxDelayUs = 5'000;
    bulk.maxDepth = 0;
    config.extraLanes = {bulk};

    std::mutex verdict_mutex;
    std::map<std::uint64_t, int> verdicts;
    std::map<std::uint64_t, std::size_t> verdict_lanes;
    hr::Server server(
        hr::InferenceEngine::fromModel(model, {}), config,
        [&](const hr::Request &request, int verdict) {
            std::lock_guard<std::mutex> lock(verdict_mutex);
            verdicts[request.id] = verdict;
            verdict_lanes[request.id] = request.lane;
        });
    ASSERT_EQ(server.lanes(), 2u);

    std::vector<std::uint64_t> tickets(kRows);
    for (std::size_t r = 0; r < kRows; ++r) {
        hr::SubmitResult result =
            server.submit(features.row(r), r % 2);
        ASSERT_TRUE(result.admitted());
        tickets[r] = result.ticket;
    }
    hr::ServerStats stats = server.stop();

    EXPECT_EQ(stats.rowsServed, kRows);
    ASSERT_EQ(stats.lanes.size(), 2u);
    EXPECT_EQ(stats.lanes[0].rowsServed, kRows / 2);
    EXPECT_EQ(stats.lanes[1].rowsServed, kRows / 2);
    EXPECT_EQ(stats.lanes[0].queue.accepted, kRows / 2);
    EXPECT_EQ(stats.lanes[1].queue.accepted, kRows / 2);
    EXPECT_GT(stats.lanes[0].batches + stats.lanes[1].batches, 0u);

    auto reference = hi::ExecutablePlan::compile(model).run(features);
    ASSERT_EQ(verdicts.size(), kRows);
    for (std::size_t r = 0; r < kRows; ++r) {
        EXPECT_EQ(verdicts.at(tickets[r]), reference[r]) << "row " << r;
        EXPECT_EQ(verdict_lanes.at(tickets[r]), r % 2);
    }
}

TEST(Server, StopWithZeroRowsServedReportsZeroedPercentiles)
{
    auto model = tcModel(61);
    hr::Server server(hr::InferenceEngine::fromModel(model, {}), {});
    hr::ServerStats stats = server.stop();
    EXPECT_EQ(stats.rowsServed, 0u);
    EXPECT_EQ(stats.batches, 0u);
    EXPECT_EQ(stats.meanBatchRows, 0.0);
    EXPECT_EQ(stats.p50BatchLatencyUs, 0.0);
    EXPECT_EQ(stats.p99BatchLatencyUs, 0.0);
    EXPECT_EQ(stats.p50RequestLatencyUs, 0.0);
    EXPECT_EQ(stats.p99RequestLatencyUs, 0.0);
    ASSERT_EQ(stats.lanes.size(), 1u);
    EXPECT_EQ(stats.lanes[0].rowsServed, 0u);
    EXPECT_EQ(stats.lanes[0].p99RequestLatencyUs, 0.0);
}

TEST(Server, SubmitDistinguishesShedFromMalformedFromClosed)
{
    auto model = tcModel(67);
    hn::IotPacketConfig packet_config;
    packet_config.numPackets = 3;
    packet_config.seed = 11;
    auto packets = hn::generateIotPackets(packet_config);

    hr::ServerConfig config;
    // One-row lane and a batcher that cannot flush during the test
    // (size trigger far above depth, deadline far away): the second
    // well-formed frame deterministically sheds.
    config.queue.maxBatch = 4096;
    config.queue.maxDelayUs = 60'000'000;
    config.queue.maxDepth = 1;
    hr::Server server(hr::InferenceEngine::fromModel(model, {}), config);

    EXPECT_EQ(server.submitFrame(hn::serialize(packets[0].packet)).status,
              hr::SubmitStatus::kAdmitted);
    EXPECT_EQ(server.submitFrame(hn::serialize(packets[1].packet)).status,
              hr::SubmitStatus::kShed);
    EXPECT_EQ(server.submitFrame({0xba, 0xad}).status,
              hr::SubmitStatus::kMalformed);
    hr::ServerStats stats = server.stop();
    EXPECT_EQ(stats.malformedFrames, 1u);
    EXPECT_EQ(stats.queue.shed, 1u);
    EXPECT_EQ(stats.rowsServed, 1u);

    // Post-stop submits report the closed door, not a shed.
    EXPECT_EQ(server.submitFrame(hn::serialize(packets[2].packet)).status,
              hr::SubmitStatus::kRejectedClosed);
}

TEST(Server, SubmitToUnknownLaneThrows)
{
    auto model = tcModel(71);
    hr::Server server(hr::InferenceEngine::fromModel(model, {}), {});
    std::vector<double> row(model.inputDim, 0.0);
    EXPECT_THROW(server.submit(row, 7), std::out_of_range);
    server.stop();
}

// ------------------------------------------------------ drop visibility

TEST(RequestQueue, OnDropReportsTicketLaneAndWaitForAgedOutRows)
{
    hr::QueueConfig config;
    hr::QueuePolicy lane;
    lane.maxBatch = 1024;
    lane.maxDelayUs = 60'000'000;  // no deadline flush in this test.
    lane.dropAfterUs = 1000;       // 1 ms budget, exceeded by sleeping.
    config.lanes = {lane};
    config.backpressure = hr::BackpressureMode::kEarlyDrop;
    std::vector<std::tuple<std::uint64_t, std::size_t, std::uint64_t>>
        drops;
    config.onDrop = [&](std::uint64_t ticket, std::size_t from_lane,
                        std::uint64_t waited_us) {
        drops.emplace_back(ticket, from_lane, waited_us);
    };
    hr::RequestQueue queue(config, 2);

    for (std::uint64_t i = 10; i < 15; ++i)
        EXPECT_EQ(pushRow(queue, i), hr::Admission::kAdmitted);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.close();
    hr::RequestBatch batch;
    EXPECT_FALSE(queue.pop(batch));

    // One callback per aged-out row, with its admission ticket, its
    // lane, and a wait at least the budget it blew.
    ASSERT_EQ(drops.size(), 5u);
    for (std::size_t i = 0; i < drops.size(); ++i) {
        EXPECT_EQ(std::get<0>(drops[i]), 10 + i);
        EXPECT_EQ(std::get<1>(drops[i]), 0u);
        EXPECT_GE(std::get<2>(drops[i]), 1000u);
    }
    EXPECT_EQ(queue.counters().earlyDropped, 5u);
}

TEST(RequestQueue, OnDropNotInvokedForDoorSheds)
{
    hr::QueueConfig config;
    hr::QueuePolicy lane;
    lane.maxBatch = 8;
    lane.maxDepth = 1;
    config.lanes = {lane};
    config.backpressure = hr::BackpressureMode::kShed;
    std::size_t drops = 0;
    config.onDrop = [&](std::uint64_t, std::size_t, std::uint64_t) {
        ++drops;
    };
    hr::RequestQueue queue(config, 2);

    EXPECT_EQ(pushRow(queue, 1), hr::Admission::kAdmitted);
    // The producer learns about this synchronously via kShed — routing
    // it through onDrop too would double-report the same row.
    EXPECT_EQ(pushRow(queue, 2), hr::Admission::kShed);
    queue.close();
    hr::RequestBatch batch;
    EXPECT_TRUE(queue.pop(batch));
    EXPECT_EQ(drops, 0u);
}

TEST(RequestQueue, OnDropRunsOutsideTheLockAndMayRetryViaPush)
{
    hr::QueueConfig config;
    hr::QueuePolicy lane;
    lane.maxBatch = 2;
    lane.maxDelayUs = 60'000'000;
    lane.dropAfterUs = 1000;
    config.lanes = {lane};
    config.backpressure = hr::BackpressureMode::kEarlyDrop;
    hr::RequestQueue *queue_ptr = nullptr;
    std::vector<std::uint64_t> retried;
    config.onDrop = [&](std::uint64_t ticket, std::size_t, std::uint64_t) {
        // The documented producer reaction: retry the dropped request.
        // This re-enters push() from inside the callback — it must not
        // deadlock on the queue mutex.
        retried.push_back(ticket);
        pushRow(*queue_ptr, ticket + 100);
    };
    hr::RequestQueue queue(config, 2);
    queue_ptr = &queue;

    EXPECT_EQ(pushRow(queue, 1), hr::Admission::kAdmitted);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(pushRow(queue, 2), hr::Admission::kAdmitted);
    EXPECT_EQ(pushRow(queue, 3), hr::Admission::kAdmitted);

    // Size flush: the stale front row drops (firing the retry), the two
    // fresh rows serve, and the retried row is queued behind them.
    hr::RequestBatch batch;
    ASSERT_TRUE(queue.pop(batch));
    ASSERT_EQ(batch.requests.size(), 2u);
    EXPECT_EQ(batch.requests[0].id, 2u);
    EXPECT_EQ(batch.requests[1].id, 3u);
    ASSERT_EQ(retried.size(), 1u);
    EXPECT_EQ(retried[0], 1u);
    EXPECT_EQ(queue.depth(), 1u);
}

TEST(Server, OnDropSurfacesEarlyDropsToTheProducer)
{
    auto model = tcModel(29);
    hr::ServerConfig config;
    config.queue.maxBatch = 1024;
    config.queue.maxDelayUs = 60'000'000;  // only the drain flushes.
    config.queue.dropAfterUs = 1000;
    config.backpressure = hr::BackpressureMode::kEarlyDrop;
    std::mutex drop_mutex;
    std::vector<std::uint64_t> dropped;
    config.onDrop = [&](std::uint64_t ticket, std::size_t,
                        std::uint64_t) {
        std::lock_guard<std::mutex> lock(drop_mutex);
        dropped.push_back(ticket);
    };
    hr::Server server(hr::InferenceEngine::fromModel(model, {}), config);

    std::vector<double> row(model.inputDim, 0.5);
    hr::SubmitResult first = server.submit(row);
    hr::SubmitResult second = server.submit(row);
    ASSERT_TRUE(first.admitted());
    ASSERT_TRUE(second.admitted());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    hr::ServerStats stats = server.stop();

    // Both rows aged out before the drain flush: the producer heard
    // about each by ticket instead of diffing counters after the fact.
    EXPECT_EQ(stats.queue.earlyDropped, 2u);
    EXPECT_EQ(stats.rowsServed, 0u);
    std::lock_guard<std::mutex> lock(drop_mutex);
    ASSERT_EQ(dropped.size(), 2u);
    EXPECT_EQ(dropped[0], first.ticket);
    EXPECT_EQ(dropped[1], second.ticket);
}

// --------------------------------------- scale-out fast path (MPSC door)

TEST(RequestQueue, ShedVsAdmitDeterministicUnderContention)
{
    // 8 producers hammer one depth-10 lane with no consumer running.
    // The atomic depth-ticket door must make the outcome exact under
    // any interleaving: exactly maxDepth admissions, everything else
    // shed, counters and depth agreeing — never an over-admit from a
    // check/increment race.
    hr::QueueConfig config;
    hr::QueuePolicy lane;
    lane.maxBatch = 1024;
    lane.maxDelayUs = 60'000'000;
    lane.maxDepth = 10;
    config.lanes = {lane};
    hr::RequestQueue queue(config, 2);

    constexpr std::size_t kProducers = 8;
    constexpr std::uint64_t kPerProducer = 200;
    std::atomic<std::size_t> admitted{0}, shed{0};
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p)
        producers.emplace_back([&queue, &admitted, &shed, p] {
            for (std::uint64_t i = 0; i < kPerProducer; ++i) {
                auto verdict = pushRow(queue, p * kPerProducer + i);
                hr::admitted(verdict) ? ++admitted : ++shed;
            }
        });
    for (std::thread &t : producers)
        t.join();

    EXPECT_EQ(admitted.load(), 10u);
    EXPECT_EQ(shed.load(), kProducers * kPerProducer - 10u);
    EXPECT_EQ(queue.depth(), 10u);
    EXPECT_EQ(queue.counters().accepted, 10u);
    EXPECT_EQ(queue.counters().shed, kProducers * kPerProducer - 10u);

    // The admitted rows drain intact.
    queue.close();
    hr::RequestBatch batch;
    ASSERT_TRUE(queue.pop(batch));
    EXPECT_EQ(batch.requests.size(), 10u);
}

TEST(RequestQueue, ProducersStraddlingTheSpinBudgetResolveEveryTicketOnce)
{
    // 4 producers with inter-push gaps of 0–200 µs, so the consumer
    // alternates between catching rows mid-spin and parking. Every
    // admitted row must come out exactly once, as a batch row or an
    // early drop.
    hr::QueueConfig config;
    hr::QueuePolicy fast, bulk;
    fast.maxBatch = 2;
    fast.maxDelayUs = 30;
    fast.maxDepth = 256;
    bulk.maxBatch = 8;
    bulk.maxDelayUs = 120;
    bulk.maxDepth = 256;
    config.lanes = {fast, bulk};
    config.backpressure = hr::BackpressureMode::kEarlyDrop;
    std::vector<std::uint64_t> dropped;
    config.onDrop = [&dropped](std::uint64_t ticket, std::size_t,
                               std::uint64_t) {
        dropped.push_back(ticket);  // pop() runs it on the consumer.
    };
    hr::RequestQueue queue(config, 2);

    constexpr std::size_t kProducers = 4;
    constexpr std::uint64_t kPerProducer = 1500;
    std::vector<std::uint64_t> popped;
    std::thread consumer([&] {
        hr::RequestBatch batch;
        while (queue.pop(batch))
            for (const hr::Request &row : batch.requests)
                popped.push_back(row.id);
    });
    std::vector<std::vector<std::uint64_t>> admitted(kProducers);
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p)
        producers.emplace_back([&queue, &admitted, p] {
            hc::Rng rng(100 + p);
            for (std::uint64_t i = 0; i < kPerProducer; ++i) {
                std::uint64_t id = p * kPerProducer + i;
                if (hr::admitted(pushRow(queue, id, id % 2)))
                    admitted[p].push_back(id);
                auto resume = Clock::now() + std::chrono::microseconds(
                                                 rng.uniformInt(0, 200));
                while (Clock::now() < resume) {
                }
            }
        });
    for (std::thread &t : producers)
        t.join();
    queue.close();
    consumer.join();

    std::vector<std::uint64_t> expected;
    for (const auto &ids : admitted)
        expected.insert(expected.end(), ids.begin(), ids.end());
    std::vector<std::uint64_t> resolved = popped;
    resolved.insert(resolved.end(), dropped.begin(), dropped.end());
    std::sort(expected.begin(), expected.end());
    std::sort(resolved.begin(), resolved.end());
    EXPECT_EQ(resolved, expected);  // each admitted ticket exactly once.

    hr::QueueCounters counters = queue.counters();
    EXPECT_EQ(counters.accepted, expected.size());
    EXPECT_EQ(popped.size() + counters.earlyDropped, counters.accepted);
    EXPECT_EQ(counters.accepted + counters.shed,
              kProducers * kPerProducer);
    EXPECT_EQ(queue.depth(), 0u);
}

TEST(RequestQueue, BlockedProducersAdmitInArrivalOrder)
{
    // Depth-1 lane in block mode, three producers arriving 40 ms
    // apart while the lane stays full: the space grants must go to the
    // FIFO head, so rows are admitted in arrival order (a later
    // producer can never slip past an earlier waiter when a slot
    // frees), pinned here by popping one row at a time.
    hr::QueueConfig config;
    hr::QueuePolicy lane;
    lane.maxBatch = 1;
    lane.maxDelayUs = 60'000'000;
    lane.maxDepth = 1;
    config.lanes = {lane};
    config.backpressure = hr::BackpressureMode::kBlockWithTimeout;
    config.blockTimeoutUs = 60'000'000;
    hr::RequestQueue queue(config, 2);

    EXPECT_EQ(pushRow(queue, 0), hr::Admission::kAdmitted);
    std::vector<std::thread> producers;
    for (std::uint64_t p = 0; p < 3; ++p)
        producers.emplace_back([&queue, p] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(40 * (p + 1)));
            EXPECT_EQ(pushRow(queue, 100 + p),
                      hr::Admission::kAdmitted);
        });
    // All three producers are parked before the first pop.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    std::vector<std::uint64_t> served;
    for (int i = 0; i < 4; ++i) {
        hr::RequestBatch batch;
        ASSERT_TRUE(queue.pop(batch));
        ASSERT_EQ(batch.requests.size(), 1u);
        served.push_back(batch.requests.front().id);
    }
    for (std::thread &t : producers)
        t.join();
    EXPECT_EQ(served,
              (std::vector<std::uint64_t>{0, 100, 101, 102}));
    EXPECT_EQ(queue.counters().accepted, 4u);
    EXPECT_EQ(queue.counters().blockTimeouts, 0u);
}

TEST(RequestQueue, FairnessAgingLetsOverdueBulkLanePreemptPriority)
{
    // Bulk (lane 1) rows sit 30 ms past a 5 ms deadline — far beyond
    // the 1 ms aging budget — while probe (lane 0) is size-ready.
    // Strict priority would serve probe first forever; aging hands the
    // starving bulk lane this flush and tags it in agedFlushes.
    hr::QueueConfig config;
    hr::QueuePolicy probe;
    probe.maxBatch = 4;
    probe.maxDelayUs = 60'000'000;
    hr::QueuePolicy bulk;
    bulk.maxBatch = 1024;
    bulk.maxDelayUs = 5'000;
    config.lanes = {probe, bulk};
    config.fairnessAgingUs = 1'000;
    hr::RequestQueue queue(config, 2);

    EXPECT_EQ(pushRow(queue, 200, 1), hr::Admission::kAdmitted);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(pushRow(queue, i, 0),
                  hr::Admission::kAdmitted);

    hr::RequestBatch first;
    ASSERT_TRUE(queue.pop(first));
    EXPECT_EQ(first.lane, 1u);
    EXPECT_EQ(first.reason, hr::FlushReason::kDeadline);
    EXPECT_EQ(first.requests.front().id, 200u);
    EXPECT_GE(queue.counters(1).agedFlushes, 1u);
    EXPECT_EQ(queue.counters(1).deadlineFlushes, 1u);

    hr::RequestBatch second;

    ASSERT_TRUE(queue.pop(second));  // priority resumes once bulk is served.
    EXPECT_EQ(second.lane, 0u);
    EXPECT_EQ(queue.counters(0).agedFlushes, 0u);
}

TEST(RequestQueue, StrictPriorityHoldsWhenAgingDisabled)
{
    // Same starving-bulk setup with the default fairnessAgingUs = 0:
    // the probe lane must still win every flush — aging is opt-in and
    // the PR 8 ordering stays bit-for-bit without it.
    hr::QueueConfig config;
    hr::QueuePolicy probe;
    probe.maxBatch = 4;
    probe.maxDelayUs = 60'000'000;
    hr::QueuePolicy bulk;
    bulk.maxBatch = 1024;
    bulk.maxDelayUs = 5'000;
    config.lanes = {probe, bulk};
    hr::RequestQueue queue(config, 2);

    EXPECT_EQ(pushRow(queue, 200, 1), hr::Admission::kAdmitted);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(pushRow(queue, i, 0),
                  hr::Admission::kAdmitted);

    hr::RequestBatch first;
    ASSERT_TRUE(queue.pop(first));
    EXPECT_EQ(first.lane, 0u);
    EXPECT_EQ(first.reason, hr::FlushReason::kSize);
    EXPECT_EQ(queue.counters(0).agedFlushes, 0u);
    EXPECT_EQ(queue.counters(1).agedFlushes, 0u);
}

// ------------------------------------------- failure-path wire frames

TEST(Server, MalformedFrameReportsAPerTicketFailure)
{
    auto model = tcModel(51);
    hr::ServerConfig config;
    config.queue.maxBatch = 64;
    config.queue.maxDelayUs = 500;
    config.extraLanes = {config.queue};

    std::mutex failure_mutex;
    std::vector<std::tuple<std::uint64_t, std::size_t, std::string>>
        failures;
    config.onFailure = [&](std::uint64_t ticket, std::size_t lane,
                           const std::string &error) {
        std::lock_guard<std::mutex> lock(failure_mutex);
        failures.emplace_back(ticket, lane, error);
    };
    hr::Server server(hr::InferenceEngine::fromModel(model, {}), config);

    // A malformed frame gets a real ticket from the shared sequence and
    // an onFailure notification under it — not an anonymous counter
    // tick — so frame producers can correlate the rejection.
    hr::SubmitResult bad = server.submitFrame({0xde, 0xad, 0xbe}, 1);
    EXPECT_EQ(bad.status, hr::SubmitStatus::kMalformed);
    EXPECT_FALSE(bad.admitted());
    EXPECT_NE(bad.ticket, 0u);

    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(std::get<0>(failures[0]), bad.ticket);
    EXPECT_EQ(std::get<1>(failures[0]), 1u);
    EXPECT_NE(std::get<2>(failures[0]).find("malformed"),
              std::string::npos);

    // The ticket really came from the admission sequence: the next
    // admitted row draws a later one.
    hn::IotPacketConfig packet_config;
    packet_config.numPackets = 1;
    packet_config.seed = 3;
    auto packets = hn::generateIotPackets(packet_config);
    hr::SubmitResult good =
        server.submitFrame(hn::serialize(packets[0].packet));
    ASSERT_TRUE(good.admitted());
    EXPECT_GT(good.ticket, bad.ticket);

    hr::ServerStats stats = server.stop();
    EXPECT_EQ(stats.malformedFrames, 1u);
    EXPECT_EQ(stats.failedRows, 0u);  // never admitted != failed.
    EXPECT_EQ(stats.rowsServed, 1u);
}

TEST(Server, ThrowingMalformedFailureSinkIsCountedNotFatal)
{
    auto model = tcModel(52);
    hr::ServerConfig config;
    config.onFailure = [](std::uint64_t, std::size_t,
                          const std::string &) {
        throw std::runtime_error("sink exploded");
    };
    hr::Server server(hr::InferenceEngine::fromModel(model, {}), config);

    EXPECT_EQ(server.submitFrame({0x01}).status,
              hr::SubmitStatus::kMalformed);
    hr::ServerStats stats = server.stop();
    EXPECT_EQ(stats.malformedFrames, 1u);
    EXPECT_EQ(stats.callbackErrors, 1u);
}

// ----------------------------------- routed wire frames + epoch scaler

TEST(ServerRouting, WireFramesStandardizeWithTheEpochScaler)
{
    // The routed server has no producer-side scaler (models may have
    // different training moments); wire frames must instead be scaled
    // inside the router with the *epoch's* artifact scaler. Pinned
    // differentially: routed submitFrame verdicts == extract + scale +
    // one engine run by hand.
    auto model = tcModel(53);
    model.scalerMeans.assign(hn::kNumTcFeatures, 0.0);
    model.scalerStds.assign(hn::kNumTcFeatures, 1.0);
    for (std::size_t c = 0; c < hn::kNumTcFeatures; ++c) {
        model.scalerMeans[c] = 0.5 + 0.25 * static_cast<double>(c);
        model.scalerStds[c] = 2.0 + 0.5 * static_cast<double>(c);
    }
    model.scalerRecorded = true;

    hn::IotPacketConfig packet_config;
    packet_config.numPackets = 400;
    packet_config.seed = 11;
    auto packets = hn::generateIotPackets(packet_config);

    // Reference: the same extractor schema, the same scaling the epoch
    // carries, one engine batch.
    hn::FeatureExtractor ref_extractor;
    hm::Matrix scaled(packets.size(), hn::kNumTcFeatures);
    for (std::size_t r = 0; r < packets.size(); ++r) {
        std::vector<double> features =
            ref_extractor.extract(packets[r].packet);
        for (std::size_t c = 0; c < hn::kNumTcFeatures; ++c)
            scaled(r, c) = (features[c] - model.scalerMeans[c]) /
                           model.scalerStds[c];
    }
    std::vector<int> expected(packets.size());
    hr::InferenceEngine ref_engine =
        hr::InferenceEngine::fromModel(model, {});
    ref_engine.run(scaled, expected.data());

    auto registry = std::make_shared<hr::ModelRegistry>();
    registry->load("m", model);
    hr::RouteConfig route;
    route.defaultModel = "m";

    hr::ServerConfig config;
    config.queue.maxBatch = 64;
    config.queue.maxDelayUs = 500;
    std::mutex verdict_mutex;
    std::map<std::uint64_t, int> verdicts;
    hr::Server server(registry, route, config,
                      [&](const hr::Request &request, int verdict) {
                          std::lock_guard<std::mutex> lock(verdict_mutex);
                          verdicts[request.id] = verdict;
                      });

    std::vector<std::uint64_t> tickets(packets.size());
    for (std::size_t i = 0; i < packets.size(); ++i) {
        hr::SubmitResult result =
            server.submitFrame(hn::serialize(packets[i].packet));
        ASSERT_TRUE(result.admitted());
        tickets[i] = result.ticket;
    }
    server.stop();

    ASSERT_EQ(verdicts.size(), packets.size());
    for (std::size_t i = 0; i < packets.size(); ++i)
        EXPECT_EQ(verdicts[tickets[i]], expected[i]) << "frame " << i;

    // And the scaler is load-bearing: the same frames served raw give
    // a different verdict somewhere, or this test would pass with the
    // epoch scaler silently dropped.
    std::vector<int> raw_labels(packets.size());
    hm::Matrix raw(packets.size(), hn::kNumTcFeatures);
    for (std::size_t r = 0; r < packets.size(); ++r) {
        std::vector<double> features =
            ref_extractor.extract(packets[r].packet);
        for (std::size_t c = 0; c < hn::kNumTcFeatures; ++c)
            raw(r, c) = features[c];
    }
    ref_engine.run(raw, raw_labels.data());
    EXPECT_NE(raw_labels, expected);
}
