/**
 * @file
 * Serving-path benchmark: persistent-executor dispatch cost and the
 * RequestQueue/Server batching policies under open-loop arrivals.
 *
 * Part 1 — dispatch micro-bench: p50/p99 latency of sharding one small
 * (64-row) batch through InferenceEngine on the warm persistent
 * executor — the fan-out cost every serving micro-batch pays (labels
 * cross-checked against one plan run). Reported, not gated.
 *
 * Part 2 — batching-policy sweep: requests arrive open-loop at a
 * fraction of measured capacity, in bursts, and are served through
 * runtime::Server under size-only vs deadline policies. Reported per
 * config: request p50/p99 latency (admission -> verdict), shed
 * fraction, mean batch rows, flush-reason split. Acceptance: with a
 * deadline policy at sub-capacity load, request p99 stays bounded by
 * ~maxDelay (a small multiple — the bound is the point of the policy),
 * while the size-only policy's p99 blows up with the batch-fill time.
 * This part runs the exact single-lane kShed configuration PR 4
 * shipped, so its verdicts double as the no-regression check for the
 * multi-lane queue redesign.
 *
 * Part 3 — two-lane QoS sweep: a probe lane (tight maxDelay, lane 0)
 * and a bulk lane (full batches, lane 1) fed by two open-loop
 * producers, the bulk one at ~1.2x capacity so its lane saturates with
 * size flushes. Acceptance: the probe lane's request p99 stays bounded
 * by ~its own maxDelay (plus one in-flight batch — strict priority
 * cannot preempt the engine) even while the bulk lane is saturated.
 *
 * Part 4 — backpressure under 2x-capacity overload: the same single
 * lane served in kShed vs kEarlyDrop mode. Shed keeps everything it
 * admitted and serves it arbitrarily late (p99 grows with queue
 * depth); early-drop sheds rows that already blew twice their delay
 * budget at flush time, so the p99 of *served* rows stays bounded.
 * Acceptance: early-drop served p99 within a small multiple of its
 * drop threshold, and at least one row actually early-dropped.
 *
 * Part 5 — multi-model hot swap: two co-resident models (a 2-class
 * front model and the 4-class SVM as the deep model) behind
 * ModelRegistry + Router, two lanes at sub-capacity load, a chain rule
 * escalating front-label-1 rows to the deep model, and a mid-run
 * atomic swap of the front model to a second version. Every request's
 * route trace is replayed single-threaded through the exact plan
 * version that executed it. Acceptance: zero verdict errors (every hop
 * label bit-identical to the admitting plan version — enforced via
 * exit code on every host), both front versions observed, and request
 * p99 still bounded by ~maxDelay across the swap.
 *
 * Part 6 — availability under injected faults: the part-4 overload
 * rerun with a deterministic FaultInjector armed at engine.run, over
 * a (fault rate x bisect-retry depth) grid. Acceptance (every host —
 * the invariants are count-based, not timed): every admitted row
 * resolves as exactly one of {verdict, failure}, every delivered
 * verdict is bit-identical to a single-threaded replay through the
 * same plan, the disarmed leg fails nothing, and the 0.1%-rate legs
 * keep availability >= 99%.
 *
 * Part 7 — submit-path contention sweep: the lock-free MPSC admission
 * door driven by 1..8 tight-loop submitter threads against a draining
 * consumer, across 1 and 4 lanes; then a ShardedServer shard sweep
 * (1/2/4 shards) fed from concurrent producers with per-row flow keys.
 * Acceptance: submit p99 stays flat within 2x as submitters grow
 * 1 -> 8, and every sharded verdict is bit-identical to a single plan
 * run (count-based, enforced on every host; the flatness bar joins the
 * >= 4-core gate).
 *
 * Usage: bench_serving [--json PATH]
 * (custom harness: the sweep needs open-loop pacing and direct control
 * of the measurement loop; --json writes bench_common's records.)
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/string_util.hpp"
#include "math/stats.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/inference_engine.hpp"
#include "runtime/model_registry.hpp"
#include "runtime/request_queue.hpp"
#include "runtime/router.hpp"
#include "runtime/server.hpp"
#include "runtime/sharded_server.hpp"

using namespace homunculus;

namespace {

using Clock = std::chrono::steady_clock;

struct DispatchStats
{
    double p50Us = 0.0;
    double p99Us = 0.0;
};

DispatchStats
measureDispatch(const std::function<void()> &dispatch, std::size_t iters)
{
    std::vector<double> samples_us;
    samples_us.reserve(iters);
    for (std::size_t i = 0; i < iters; ++i) {
        auto started = Clock::now();
        dispatch();
        samples_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() -
                                                      started)
                .count());
    }
    return {math::percentileNearestRank(samples_us, 0.50),
            math::percentileNearestRank(samples_us, 0.99)};
}

struct SweepResult
{
    runtime::ServerStats stats;
    double offeredRate = 0.0;  ///< rows/s actually offered.
};

/**
 * A second version of the part-5 front model: bench::benchMlpIr()'s
 * exact shape (16 features, 2 classes — the registry's drop-in
 * invariant) with reseeded weights, so v1 and v2 label some rows
 * differently and a batch that mixed plans would be caught.
 */
ir::ModelIr
frontModelV2()
{
    common::Rng rng(bench::kBenchSeed + 2);
    ir::ModelIr model;
    model.kind = ir::ModelKind::kMlp;
    model.inputDim = 16;
    model.numClasses = 2;
    std::size_t prev = 16;
    for (std::size_t width : {std::size_t{32}, std::size_t{32},
                              std::size_t{2}}) {
        ir::QuantizedLayer layer;
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

/**
 * Open-loop arrival process: bursts of @p burst rows, burst start times
 * scheduled at the target rate regardless of server progress. Rows are
 * pre-built feature vectors (producer-side extraction is measured
 * elsewhere; this sweep isolates the queueing policy).
 */
SweepResult
sweepConfig(const ir::ModelIr &model, const math::Matrix &rows,
            double rate_rows_per_sec, const runtime::QueuePolicy &policy,
            std::size_t engine_jobs,
            runtime::BackpressureMode mode =
                runtime::BackpressureMode::kShed)
{
    runtime::EngineOptions engine_options;
    engine_options.jobs = engine_jobs;
    engine_options.minRowsToShard = 1;

    runtime::ServerConfig config;
    config.queue = policy;
    config.backpressure = mode;
    std::atomic<std::size_t> delivered{0};
    runtime::Server server(
        runtime::InferenceEngine::fromModel(model, engine_options),
        config,
        [&](const runtime::Request &, int) { delivered.fetch_add(1); });

    constexpr std::size_t kBurst = 32;
    auto started = Clock::now();
    for (std::size_t i = 0; i < rows.rows(); ++i) {
        if (i % kBurst == 0 && rate_rows_per_sec > 0.0) {
            auto due = started +
                       std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               static_cast<double>(i) /
                               rate_rows_per_sec));
            std::this_thread::sleep_until(due);
        }
        server.submit(rows.row(i));
    }
    double offered_seconds =
        std::chrono::duration<double>(Clock::now() - started).count();

    SweepResult result;
    result.stats = server.stop();
    result.offeredRate =
        offered_seconds > 0.0
            ? static_cast<double>(rows.rows()) / offered_seconds
            : 0.0;
    return result;
}

struct ContentionResult
{
    double p50SubmitUs = 0.0;
    double p99SubmitUs = 0.0;
    double pushesPerSec = 0.0;  ///< door attempts/s (admitted + shed).
};

/**
 * Run @p threads tight-loop submitters for @p seconds against a
 * draining consumer, timing every 16th push. @p push is
 * (thread, sequence) -> void (it owns building the Request and picking
 * the lane); @p stop closes the queue, @p drained joins the consumer.
 */
ContentionResult
measureDoor(std::size_t threads, double seconds,
            const std::function<void(std::size_t, std::uint64_t)> &push,
            const std::function<void()> &stop)
{
    constexpr std::uint64_t kSampleMask = 15;
    std::vector<std::vector<double>> samples(threads);
    std::vector<std::uint64_t> attempts(threads, 0);
    auto bench_start = Clock::now();
    auto deadline = bench_start + std::chrono::duration<double>(seconds);
    std::vector<std::thread> producers;
    for (std::size_t t = 0; t < threads; ++t)
        producers.emplace_back([&, t] {
            samples[t].reserve(1 << 16);
            std::uint64_t i = 0;
            for (;; ++i) {
                if ((i & kSampleMask) == 0) {
                    if (Clock::now() >= deadline)
                        break;
                    auto started = Clock::now();
                    push(t, i);
                    samples[t].push_back(
                        std::chrono::duration<double, std::micro>(
                            Clock::now() - started)
                            .count());
                } else {
                    push(t, i);
                }
            }
            attempts[t] = i;
        });
    for (auto &producer : producers)
        producer.join();
    double wall =
        std::chrono::duration<double>(Clock::now() - bench_start)
            .count();
    stop();

    ContentionResult result;
    std::vector<double> merged;
    std::uint64_t total = 0;
    for (std::size_t t = 0; t < threads; ++t) {
        merged.insert(merged.end(), samples[t].begin(),
                      samples[t].end());
        total += attempts[t];
    }
    result.p50SubmitUs = math::percentileNearestRank(merged, 0.50);
    result.p99SubmitUs = math::percentileNearestRank(merged, 0.99);
    result.pushesPerSec =
        wall > 0.0 ? static_cast<double>(total) / wall : 0.0;
    return result;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string json_path = bench::extractJsonPath(argc, argv);
    (void)argc;
    (void)argv;

    std::size_t hardware = std::thread::hardware_concurrency();
    if (hardware == 0)
        hardware = 1;
    std::size_t jobs = std::min<std::size_t>(4, hardware);

    bench::BenchJson json;
    ir::ModelIr model = bench::benchMlpIr();
    auto plan = ir::ExecutablePlan::compile(model);

    // ---------------------------------------- part 1: dispatch cost ---
    constexpr std::size_t kSmallBatch = 64;
    constexpr std::size_t kShardRows = 16;  // 4 shards for 4 workers.
    auto small = bench::benchFeatures(kSmallBatch, model.inputDim);
    std::vector<int> reference = plan.run(small);

    runtime::EngineOptions engine_options;
    engine_options.jobs = jobs;
    engine_options.minRowsToShard = 1;
    engine_options.maxShardRows = kShardRows;
    runtime::InferenceEngine engine(plan, engine_options);

    std::vector<int> labels(kSmallBatch);
    engine.run(small, labels.data());  // warm the executor.
    if (labels != reference)
        throw std::runtime_error("serving bench: executor labels diverge");
    DispatchStats pooled = measureDispatch(
        [&] { engine.run(small, labels.data()); }, 3000);

    std::cout << common::format(
        "=== 64-row dispatch, %zu jobs (%zu hardware threads) ===\n"
        "executor   p50 %8.1f us   p99 %8.1f us\n",
        jobs, hardware, pooled.p50Us, pooled.p99Us);
    json.add("dispatch64/executor",
             {{"p50_us", pooled.p50Us}, {"p99_us", pooled.p99Us}});

    // ------------------------------------ part 2: batching policies ---
    // Capacity: steady-state engine throughput on full batches.
    auto big = bench::benchFeatures(1024, model.inputDim);
    std::vector<int> big_labels(big.rows());
    engine.run(big, big_labels.data());
    double capacity;
    {
        auto started = Clock::now();
        std::size_t iters = 0;
        while (std::chrono::duration<double>(Clock::now() - started)
                   .count() < 0.25)
            engine.run(big, big_labels.data()), ++iters;
        capacity = static_cast<double>(iters * big.rows()) /
                   std::chrono::duration<double>(Clock::now() - started)
                       .count();
    }
    std::cout << common::format(
        "\n=== batching policies (capacity ~%.0f rows/s) ===\n",
        capacity);
    std::cout << "policy                rate      offered   p50 req us "
                 " p99 req us  shed%  batch  flushes(sz/dl/dr)\n";

    struct Policy
    {
        std::string name;
        runtime::QueuePolicy queue;
        bool deadline;  ///< participates in the p99 acceptance check.
    };
    std::vector<Policy> policies;
    {
        Policy size_only;
        size_only.name = "size-1024";
        size_only.queue.maxBatch = 1024;
        size_only.queue.maxDelayUs = 5'000'000;  // deadline ~never.
        size_only.queue.maxDepth = 65536;
        size_only.deadline = false;
        policies.push_back(size_only);

        Policy deadline_1ms = size_only;
        deadline_1ms.name = "deadline-1000us";
        deadline_1ms.queue.maxDelayUs = 1000;
        deadline_1ms.deadline = true;
        policies.push_back(deadline_1ms);

        Policy deadline_250us = size_only;
        deadline_250us.name = "deadline-250us";
        deadline_250us.queue.maxDelayUs = 250;
        deadline_250us.deadline = true;
        policies.push_back(deadline_250us);
    }

    bool deadline_bounded = true;
    for (double fraction : {0.1, 0.4}) {
        double rate = capacity * fraction;
        // Enough rows to reach steady state, capped so one config stays
        // under ~2 s of wall time even on slow hosts.
        auto rows_wanted = static_cast<std::size_t>(
            std::min(30'000.0, std::max(4'000.0, rate * 1.5)));
        auto arrivals = bench::benchFeatures(rows_wanted, model.inputDim);

        for (const Policy &policy : policies) {
            SweepResult result = sweepConfig(model, arrivals, rate,
                                             policy.queue, jobs);
            const runtime::ServerStats &stats = result.stats;
            double shed_pct =
                stats.queue.accepted + stats.queue.shed > 0
                    ? 100.0 * static_cast<double>(stats.queue.shed) /
                          static_cast<double>(stats.queue.accepted +
                                              stats.queue.shed)
                    : 0.0;
            std::cout << common::format(
                "%-20s %8.0f/s %8.0f/s %11.1f %11.1f %6.2f %6.1f"
                "  %llu/%llu/%llu\n",
                policy.name.c_str(), rate, result.offeredRate,
                stats.p50RequestLatencyUs, stats.p99RequestLatencyUs,
                shed_pct, stats.meanBatchRows,
                static_cast<unsigned long long>(stats.queue.sizeFlushes),
                static_cast<unsigned long long>(
                    stats.queue.deadlineFlushes),
                static_cast<unsigned long long>(
                    stats.queue.drainFlushes));
            json.add(common::format("serve/%s/rate%.0f",
                                    policy.name.c_str(), rate),
                     {{"target_rate_rows_per_sec", rate},
                      {"offered_rate_rows_per_sec", result.offeredRate},
                      {"p50_request_us", stats.p50RequestLatencyUs},
                      {"p99_request_us", stats.p99RequestLatencyUs},
                      {"p99_batch_infer_us", stats.p99BatchLatencyUs},
                      {"shed_pct", shed_pct},
                      {"mean_batch_rows", stats.meanBatchRows},
                      {"size_flushes",
                       static_cast<double>(stats.queue.sizeFlushes)},
                      {"deadline_flushes",
                       static_cast<double>(
                           stats.queue.deadlineFlushes)},
                      {"max_delay_us",
                       static_cast<double>(policy.queue.maxDelayUs)}});

            // The deadline guarantee under sub-capacity bursts: p99
            // request latency stays within a small multiple of
            // maxDelay (queueing bounded by the policy; the rest is
            // one batch of inference and scheduler jitter).
            if (policy.deadline) {
                double bound =
                    static_cast<double>(policy.queue.maxDelayUs) * 4.0 +
                    stats.p99BatchLatencyUs + 2000.0;
                if (stats.p99RequestLatencyUs > bound) {
                    deadline_bounded = false;
                    std::cout << common::format(
                        "  ^ p99 %.1f us exceeds bound %.1f us\n",
                        stats.p99RequestLatencyUs, bound);
                }
            }
        }
    }

    // ------------------------------------- part 3: two-lane QoS sweep ---
    // A probe lane with a tight delay budget in front of a bulk lane
    // that saturates the engine with full batches. Strict priority
    // means a ready probe flush jumps every queued bulk batch; the only
    // wait it cannot skip is the batch already inside the engine.
    runtime::QueuePolicy probe_policy;
    probe_policy.maxBatch = 64;
    probe_policy.maxDelayUs = 500;
    probe_policy.maxDepth = 8192;
    runtime::QueuePolicy bulk_policy;
    bulk_policy.maxBatch = 1024;
    bulk_policy.maxDelayUs = 20'000;
    bulk_policy.maxDepth = 16384;

    double bulk_rate = capacity * 1.2;
    double probe_rate = std::max(2'000.0, capacity * 0.02);
    auto bulk_rows_wanted = static_cast<std::size_t>(
        std::min(40'000.0, std::max(8'000.0, bulk_rate * 0.75)));
    double lane_wall =
        static_cast<double>(bulk_rows_wanted) / bulk_rate;
    auto probe_rows_wanted = static_cast<std::size_t>(
        std::max(200.0, probe_rate * lane_wall));
    auto bulk_rows = bench::benchFeatures(bulk_rows_wanted,
                                          model.inputDim);
    auto probe_rows = bench::benchFeatures(probe_rows_wanted,
                                           model.inputDim);

    runtime::ServerStats lane_stats;
    {
        runtime::EngineOptions serve_engine_options;
        serve_engine_options.jobs = jobs;
        serve_engine_options.minRowsToShard = 1;
        runtime::ServerConfig config;
        config.queue = probe_policy;
        config.extraLanes = {bulk_policy};
        runtime::Server server(
            runtime::InferenceEngine::fromModel(model,
                                                serve_engine_options),
            config);
        // Two open-loop producers: bursty bulk at 1.2x capacity on a
        // second thread, paced probes here.
        std::thread bulk_producer([&] {
            constexpr std::size_t kBurst = 32;
            auto started = Clock::now();
            for (std::size_t i = 0; i < bulk_rows.rows(); ++i) {
                if (i % kBurst == 0) {
                    auto due = started +
                               std::chrono::duration_cast<
                                   Clock::duration>(
                                   std::chrono::duration<double>(
                                       static_cast<double>(i) /
                                       bulk_rate));
                    std::this_thread::sleep_until(due);
                }
                server.submit(bulk_rows.row(i), 1);
            }
        });
        auto started = Clock::now();
        for (std::size_t i = 0; i < probe_rows.rows(); ++i) {
            auto due = started + std::chrono::duration_cast<
                                     Clock::duration>(
                                     std::chrono::duration<double>(
                                         static_cast<double>(i) /
                                         probe_rate));
            std::this_thread::sleep_until(due);
            server.submit(probe_rows.row(i), 0);
        }
        bulk_producer.join();
        lane_stats = server.stop();
    }

    const runtime::LaneStats &probe_lane = lane_stats.lanes.at(0);
    const runtime::LaneStats &bulk_lane = lane_stats.lanes.at(1);
    std::cout << common::format(
        "\n=== two-lane QoS: probe (maxDelay %llu us) vs bulk at 1.2x "
        "capacity ===\n"
        "probe lane  served %7zu  p50 %8.1f us  p99 %8.1f us\n"
        "bulk  lane  served %7zu  p50 %8.1f us  p99 %8.1f us  "
        "(%.1f-row batches, %llu size flushes, %llu shed)\n",
        static_cast<unsigned long long>(probe_policy.maxDelayUs),
        probe_lane.rowsServed, probe_lane.p50RequestLatencyUs,
        probe_lane.p99RequestLatencyUs, bulk_lane.rowsServed,
        bulk_lane.p50RequestLatencyUs, bulk_lane.p99RequestLatencyUs,
        bulk_lane.batches > 0
            ? static_cast<double>(bulk_lane.rowsServed) /
                  static_cast<double>(bulk_lane.batches)
            : 0.0,
        static_cast<unsigned long long>(bulk_lane.queue.sizeFlushes),
        static_cast<unsigned long long>(bulk_lane.queue.shed));

    // The probe bound: its own deadline budget (small multiple for
    // scheduler jitter) plus the one bulk batch that may already be in
    // the engine when a probe flush becomes ready.
    double probe_bound =
        static_cast<double>(probe_policy.maxDelayUs) * 4.0 +
        lane_stats.p99BatchLatencyUs + 2000.0;
    bool probe_bounded =
        probe_lane.p99RequestLatencyUs <= probe_bound &&
        probe_lane.rowsServed > 0;
    json.add("lanes/probe",
             {{"p50_request_us", probe_lane.p50RequestLatencyUs},
              {"p99_request_us", probe_lane.p99RequestLatencyUs},
              {"rows_served",
               static_cast<double>(probe_lane.rowsServed)},
              {"bound_us", probe_bound},
              {"max_delay_us",
               static_cast<double>(probe_policy.maxDelayUs)}});
    json.add("lanes/bulk",
             {{"p50_request_us", bulk_lane.p50RequestLatencyUs},
              {"p99_request_us", bulk_lane.p99RequestLatencyUs},
              {"rows_served", static_cast<double>(bulk_lane.rowsServed)},
              {"size_flushes",
               static_cast<double>(bulk_lane.queue.sizeFlushes)},
              {"shed", static_cast<double>(bulk_lane.queue.shed)}});

    // --------------------- part 4: shed vs early-drop at 2x capacity ---
    runtime::QueuePolicy overload_policy;
    overload_policy.maxBatch = 256;
    overload_policy.maxDelayUs = 1000;   // drop threshold = 2000 us.
    overload_policy.maxDepth = 8192;     // deep: shed mode queues long.
    double overload_rate = capacity * 2.0;
    auto overload_rows_wanted = static_cast<std::size_t>(
        std::min(40'000.0, std::max(8'000.0, overload_rate * 0.5)));
    auto overload_rows = bench::benchFeatures(overload_rows_wanted,
                                              model.inputDim);

    SweepResult shed_result =
        sweepConfig(model, overload_rows, overload_rate,
                    overload_policy, jobs,
                    runtime::BackpressureMode::kShed);
    SweepResult drop_result =
        sweepConfig(model, overload_rows, overload_rate,
                    overload_policy, jobs,
                    runtime::BackpressureMode::kEarlyDrop);

    double drop_bound =
        static_cast<double>(overload_policy.effectiveDropAfterUs()) *
            4.0 +
        drop_result.stats.p99BatchLatencyUs + 2000.0;
    bool early_drop_bounded =
        drop_result.stats.p99RequestLatencyUs <= drop_bound &&
        drop_result.stats.rowsServed > 0 &&
        drop_result.stats.queue.earlyDropped > 0;
    std::cout << common::format(
        "\n=== 2x-capacity overload: shed vs early-drop (drop after "
        "%llu us) ===\n"
        "shed        served %7zu  p99 %8.1f us  (%llu shed)\n"
        "early-drop  served %7zu  p99 %8.1f us  (%llu shed, %llu "
        "dropped; bound %.1f us)\n",
        static_cast<unsigned long long>(
            overload_policy.effectiveDropAfterUs()),
        shed_result.stats.rowsServed,
        shed_result.stats.p99RequestLatencyUs,
        static_cast<unsigned long long>(shed_result.stats.queue.shed),
        drop_result.stats.rowsServed,
        drop_result.stats.p99RequestLatencyUs,
        static_cast<unsigned long long>(drop_result.stats.queue.shed),
        static_cast<unsigned long long>(
            drop_result.stats.queue.earlyDropped),
        drop_bound);
    json.add("overload/shed",
             {{"p99_request_us", shed_result.stats.p99RequestLatencyUs},
              {"rows_served",
               static_cast<double>(shed_result.stats.rowsServed)},
              {"shed",
               static_cast<double>(shed_result.stats.queue.shed)}});
    json.add("overload/early_drop",
             {{"p99_request_us",
               drop_result.stats.p99RequestLatencyUs},
              {"rows_served",
               static_cast<double>(drop_result.stats.rowsServed)},
              {"early_dropped",
               static_cast<double>(
                   drop_result.stats.queue.earlyDropped)},
              {"bound_us", drop_bound}});

    // ------------------- part 5: multi-model serving with hot swap ---
    // Two co-resident models on two lanes, a chain rule escalating
    // front-label-1 rows to the deep model, and a mid-run atomic swap
    // of the front model. The route trace of every request is replayed
    // single-threaded through the exact plan version that executed it:
    // "zero verdict errors" here means bit-identical labels against
    // the admitting version, across the swap.
    auto registry = std::make_shared<runtime::ModelRegistry>([&] {
        runtime::EngineOptions options;
        options.jobs = jobs;
        options.minRowsToShard = 1;
        return options;
    }());
    registry->load("front", model);          // v1 (the part-1 MLP).
    registry->load("front", frontModelV2()); // v2, idle until the swap.
    registry->load("deep", bench::benchSvmIr());

    runtime::RouteConfig route;
    route.defaultModel = "front";
    route.laneModels = {"front", "deep"};
    route.chain = {{"front", 1, "deep"}};

    runtime::QueuePolicy swap_policy;
    swap_policy.maxBatch = 256;
    swap_policy.maxDelayUs = 1000;
    swap_policy.maxDepth = 8192;
    runtime::ServerConfig swap_config;
    swap_config.queue = swap_policy;
    swap_config.extraLanes = {swap_policy};

    double swap_rate = std::max(4'000.0, capacity * 0.2);
    auto swap_rows_wanted = static_cast<std::size_t>(
        std::min(20'000.0, std::max(4'000.0, swap_rate * 0.5)));
    auto front_rows = bench::benchFeatures(swap_rows_wanted, 16);
    auto deep_rows = bench::benchFeatures(swap_rows_wanted, 16);

    struct ObservedRoute
    {
        std::vector<double> features;
        runtime::RouteTrace trace;
    };
    std::mutex trace_mutex;
    std::vector<ObservedRoute> observed;
    observed.reserve(2 * swap_rows_wanted);

    runtime::ServerStats swap_stats;
    {
        runtime::Server server(
            registry, route, swap_config, {},
            [&](const runtime::Request &request,
                const runtime::RouteTrace &trace) {
                std::lock_guard<std::mutex> lock(trace_mutex);
                observed.push_back({std::vector<double>(
                                        request.features.begin(),
                                        request.features.end()),
                                    trace});
            });
        auto pace = [&](const math::Matrix &rows, std::size_t lane) {
            constexpr std::size_t kBurst = 32;
            auto started = Clock::now();
            for (std::size_t i = 0; i < rows.rows(); ++i) {
                if (i % kBurst == 0) {
                    auto due = started +
                               std::chrono::duration_cast<
                                   Clock::duration>(
                                   std::chrono::duration<double>(
                                       static_cast<double>(i) /
                                       swap_rate));
                    std::this_thread::sleep_until(due);
                }
                server.submit(rows.row(i), lane);
            }
        };
        std::thread deep_producer([&] { pace(deep_rows, 1); });
        // Swap mid-run from a third thread so the flip races live
        // batches: in-flight ones finish on their pinned v1, later
        // ones pick up v2.
        std::thread swapper([&] {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(0.5 * swap_rows_wanted /
                                              swap_rate));
            registry->swap("front", 2);
        });
        pace(front_rows, 0);
        deep_producer.join();
        swapper.join();
        swap_stats = server.stop();
    }

    std::size_t verdict_errors = 0;
    std::set<std::uint64_t> front_versions;
    for (const ObservedRoute &entry : observed) {
        for (const runtime::RouteHop &hop : entry.trace.hops) {
            if (hop.model == "front")
                front_versions.insert(hop.version);
            auto epoch = registry->version(hop.model, hop.version);
            if (!epoch ||
                hop.label != epoch->engine.plan().runRow(
                                 entry.features.data(),
                                 entry.features.size()))
                ++verdict_errors;
        }
    }
    bool swap_exact = verdict_errors == 0 &&
                      observed.size() == swap_stats.rowsServed &&
                      swap_stats.rowsServed > 0;
    bool swap_saw_both = front_versions.count(1) > 0 &&
                         front_versions.count(2) > 0;
    double swap_bound =
        static_cast<double>(swap_policy.maxDelayUs) * 4.0 +
        swap_stats.p99BatchLatencyUs + 2000.0;
    bool swap_p99_bounded =
        swap_stats.p99RequestLatencyUs <= swap_bound;

    std::cout << common::format(
        "\n=== multi-model hot swap: front v1 -> v2 mid-run, deep lane "
        "+ chain front:1=deep ===\n"
        "served %zu rows (%zu traces), %zu verdict errors vs admitting "
        "plan, front versions seen:%s%s\n"
        "request p50 %8.1f us  p99 %8.1f us  (bound %.1f us)\n",
        swap_stats.rowsServed, observed.size(), verdict_errors,
        front_versions.count(1) ? " v1" : "",
        front_versions.count(2) ? " v2" : "",
        swap_stats.p50RequestLatencyUs, swap_stats.p99RequestLatencyUs,
        swap_bound);
    for (const runtime::ModelStats &model_stats : swap_stats.models)
        std::cout << common::format(
            "model %-6s %8zu rows / %5zu steps   step p50 %8.1f us  "
            "p99 %8.1f us   (active v%llu)\n",
            model_stats.name.c_str(), model_stats.rowsServed,
            model_stats.batches, model_stats.p50StepLatencyUs,
            model_stats.p99StepLatencyUs,
            static_cast<unsigned long long>(model_stats.activeVersion));
    json.add("swap/run",
             {{"rows_served",
               static_cast<double>(swap_stats.rowsServed)},
              {"verdict_errors",
               static_cast<double>(verdict_errors)},
              {"p50_request_us", swap_stats.p50RequestLatencyUs},
              {"p99_request_us", swap_stats.p99RequestLatencyUs},
              {"bound_us", swap_bound},
              {"target_rate_rows_per_sec", swap_rate}});
    for (const runtime::ModelStats &model_stats : swap_stats.models)
        json.add("swap/model_" + model_stats.name,
                 {{"rows_served",
                   static_cast<double>(model_stats.rowsServed)},
                  {"steps", static_cast<double>(model_stats.batches)},
                  {"step_p99_us", model_stats.p99StepLatencyUs},
                  {"active_version",
                   static_cast<double>(model_stats.activeVersion)}});

    // ----------- part 6: availability under injected engine faults ---
    // The part-4 overload (2x capacity, kShed) rerun with a
    // deterministic fault injector armed at the engine.run site, over
    // a (rate x bisect-retry) grid. Every admitted row must resolve
    // as exactly one of {verdict, failure} (no early-drop in shed
    // mode), every delivered verdict must be bit-identical to a
    // single-threaded replay through the same plan, and the 0.1%-rate
    // legs must keep served-verdict availability >= 99%.
    struct FaultLeg
    {
        const char *key;
        double rate;
        std::size_t retry;
    };
    const FaultLeg fault_legs[] = {
        {"rate0_retry0", 0.0, 0},     {"rate001_retry0", 0.001, 0},
        {"rate001_retry5", 0.001, 5}, {"rate01_retry0", 0.01, 0},
        {"rate01_retry5", 0.01, 5},
    };
    // Small batches so the per-mille rates actually fire: ~500
    // engine.run draws per leg instead of part 4's ~60.
    runtime::QueuePolicy fault_policy;
    fault_policy.maxBatch = 32;
    fault_policy.maxDelayUs = 1000;
    fault_policy.maxDepth = 8192;
    runtime::EngineOptions fault_ref_options;
    fault_ref_options.jobs = 1;
    runtime::InferenceEngine fault_ref =
        runtime::InferenceEngine::fromModel(model, fault_ref_options);

    bool fault_partition_ok = true;    // served + failed == accepted.
    bool fault_zero_rate_clean = true; // disarmed leg fails nothing.
    std::size_t fault_mismatches = 0;  // verdicts vs replayed plan.
    double fault_availability = 1.0;  // worst 0.1%-rate-leg ratio.
    std::cout << common::format(
        "\n=== injected engine.run faults at 2x capacity (kShed, "
        "maxBatch %zu) ===\n",
        fault_policy.maxBatch);
    for (const FaultLeg &leg : fault_legs) {
        runtime::faults::FaultInjector injector;
        if (leg.rate > 0.0)
            injector.arm(runtime::faults::kSiteEngineRun, leg.rate,
                         bench::kBenchSeed);

        runtime::EngineOptions fault_engine_options;
        fault_engine_options.jobs = jobs;
        fault_engine_options.minRowsToShard = 1;
        runtime::ServerConfig fault_config;
        fault_config.queue = fault_policy;
        fault_config.backpressure = runtime::BackpressureMode::kShed;
        fault_config.retryDepth = leg.retry;
        fault_config.injector = &injector;

        std::mutex verdict_mutex;
        std::vector<std::pair<std::vector<double>, int>> verdicts;
        verdicts.reserve(overload_rows.rows());
        std::atomic<std::size_t> failures{0};
        fault_config.onFailure = [&](std::uint64_t, std::size_t,
                                     const std::string &) {
            failures.fetch_add(1);
        };
        runtime::Server server(
            runtime::InferenceEngine::fromModel(model,
                                                fault_engine_options),
            fault_config,
            [&](const runtime::Request &request, int verdict) {
                std::lock_guard<std::mutex> lock(verdict_mutex);
                verdicts.emplace_back(
                    std::vector<double>(request.features.begin(),
                                        request.features.end()),
                    verdict);
            });
        constexpr std::size_t kBurst = 32;
        auto started = Clock::now();
        for (std::size_t i = 0; i < overload_rows.rows(); ++i) {
            if (i % kBurst == 0) {
                auto due = started +
                           std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   static_cast<double>(i) /
                                   overload_rate));
                std::this_thread::sleep_until(due);
            }
            server.submit(overload_rows.row(i));
        }
        runtime::ServerStats stats = server.stop();

        std::size_t mismatches = 0;
        for (const auto &[features, verdict] : verdicts)
            if (verdict != fault_ref.plan().runRow(features.data(),
                                                   features.size()))
                ++mismatches;
        fault_mismatches += mismatches;

        bool partition = stats.queue.accepted ==
                             stats.rowsServed + stats.failedRows +
                                 stats.queue.earlyDropped &&
                         verdicts.size() == stats.rowsServed &&
                         failures.load() == stats.failedRows;
        fault_partition_ok = fault_partition_ok && partition;
        if (leg.rate == 0.0)
            fault_zero_rate_clean = fault_zero_rate_clean &&
                                    stats.failedRows == 0 &&
                                    stats.failedBatches == 0;
        double availability =
            stats.queue.accepted > 0
                ? static_cast<double>(stats.rowsServed) /
                      static_cast<double>(stats.queue.accepted)
                : 0.0;
        if (leg.rate == 0.001)
            fault_availability =
                std::min(fault_availability, availability);

        std::cout << common::format(
            "rate %-6.3f retry %zu  served %7zu / %7zu accepted  "
            "failed %5zu rows / %4zu batches  (%zu bisect retries, "
            "availability %.4f, %zu mismatches)\n",
            leg.rate, leg.retry, stats.rowsServed,
            static_cast<std::size_t>(stats.queue.accepted),
            stats.failedRows, stats.failedBatches,
            stats.retriedBatches, availability, mismatches);
        json.add(std::string("faults/") + leg.key,
                 {{"fault_rate", leg.rate},
                  {"retry_depth", static_cast<double>(leg.retry)},
                  {"accepted",
                   static_cast<double>(stats.queue.accepted)},
                  {"rows_served",
                   static_cast<double>(stats.rowsServed)},
                  {"failed_rows",
                   static_cast<double>(stats.failedRows)},
                  {"failed_batches",
                   static_cast<double>(stats.failedBatches)},
                  {"retried_batches",
                   static_cast<double>(stats.retriedBatches)},
                  {"availability", availability},
                  {"verdict_mismatches",
                   static_cast<double>(mismatches)}});
    }
    bool fault_exact = fault_mismatches == 0;
    bool fault_available = fault_availability >= 0.99;

    // --------------- part 7: submit-door contention + sharded sweep ---
    // Tight-loop submitters against a draining consumer: the lock-free
    // ticket + MPSC ring door must keep its submit p99 flat within 2x
    // from 1 to 8 threads.
    constexpr double kDoorSeconds = 0.2;
    constexpr std::size_t kDoorDepth = 8192;
    constexpr std::size_t kDoorBatch = 256;
    const std::vector<std::size_t> door_threads = {1, 2, 4, 8};
    const std::vector<double> door_features(4, 0.5);

    std::cout << common::format(
        "\n=== submit-door contention (%0.1fs tight-loop legs, depth "
        "%zu) ===\n"
        "door   threads lanes    p50 us    p99 us     pushes/s\n",
        kDoorSeconds, kDoorDepth);
    std::map<std::string, ContentionResult> door_results;
    for (std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
        for (std::size_t threads : door_threads) {
            runtime::QueuePolicy door_policy;
            door_policy.maxBatch = kDoorBatch;
            door_policy.maxDelayUs = 1000;
            door_policy.maxDepth = kDoorDepth;
            runtime::QueueConfig door_config;
            door_config.lanes.assign(lanes, door_policy);
            runtime::RequestQueue queue(door_config,
                                        door_features.size());
            std::thread drain([&] {
                runtime::RequestBatch batch;
                while (queue.pop(batch)) {
                }
            });
            ContentionResult result = measureDoor(
                threads, kDoorSeconds,
                [&](std::size_t t, std::uint64_t i) {
                    queue.push(i, door_features.data(), t % lanes);
                },
                [&] { queue.close(); });
            drain.join();
            std::string key = common::format("q_mpsc_t%zu_l%zu",
                                             threads, lanes);
            door_results[key] = result;
            std::cout << common::format(
                "mpsc   %7zu %5zu %9.2f %9.2f %12.0f\n", threads,
                lanes, result.p50SubmitUs, result.p99SubmitUs,
                result.pushesPerSec);
            json.add("contention/" + key,
                     {{"threads", static_cast<double>(threads)},
                      {"lanes", static_cast<double>(lanes)},
                      {"p50_submit_us", result.p50SubmitUs},
                      {"p99_submit_us", result.p99SubmitUs},
                      {"pushes_per_sec", result.pushesPerSec}});
        }
    }

    // Flatness: p99 at 8 submitters within 2x of 1 submitter per lane
    // count (the 1-thread p99 is floored at 5 us so timer quantization
    // on a near-zero baseline cannot fail an absolutely-fine door).
    bool contention_flat = true;
    double worst_growth = 0.0;
    for (std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
        double base = std::max(
            door_results[common::format("q_mpsc_t1_l%zu", lanes)]
                .p99SubmitUs,
            5.0);
        double contended =
            door_results[common::format("q_mpsc_t8_l%zu", lanes)]
                .p99SubmitUs;
        worst_growth = std::max(worst_growth, contended / base);
        if (contended > 2.0 * base)
            contention_flat = false;
    }

    // Sharded sweep: verdict exactness is the bar (count-based, every
    // host); the submit rate is reported for the scaling story.
    constexpr std::size_t kShardSweepRows = 3000;
    auto shard_rows = bench::benchFeatures(kShardSweepRows,
                                           model.inputDim);
    runtime::EngineOptions shard_engine_options;
    shard_engine_options.jobs = 1;
    std::vector<int> shard_reference =
        runtime::InferenceEngine::fromModel(model, shard_engine_options)
            .run(shard_rows);
    std::cout << common::format(
        "\n=== sharded serving sweep (%zu rows, per-row flow keys) "
        "===\n"
        "shards threads   served   mismatches    submit rows/s\n",
        kShardSweepRows);
    bool sharded_exact = true;
    for (std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            runtime::ShardedServerConfig sharded_config;
            sharded_config.shards = shards;
            sharded_config.server.queue.maxBatch = kDoorBatch;
            sharded_config.server.queue.maxDelayUs = 1000;
            sharded_config.server.queue.maxDepth = 0;  // admit all.
            std::mutex verdict_mutex;
            std::map<std::uint64_t, int> verdicts;
            runtime::ShardedServer server(
                runtime::InferenceEngine::fromModel(
                    model, shard_engine_options),
                sharded_config,
                [&](const runtime::Request &request, int verdict) {
                    std::lock_guard<std::mutex> lock(verdict_mutex);
                    verdicts[request.id] = verdict;
                });
            std::vector<std::map<std::uint64_t, std::size_t>>
                ticket_rows(threads);
            auto submit_start = Clock::now();
            std::vector<std::thread> submitters;
            for (std::size_t t = 0; t < threads; ++t)
                submitters.emplace_back([&, t] {
                    for (std::size_t r = t; r < kShardSweepRows;
                         r += threads) {
                        auto admitted = server.submit(
                            r * 0x9e3779b97f4a7c15ull,
                            shard_rows.row(r));
                        if (admitted.admitted())
                            ticket_rows[t][admitted.ticket] = r;
                    }
                });
            for (auto &submitter : submitters)
                submitter.join();
            double submit_seconds =
                std::chrono::duration<double>(Clock::now() -
                                              submit_start)
                    .count();
            runtime::ServerStats stats = server.stop();

            std::size_t matched = 0, mismatches = 0;
            for (const auto &per_thread : ticket_rows)
                for (const auto &[ticket, row] : per_thread) {
                    auto verdict = verdicts.find(ticket);
                    if (verdict == verdicts.end() ||
                        verdict->second != shard_reference[row])
                        ++mismatches;
                    else
                        ++matched;
                }
            bool exact = mismatches == 0 &&
                         matched == kShardSweepRows &&
                         stats.rowsServed == kShardSweepRows;
            sharded_exact = sharded_exact && exact;
            double submit_rate =
                submit_seconds > 0.0
                    ? static_cast<double>(kShardSweepRows) /
                          submit_seconds
                    : 0.0;
            std::cout << common::format(
                "%6zu %7zu %8zu %12zu %16.0f\n", shards, threads,
                stats.rowsServed, mismatches, submit_rate);
            json.add(common::format("contention/sharded_s%zu_t%zu",
                                    shards, threads),
                     {{"shards", static_cast<double>(shards)},
                      {"threads", static_cast<double>(threads)},
                      {"rows_served",
                       static_cast<double>(stats.rowsServed)},
                      {"verdict_mismatches",
                       static_cast<double>(mismatches)},
                      {"submit_rows_per_sec", submit_rate}});
        }
    }

    std::cout << common::format(
        "\ndeadline-policy p99 bounded by ~maxDelay: %s\n",
        hardware >= 4 ? (deadline_bounded ? "PASS" : "FAIL")
                      : (deadline_bounded ? "pass (informational)"
                                          : "miss (informational)"));
    std::cout << common::format(
        "probe-lane p99 bounded under saturated bulk lane: %s\n",
        hardware >= 4 ? (probe_bounded ? "PASS" : "FAIL")
                      : (probe_bounded ? "pass (informational)"
                                       : "miss (informational)"));
    std::cout << common::format(
        "early-drop served p99 bounded at 2x capacity: %s\n",
        hardware >= 4 ? (early_drop_bounded ? "PASS" : "FAIL")
                      : (early_drop_bounded ? "pass (informational)"
                                            : "miss (informational)"));
    // Verdict exactness is timing-independent, so it is enforced on
    // every host; the swap's latency bound and seeing both versions
    // mid-run join the >= 4-core timing bars.
    std::cout << common::format(
        "hot-swap verdicts bit-identical to admitting plan: %s\n",
        swap_exact ? "PASS" : "FAIL");
    std::cout << common::format(
        "hot-swap p99 bounded, both front versions served: %s\n",
        hardware >= 4
            ? (swap_p99_bounded && swap_saw_both ? "PASS" : "FAIL")
            : (swap_p99_bounded && swap_saw_both
                   ? "pass (informational)"
                   : "miss (informational)"));
    // The fault bars are timing-independent (the injector draws from a
    // fixed seed and the invariants are counts, not latencies), so all
    // three hold on every host.
    std::cout << common::format(
        "fault legs: served verdicts bit-identical to replayed plan: "
        "%s\n",
        fault_exact ? "PASS" : "FAIL");
    std::cout << common::format(
        "fault legs: accepted == served + failed on every leg: %s\n",
        fault_partition_ok && fault_zero_rate_clean ? "PASS" : "FAIL");
    std::cout << common::format(
        "availability >= 0.99 at the 0.1%% fault rate: %s (worst "
        "%.4f)\n",
        fault_available ? "PASS" : "FAIL", fault_availability);
    std::cout << common::format(
        "submit p99 flat within 2x from 1 to 8 submitters: %s (worst "
        "growth %.2fx)\n",
        hardware >= 4 ? (contention_flat ? "PASS" : "FAIL")
                      : (contention_flat ? "pass (informational)"
                                         : "miss (informational)"),
        worst_growth);
    std::cout << common::format(
        "sharded verdicts bit-identical to one plan run: %s\n",
        sharded_exact ? "PASS" : "FAIL");
    json.add("acceptance",
             {{"deadline_p99_bounded", deadline_bounded ? 1.0 : 0.0},
              {"probe_lane_p99_bounded", probe_bounded ? 1.0 : 0.0},
              {"early_drop_p99_bounded",
               early_drop_bounded ? 1.0 : 0.0},
              {"swap_verdicts_exact", swap_exact ? 1.0 : 0.0},
              {"swap_p99_bounded", swap_p99_bounded ? 1.0 : 0.0},
              {"swap_observed_both_versions",
               swap_saw_both ? 1.0 : 0.0},
              {"fault_verdicts_exact", fault_exact ? 1.0 : 0.0},
              {"fault_resolution_partition",
               fault_partition_ok && fault_zero_rate_clean ? 1.0
                                                           : 0.0},
              {"fault_availability_ok", fault_available ? 1.0 : 0.0},
              {"contention_p99_flat", contention_flat ? 1.0 : 0.0},
              {"contention_p99_worst_growth", worst_growth},
              {"contention_sharded_verdicts_exact",
               sharded_exact ? 1.0 : 0.0},
              {"hardware_threads", static_cast<double>(hardware)}});

    if (!json_path.empty() && !json.write(json_path))
        return 1;
    if (!swap_exact)
        return 1;  // exactness holds on any host or the swap is broken.
    if (!fault_exact || !fault_partition_ok || !fault_zero_rate_clean ||
        !fault_available)
        return 1;  // fault invariants are count-based: any-host bars.
    if (!sharded_exact)
        return 1;  // sharding must never change a verdict, anywhere.
    // Enforce the timing bars only where the claims are testable: a
    // sub-4-core host can neither absorb bursts while batching nor
    // contend 8 submitters, so those verdicts are informational there.
    return (hardware >= 4 &&
            (!deadline_bounded || !probe_bounded ||
             !early_drop_bounded || !swap_p99_bounded ||
             !swap_saw_both || !contention_flat))
               ? 1
               : 0;
}
