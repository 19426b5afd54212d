/**
 * @file
 * Tests for the unified telemetry layer: MetricRegistry instrument
 * resolution (stable pointers, label canonicalization, kind-collision
 * errors), counter exactness under multi-threaded increments (runs
 * under TSAN in CI), Histogram reservoir percentile parity with the
 * math::percentileNearestRank convention the legacy stats structs
 * used, MetricsSnapshot merge arithmetic (the one true cross-shard
 * merge), TraceSink ring semantics (wrap, intern table, oldest-first
 * snapshot), and the --serve-stats-json golden keys. The
 * ServerStats-as-view equivalence is pinned end-to-end: a serving run
 * must report stop() stats bit-identical to what its own registry
 * snapshot says.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "ir/exec_plan.hpp"
#include "math/stats.hpp"
#include "runtime/server.hpp"
#include "runtime/telemetry.hpp"

namespace hc = homunculus::common;
namespace hi = homunculus::ir;
namespace hm = homunculus::math;
namespace hr = homunculus::runtime;
namespace ht = homunculus::runtime::telemetry;

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

}  // namespace

// ----------------------------------------------------------- MetricRegistry

TEST(Telemetry, RegistryResolvesStableInstrumentsByNameAndLabels)
{
    ht::MetricRegistry registry;
    ht::Counter &a = registry.counter("queue.accepted", {{"lane", "0"}});
    ht::Counter &b = registry.counter("queue.accepted", {{"lane", "0"}});
    ht::Counter &c = registry.counter("queue.accepted", {{"lane", "1"}});
    EXPECT_EQ(&a, &b);  // same (name, labels) = same instrument.
    EXPECT_NE(&a, &c);

    // Label order must not matter — the key set is canonicalized.
    ht::Counter &x = registry.counter(
        "x", {{"b", "2"}, {"a", "1"}});
    ht::Counter &y = registry.counter(
        "x", {{"a", "1"}, {"b", "2"}});
    EXPECT_EQ(&x, &y);

    // Unlabeled and labeled instruments of one name coexist.
    ht::Counter &bare = registry.counter("queue.accepted");
    EXPECT_NE(&bare, &a);

    // Re-requesting a name+labels as a different kind is a logic error,
    // not a silent second instrument.
    EXPECT_THROW(registry.gauge("queue.accepted", {{"lane", "0"}}),
                 std::logic_error);
    EXPECT_THROW(registry.histogram("queue.accepted", {{"lane", "0"}}),
                 std::logic_error);
}

TEST(Telemetry, CountersAreExactUnderConcurrentIncrements)
{
    ht::MetricRegistry registry;
    ht::Counter &counter = registry.counter("hits");
    ht::Gauge &gauge = registry.gauge("level");

    constexpr int kThreads = 8;
    constexpr int kPerThread = 10'000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&counter, &gauge] {
            for (int i = 0; i < kPerThread; ++i) {
                counter.add();
                gauge.add(2);
                gauge.add(-1);
            }
        });
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(counter.value(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(gauge.value(),
              static_cast<std::int64_t>(kThreads) * kPerThread);

    const ht::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counterValue("hits"),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Telemetry, HistogramPercentilesMatchTheLegacyNearestRank)
{
    ht::MetricRegistry registry;
    ht::Histogram &hist = registry.histogram("latency_us");

    hc::Rng rng(99);
    std::vector<double> reference;
    for (int i = 0; i < 5000; ++i) {
        double v = rng.uniform(0.0, 10'000.0);
        reference.push_back(v);
        hist.observe(v);
    }
    EXPECT_EQ(hist.count(), 5000u);
    EXPECT_EQ(hist.samples().size(), 5000u);  // below the reservoir cap.

    // Below capacity the reservoir retains everything, so percentiles
    // must be exactly the legacy math::percentileNearestRank values
    // (which takes a fraction; the instrument speaks percentiles).
    for (double p : {50.0, 90.0, 99.0})
        EXPECT_DOUBLE_EQ(hist.percentile(p),
                         hm::percentileNearestRank(reference, p / 100.0));

    const ht::MetricsSnapshot snap = registry.snapshot();
    const ht::MetricsSnapshot::Entry *entry = snap.find("latency_us");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->count, 5000u);
    EXPECT_DOUBLE_EQ(entry->percentile(99.0),
                     hm::percentileNearestRank(reference, 0.99));

    ht::Histogram &empty = registry.histogram("never_observed");
    EXPECT_DOUBLE_EQ(empty.percentile(50.0), 0.0);
}

TEST(Telemetry, ReservoirStaysBoundedPastCapacity)
{
    ht::MetricRegistry registry;
    ht::Histogram &hist = registry.histogram("big");
    const std::size_t total = ht::kHistogramReservoirSize + 5000;
    for (std::size_t i = 0; i < total; ++i)
        hist.observe(static_cast<double>(i));
    EXPECT_EQ(hist.count(), total);  // seen-count is not capped,
    EXPECT_EQ(hist.samples().size(),
              ht::kHistogramReservoirSize);  // the sample is.
}

TEST(Telemetry, ObserveManyEqualsRepeatedObserveForTheSameSeed)
{
    // Below and past the reservoir's capacity (past it, Algorithm R
    // draws from the Rng per value): a histogram fed in uneven slices
    // through observeMany keeps the same count and the same samples,
    // slot for slot, as one fed value by value.
    for (std::size_t total : {std::size_t{1000},
                              ht::kHistogramReservoirSize + 5000}) {
        hc::Rng rng(17);
        std::vector<double> values(total);
        for (double &v : values)
            v = rng.uniform(0.0, 1000.0);
        ht::Histogram one_by_one(99);
        ht::Histogram sliced(99);
        for (double v : values)
            one_by_one.observe(v);
        std::size_t done = 0;
        for (std::size_t slice = 1; done < total; slice = slice % 97 + 13) {
            std::size_t n = std::min(slice, total - done);
            sliced.observeMany(values.data() + done, n);
            done += n;
        }
        EXPECT_EQ(sliced.count(), one_by_one.count()) << total;
        EXPECT_EQ(sliced.samples(), one_by_one.samples()) << total;
    }
}

// --------------------------------------------------------- snapshot merge

TEST(Telemetry, SnapshotMergeSumsCountersAndConcatenatesSamples)
{
    ht::MetricRegistry shard0;
    ht::MetricRegistry shard1;
    shard0.counter("rows", {{"lane", "0"}}).add(10);
    shard1.counter("rows", {{"lane", "0"}}).add(32);
    shard1.counter("rows", {{"lane", "1"}}).add(7);  // only shard 1.
    shard0.gauge("depth").set(4);
    shard1.gauge("depth").set(5);
    shard0.histogram("lat").observe(1.0);
    shard0.histogram("lat").observe(2.0);
    shard1.histogram("lat").observe(3.0);

    ht::MetricsSnapshot merged = shard0.snapshot();
    merged.merge(shard1.snapshot());

    EXPECT_EQ(merged.counterValue("rows", {{"lane", "0"}}), 42u);
    EXPECT_EQ(merged.counterValue("rows", {{"lane", "1"}}), 7u);
    EXPECT_EQ(merged.sumCounters("rows"), 49u);

    const ht::MetricsSnapshot::Entry *depth = merged.find("depth");
    ASSERT_NE(depth, nullptr);
    EXPECT_EQ(depth->gauge, 9);  // cross-shard gauges sum (depths do).

    const ht::MetricsSnapshot::Entry *lat = merged.find("lat");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count, 3u);
    EXPECT_EQ(lat->samples.size(), 3u);

    // Absent names read as zero, never as a lookup error.
    EXPECT_EQ(merged.counterValue("no.such"), 0u);
    EXPECT_EQ(merged.find("no.such"), nullptr);
}

TEST(Telemetry, WithLabelKeepsShardSlicesDistinctAcrossMerge)
{
    ht::MetricRegistry shard0;
    ht::MetricRegistry shard1;
    shard0.counter("rows").add(10);
    shard1.counter("rows").add(32);

    ht::MetricsSnapshot merged =
        shard0.snapshot().withLabel("shard", "0");
    merged.merge(shard1.snapshot().withLabel("shard", "1"));

    // Tagged slices stay separate entries; the sum view sees both.
    EXPECT_EQ(merged.counterValue("rows", {{"shard", "0"}}), 10u);
    EXPECT_EQ(merged.counterValue("rows", {{"shard", "1"}}), 32u);
    EXPECT_EQ(merged.sumCounters("rows"), 42u);
}

// --------------------------------------------------------------- TraceSink

TEST(TraceSink, RecordsWrapAndSnapshotOldestFirst)
{
    ht::TraceSink sink(8);
    EXPECT_EQ(sink.capacity(), 8u);

    std::uint16_t front = sink.internModel("front");
    std::uint16_t deep = sink.internModel("deep");
    EXPECT_NE(front, deep);
    EXPECT_EQ(sink.internModel("front"), front);  // intern is stable.
    EXPECT_EQ(sink.modelName(front), "front");
    EXPECT_EQ(sink.modelName(9999), "?");

    for (std::uint64_t i = 0; i < 11; ++i) {
        ht::RequestSpan span;
        span.ticket = i;
        span.lane = static_cast<std::uint32_t>(i % 2);
        span.hops[0] = front;
        span.hopCount = 1;
        span.outcome = ht::SpanOutcome::kServed;
        span.latencyUs = static_cast<double>(i);
        sink.record(span);
    }
    EXPECT_EQ(sink.recorded(), 11u);

    // 11 spans through an 8-slot ring: tickets 3..10 survive, in order.
    std::vector<ht::RequestSpan> spans = sink.snapshot();
    ASSERT_EQ(spans.size(), 8u);
    for (std::size_t i = 0; i < spans.size(); ++i)
        EXPECT_EQ(spans[i].ticket, 3u + i);

    EXPECT_STREQ(ht::spanOutcomeName(ht::SpanOutcome::kServed), "served");
    EXPECT_STREQ(ht::spanOutcomeName(ht::SpanOutcome::kFailed), "failed");
    EXPECT_STREQ(ht::spanOutcomeName(ht::SpanOutcome::kDropped),
                 "dropped");
}

TEST(TraceSink, ServerRecordsOneSpanPerServedRequest)
{
    auto model = mlpModel(21, 4, 3);
    ht::TraceSink sink(64);
    hr::ServerConfig config;
    config.queue.maxBatch = 16;
    config.queue.maxDelayUs = 200;
    config.trace = &sink;
    hr::Server server(hr::InferenceEngine::fromModel(model, {}), config);

    std::vector<std::uint64_t> tickets;
    for (int i = 0; i < 40; ++i) {
        hr::SubmitResult result =
            server.submit(std::vector<double>(4, i * 0.1));
        ASSERT_TRUE(result.admitted());
        tickets.push_back(result.ticket);
    }
    server.stop();

    EXPECT_EQ(sink.recorded(), 40u);
    std::vector<ht::RequestSpan> spans = sink.snapshot();
    ASSERT_EQ(spans.size(), 40u);
    for (const ht::RequestSpan &span : spans) {
        EXPECT_EQ(span.outcome, ht::SpanOutcome::kServed);
        EXPECT_EQ(span.lane, 0u);
        EXPECT_GE(span.flushedAtUs, span.enqueuedAtUs);
        EXPECT_GE(span.latencyUs, 0.0);
        // The single-model form is a one-model route: one hop each.
        ASSERT_EQ(span.hopCount, 1u);
        EXPECT_EQ(sink.modelName(span.hops[0]), hr::kSingleModelName);
    }
    // Every admitted ticket shows up in exactly one span.
    std::vector<std::uint64_t> span_tickets;
    for (const ht::RequestSpan &span : spans)
        span_tickets.push_back(span.ticket);
    std::sort(span_tickets.begin(), span_tickets.end());
    EXPECT_EQ(span_tickets, tickets);
}

// --------------------------------------------- ServerStats as a view

TEST(Telemetry, ServerStatsAreAViewOverTheRegistrySnapshot)
{
    auto model = mlpModel(22, 4, 3);
    auto metrics = std::make_shared<ht::MetricRegistry>();
    hr::ServerConfig config;
    config.queue.maxBatch = 8;
    config.queue.maxDelayUs = 500;
    config.metrics = metrics;
    hr::Server server(hr::InferenceEngine::fromModel(model, {}), config);

    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(
            server.submit(std::vector<double>(4, i * 0.01)).admitted());
    hr::ServerStats stats = server.stop();

    // The struct the caller sees and the registry the instruments live
    // in must agree exactly — the struct is materialized from it.
    const ht::MetricsSnapshot snap = metrics->snapshot();
    EXPECT_EQ(stats.rowsServed, snap.counterValue("server.rows_served"));
    EXPECT_EQ(stats.batches, snap.counterValue("server.batches"));
    EXPECT_EQ(stats.queue.accepted,
              snap.counterValue("queue.accepted", {{"lane", "0"}}));
    EXPECT_EQ(stats.queue.sizeFlushes,
              snap.counterValue("queue.size_flushes", {{"lane", "0"}}));
    const ht::MetricsSnapshot::Entry *lat =
        snap.find("server.request_latency_us");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count, 100u);
    EXPECT_DOUBLE_EQ(stats.p50RequestLatencyUs, lat->percentile(50.0));
    EXPECT_DOUBLE_EQ(stats.p99RequestLatencyUs, lat->percentile(99.0));
}

// ------------------------------------------------------------ JSON export

TEST(Telemetry, ServeStatsJsonCarriesSchemaMetricsAndSpans)
{
    ht::MetricRegistry registry;
    registry.counter("queue.accepted", {{"lane", "0"}}).add(123);
    registry.gauge("depth").set(-4);
    registry.histogram("server.request_latency_us").observe(10.0);
    registry.histogram("server.request_latency_us").observe(20.0);

    ht::TraceSink sink(4);
    std::uint16_t id = sink.internModel("front");
    ht::RequestSpan span;
    span.ticket = 7;
    span.lane = 1;
    span.hops[0] = id;
    span.hopCount = 1;
    span.retries = 2;
    span.outcome = ht::SpanOutcome::kFailed;
    span.latencyUs = 41.5;
    sink.record(span);

    std::ostringstream out;
    ht::writeServeStatsJson(out, registry.snapshot(), &sink);
    const std::string json = out.str();

    EXPECT_NE(json.find(ht::kServeStatsSchema), std::string::npos);
    EXPECT_NE(json.find("\"queue.accepted\""), std::string::npos);
    EXPECT_NE(json.find("\"value\": 123"), std::string::npos);
    EXPECT_NE(json.find("\"labels\": {\"lane\": \"0\"}"),
              std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"gauge\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"histogram\""), std::string::npos);
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    EXPECT_NE(json.find("\"spans_recorded\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"hops\": [\"front\"]"), std::string::npos);
    EXPECT_NE(json.find("\"outcome\": \"failed\""), std::string::npos);
    EXPECT_NE(json.find("\"retries\": 2"), std::string::npos);

    // No spans section content without a sink, but the dump still
    // carries the schema and metrics.
    std::ostringstream bare;
    ht::writeServeStatsJson(bare, registry.snapshot(), nullptr);
    EXPECT_NE(bare.str().find(ht::kServeStatsSchema), std::string::npos);
    EXPECT_NE(bare.str().find("\"spans_recorded\": 0"),
              std::string::npos);
}
