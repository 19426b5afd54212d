/**
 * @file
 * Unified telemetry: one metric registry behind every stats struct.
 *
 * Every layer of the serving plane (queue, server, router, model
 * registry, fault injector, engine, shards) used to keep bespoke
 * counters and latency reservoirs and hand-roll its own merge
 * arithmetic. This header extracts that machinery once:
 *
 *  - Counter    — monotonically increasing, relaxed-atomic add.
 *  - Gauge      — settable signed level (queue depth, active version).
 *  - Histogram  — the bounded uniform reservoir (Vitter Algorithm R)
 *                 extracted from the server's latency tracking, with
 *                 nearest-rank percentiles over the retained sample.
 *
 * Instruments live in a MetricRegistry addressed by name plus a label
 * set ("queue.accepted" {lane=2}, "engine.rows" {target=avx2}). The
 * registry resolves an instrument once under a mutex and hands back a
 * stable pointer; hot-path updates after that are lock-free for
 * counters/gauges and per-instrument-mutex for histograms — no shared
 * lock is ever taken on the serving fast path. snapshot() captures a
 * consistent view, and MetricsSnapshot::merge implements the one true
 * cross-shard merge (counters sum, gauges sum, reservoirs concatenate)
 * that ShardedServer::stop and the stats exporter both use.
 *
 * The legacy public structs (QueueCounters, ServerStats, LaneStats,
 * BreakerSnapshot, ...) survive as thin views materialized from these
 * instruments, bit-identical to their pre-refactor values.
 *
 * Request-lifecycle spans ride alongside: an opt-in TraceSink records
 * one fixed-size RequestSpan per finished request (ticket, lane,
 * enqueue/flush timestamps, model hops, retries, outcome, latency)
 * into a preallocated ring — zero allocation at steady state. homc
 * exports both via --serve-stats-json / --serve-stats-every.
 */
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace homunculus::runtime::telemetry {

/** One label dimension of an instrument, e.g. {"lane", "2"}. */
struct Label
{
    std::string key;
    std::string value;
};

/** A (possibly empty) label set; canonicalized by key internally. */
using Labels = std::vector<Label>;

/** Retained-sample cap of a Histogram reservoir (power of two). */
constexpr std::size_t kHistogramReservoirSize = 65536;

/** Monotonic event count; relaxed-atomic, safe from any thread. */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** A settable signed level (depths, active versions); relaxed-atomic. */
class Gauge
{
  public:
    void
    set(std::int64_t v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    void
    add(std::int64_t delta)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::int64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> value_{0};
};

/**
 * Bounded uniform reservoir over a stream of doubles — Vitter's
 * Algorithm R at kHistogramReservoirSize capacity, exactly the policy
 * the server's latency reservoirs used: below capacity every
 * observation is retained (percentiles are exact), above it each new
 * observation replaces a uniformly chosen slot. Guarded by a
 * per-histogram mutex; the serving hot path observes from exactly one
 * batcher thread per histogram, so the lock is uncontended there. The
 * reservoir is allocated whole on the first observation, so recording
 * never reallocates.
 */
class Histogram
{
  public:
    explicit Histogram(std::uint64_t seed) : rng_(seed) {}

    /** Record one observation. */
    void observe(double value) { observeMany(&value, 1); }

    /** Record @p n observations in order under one lock: the same
     *  reservoir, count and Rng draws as n observe() calls. */
    void observeMany(const double *values, std::size_t n);

    /** Total observations ever recorded (not capped by the reservoir). */
    std::uint64_t count() const;

    /** Copy of the retained sample (<= kHistogramReservoirSize values). */
    std::vector<double> samples() const;

    /** Nearest-rank percentile of the retained sample; 0 when empty. */
    double percentile(double p) const;

  private:
    mutable std::mutex mutex_;
    std::vector<double> samples_;
    std::uint64_t seen_ = 0;
    common::Rng rng_;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/**
 * A consistent point-in-time capture of a registry (or a merge of
 * several). Entries are kept sorted by (name, canonical labels) so
 * exports are deterministic.
 */
struct MetricsSnapshot
{
    struct Entry
    {
        std::string name;
        Labels labels;  ///< sorted by key
        MetricKind kind = MetricKind::kCounter;
        std::uint64_t count = 0;  ///< counter value, or histogram count
        std::int64_t gauge = 0;
        std::vector<double> samples;  ///< histogram reservoir contents

        /** Nearest-rank percentile of samples; 0 when empty. */
        double percentile(double p) const;
    };

    std::vector<Entry> entries;

    /**
     * Fold another snapshot in: matching (name, labels, kind) entries
     * sum their counters/gauges and concatenate reservoir samples;
     * unmatched entries are appended. This is the cross-shard merge.
     */
    MetricsSnapshot &merge(const MetricsSnapshot &other);

    /** Add a label (e.g. shard=0) to every entry; returns *this. */
    MetricsSnapshot &withLabel(const std::string &key,
                               const std::string &value);

    /** Entry with this name + exact label set, or nullptr. */
    const Entry *find(const std::string &name,
                      const Labels &labels = {}) const;

    /** Counter/histogram-count convenience; 0 when absent. */
    std::uint64_t counterValue(const std::string &name,
                               const Labels &labels = {}) const;

    /** Sum of `count` over every entry with this name (any labels). */
    std::uint64_t sumCounters(const std::string &name) const;
};

/**
 * Owns instruments keyed by name + label set. Resolution takes the
 * registry mutex once; the returned references are stable for the
 * registry's lifetime, so callers cache them and update lock-free.
 * Requesting the same (name, labels) with a different kind throws.
 */
class MetricRegistry
{
  public:
    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    Counter &counter(const std::string &name, const Labels &labels = {});
    Gauge &gauge(const std::string &name, const Labels &labels = {});
    Histogram &histogram(const std::string &name, const Labels &labels = {});

    MetricsSnapshot snapshot() const;

    /**
     * Process-wide registry for layers with no natural owner (engine
     * and kernel counters, global fault-injector fires, model-registry
     * events). Servers and queues get their own registries instead so
     * shards stay independently mergeable.
     */
    static MetricRegistry &global();

  private:
    struct Instrument
    {
        std::string name;
        Labels labels;  ///< sorted by key
        MetricKind kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Instrument &resolve(const std::string &name, const Labels &labels,
                        MetricKind kind);

    mutable std::mutex mutex_;
    std::map<std::string, Instrument> instruments_;  ///< by canonical key
};

// ------------------------------------------------- request-lifecycle spans

/** Most model hops a span can record (the default chain-depth cap). */
constexpr std::size_t kSpanMaxHops = 4;

enum class SpanOutcome : std::uint8_t { kServed, kFailed, kDropped };

/** Printable name of a span outcome ("served" / "failed" / "dropped"). */
const char *spanOutcomeName(SpanOutcome outcome);

/**
 * One request's journey through the serving plane. Fixed-size: model
 * hops are interned ids into the owning TraceSink's name table, so
 * recording allocates nothing.
 */
struct RequestSpan
{
    std::uint64_t ticket = 0;
    std::uint32_t lane = 0;
    std::int64_t enqueuedAtUs = 0;  ///< microseconds since sink epoch
    std::int64_t flushedAtUs = 0;   ///< completion time, same epoch
    std::array<std::uint16_t, kSpanMaxHops> hops{};  ///< interned model ids
    std::uint8_t hopCount = 0;
    std::uint8_t retries = 0;  ///< bisect depth at which the row resolved
    SpanOutcome outcome = SpanOutcome::kServed;
    double latencyUs = 0.0;
};

/**
 * Opt-in ring buffer of RequestSpans. The ring is preallocated at
 * construction; record() claims a slot with one relaxed fetch_add and
 * writes in place — no locks, no allocation. When more spans arrive
 * than the ring holds, the oldest are overwritten (and a writer that
 * laps another by a full capacity may tear that one slot — the sink is
 * a diagnostic buffer, not an audit log). Model names are interned
 * once at server construction so steady-state recording never touches
 * the name table. snapshot() is meant for a quiesced sink (after
 * Server::stop), where it returns the retained spans oldest-first.
 */
class TraceSink
{
  public:
    explicit TraceSink(std::size_t capacity = 4096);

    /** Register a model name; returns its stable span id. */
    std::uint16_t internModel(const std::string &name);

    /** Name for an interned id ("?" when out of range). */
    const std::string &modelName(std::uint16_t id) const;

    /** Microseconds from the sink's epoch to `t` (for span stamps). */
    std::int64_t
    sinceEpochUs(std::chrono::steady_clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::microseconds>(
                   t - epoch_)
            .count();
    }

    /** Record one span (lock-free slot claim + in-place write). */
    void record(const RequestSpan &span);

    /** Total spans ever recorded (may exceed capacity). */
    std::uint64_t
    recorded() const
    {
        return head_.load(std::memory_order_relaxed);
    }

    std::size_t
    capacity() const
    {
        return ring_.size();
    }

    /** Retained spans, oldest-first. Call on a quiesced sink. */
    std::vector<RequestSpan> snapshot() const;

  private:
    std::vector<RequestSpan> ring_;
    std::atomic<std::uint64_t> head_{0};
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex namesMutex_;
    std::vector<std::string> names_;
};

// ----------------------------------------------------------- JSON export

/** Schema id stamped into every --serve-stats-json dump. */
constexpr const char *kServeStatsSchema = "homunculus.serve-stats.v1";

/**
 * Write the machine-readable end-of-run stats dump: the schema id, one
 * record per instrument (counters/gauges carry "value", histograms
 * carry "count"/"p50"/"p99"), and — when `spans` is non-null — the
 * retained request spans with hop ids resolved back to model names.
 * Same key style as the BENCH_*.json records.
 */
void writeServeStatsJson(std::ostream &out, const MetricsSnapshot &snapshot,
                         const TraceSink *spans);

}  // namespace homunculus::runtime::telemetry
