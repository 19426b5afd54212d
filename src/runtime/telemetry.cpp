/**
 * @file
 * Metric registry, reservoir histogram, span ring, and the stats-JSON
 * exporter. See telemetry.hpp for the design contract.
 */
#include "runtime/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "math/stats.hpp"

namespace homunculus::runtime::telemetry {

namespace {

/** Stable sort order for label sets: by key, then value. */
void
canonicalize(Labels &labels)
{
    std::sort(labels.begin(), labels.end(),
              [](const Label &a, const Label &b) {
                  return a.key != b.key ? a.key < b.key : a.value < b.value;
              });
}

/** Registry key: name{k=v,k=v} over the sorted label set. */
std::string
canonicalKey(const std::string &name, const Labels &sorted)
{
    std::string key = name;
    key += '{';
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        if (i != 0)
            key += ',';
        key += sorted[i].key;
        key += '=';
        key += sorted[i].value;
    }
    key += '}';
    return key;
}

bool
sameLabels(const Labels &a, const Labels &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].key != b[i].key || a[i].value != b[i].value)
            return false;
    return true;
}

/** FNV-1a 64 over the canonical key: deterministic histogram seeds. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

}  // namespace

// --------------------------------------------------------------- Histogram

void
Histogram::observeMany(const double *values, std::size_t n)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (n != 0 && samples_.capacity() < kHistogramReservoirSize)
        samples_.reserve(kHistogramReservoirSize);
    for (std::size_t i = 0; i < n; ++i) {
        ++seen_;
        if (samples_.size() < kHistogramReservoirSize) {
            samples_.push_back(values[i]);
            continue;
        }
        // Algorithm R: replace a uniform slot in [0, seen) if it lands
        // inside the reservoir — keeps the sample uniform over the
        // stream.
        auto slot = static_cast<std::uint64_t>(
            rng_.uniformInt(0, static_cast<std::int64_t>(seen_) - 1));
        if (slot < kHistogramReservoirSize)
            samples_[static_cast<std::size_t>(slot)] = values[i];
    }
}

std::uint64_t
Histogram::count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return seen_;
}

std::vector<double>
Histogram::samples() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_;
}

double
Histogram::percentile(double p) const
{
    std::vector<double> copy = samples();
    if (copy.empty())
        return 0.0;
    // math::percentileNearestRank takes a fraction in [0, 1]; the
    // instrument API speaks percentiles (50.0, 99.0) like the exports.
    return math::percentileNearestRank(std::move(copy), p / 100.0);
}

// --------------------------------------------------------- MetricsSnapshot

double
MetricsSnapshot::Entry::percentile(double p) const
{
    if (samples.empty())
        return 0.0;
    return math::percentileNearestRank(samples, p / 100.0);
}

MetricsSnapshot &
MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    for (const Entry &theirs : other.entries) {
        Entry *mine = nullptr;
        for (Entry &candidate : entries) {
            if (candidate.kind == theirs.kind &&
                candidate.name == theirs.name &&
                sameLabels(candidate.labels, theirs.labels)) {
                mine = &candidate;
                break;
            }
        }
        if (mine == nullptr) {
            entries.push_back(theirs);
            continue;
        }
        mine->count += theirs.count;
        mine->gauge += theirs.gauge;
        mine->samples.insert(mine->samples.end(), theirs.samples.begin(),
                             theirs.samples.end());
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return canonicalKey(a.name, a.labels) <
                         canonicalKey(b.name, b.labels);
              });
    return *this;
}

MetricsSnapshot &
MetricsSnapshot::withLabel(const std::string &key, const std::string &value)
{
    for (Entry &entry : entries) {
        entry.labels.push_back({key, value});
        canonicalize(entry.labels);
    }
    return *this;
}

const MetricsSnapshot::Entry *
MetricsSnapshot::find(const std::string &name, const Labels &labels) const
{
    Labels sorted = labels;
    canonicalize(sorted);
    for (const Entry &entry : entries)
        if (entry.name == name && sameLabels(entry.labels, sorted))
            return &entry;
    return nullptr;
}

std::uint64_t
MetricsSnapshot::counterValue(const std::string &name,
                              const Labels &labels) const
{
    const Entry *entry = find(name, labels);
    return entry != nullptr ? entry->count : 0;
}

std::uint64_t
MetricsSnapshot::sumCounters(const std::string &name) const
{
    std::uint64_t total = 0;
    for (const Entry &entry : entries)
        if (entry.name == name)
            total += entry.count;
    return total;
}

// ---------------------------------------------------------- MetricRegistry

MetricRegistry::Instrument &
MetricRegistry::resolve(const std::string &name, const Labels &labels,
                        MetricKind kind)
{
    Labels sorted = labels;
    canonicalize(sorted);
    std::string key = canonicalKey(name, sorted);

    std::lock_guard<std::mutex> lock(mutex_);
    auto it = instruments_.find(key);
    if (it != instruments_.end()) {
        if (it->second.kind != kind)
            throw std::logic_error("telemetry: instrument '" + key +
                                   "' re-registered with a different kind");
        return it->second;
    }
    Instrument instrument;
    instrument.name = name;
    instrument.labels = std::move(sorted);
    instrument.kind = kind;
    switch (kind) {
        case MetricKind::kCounter:
            instrument.counter = std::make_unique<Counter>();
            break;
        case MetricKind::kGauge:
            instrument.gauge = std::make_unique<Gauge>();
            break;
        case MetricKind::kHistogram:
            instrument.histogram = std::make_unique<Histogram>(fnv1a(key));
            break;
    }
    return instruments_.emplace(std::move(key), std::move(instrument))
        .first->second;
}

Counter &
MetricRegistry::counter(const std::string &name, const Labels &labels)
{
    return *resolve(name, labels, MetricKind::kCounter).counter;
}

Gauge &
MetricRegistry::gauge(const std::string &name, const Labels &labels)
{
    return *resolve(name, labels, MetricKind::kGauge).gauge;
}

Histogram &
MetricRegistry::histogram(const std::string &name, const Labels &labels)
{
    return *resolve(name, labels, MetricKind::kHistogram).histogram;
}

MetricsSnapshot
MetricRegistry::snapshot() const
{
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(mutex_);
    snap.entries.reserve(instruments_.size());
    for (const auto &[key, instrument] : instruments_) {
        (void)key;  // map order == canonical-key order already
        MetricsSnapshot::Entry entry;
        entry.name = instrument.name;
        entry.labels = instrument.labels;
        entry.kind = instrument.kind;
        switch (instrument.kind) {
            case MetricKind::kCounter:
                entry.count = instrument.counter->value();
                break;
            case MetricKind::kGauge:
                entry.gauge = instrument.gauge->value();
                break;
            case MetricKind::kHistogram:
                entry.count = instrument.histogram->count();
                entry.samples = instrument.histogram->samples();
                break;
        }
        snap.entries.push_back(std::move(entry));
    }
    return snap;
}

MetricRegistry &
MetricRegistry::global()
{
    static MetricRegistry instance;
    return instance;
}

// --------------------------------------------------------------- TraceSink

const char *
spanOutcomeName(SpanOutcome outcome)
{
    switch (outcome) {
        case SpanOutcome::kServed:
            return "served";
        case SpanOutcome::kFailed:
            return "failed";
        case SpanOutcome::kDropped:
            return "dropped";
    }
    return "unknown";
}

TraceSink::TraceSink(std::size_t capacity)
    : ring_(std::max<std::size_t>(capacity, 1)),
      epoch_(std::chrono::steady_clock::now())
{
}

std::uint16_t
TraceSink::internModel(const std::string &name)
{
    std::lock_guard<std::mutex> lock(namesMutex_);
    for (std::size_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name)
            return static_cast<std::uint16_t>(i);
    names_.push_back(name);
    return static_cast<std::uint16_t>(names_.size() - 1);
}

const std::string &
TraceSink::modelName(std::uint16_t id) const
{
    static const std::string kUnknown = "?";
    std::lock_guard<std::mutex> lock(namesMutex_);
    if (id >= names_.size())
        return kUnknown;
    return names_[id];
}

void
TraceSink::record(const RequestSpan &span)
{
    std::uint64_t slot = head_.fetch_add(1, std::memory_order_relaxed);
    ring_[static_cast<std::size_t>(slot % ring_.size())] = span;
}

std::vector<RequestSpan>
TraceSink::snapshot() const
{
    std::uint64_t total = head_.load(std::memory_order_acquire);
    std::size_t retained =
        static_cast<std::size_t>(std::min<std::uint64_t>(total, ring_.size()));
    std::vector<RequestSpan> spans;
    spans.reserve(retained);
    // Oldest retained span sits at head - retained (mod capacity).
    for (std::size_t i = 0; i < retained; ++i) {
        std::uint64_t index = total - retained + i;
        spans.push_back(ring_[static_cast<std::size_t>(index % ring_.size())]);
    }
    return spans;
}

// ------------------------------------------------------------ JSON export

namespace {

/** Minimal JSON string escaping (names here are plain identifiers). */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
            continue;
        }
        out += c;
    }
    return out;
}

std::string
fmtDouble(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return buf;
}

void
writeLabels(std::ostream &out, const Labels &labels)
{
    out << "{";
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i != 0)
            out << ", ";
        out << '"' << jsonEscape(labels[i].key) << "\": \""
            << jsonEscape(labels[i].value) << '"';
    }
    out << "}";
}

}  // namespace

void
writeServeStatsJson(std::ostream &out, const MetricsSnapshot &snapshot,
                    const TraceSink *spans)
{
    out << "{\n";
    out << "  \"schema\": \"" << kServeStatsSchema << "\",\n";
    out << "  \"metrics\": [\n";
    for (std::size_t i = 0; i < snapshot.entries.size(); ++i) {
        const MetricsSnapshot::Entry &entry = snapshot.entries[i];
        out << "    {\"name\": \"" << jsonEscape(entry.name)
            << "\", \"labels\": ";
        writeLabels(out, entry.labels);
        switch (entry.kind) {
            case MetricKind::kCounter:
                out << ", \"kind\": \"counter\", \"value\": " << entry.count;
                break;
            case MetricKind::kGauge:
                out << ", \"kind\": \"gauge\", \"value\": " << entry.gauge;
                break;
            case MetricKind::kHistogram:
                out << ", \"kind\": \"histogram\", \"count\": " << entry.count
                    << ", \"p50\": " << fmtDouble(entry.percentile(50.0))
                    << ", \"p99\": " << fmtDouble(entry.percentile(99.0));
                break;
        }
        out << "}" << (i + 1 < snapshot.entries.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    std::vector<RequestSpan> retained;
    std::uint64_t recorded = 0;
    if (spans != nullptr) {
        retained = spans->snapshot();
        recorded = spans->recorded();
    }
    out << "  \"spans_recorded\": " << recorded << ",\n";
    out << "  \"spans\": [\n";
    for (std::size_t i = 0; i < retained.size(); ++i) {
        const RequestSpan &span = retained[i];
        out << "    {\"ticket\": " << span.ticket
            << ", \"lane\": " << span.lane
            << ", \"enqueued_at_us\": " << span.enqueuedAtUs
            << ", \"flushed_at_us\": " << span.flushedAtUs << ", \"hops\": [";
        for (std::uint8_t h = 0; h < span.hopCount; ++h) {
            if (h != 0)
                out << ", ";
            out << '"' << jsonEscape(spans->modelName(span.hops[h])) << '"';
        }
        out << "], \"retries\": " << static_cast<unsigned>(span.retries)
            << ", \"outcome\": \"" << spanOutcomeName(span.outcome)
            << "\", \"latency_us\": " << fmtDouble(span.latencyUs) << "}"
            << (i + 1 < retained.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";
}

}  // namespace homunculus::runtime::telemetry
