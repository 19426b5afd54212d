#include "serving.hpp"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "measure.hpp"
#include "ml/mlp.hpp"
#include "ml/preprocess.hpp"
#include "runtime/sharded_server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace hr = homunculus::runtime;

Joiner::Joiner(std::size_t shards, CompleteFn complete)
    : shards_(std::max<std::size_t>(shards, 1)),
      slots_(new Slot[shards_ << kSlotBits]),
      complete_(std::move(complete))
{
}

Joiner::Slot &
Joiner::slotFor(std::uint64_t ticket)
{
    std::size_t shard = hr::ShardedServer::shardOfTicket(ticket);
    std::size_t low = static_cast<std::size_t>(ticket) &
                      ((std::size_t{1} << kSlotBits) - 1);
    return slots_[(shard << kSlotBits) | low];
}

void
Joiner::sent(const SentHalf &half)
{
    if (hr::ShardedServer::shardOfTicket(half.ticket) >= shards_) {
        collisions_.fetch_add(1);
        return;
    }
    Slot &slot = slotFor(half.ticket);
    std::uint32_t before = slot.halves.load(std::memory_order_acquire);
    if ((before & kSent) ||
        ((before & kServed) && slot.served.ticket != half.ticket)) {
        collisions_.fetch_add(1);
        return;
    }
    slot.sent = half;
    before = slot.halves.fetch_or(kSent, std::memory_order_acq_rel);
    if (before & kServed) {
        complete_(slot.sent, slot.served, 0);
        joined_.fetch_add(1, std::memory_order_relaxed);
        slot.halves.store(0, std::memory_order_release);
    }
}

void
Joiner::served(const ServedHalf &half)
{
    std::size_t shard = hr::ShardedServer::shardOfTicket(half.ticket);
    if (shard >= shards_) {
        collisions_.fetch_add(1);
        return;
    }
    Slot &slot = slotFor(half.ticket);
    std::uint32_t before = slot.halves.load(std::memory_order_acquire);
    if ((before & kServed) ||
        ((before & kSent) && slot.sent.ticket != half.ticket)) {
        collisions_.fetch_add(1);
        return;
    }
    slot.served = half;
    before = slot.halves.fetch_or(kServed, std::memory_order_acq_rel);
    if (before & kSent) {
        complete_(slot.sent, slot.served, 1 + shard);
        joined_.fetch_add(1, std::memory_order_relaxed);
        slot.halves.store(0, std::memory_order_release);
    }
}

bool
Joiner::drain(std::uint64_t admitted) const
{
    std::int64_t give_up = nowNs() + 30'000'000'000LL;
    while (joined() < admitted && nowNs() < give_up)
        std::this_thread::yield();
    return joined() >= admitted;
}

void
Sink::record(std::int64_t sent_ns, std::int64_t verdict_ns, double latency_us,
             int truth, int verdict, int classes)
{
    auto window = [this](std::int64_t ns) {
        auto w = static_cast<std::size_t>(std::max<std::int64_t>(0, ns) /
                                          kWindowNs);
        return std::min(w, windowUs.size() - 1);
    };
    windowUs[window(sent_ns)].add(static_cast<float>(latency_us), rng);
    ++doneByWindow[window(verdict_ns)];
    if (verdict >= 0 && verdict < classes)
        ++confusion[static_cast<std::size_t>(truth * classes + verdict)];
}

void
Sink::mismatch(const std::string &what)
{
    if (mismatches++ == 0)
        firstMismatch = what;
}

void
resetSinks(std::vector<Sink> &sinks, std::size_t windows,
           std::size_t traced_rows, int classes)
{
    for (Sink &sink : sinks) {
        sink.windowUs.assign(std::max<std::size_t>(windows, 1),
                             Reservoir(kWindowKeep));
        sink.doneByWindow.assign(sink.windowUs.size(), 0);
        sink.lateUs.clear();
        sink.submitUs.clear();
        sink.admitUs.clear();
        sink.overlapUs.clear();
        sink.lateUs.reserve(traced_rows);
        sink.submitUs.reserve(traced_rows);
        sink.admitUs.reserve(traced_rows);
        sink.overlapUs.reserve(traced_rows);
        sink.confusion.assign(static_cast<std::size_t>(classes * classes), 0);
        sink.lastVerdictNs = 0;
    }
}

std::vector<double>
gather(const std::vector<Sink> &sinks, std::vector<double> Sink::*field)
{
    std::size_t total = 0;
    for (const Sink &sink : sinks)
        total += (sink.*field).size();
    std::vector<double> out;
    out.reserve(total);
    for (const Sink &sink : sinks)
        out.insert(out.end(), (sink.*field).begin(), (sink.*field).end());
    return out;
}

double
deliveredPerSecond(const std::vector<Sink> &sinks, std::int64_t start_ns)
{
    std::uint64_t verdicts = 0;
    std::int64_t last = start_ns;
    for (const Sink &sink : sinks) {
        for (std::uint32_t done : sink.doneByWindow)
            verdicts += done;
        last = std::max(last, sink.lastVerdictNs);
    }
    return last > start_ns ? static_cast<double>(verdicts) * 1e9 /
                                 static_cast<double>(last - start_ns)
                           : 0.0;
}

Windowed
windowed(const std::vector<Sink> &sinks)
{
    Windowed out;
    std::size_t windows = sinks.empty() ? 0 : sinks.front().windowUs.size();
    std::vector<double> p50s, p90s, rates;
    std::vector<Weighted> window, all;
    for (std::size_t w = 0; w < windows; ++w) {
        window.clear();
        std::uint64_t seen = 0, done = 0;
        for (const Sink &sink : sinks) {
            sink.windowUs[w].appendTo(window);
            seen += sink.windowUs[w].seen();
            done += sink.doneByWindow[w];
        }
        // The last window also collects verdicts that land after the
        // phase ends, so its rate is not a window's rate.
        if (w + 1 < windows)
            rates.push_back(static_cast<double>(done) * 1e9 /
                            static_cast<double>(kWindowNs));
        if (seen == 0)
            continue;
        out.samples += seen;
        all.insert(all.end(), window.begin(), window.end());
        p50s.push_back(weightedRank(window, 0.50));
        p90s.push_back(weightedRank(window, 0.90));
    }
    out.windows = p50s.size();
    out.p50Us = nearestRank(p50s, kQuietDecile).value;
    out.p90Us = nearestRank(p90s, kQuietDecile).value;
    out.perSecond = nearestRank(rates, 1.0 - kQuietDecile).value;
    double sum = 0.0, weight = 0.0;
    for (const Weighted &s : all) {
        sum += s.value * s.weight;
        weight += s.weight;
    }
    out.meanUs = weight > 0 ? sum / weight : 0.0;
    out.p99Us = weightedRank(all, 0.99);
    return out;
}

double
f1FromConfusion(const std::vector<Sink> &sinks, int classes)
{
    const auto k = static_cast<std::size_t>(classes);
    std::vector<double> counts(k * k, 0.0);
    for (const Sink &sink : sinks)
        for (std::size_t i = 0; i < sink.confusion.size() && i < k * k; ++i)
            counts[i] += static_cast<double>(sink.confusion[i]);
    auto f1_of = [&](std::size_t c) {
        double tp = counts[c * k + c], predicted = 0.0, actual = 0.0;
        for (std::size_t o = 0; o < k; ++o) {
            predicted += counts[o * k + c];
            actual += counts[c * k + o];
        }
        double precision = predicted > 0 ? tp / predicted : 0.0;
        double recall = actual > 0 ? tp / actual : 0.0;
        return precision + recall > 0
                   ? 2 * precision * recall / (precision + recall)
                   : 0.0;
    };
    if (classes == 2)
        return f1_of(1);
    double sum = 0.0;
    for (std::size_t c = 0; c < k; ++c)
        sum += f1_of(c);
    return sum / static_cast<double>(k);
}

std::size_t
macsPerRow(const homunculus::ir::ModelIr &model)
{
    std::size_t macs = 0;
    for (const auto &layer : model.layers)
        macs += layer.inputDim * layer.outputDim;
    return macs;
}

double
engineNsPerRow(const hr::InferenceEngine &engine,
               const homunculus::math::Matrix &pool, std::size_t batch,
               double budget_s)
{
    batch = std::clamp<std::size_t>(batch, 1, pool.rows());
    homunculus::math::Matrix x(batch, pool.cols());
    std::vector<int> labels(batch);
    std::size_t offset = 0, rows = 0;
    double started = nowSeconds(), elapsed = 0.0, busy = 0.0;
    while (elapsed < budget_s) {
        if (offset + batch > pool.rows())
            offset = 0;
        for (std::size_t r = 0; r < batch; ++r)
            std::copy(pool.rowPtr(offset + r),
                      pool.rowPtr(offset + r) + pool.cols(), x.rowPtr(r));
        offset += batch;
        double t0 = nowSeconds();
        engine.run(x, labels.data());
        busy += nowSeconds() - t0;
        rows += batch;
        elapsed = nowSeconds() - started;
    }
    return busy * 1e9 / static_cast<double>(rows);
}

homunculus::ir::ModelIr
trainModel(const homunculus::ml::Dataset &raw, std::vector<std::size_t> hidden,
           std::size_t epochs, std::uint64_t seed, const std::string &name)
{
    homunculus::ml::StandardScaler scaler;
    homunculus::ml::Dataset scaled = raw;
    scaled.x = scaler.fitTransform(raw.x);

    homunculus::ml::MlpConfig config;
    config.inputDim = raw.numFeatures();
    config.hiddenLayers = std::move(hidden);
    config.numClasses = raw.numClasses;
    config.epochs = epochs;
    config.seed = seed;
    homunculus::ml::Mlp mlp(config);
    mlp.train(scaled);

    homunculus::ir::ModelIr model = homunculus::ir::lowerMlp(
        mlp, homunculus::common::FixedPointFormat::q88(), name);
    model.scalerMeans = scaler.means();
    model.scalerStds = scaler.stddevs();
    model.scalerRecorded = true;
    return model;
}

std::vector<double>
scaleRow(const std::vector<double> &row, const homunculus::ir::ModelIr &model)
{
    std::vector<double> out(row.size());
    for (std::size_t c = 0; c < row.size(); ++c)
        out[c] = (row[c] - model.scalerMeans[c]) / model.scalerStds[c];
    return out;
}

void
spinUntil(std::int64_t deadline_ns)
{
    while (nowNs() < deadline_ns) {
    }
}

void
reportEndToEnd(Report &report, const Windowed &summary, double per_second,
               double f1, std::vector<double> setup_s)
{
    report.meta("latency_windows", std::to_string(summary.windows));
    report.metric("req_p50_us", summary.p50Us, "us", summary.samples);
    report.metric("req_p90_us", summary.p90Us, "us", summary.samples);
    report.metric("req_per_s", per_second, "1/s", summary.samples);
    report.metric("f1", f1, "ratio", summary.samples);
    reportSetup(report, std::move(setup_s));
    report.metric("peak_rss_mb", peakRssMb(), "MiB");
    report.metric("server.req_p99_us", summary.p99Us, "us", summary.samples);
}

void
reportServingLayers(Report &report, const hr::ServerStats &stats,
                    const std::vector<Sink> &sinks)
{
    const auto &q = stats.queue;
    std::uint64_t flushes = q.sizeFlushes + q.deadlineFlushes + q.drainFlushes;
    report.metric("queue.mean_batch_rows", stats.meanBatchRows, "rows",
                  stats.batches);
    report.metric("queue.size_flush_frac",
                  flushes ? static_cast<double>(q.sizeFlushes) /
                                static_cast<double>(flushes)
                          : 0.0,
                  "ratio", flushes);
    report.metric("queue.shed", static_cast<double>(q.shed), "count");
    std::vector<double> batch_us = stats.batchLatencySamplesUs;
    Percentile batch_p50 = nearestRank(batch_us, 0.50);
    report.metric("engine.batch_p50_us", batch_p50.value, "us",
                  batch_p50.count);

    std::vector<double> admit = gather(sinks, &Sink::admitUs);
    std::vector<double> submit = gather(sinks, &Sink::submitUs);
    Percentile admit_p50 = nearestRank(admit, 0.50);
    Percentile submit_p50 = nearestRank(submit, 0.50);
    report.metric("server.admit_to_verdict_p50_us", admit_p50.value, "us",
                  admit_p50.count);
    report.metric("server.submit_p50_us", submit_p50.value, "us",
                  submit_p50.count);
    // Queue wait has no span of its own yet: it is what admission to
    // verdict leaves after the median batch's engine time.
    report.metric("queue.wait_p50_us",
                  std::max(0.0, admit_p50.value - batch_p50.value), "us",
                  admit_p50.count);
}

void
finishServing(Report &report, const hr::ServerStats &stats,
              const std::vector<Sink> &sinks, const Joiner &joiner,
              std::uint64_t admitted, bool drained, Outcomes sent)
{
    report.gate("timed_verdicts_drained", drained,
                std::to_string(joiner.joined()) + " of " +
                    std::to_string(admitted) + " admitted requests answered");
    std::uint64_t mismatches = 0;
    std::string first;
    for (const Sink &sink : sinks) {
        mismatches += sink.mismatches;
        if (first.empty())
            first = sink.firstMismatch;
    }
    char buf[160];
    std::snprintf(buf, sizeof buf, "%llu of %llu verdicts differ%s%s",
                  static_cast<unsigned long long>(mismatches),
                  static_cast<unsigned long long>(joiner.joined()),
                  first.empty() ? "" : "; first: ", first.c_str());
    report.gate("verdicts_match_reference",
                mismatches == 0 && joiner.joined() > 0, buf);

    std::snprintf(buf, sizeof buf,
                  "%llu joined of %llu admitted, %llu slot collisions",
                  static_cast<unsigned long long>(joiner.joined()),
                  static_cast<unsigned long long>(admitted),
                  static_cast<unsigned long long>(joiner.collisions()));
    report.gate("every_request_joined",
                joiner.collisions() == 0 &&
                    joiner.joined() + stats.failedRows +
                            stats.queue.earlyDropped ==
                        admitted,
                buf);

    std::uint64_t resolved =
        stats.rowsServed + stats.failedRows + stats.queue.earlyDropped;
    std::snprintf(buf, sizeof buf,
                  "served %zu + failed %zu + early-dropped %llu = %llu, "
                  "accepted %llu",
                  stats.rowsServed, stats.failedRows,
                  static_cast<unsigned long long>(stats.queue.earlyDropped),
                  static_cast<unsigned long long>(resolved),
                  static_cast<unsigned long long>(stats.queue.accepted));
    report.gate("resolved_exactly_once", resolved == stats.queue.accepted,
                buf);

    sent.failed = stats.failedRows;
    sent.earlyDropped = stats.queue.earlyDropped;
    report.outcomes(sent.sent, sent.notServed());
    report.metric("fail_frac", sent.failFrac(), "ratio", sent.sent);
}

}  // namespace perfbench
