// routed_closed: raw feature rows into a routed, sharded server, closed
// loop.
//
// One generator thread keeps a fixed number of requests in flight (well
// below lane depth, so nothing is shed) against a 2-shard ShardedServer
// over one shared ModelRegistry. Every row enters a small front model;
// a chain rule sends the rows it flags (a material share) on to a much
// deeper model. The generator also swaps the front model between two
// versions on a fixed row-count schedule, so registry writes run beside
// the per-batch pin reads. Parsing is bypassed: engine, kernels, router,
// registry and shard balance do the work, and the deep model is sized
// so the batchers, not the generator, bound throughput.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "common/rng.hpp"
#include "measure.hpp"
#include "ml/preprocess.hpp"
#include "runtime/model_registry.hpp"
#include "runtime/sharded_server.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace hr = homunculus::runtime;
namespace hm = homunculus::math;

constexpr std::size_t kWidth = 16;
constexpr std::size_t kShards = 2;
constexpr std::size_t kInFlight = 256;
constexpr std::size_t kMaxBatch = 64;
constexpr std::uint64_t kMaxDelayUs = 200;
constexpr std::size_t kPoolRows = std::size_t{1} << 16;
constexpr std::size_t kTrainRows = 4000;
constexpr std::size_t kSwapEveryRows = 100'000;
constexpr std::size_t kWarmupRows = 20'000;
constexpr int kSetupRepeats = 5;
constexpr int kChainLabel = 1;  ///< the front model's "suspicious" class.
constexpr std::size_t kPendingSlots = 4096;
/** Per-request slots a traced phase reserves per sink (above the
 *  whole server's verdicts in a traced half-run on the reference host). */
constexpr std::size_t kTracedReserve = 4'000'000;

/** Two overlapping classes in 16 dimensions; class 1 shifts the first
 *  eight features and couples features 8..11, so a deeper model does
 *  better than the front one. */
homunculus::ml::Dataset
makeRows(std::size_t rows, std::uint64_t seed)
{
    homunculus::common::Rng rng(seed);
    homunculus::ml::Dataset data;
    data.numClasses = 2;
    data.x = hm::Matrix(rows, kWidth);
    data.y.resize(rows);
    for (std::size_t r = 0; r < rows; ++r) {
        int label = rng.bernoulli(0.4) ? 1 : 0;
        double *x = data.x.rowPtr(r);
        for (std::size_t c = 0; c < kWidth; ++c)
            x[c] = rng.gaussian(0.0, 1.0) * 3.0 + 10.0;
        if (label == 1) {
            for (std::size_t c = 0; c < 8; ++c)
                x[c] += 1.2;
            x[8] += (x[9] - 10.0) * 0.8;
            x[10] -= (x[11] - 10.0) * 0.8;
        }
        data.y[r] = label;
    }
    return data;
}

struct Inputs
{
    homunculus::ir::ModelIr front[2];
    homunculus::ir::ModelIr deep;
    hm::Matrix rows;                       ///< raw pool rows.
    std::vector<std::uint64_t> flowKeys;   ///< one per pool row.
    std::vector<int> truth;
    std::vector<int> frontRef[2];          ///< executeIr per version.
    std::vector<int> deepRef;
};

Inputs
makeInputs(std::uint64_t seed)
{
    Inputs in;
    homunculus::ml::Dataset train = makeRows(kTrainRows, seed * 3 + 1);
    in.front[0] = trainModel(train, {8}, 10, seed * 5 + 1, "front");
    in.front[1] = trainModel(train, {8}, 10, seed * 5 + 2, "front");
    in.deep = trainModel(train, {64, 64}, 10, seed * 5 + 3, "deep");

    homunculus::ml::Dataset pool = makeRows(kPoolRows, seed * 3 + 2);
    in.rows = pool.x;
    in.truth = pool.y;
    homunculus::common::Rng keys(seed * 3 + 3);
    for (std::size_t r = 0; r < kPoolRows; ++r) {
        in.flowKeys.push_back(static_cast<std::uint64_t>(
            keys.uniformInt(0, std::numeric_limits<std::int64_t>::max())));
        std::vector<double> raw(in.rows.rowPtr(r), in.rows.rowPtr(r) + kWidth);
        for (int v = 0; v < 2; ++v)
            in.frontRef[v].push_back(homunculus::ir::executeIr(
                in.front[v], scaleRow(raw, in.front[v])));
        in.deepRef.push_back(
            homunculus::ir::executeIr(in.deep, scaleRow(raw, in.deep)));
    }
    return in;
}

/** The verdict callback's half of a request, parked until the trace
 *  callback (same batcher thread, same batch) adds the route. */
struct Pending
{
    std::uint64_t ticket = 0;
    std::int64_t enqueuedNs = 0;
    std::int64_t verdictNs = 0;
    int verdict = -1;
};

class Rig
{
  public:
    explicit Rig(const Inputs &in)
        : in_(in), sinks_(kShards + 1),
          pending_(kShards, std::vector<Pending>(kPendingSlots)),
          joiner_(kShards, [this](const SentHalf &s, const ServedHalf &v,
                                  std::size_t sink) { complete(s, v, sink); })
    {
        resetSinks(sinks_, 1, 0, 2);
        hr::EngineOptions engine_options;
        engine_options.jobs = 1;
        registry_ = std::make_shared<hr::ModelRegistry>(engine_options);
        versions_[0] = registry_->load("front", in.front[0]);
        versions_[1] = registry_->load("front", in.front[1], false);
        deepVersion_ = registry_->load("deep", in.deep);

        hr::RouteConfig route;
        route.defaultModel = "front";
        route.chain = {{"front", kChainLabel, "deep"}};
        route.maxChainDepth = 2;
        hr::ShardedServerConfig config;
        config.shards = kShards;
        config.server.queue.maxBatch = kMaxBatch;
        config.server.queue.maxDelayUs = kMaxDelayUs;
        config.server.queue.maxDepth = 8192;
        server_ = std::make_unique<hr::ShardedServer>(
            registry_, route, config,
            [this](const hr::Request &request, int verdict) {
                Pending &p = pendingFor(request.id);
                p.ticket = request.id;
                p.enqueuedNs = toNs(request.enqueuedAt);
                p.verdictNs = nowNs();
                p.verdict = verdict;
            },
            [this](const hr::Request &request, const hr::RouteTrace &trace) {
                const Pending &p = pendingFor(request.id);
                ServedHalf half;
                half.ticket = request.id;
                half.enqueuedNs = p.enqueuedNs;
                half.verdictNs = p.verdictNs;
                half.verdict = p.ticket == request.id ? p.verdict : -2;
                half.hops = static_cast<std::uint32_t>(trace.hops.size());
                if (!trace.hops.empty()) {
                    half.entryVersion = trace.hops[0].version;
                    half.entryLabel = trace.hops[0].label;
                }
                if (trace.hops.size() > 1)
                    half.deepVersion = trace.hops[1].version;
                joiner_.served(half);
            });
    }

    hr::ShardedServer &server() { return *server_; }
    hr::ModelRegistry &registry() { return *registry_; }
    Joiner &joiner() { return joiner_; }
    std::vector<Sink> &sinks() { return sinks_; }
    std::uint64_t version(int v) const { return versions_[v]; }

    /** Start a timed phase of @p seconds beginning at @p start_ns. */
    void beginPhase(std::int64_t start_ns, double seconds, bool traced)
    {
        phaseStartNs_ = start_ns;
        auto windows = static_cast<std::size_t>(
            std::ceil(seconds * 1e9 / static_cast<double>(kWindowNs)));
        resetSinks(sinks_, windows, traced ? kTracedReserve : 0, 2);
    }

  private:
    Pending &pendingFor(std::uint64_t ticket)
    {
        return pending_[hr::ShardedServer::shardOfTicket(ticket) % kShards]
                       [ticket % kPendingSlots];
    }

    void complete(const SentHalf &s, const ServedHalf &v, std::size_t sink)
    {
        Sink &out = sinks_[sink];
        int entry = v.entryVersion == versions_[0]   ? 0
                    : v.entryVersion == versions_[1] ? 1
                                                     : -1;
        int front = entry >= 0 ? in_.frontRef[entry][s.item] : -1;
        bool chained = front == kChainLabel;
        int expected = chained ? in_.deepRef[s.item] : front;
        bool ok = entry >= 0 && v.entryLabel == front &&
                  v.hops == (chained ? 2u : 1u) && v.verdict == expected &&
                  (!chained || v.deepVersion == deepVersion_);
        if (!ok) {
            char buf[128];
            std::snprintf(buf, sizeof buf,
                          "row %u: front v%llu label %d hops %u verdict %d, "
                          "reference front %d verdict %d",
                          s.item,
                          static_cast<unsigned long long>(v.entryVersion),
                          v.entryLabel, v.hops, v.verdict, front, expected);
            out.mismatch(buf);
        }
        if (s.phase == Phase::kWarmup)
            return;
        out.record(s.startNs - phaseStartNs_, v.verdictNs - phaseStartNs_,
                   static_cast<double>(v.verdictNs - s.startNs) / 1e3,
                   in_.truth[s.item], v.verdict, 2);
        if (s.phase == Phase::kTraced) {
            out.submitUs.push_back(
                static_cast<double>(s.endNs - s.startNs) / 1e3);
            out.admitUs.push_back(
                static_cast<double>(v.verdictNs - v.enqueuedNs) / 1e3);
        }
    }

    const Inputs &in_;
    std::vector<Sink> sinks_;
    std::vector<std::vector<Pending>> pending_;  ///< [shard][ticket slot]
    Joiner joiner_;
    std::shared_ptr<hr::ModelRegistry> registry_;
    std::uint64_t versions_[2] = {0, 0};
    std::uint64_t deepVersion_ = 0;
    std::int64_t phaseStartNs_ = 0;
    std::unique_ptr<hr::ShardedServer> server_;
};

struct Sent
{
    Outcomes outcomes;
    std::uint64_t admitted = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    double busyUs = 0.0;             ///< traced: time inside submit.
    std::vector<double> swapUs;      ///< traced: registry swap calls.
    std::uint64_t swaps = 0;
};

/**
 * Closed loop: keep kInFlight requests outstanding until @p rows have
 * been sent or @p seconds have passed (whichever is set), cycling the
 * pool from item @p first and swapping the front model every
 * kSwapEveryRows rows.
 */
Sent
sendClosedLoop(Rig &rig, const Inputs &in, std::uint64_t &admitted_total,
               std::size_t first, std::size_t rows, double seconds,
               Phase phase)
{
    Sent sent;
    const bool traced = phase == Phase::kTraced;
    sent.startNs = nowNs();
    if (phase != Phase::kWarmup)
        rig.beginPhase(sent.startNs, seconds, traced);
    const std::int64_t deadline =
        seconds > 0 ? sent.startNs + static_cast<std::int64_t>(seconds * 1e9)
                    : std::numeric_limits<std::int64_t>::max();
    for (std::size_t i = 0; rows == 0 || i < rows; ++i) {
        // A full window sleeps rather than spins: the in-flight rows
        // keep both batchers fed for far longer than the nap.
        while (admitted_total - rig.joiner().joined() >= kInFlight)
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        SentHalf half;
        half.startNs = nowNs();
        if (half.startNs >= deadline)
            break;
        half.item = static_cast<std::uint32_t>((first + i) % kPoolRows);
        half.phase = phase;
        const double *src = in.rows.rowPtr(half.item);
        hr::SubmitResult result = rig.server().submit(
            in.flowKeys[half.item], std::vector<double>(src, src + kWidth));
        if (traced) {
            half.endNs = nowNs();
            sent.busyUs += static_cast<double>(half.endNs - half.startNs) / 1e3;
        }
        ++sent.outcomes.sent;
        switch (result.status) {
          case hr::SubmitStatus::kAdmitted:
            half.ticket = result.ticket;
            half.dueNs = half.startNs;
            rig.joiner().sent(half);
            ++sent.admitted;
            ++admitted_total;
            break;
          case hr::SubmitStatus::kShed: ++sent.outcomes.shed; break;
          case hr::SubmitStatus::kTimedOut: ++sent.outcomes.timedOut; break;
          default: ++sent.outcomes.rejected; break;
        }
        if ((first + i + 1) % kSwapEveryRows == 0) {
            int next = static_cast<int>(((first + i + 1) / kSwapEveryRows) % 2);
            std::int64_t t0 = nowNs();
            rig.registry().swap("front", rig.version(next));
            if (traced)
                sent.swapUs.push_back(static_cast<double>(nowNs() - t0) / 1e3);
            ++sent.swaps;
        }
    }
    sent.endNs = nowNs();
    return sent;
}

const hr::ModelStats *
modelStats(const hr::ServerStats &stats, const std::string &name)
{
    for (const hr::ModelStats &m : stats.models)
        if (m.name == name)
            return &m;
    return nullptr;
}

void
reportTracedLayers(Report &report, const Inputs &in, Rig &rig,
                   const hr::ServerStats &stats, Sent &traced,
                   double untraced_p50_us)
{
    std::vector<Sink> &sinks = rig.sinks();
    Windowed summary = windowed(sinks);
    report.metric("trace.overhead_p50_us", summary.p50Us - untraced_p50_us,
                  "us", summary.samples);
    report.metric("server.req_p99_us", summary.p99Us, "us", summary.samples);

    report.metric("loadgen.busy_frac",
                  traced.busyUs * 1e3 /
                      static_cast<double>(traced.endNs - traced.startNs),
                  "ratio");
    report.absent("loadgen.late_p50_us", "closed loop: nothing is due");
    report.absent("loadgen.late_p99_us", "closed loop: nothing is due");
    reportServingLayers(report, stats, sinks);

    const auto &shards = rig.server().shardStats();
    double max_rows = 0.0, sum_rows = 0.0;
    for (const hr::ServerStats &shard : shards) {
        max_rows = std::max(max_rows, static_cast<double>(shard.rowsServed));
        sum_rows += static_cast<double>(shard.rowsServed);
    }
    report.metric("sharded.skew",
                  max_rows / (sum_rows / static_cast<double>(shards.size())),
                  "ratio", shards.size());

    const hr::ModelStats *front = modelStats(stats, "front");
    const hr::ModelStats *deep = modelStats(stats, "deep");
    double chain_frac = 0.0;
    if (front && deep && front->rowsServed > 0) {
        chain_frac = static_cast<double>(deep->rowsServed) /
                     static_cast<double>(front->rowsServed);
        report.metric("router.front.step_p50_us", front->p50StepLatencyUs,
                      "us", front->stepLatencySamplesUs.size());
        report.metric("router.deep.step_p50_us", deep->p50StepLatencyUs, "us",
                      deep->stepLatencySamplesUs.size());
        report.metric("router.chain_frac", chain_frac, "ratio",
                      front->rowsServed);
        // Batch time not spent in model steps: the router's gather /
        // scatter and scaling, per batch, from the mean of each.
        double steps_us = mean(front->stepLatencySamplesUs) *
                              static_cast<double>(front->batches) +
                          mean(deep->stepLatencySamplesUs) *
                              static_cast<double>(deep->batches);
        report.metric("router.gather_us",
                      mean(stats.batchLatencySamplesUs) -
                          steps_us / static_cast<double>(stats.batches),
                      "us", stats.batches);
    } else {
        report.gate("router_models_reported", false,
                    "ServerStats has no front/deep model slices");
    }
    Percentile swap_p50 = nearestRank(traced.swapUs, 0.50);
    report.metric("registry.swap_p50_us", swap_p50.value, "us",
                  swap_p50.count);
    report.metric("registry.swaps", static_cast<double>(traced.swaps),
                  "count");

    auto front_epoch = rig.registry().active("front");
    auto deep_epoch = rig.registry().active("deep");
    hm::Matrix front_rows = front_epoch->scaler->transform(in.rows);
    hm::Matrix deep_rows = deep_epoch->scaler->transform(in.rows);
    report.metric("preprocess.scale_ns_per_row",
                  nsPerItem(in.rows.rows(), 0.3,
                            [&] {
                                (void)front_epoch->scaler->transform(in.rows);
                            }),
                  "ns", in.rows.rows());
    auto batch = static_cast<std::size_t>(
        std::max(1.0, std::round(stats.meanBatchRows)));
    auto deep_batch = static_cast<std::size_t>(
        std::max(1.0, std::round(stats.meanBatchRows * chain_frac)));
    double front_ns =
        engineNsPerRow(front_epoch->engine, front_rows, batch, 0.3);
    double deep_ns =
        engineNsPerRow(deep_epoch->engine, deep_rows, deep_batch, 0.3);
    report.metric("engine.ns_per_row", front_ns + chain_frac * deep_ns, "ns");
    report.metric("kernels.macs_per_row",
                  static_cast<double>(macsPerRow(in.front[0])) +
                      chain_frac * static_cast<double>(macsPerRow(in.deep)),
                  "count");
    report.absent("net.extract_ns_per_frame",
                  "raw feature rows: no frame is parsed");
}

}  // namespace

void
runRoutedClosed(const Args &args, Report &report)
{
    Inputs in = makeInputs(args.seed);
    report.meta("routed_closed.in_flight", std::to_string(kInFlight));
    report.meta("routed_closed.shards", std::to_string(kShards));
    report.meta("routed_closed.max_batch", std::to_string(kMaxBatch));

    // Set-up, several times: registry loads (three engine compiles),
    // sharded server construction, and a closed-loop warm-up.
    std::vector<double> setup_s;
    std::unique_ptr<Rig> rig;
    std::uint64_t admitted = 0;
    for (int r = 0; r < kSetupRepeats; ++r) {
        rig.reset();
        admitted = 0;
        double t0 = nowSeconds();
        rig = std::make_unique<Rig>(in);
        sendClosedLoop(*rig, in, admitted, 0, kWarmupRows, 0.0, Phase::kWarmup);
        bool drained = rig->joiner().drain(admitted);
        setup_s.push_back(nowSeconds() - t0);
        if (!drained) {
            report.gate("warm_up_drained", false, "warm-up verdicts missing");
            return;
        }
    }

    const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
    Sent timed = sendClosedLoop(*rig, in, admitted, kWarmupRows, 0, phase_s,
                                Phase::kTimed);
    bool drained = rig->joiner().drain(admitted);
    Windowed untraced = windowed(rig->sinks());
    double f1 = f1FromConfusion(rig->sinks(), 2);

    Sent traced;
    if (args.trace) {
        traced = sendClosedLoop(*rig, in, admitted,
                                kWarmupRows + timed.outcomes.sent, 0, phase_s,
                                Phase::kTraced);
        drained = rig->joiner().drain(admitted) && drained;
    }
    hr::ServerStats stats = rig->server().stop();

    report.gate("front_swapped", timed.swaps + traced.swaps > 0,
                std::to_string(timed.swaps + traced.swaps) +
                    " front-model swaps during timing");
    Outcomes sent = timed.outcomes;
    sent += traced.outcomes;
    finishServing(report, stats, rig->sinks(), rig->joiner(), admitted,
                  drained, sent);

    if (!args.trace) {
        reportEndToEnd(report, untraced, untraced.perSecond, f1, setup_s);
        return;
    }
    reportTracedLayers(report, in, *rig, stats, traced, untraced.p50Us);
}

}  // namespace perfbench
