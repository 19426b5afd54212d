// frames_open: the operator's frame-in -> verdict-out path, open loop.
//
// One generator thread sends pre-serialized IoT wire frames to a
// single-model Server (one lane, jobs = 1) at a fixed absolute rate.
// Each request is timed from when it was due, so a stall is charged to
// every request it delayed. The rate and batch size keep batches
// flushing on size, with the fill wait a minority of the median, so the
// latency reflects parse/extract/scale/admission and engine work rather
// than the flush timer.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/rng.hpp"
#include "measure.hpp"
#include "ml/preprocess.hpp"
#include "net/feature_extract.hpp"
#include "net/packet.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace hr = homunculus::runtime;
namespace hn = homunculus::net;
namespace hm = homunculus::math;

constexpr double kRateHz = 50'000.0;
constexpr std::size_t kMaxBatch = 2;
constexpr std::uint64_t kMaxDelayUs = 200;
constexpr std::size_t kPoolFrames = std::size_t{1} << 16;
constexpr std::size_t kTrainPackets = 8000;
constexpr std::size_t kWarmupFrames = 20'000;
constexpr std::size_t kWarmupInFlight = 256;
constexpr int kSetupRepeats = 5;
constexpr double kStageSumTolerance = 0.05;
constexpr int kClasses = 5;  ///< IoT device archetypes.

struct Inputs
{
    homunculus::ir::ModelIr model;
    std::vector<std::vector<std::uint8_t>> frames;
    std::vector<int> truth;      ///< device class per frame.
    std::vector<int> reference;  ///< ir::executeIr verdict per frame.
    hm::Matrix features;         ///< extracted, unscaled, per frame.
};

/**
 * Randomize the header fields that give a device class away (TTL, TOS,
 * ports) on half of the packets. Unblurred, every class is separable by
 * its ports alone, so a numeric fault in parse / extract / scale flips
 * no verdict and the reference check could not see it; blurred, classes
 * overlap and frames sit near the model's decision boundaries.
 */
void
blurHeaders(std::vector<hn::LabeledPacket> &packets, std::uint64_t seed)
{
    homunculus::common::Rng rng(seed);
    auto port = [&rng] {
        return static_cast<std::uint16_t>(rng.uniformInt(1, 65535));
    };
    for (hn::LabeledPacket &labeled : packets) {
        if (!rng.bernoulli(0.5))
            continue;
        hn::RawPacket &packet = labeled.packet;
        packet.ipv4.ttl = static_cast<std::uint8_t>(rng.uniformInt(32, 128));
        packet.ipv4.tos = static_cast<std::uint8_t>(rng.uniformInt(0, 63) << 2);
        if (packet.tcp) {
            packet.tcp->srcPort = port();
            packet.tcp->dstPort = port();
        }
        if (packet.udp) {
            packet.udp->srcPort = port();
            packet.udp->dstPort = port();
        }
    }
}

Inputs
makeInputs(std::uint64_t seed)
{
    Inputs in;
    hn::FeatureExtractor extractor;

    hn::IotPacketConfig train_config;
    train_config.numPackets = kTrainPackets;
    train_config.seed = seed * 2 + 1;
    std::vector<hn::LabeledPacket> train_packets =
        hn::generateIotPackets(train_config);
    blurHeaders(train_packets, seed * 2 + 3);
    homunculus::ml::Dataset train =
        hn::datasetFromPackets(train_packets, extractor);
    in.model = trainModel(train, {16, 16}, 10, seed, "frames_mlp");

    hn::IotPacketConfig pool_config;
    pool_config.numPackets = kPoolFrames;
    pool_config.seed = seed * 2 + 2;
    std::vector<hn::LabeledPacket> packets =
        hn::generateIotPackets(pool_config);
    blurHeaders(packets, seed * 2 + 4);
    in.features = hm::Matrix(packets.size(), hn::kNumTcFeatures);
    for (const hn::LabeledPacket &labeled : packets) {
        std::vector<std::uint8_t> frame = hn::serialize(labeled.packet);
        auto features = extractor.extractFromWire(frame);
        if (!features)
            continue;  // the pool holds only frames the server can parse
        std::size_t row = in.frames.size();
        std::copy(features->begin(), features->end(),
                  in.features.rowPtr(row));
        in.reference.push_back(homunculus::ir::executeIr(
            in.model, scaleRow(*features, in.model)));
        in.truth.push_back(labeled.deviceClass);
        in.frames.push_back(std::move(frame));
    }
    in.features.resizeRows(in.frames.size());
    return in;
}

/** One server plus the bookkeeping its callbacks feed. Members are
 *  declared so the server (and its batcher) goes first on teardown. */
class Rig
{
  public:
    explicit Rig(const Inputs &in)
        : in_(in), sinks_(2),
          joiner_(1, [this](const SentHalf &s, const ServedHalf &v,
                            std::size_t sink) { complete(s, v, sink); })
    {
        resetSinks(sinks_, 1, 0, kClasses);
        hr::ServerConfig config;
        config.queue.maxBatch = kMaxBatch;
        config.queue.maxDelayUs = kMaxDelayUs;
        config.queue.maxDepth = 65'536;
        hr::EngineOptions engine_options;
        engine_options.jobs = 1;
        server_ = std::make_unique<hr::Server>(
            hr::InferenceEngine::fromModel(in.model, engine_options), config,
            [this](const hr::Request &request, int verdict) {
                ServedHalf half;
                half.ticket = request.id;
                half.enqueuedNs = toNs(request.enqueuedAt);
                half.verdictNs = nowNs();
                half.verdict = verdict;
                joiner_.served(half);
            },
            homunculus::ml::StandardScaler::fromMoments(
                in.model.scalerMeans, in.model.scalerStds));
    }

    hr::Server &server() { return *server_; }
    Joiner &joiner() { return joiner_; }
    std::vector<Sink> &sinks() { return sinks_; }

    /** Start a timed phase of @p seconds whose schedule begins at
     *  @p start_ns. */
    void beginPhase(std::int64_t start_ns, double seconds, bool traced)
    {
        phaseStartNs_ = start_ns;
        auto windows = static_cast<std::size_t>(
            std::ceil(seconds * 1e9 / static_cast<double>(kWindowNs)));
        auto requests = static_cast<std::size_t>(kRateHz * seconds * 1.05);
        resetSinks(sinks_, windows, traced ? requests : 0, kClasses);
    }

  private:
    void complete(const SentHalf &s, const ServedHalf &v, std::size_t sink)
    {
        Sink &out = sinks_[sink];
        int expected = in_.reference[s.item];
        if (v.verdict != expected) {
            char buf[96];
            std::snprintf(buf, sizeof buf, "frame %u got %d, reference %d",
                          s.item, v.verdict, expected);
            out.mismatch(buf);
        }
        if (s.phase == Phase::kWarmup)
            return;
        DueLatency due = dueLatency({s.dueNs, s.startNs, v.verdictNs});
        out.record(s.dueNs - phaseStartNs_, v.verdictNs - phaseStartNs_,
                   due.latencyUs, in_.truth[s.item], v.verdict, kClasses);
        out.lastVerdictNs = std::max(out.lastVerdictNs, v.verdictNs);
        if (s.phase == Phase::kTraced) {
            out.lateUs.push_back(due.lateUs);
            out.submitUs.push_back(
                static_cast<double>(s.endNs - s.startNs) / 1e3);
            out.admitUs.push_back(
                static_cast<double>(v.verdictNs - v.enqueuedNs) / 1e3);
            out.overlapUs.push_back(
                static_cast<double>(s.endNs - v.enqueuedNs) / 1e3);
        }
    }

    const Inputs &in_;
    std::vector<Sink> sinks_;
    Joiner joiner_;
    std::int64_t phaseStartNs_ = 0;
    std::unique_ptr<hr::Server> server_;
};

/** What the generator counted over one phase. */
struct Sent
{
    Outcomes outcomes;
    std::uint64_t admitted = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    double busyUs = 0.0;  ///< traced: time inside submitFrame.
};

/** Closed-loop warm-up: @p count frames, at most kWarmupInFlight out. */
std::uint64_t
warmUp(Rig &rig, const Inputs &in, std::size_t count)
{
    std::uint64_t admitted = 0;
    for (std::size_t i = 0; i < count; ++i) {
        while (admitted - rig.joiner().joined() >= kWarmupInFlight)
            std::this_thread::yield();
        auto item = static_cast<std::uint32_t>(i % in.frames.size());
        hr::SubmitResult result = rig.server().submitFrame(in.frames[item]);
        if (result.admitted()) {
            SentHalf half;
            half.ticket = result.ticket;
            half.item = item;
            rig.joiner().sent(half);
            ++admitted;
        }
    }
    return admitted;
}

/** Open loop: @p count frames at kRateHz starting from pool item
 *  @p first, each timed from its due time. */
Sent
sendOpenLoop(Rig &rig, const Inputs &in, std::size_t first,
             std::size_t count, Phase phase)
{
    Sent sent;
    sent.startNs = nowNs() + 1'000'000;  // 1 ms lead to settle
    const bool traced = phase == Phase::kTraced;
    rig.beginPhase(sent.startNs, static_cast<double>(count) / kRateHz, traced);
    for (std::size_t i = 0; i < count; ++i) {
        SentHalf half;
        half.dueNs = sent.startNs + dueOffsetNs(i, kRateHz);
        half.item = static_cast<std::uint32_t>((first + i) % in.frames.size());
        half.phase = phase;
        spinUntil(half.dueNs);
        if (traced)
            half.startNs = nowNs();
        hr::SubmitResult result =
            rig.server().submitFrame(in.frames[half.item]);
        if (traced) {
            half.endNs = nowNs();
            sent.busyUs += static_cast<double>(half.endNs - half.startNs) / 1e3;
        }
        ++sent.outcomes.sent;
        switch (result.status) {
          case hr::SubmitStatus::kAdmitted:
            half.ticket = result.ticket;
            rig.joiner().sent(half);
            ++sent.admitted;
            break;
          case hr::SubmitStatus::kShed: ++sent.outcomes.shed; break;
          case hr::SubmitStatus::kTimedOut: ++sent.outcomes.timedOut; break;
          default: ++sent.outcomes.rejected; break;
        }
    }
    sent.endNs = nowNs();
    return sent;
}

void
reportTracedLayers(Report &report, const Inputs &in, Rig &rig,
                   const hr::ServerStats &stats, const Sent &traced,
                   double untraced_p50_us)
{
    std::vector<Sink> &sinks = rig.sinks();
    Windowed summary = windowed(sinks);
    std::vector<double> late = gather(sinks, &Sink::lateUs);
    std::vector<double> submit = gather(sinks, &Sink::submitUs);
    std::vector<double> admit = gather(sinks, &Sink::admitUs);

    double overlap = mean(gather(sinks, &Sink::overlapUs));
    StageSum sum = stageSum(mean(late), mean(submit), mean(admit), overlap,
                            summary.meanUs, kStageSumTolerance);
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "mean late + submit + admit-to-verdict - submit after "
                  "admission (%.3f us) = %.3f us vs end-to-end %.3f us "
                  "(|err| %.4f, tolerance %.2f)",
                  overlap, sum.sumUs, sum.e2eUs, sum.relErr,
                  kStageSumTolerance);
    report.gate("stage_sum", sum.ok, buf);

    report.metric("trace.overhead_p50_us", summary.p50Us - untraced_p50_us,
                  "us", summary.samples);
    report.metric("server.req_p99_us", summary.p99Us, "us", summary.samples);
    Percentile late_p50 = nearestRank(late, 0.50);
    Percentile late_p99 = nearestRank(late, 0.99);
    report.metric("loadgen.late_p50_us", late_p50.value, "us",
                  late_p50.count);
    report.metric("loadgen.late_p99_us", late_p99.value, "us",
                  late_p99.count);
    report.metric("loadgen.busy_frac",
                  traced.busyUs * 1e3 /
                      static_cast<double>(traced.endNs - traced.startNs),
                  "ratio");
    reportServingLayers(report, stats, sinks);
    report.absent("sharded.skew", "single Server: one shard");

    hn::FeatureExtractor extractor;
    report.metric("net.extract_ns_per_frame",
                  nsPerItem(in.frames.size(), 0.3, [&] {
                      for (const auto &frame : in.frames)
                          if (!extractor.extractFromWire(frame))
                              std::abort();
                  }),
                  "ns", in.frames.size());
    auto scaler = homunculus::ml::StandardScaler::fromMoments(
        in.model.scalerMeans, in.model.scalerStds);
    report.metric("preprocess.scale_ns_per_row",
                  nsPerItem(in.features.rows(), 0.3,
                            [&] { (void)scaler.transform(in.features); }),
                  "ns", in.features.rows());

    hm::Matrix scaled = scaler.transform(in.features);
    auto batch = static_cast<std::size_t>(
        std::max(1.0, std::round(stats.meanBatchRows)));
    report.metric("engine.ns_per_row",
                  engineNsPerRow(rig.server().engine(), scaled, batch, 0.3),
                  "ns");
    report.metric("kernels.macs_per_row",
                  static_cast<double>(macsPerRow(in.model)), "count");
}

}  // namespace

void
runFramesOpen(const Args &args, Report &report)
{
    Inputs in = makeInputs(args.seed);
    report.meta("frames_open.rate_hz", std::to_string(kRateHz));
    report.meta("frames_open.max_batch", std::to_string(kMaxBatch));
    report.meta("frames_open.pool_frames", std::to_string(in.frames.size()));

    // Set-up, several times: engine compile, server construction, and a
    // closed-loop warm-up; the last rig is the one measured.
    std::vector<double> setup_s;
    std::unique_ptr<Rig> rig;
    std::uint64_t admitted = 0;
    for (int r = 0; r < kSetupRepeats; ++r) {
        rig.reset();
        double t0 = nowSeconds();
        rig = std::make_unique<Rig>(in);
        admitted = warmUp(*rig, in, kWarmupFrames);
        bool drained = rig->joiner().drain(admitted);
        setup_s.push_back(nowSeconds() - t0);
        if (!drained) {
            report.gate("warm_up_drained", false, "warm-up verdicts missing");
            return;
        }
    }

    // Timed phase(s). A traced run first repeats the untraced phase on
    // half the time, so the tracing overhead is measured, not assumed.
    const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
    const auto count = static_cast<std::size_t>(phase_s * kRateHz);
    Sent timed = sendOpenLoop(*rig, in, 0, count, Phase::kTimed);
    admitted += timed.admitted;
    bool drained = rig->joiner().drain(admitted);
    Windowed untraced = windowed(rig->sinks());
    double f1 = f1FromConfusion(rig->sinks(), kClasses);
    double delivered = deliveredPerSecond(rig->sinks(), timed.startNs);

    Sent traced;
    if (args.trace) {
        traced = sendOpenLoop(*rig, in, count, count, Phase::kTraced);
        admitted += traced.admitted;
        drained = rig->joiner().drain(admitted) && drained;
    }
    hr::ServerStats stats = rig->server().stop();

    Outcomes sent = timed.outcomes;
    sent += traced.outcomes;
    finishServing(report, stats, rig->sinks(), rig->joiner(), admitted,
                  drained, sent);

    if (!args.trace) {
        // An open loop's delivered rate is its schedule unless the
        // server falls behind, so it is the whole run's, not a window's.
        reportEndToEnd(report, untraced, delivered, f1, setup_s);
        return;
    }
    reportTracedLayers(report, in, *rig, stats, traced, untraced.p50Us);
}

}  // namespace perfbench
