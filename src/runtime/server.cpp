#include "runtime/server.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/string_util.hpp"

namespace homunculus::runtime {

namespace {

using Clock = std::chrono::steady_clock;

/** Translate a queue admission outcome into the submit result. */
SubmitStatus
submitStatusFor(Admission admission)
{
    switch (admission) {
      case Admission::kAdmitted: return SubmitStatus::kAdmitted;
      case Admission::kShed: return SubmitStatus::kShed;
      case Admission::kTimedOut: return SubmitStatus::kTimedOut;
      case Admission::kRejectedClosed:
        return SubmitStatus::kRejectedClosed;
    }
    return SubmitStatus::kShed;
}

/** p50/p99 and the retained samples of one latency reservoir; all
 *  left at their zeroed defaults when the snapshot has no such entry
 *  (a run that observed nothing has an empty reservoir, whose
 *  percentiles are 0 too). */
void
fillLatency(const telemetry::MetricsSnapshot::Entry *entry, double &p50,
            double &p99, std::vector<double> &samples)
{
    if (entry == nullptr)
        return;
    p50 = entry->percentile(50.0);
    p99 = entry->percentile(99.0);
    samples = entry->samples;
}

std::size_t
counterOf(const telemetry::MetricsSnapshot &snapshot, const char *name,
          const telemetry::Labels &labels = {})
{
    return static_cast<std::size_t>(snapshot.counterValue(name, labels));
}

}  // namespace

ServerStats
statsFromSnapshot(const telemetry::MetricsSnapshot &snapshot,
                  std::size_t lanes, const std::vector<std::string> &models)
{
    ServerStats stats;
    stats.rowsServed = counterOf(snapshot, "server.rows_served");
    stats.batches = counterOf(snapshot, "server.batches");
    stats.malformedFrames = counterOf(snapshot, "server.malformed_frames");
    stats.failedBatches = counterOf(snapshot, "server.failed_batches");
    stats.failedRows = counterOf(snapshot, "server.failed_rows");
    stats.retriedBatches = counterOf(snapshot, "server.retried_batches");
    stats.callbackErrors = counterOf(snapshot, "server.callback_errors");
    stats.deadlineTruncated =
        counterOf(snapshot, "server.deadline_truncated");
    stats.fallbackRows = counterOf(snapshot, "server.fallback_rows");
    stats.meanBatchRows =
        stats.batches > 0 ? static_cast<double>(stats.rowsServed) /
                                static_cast<double>(stats.batches)
                          : 0.0;
    fillLatency(snapshot.find("server.batch_latency_us"),
                stats.p50BatchLatencyUs, stats.p99BatchLatencyUs,
                stats.batchLatencySamplesUs);
    fillLatency(snapshot.find("server.request_latency_us"),
                stats.p50RequestLatencyUs, stats.p99RequestLatencyUs,
                stats.requestLatencySamplesUs);

    stats.lanes.resize(lanes);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
        telemetry::Labels labels{{"lane", std::to_string(lane)}};
        LaneStats &out = stats.lanes[lane];
        out.queue = queueCountersFrom(snapshot, lane);
        stats.queue += out.queue;
        out.rowsServed =
            counterOf(snapshot, "server.lane.rows_served", labels);
        out.rowsFailed =
            counterOf(snapshot, "server.lane.rows_failed", labels);
        out.batches = counterOf(snapshot, "server.lane.batches", labels);
        fillLatency(snapshot.find("server.lane.request_latency_us", labels),
                    out.p50RequestLatencyUs, out.p99RequestLatencyUs,
                    out.requestLatencySamplesUs);
    }

    stats.models.resize(models.size());
    for (std::size_t m = 0; m < models.size(); ++m) {
        telemetry::Labels labels{{"model", models[m]}};
        ModelStats &out = stats.models[m];
        out.name = models[m];
        out.rowsServed = counterOf(snapshot, "server.model.rows", labels);
        out.batches = counterOf(snapshot, "server.model.steps", labels);
        fillLatency(snapshot.find("server.model.step_latency_us", labels),
                    out.p50StepLatencyUs, out.p99StepLatencyUs,
                    out.stepLatencySamplesUs);
        out.breakerOpens =
            counterOf(snapshot, "router.breaker.opens", labels);
        out.breakerFallbackRows =
            counterOf(snapshot, "router.breaker.fallback_rows", labels);
    }
    return stats;
}

std::shared_ptr<ModelRegistry>
singleModelRegistry(InferenceEngine engine,
                    std::optional<ml::StandardScaler> scaler,
                    std::shared_ptr<telemetry::MetricRegistry> metrics)
{
    // The deleter co-owns the counters' registry, so it lives as long
    // as anyone holds the model registry.
    std::shared_ptr<ModelRegistry> registry(
        new ModelRegistry(EngineOptions{}, metrics.get()),
        [metrics](ModelRegistry *doomed) { delete doomed; });
    registry->install(kSingleModelName, std::move(engine),
                      std::move(scaler));
    return registry;
}

RouteConfig
singleModelRoute()
{
    RouteConfig route;
    route.defaultModel = kSingleModelName;
    return route;
}

QueueConfig
Server::makeQueueConfig()
{
    QueueConfig queue;
    queue.lanes.push_back(config_.queue);
    queue.lanes.insert(queue.lanes.end(), config_.extraLanes.begin(),
                       config_.extraLanes.end());
    queue.backpressure = config_.backpressure;
    queue.blockTimeoutUs = config_.blockTimeoutUs;
    queue.fairnessAgingUs = config_.fairnessAgingUs;
    queue.metrics = metrics_.get();
    if (config_.onDrop || config_.trace) {
        // Guard the user's drop sink like every other callback: it runs
        // on the batcher thread inside pop(), where a throw used to be
        // thread death. A bound trace sink records the drop span here
        // too — a dropped request's span is its only trace.
        DropFn user = config_.onDrop;
        telemetry::TraceSink *sink = config_.trace;
        queue.onDrop = [this, user, sink](std::uint64_t ticket,
                                          std::size_t lane,
                                          std::uint64_t waited_us) {
            if (sink != nullptr) {
                telemetry::RequestSpan span;
                span.ticket = ticket;
                span.lane = static_cast<std::uint32_t>(lane);
                span.flushedAtUs = sink->sinceEpochUs(Clock::now());
                span.enqueuedAtUs =
                    span.flushedAtUs -
                    static_cast<std::int64_t>(waited_us);
                span.outcome = telemetry::SpanOutcome::kDropped;
                span.latencyUs = static_cast<double>(waited_us);
                sink->record(span);
            }
            if (user) {
                try {
                    user(ticket, lane, waited_us);
                } catch (...) {
                    ins_.callbackErrors->add();
                }
            }
        };
    }
    return queue;
}

void
Server::bindInstruments()
{
    telemetry::MetricRegistry &reg = *metrics_;
    ins_.rowsServed = &reg.counter("server.rows_served");
    ins_.batches = &reg.counter("server.batches");
    ins_.failedBatches = &reg.counter("server.failed_batches");
    ins_.failedRows = &reg.counter("server.failed_rows");
    ins_.retriedBatches = &reg.counter("server.retried_batches");
    ins_.deadlineTruncated = &reg.counter("server.deadline_truncated");
    ins_.fallbackRows = &reg.counter("server.fallback_rows");
    ins_.callbackErrors = &reg.counter("server.callback_errors");
    ins_.malformedFrames = &reg.counter("server.malformed_frames");
    ins_.batchLatencyUs = &reg.histogram("server.batch_latency_us");
    ins_.requestLatencyUs = &reg.histogram("server.request_latency_us");

    laneIns_.resize(queue_.lanes());
    for (std::size_t lane = 0; lane < queue_.lanes(); ++lane) {
        telemetry::Labels labels{{"lane", std::to_string(lane)}};
        LaneInstruments &ins = laneIns_[lane];
        ins.rowsServed = &reg.counter("server.lane.rows_served", labels);
        ins.rowsFailed = &reg.counter("server.lane.rows_failed", labels);
        ins.batches = &reg.counter("server.lane.batches", labels);
        ins.requestLatencyUs =
            &reg.histogram("server.lane.request_latency_us", labels);
    }
    const std::vector<std::string> &names = router_.models();
    modelIns_.resize(names.size());
    spanModelIds_.resize(names.size(), 0);
    for (std::size_t m = 0; m < names.size(); ++m) {
        telemetry::Labels labels{{"model", names[m]}};
        ModelInstruments &ins = modelIns_[m];
        ins.rows = &reg.counter("server.model.rows", labels);
        ins.steps = &reg.counter("server.model.steps", labels);
        ins.stepLatencyUs =
            &reg.histogram("server.model.step_latency_us", labels);
        if (config_.trace != nullptr)
            spanModelIds_[m] = config_.trace->internModel(names[m]);
    }
}

Server::SingleModel
Server::singleModel(InferenceEngine engine,
                    std::optional<ml::StandardScaler> scaler,
                    ServerConfig config)
{
    // The registry's counters belong to this server, so its metric
    // registry has to exist before the model is installed.
    if (!config.metrics)
        config.metrics = std::make_shared<telemetry::MetricRegistry>();
    std::shared_ptr<ModelRegistry> registry = singleModelRegistry(
        std::move(engine), std::move(scaler), config.metrics);
    return {std::move(registry), std::move(config)};
}

Server::Server(InferenceEngine engine, ServerConfig config,
               VerdictFn on_verdict,
               std::optional<ml::StandardScaler> scaler)
    : Server(singleModel(std::move(engine), std::move(scaler),
                         std::move(config)),
             std::move(on_verdict))
{
}

Server::Server(SingleModel single, VerdictFn on_verdict)
    : Server(std::move(single.registry), singleModelRoute(),
             std::move(single.config), std::move(on_verdict))
{
}

Server::Server(std::shared_ptr<ModelRegistry> registry, RouteConfig route,
               ServerConfig config, VerdictFn on_verdict,
               RouteTraceFn on_trace)
    : registry_(std::move(registry)), config_(std::move(config)),
      onVerdict_(std::move(on_verdict)), onTrace_(std::move(on_trace)),
      injector_(config_.injector ? config_.injector
                                 : &faults::FaultInjector::global()),
      metrics_(config_.metrics
                   ? config_.metrics
                   : std::make_shared<telemetry::MetricRegistry>()),
      // The Router constructor validates the spec (models loaded,
      // shared input width, rule labels in range) before any thread
      // starts. It shares this server's registry so one snapshot
      // covers all layers.
      router_(registry_, std::move(route), metrics_.get()),
      // Slots carry rows of the routed models' shared input width,
      // which ModelRegistry keeps fixed across versions.
      queue_(makeQueueConfig(), router_.inputDim()),
      startedAt_(Clock::now())
{
    nextId_.store(config_.ticketBase != 0 ? config_.ticketBase : 1);
    bindInstruments();
    batcher_ = std::thread([this] { serveLoop(); });
}

Server::~Server()
{
    stop();
}

const InferenceEngine &
Server::engine() const
{
    const std::string &name = router_.config().defaultModel;
    return registry_->version(name, registry_->activeVersion(name))->engine;
}

SubmitResult
Server::submit(const double *row, std::size_t width, std::size_t lane)
{
    if (width != router_.inputDim())
        throw std::runtime_error(common::format(
            "Server: row has %zu features, model expects %zu", width,
            router_.inputDim()));
    std::uint64_t id = nextId_.fetch_add(1);
    SubmitResult result;
    result.status = submitStatusFor(queue_.push(id, row, lane));
    if (result.admitted())
        result.ticket = id;
    return result;
}

SubmitResult
Server::submitPacket(const net::PacketView &packet, std::size_t lane)
{
    if (router_.inputDim() != net::kNumTcFeatures)
        throw std::runtime_error(common::format(
            "Server: model expects %zu features but the packet "
            "extractor emits %zu",
            router_.inputDim(), net::kNumTcFeatures));
    double row[net::kNumTcFeatures];
    extractor_.extractInto(packet, row);
    return submit(row, net::kNumTcFeatures, lane);
}

SubmitResult
Server::submitFrame(const std::vector<std::uint8_t> &frame,
                    std::size_t lane)
{
    auto packet = net::parseView(frame.data(), frame.size());
    if (!packet) {
        // A malformed frame is a per-ticket failure, not an anonymous
        // tick: it gets a ticket from the same sequence as admitted
        // rows and an onFailure notification under it (on the
        // submitting thread — the frame never reaches the batcher).
        // It was never admitted, so it does not count in failedRows
        // and the resolve-exactly-once invariant over accepted rows
        // is untouched.
        std::uint64_t ticket = nextId_.fetch_add(1);
        ins_.malformedFrames->add();
        if (config_.onFailure) {
            try {
                config_.onFailure(ticket, lane, "malformed frame");
            } catch (...) {
                ins_.callbackErrors->add();
            }
        }
        SubmitResult result;
        result.status = SubmitStatus::kMalformed;
        result.ticket = ticket;
        return result;
    }
    return submitPacket(*packet, lane);
}

void
Server::servedSliceStats(const RequestBatch &batch, std::size_t begin,
                         std::size_t end, Clock::time_point finished,
                         double batch_us, ServeBuffers &buffers,
                         const RouteBatchOutcome &outcome)
{
    LaneInstruments &lane = laneIns_[batch.lane];
    ins_.batches->add();
    lane.batches->add();
    ins_.rowsServed->add(end - begin);
    lane.rowsServed->add(end - begin);
    ins_.deadlineTruncated->add(outcome.deadlineTruncated);
    ins_.fallbackRows->add(outcome.fallbackRows);
    ins_.batchLatencyUs->observe(batch_us);
    // Each reservoir sees the slice's latencies in row order, one lock
    // per reservoir per slice.
    std::vector<double> &latencies = buffers.latenciesUs;
    latencies.clear();
    for (std::size_t r = begin; r < end; ++r)
        latencies.push_back(std::chrono::duration<double, std::micro>(
                                finished - batch.requests[r].enqueuedAt)
                                .count());
    ins_.requestLatencyUs->observeMany(latencies.data(), latencies.size());
    lane.requestLatencyUs->observeMany(latencies.data(), latencies.size());
    for (const RouteStepStats &step : buffers.steps) {
        ModelInstruments &model = modelIns_[step.model];
        model.steps->add();
        model.rows->add(step.rows);
        model.stepLatencyUs->observe(step.engineUs);
    }
}

void
Server::recordSpans(const RequestBatch &batch, std::size_t begin,
                    std::size_t end, Clock::time_point finished,
                    std::size_t depth, telemetry::SpanOutcome outcome,
                    const std::vector<RouteTrace> *traces)
{
    telemetry::TraceSink *sink = config_.trace;
    if (sink == nullptr)
        return;
    const std::vector<std::string> &names = router_.models();
    for (std::size_t r = begin; r < end; ++r) {
        const Request &request = batch.requests[r];
        telemetry::RequestSpan span;
        span.ticket = request.id;
        span.lane = static_cast<std::uint32_t>(batch.lane);
        span.enqueuedAtUs = sink->sinceEpochUs(request.enqueuedAt);
        span.flushedAtUs = sink->sinceEpochUs(finished);
        span.retries = static_cast<std::uint8_t>(
            std::min<std::size_t>(depth, 255));
        span.outcome = outcome;
        span.latencyUs = std::chrono::duration<double, std::micro>(
                             finished - request.enqueuedAt)
                             .count();
        if (traces != nullptr) {
            // Hops are slice-relative; resolve each hop's model name
            // back to the id interned at construction.
            const RouteTrace &trace = (*traces)[r - begin];
            for (const RouteHop &hop : trace.hops) {
                if (span.hopCount >= telemetry::kSpanMaxHops)
                    break;
                for (std::size_t m = 0; m < names.size(); ++m) {
                    if (names[m] == hop.model) {
                        span.hops[span.hopCount++] = spanModelIds_[m];
                        break;
                    }
                }
            }
        }
        sink->record(span);
    }
}

void
Server::failSlice(const RequestBatch &batch, std::size_t begin,
                  std::size_t end, std::size_t depth,
                  const std::string &error)
{
    ins_.failedBatches->add();
    ins_.failedRows->add(end - begin);
    laneIns_[batch.lane].rowsFailed->add(end - begin);
    recordSpans(batch, begin, end, Clock::now(), depth,
                telemetry::SpanOutcome::kFailed, nullptr);
    if (!config_.onFailure)
        return;
    for (std::size_t r = begin; r < end; ++r) {
        try {
            config_.onFailure(batch.requests[r].id, batch.lane, error);
        } catch (...) {
            ins_.callbackErrors->add();
        }
    }
}

void
Server::runSlice(const RequestBatch &batch, std::size_t begin,
                 std::size_t end, std::size_t depth,
                 ServeBuffers &buffers)
{
    if (begin >= end)
        return;
    const std::vector<Request> &requests = batch.requests;
    const std::size_t rows = end - begin;
    const std::size_t dim = router_.inputDim();
    RouteBatchOutcome outcome;
    // Hop traces are collected for the user's trace callback and/or the
    // span sink (spans record the hop ids per request).
    const bool collect_traces = onTrace_ || config_.trace != nullptr;

    auto started = Clock::now();
    try {
        // The queue handoff site fires once per popped batch, before
        // any work — a "flush lost" fault, retryable like the rest.
        if (depth == 0)
            injector_->maybe(faults::kSiteQueueFlush);
        // A non-finite feature is a poison row: the quantizer's
        // behavior on NaN/Inf is undefined across kernels, so the
        // whole slice throws here and the bisect-retry narrows the
        // blast radius down to the poison rows themselves.
        for (std::size_t r = begin; r < end; ++r)
            for (std::size_t c = 0; c < dim; ++c)
                if (!std::isfinite(requests[r].features[c]))
                    throw std::runtime_error(
                        "serve: non-finite feature in admitted row");
        // The batch-execution site fires once per slice attempt;
        // router.hop then fires per model execution inside.
        injector_->maybe(faults::kSiteEngineRun);
        // Pin the active epoch of every routed model *once*: the whole
        // slice — every chained hop included — executes against this
        // snapshot, so a concurrent swap() only moves the next batch (a
        // bisect-retried half re-pins, like any new batch).
        router_.snapshot(buffers.snapshot);
        outcome = router_.runBatch(
            buffers.snapshot, batch.lane, requests.data() + begin, rows,
            buffers.labels, collect_traces ? &buffers.traces : nullptr,
            buffers.steps, buffers.scratch, injector_);
        buffers.snapshot.epochs.clear();
    } catch (const std::exception &e) {
        buffers.snapshot.epochs.clear();
        if (rows > 1 && depth < config_.retryDepth) {
            // Bisect-retry: split the slice and run the halves
            // independently. Poison rows re-fail down to singletons;
            // their healthy batchmates get served.
            ins_.retriedBatches->add();
            std::size_t mid = begin + rows / 2;
            runSlice(batch, begin, mid, depth + 1, buffers);
            runSlice(batch, mid, end, depth + 1, buffers);
        } else {
            failSlice(batch, begin, end, depth, e.what());
        }
        return;
    }
    auto finished = Clock::now();
    double batch_us =
        std::chrono::duration<double, std::micro>(finished - started)
            .count();

    // Callback delivery: each invocation individually guarded, so one
    // throwing callback costs its own notification, never the
    // batcher thread or the rest of the batch.
    if (onVerdict_) {
        for (std::size_t r = 0; r < rows; ++r) {
            try {
                injector_->maybe(faults::kSiteCallbackDispatch);
                onVerdict_(requests[begin + r], buffers.labels[r]);
            } catch (...) {
                ins_.callbackErrors->add();
            }
        }
    }
    if (onTrace_) {
        for (std::size_t r = 0; r < rows; ++r) {
            try {
                injector_->maybe(faults::kSiteCallbackDispatch);
                onTrace_(requests[begin + r], buffers.traces[r]);
            } catch (...) {
                ins_.callbackErrors->add();
            }
        }
    }
    // Bookkeeping after delivery, off the verdict's critical path; it
    // records the same values either way (latencies end at finished).
    servedSliceStats(batch, begin, end, finished, batch_us, buffers,
                     outcome);
    recordSpans(batch, begin, end, finished, depth,
                telemetry::SpanOutcome::kServed,
                collect_traces ? &buffers.traces : nullptr);
}

void
Server::serveLoop()
{
    // One buffer set for every batch: the popped batch, the router
    // scratch, the snapshot and the label and step vectors keep their
    // capacity across batches, so the hot loop stops allocating once
    // the largest batch has been seen.
    ServeBuffers buffers;
    RequestBatch batch;

    // The supervisor: every popped batch executes inside runSlice's
    // try/catch, so nothing a batch does — engine throw, router throw,
    // poison row, injected fault — can take the batcher thread down.
    while (queue_.pop(batch))
        runSlice(batch, 0, batch.requests.size(), 0, buffers);
}

ServerStats
Server::stop()
{
    std::lock_guard<std::mutex> stop_lock(stopMutex_);
    if (stopped_)
        return finalStats_;

    queue_.close();
    if (batcher_.joinable())
        batcher_.join();

    // Materialize the public view from one registry snapshot — the
    // batcher has joined, so the snapshot is the run's final word.
    const std::vector<std::string> &names = router_.models();
    ServerStats stats =
        statsFromSnapshot(metrics_->snapshot(), queue_.lanes(), names);
    stats.wallSeconds =
        std::chrono::duration<double>(Clock::now() - startedAt_).count();
    for (std::size_t m = 0; m < names.size(); ++m) {
        stats.models[m].activeVersion = registry_->activeVersion(names[m]);
        stats.models[m].breakerState =
            breakerStateName(router_.breaker(m).state);
    }
    finalStats_ = stats;
    stopped_ = true;
    return finalStats_;
}

}  // namespace homunculus::runtime
