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

/** Nearest-rank percentile over a snapshot entry's reservoir. */
double
entryPercentile(const telemetry::MetricsSnapshot::Entry *entry, double p)
{
    return entry != nullptr ? entry->percentile(p * 100.0) : 0.0;
}

}  // namespace

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
    if (router_) {
        const std::vector<std::string> &names = router_->models();
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
}

Server::Server(InferenceEngine engine, ServerConfig config,
               VerdictFn on_verdict,
               std::optional<ml::StandardScaler> scaler)
    : engine_(std::move(engine)), config_(std::move(config)),
      onVerdict_(std::move(on_verdict)), scaler_(std::move(scaler)),
      injector_(config_.injector ? config_.injector
                                 : &faults::FaultInjector::global()),
      metrics_(config_.metrics
                   ? config_.metrics
                   : std::make_shared<telemetry::MetricRegistry>()),
      queue_(makeQueueConfig()), startedAt_(Clock::now())
{
    nextId_.store(config_.ticketBase != 0 ? config_.ticketBase : 1);
    inputDim_ = engine_->plan().inputDim();
    if (scaler_ && !scaler_->fitted())
        throw std::runtime_error("Server: scaler is not fitted");
    if (scaler_ && scaler_->means().size() != inputDim_)
        throw std::runtime_error("Server: scaler width does not match "
                                 "the model");
    bindInstruments();
    batcher_ = std::thread([this] { serveLoop(); });
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
      queue_(makeQueueConfig()), startedAt_(Clock::now())
{
    // The Router constructor validates the spec (models loaded, shared
    // input width, rule labels in range) before any thread starts. It
    // shares this server's registry so one snapshot covers all layers.
    nextId_.store(config_.ticketBase != 0 ? config_.ticketBase : 1);
    router_.emplace(registry_, std::move(route), metrics_.get());
    inputDim_ = router_->inputDim();
    bindInstruments();
    batcher_ = std::thread([this] { serveLoop(); });
}

Server::~Server()
{
    stop();
}

SubmitResult
Server::submit(std::vector<double> features, std::size_t lane)
{
    if (features.size() != inputDim_)
        throw std::runtime_error(common::format(
            "Server: row has %zu features, model expects %zu",
            features.size(), inputDim_));
    if (scaler_) {
        const std::vector<double> &means = scaler_->means();
        const std::vector<double> &stds = scaler_->stddevs();
        for (std::size_t c = 0; c < features.size(); ++c)
            features[c] = (features[c] - means[c]) / stds[c];
    }
    Request request;
    std::uint64_t id = nextId_.fetch_add(1);
    request.id = id;
    request.features = std::move(features);
    SubmitResult result;
    result.status = submitStatusFor(queue_.push(std::move(request), lane));
    if (result.admitted())
        result.ticket = id;
    return result;
}

SubmitResult
Server::submitPacket(const net::RawPacket &packet, std::size_t lane)
{
    return submitPacket(net::viewOf(packet), lane);
}

SubmitResult
Server::submitPacket(const net::PacketView &packet, std::size_t lane)
{
    if (inputDim_ != net::kNumTcFeatures)
        throw std::runtime_error(common::format(
            "Server: model expects %zu features but the packet "
            "extractor emits %zu",
            inputDim_, net::kNumTcFeatures));
    return submit(extractor_.extract(packet), lane);
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
                         double batch_us,
                         const std::vector<RouteStepStats> *steps,
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
    for (std::size_t r = begin; r < end; ++r) {
        double wait_us = std::chrono::duration<double, std::micro>(
                             finished - batch.requests[r].enqueuedAt)
                             .count();
        ins_.requestLatencyUs->observe(wait_us);
        lane.requestLatencyUs->observe(wait_us);
    }
    if (steps) {
        for (const RouteStepStats &step : *steps) {
            ModelInstruments &model = modelIns_[step.model];
            model.steps->add();
            model.rows->add(step.rows);
            model.stepLatencyUs->observe(step.engineUs);
        }
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
    const std::vector<std::string> *names =
        router_ ? &router_->models() : nullptr;
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
        if (traces != nullptr && names != nullptr) {
            // Hops are slice-relative; resolve each hop's model name
            // back to the id interned at construction.
            const RouteTrace &trace = (*traces)[r - begin];
            for (const RouteHop &hop : trace.hops) {
                if (span.hopCount >= telemetry::kSpanMaxHops)
                    break;
                for (std::size_t m = 0; m < names->size(); ++m) {
                    if ((*names)[m] == hop.model) {
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
Server::runSlice(RequestBatch &batch, std::size_t begin,
                 std::size_t end, std::size_t depth,
                 ServeBuffers &buffers)
{
    if (begin >= end)
        return;
    std::vector<Request> &requests = batch.requests;
    const std::size_t rows = end - begin;
    const std::size_t dim = inputDim_;
    RouteBatchOutcome outcome;
    // Routed hop traces are collected for the user's trace callback
    // and/or the span sink (spans record the hop ids per request).
    const bool collect_traces =
        router_ && (onTrace_ || config_.trace != nullptr);

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
        if (router_) {
            // Pin the active epoch of every routed model *once*: the
            // whole slice — every chained hop included — executes
            // against this snapshot, so a concurrent swap() only moves
            // the next batch (a bisect-retried half re-pins, like any
            // new batch).
            Router::Snapshot snapshot = router_->snapshot();
            outcome = router_->runBatch(
                snapshot, batch.lane, requests.data() + begin, rows,
                buffers.labels,
                collect_traces ? &buffers.traces : nullptr,
                buffers.steps, buffers.scratch, injector_);
        } else {
            buffers.features.resizeRows(rows);
            for (std::size_t r = 0; r < rows; ++r) {
                double *row = buffers.features.rowPtr(r);
                for (std::size_t c = 0; c < dim; ++c)
                    row[c] = requests[begin + r].features[c];
            }
            injector_->maybe(faults::kSiteEngineRun);
            buffers.labels.resize(rows);
            engine_->run(buffers.features, buffers.labels.data(),
                         buffers.engineScratch);
        }
    } catch (const std::exception &e) {
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

    servedSliceStats(batch, begin, end, finished, batch_us,
                     router_ ? &buffers.steps : nullptr, outcome);
    recordSpans(batch, begin, end, finished, depth,
                telemetry::SpanOutcome::kServed,
                collect_traces ? &buffers.traces : nullptr);
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
}

void
Server::serveLoop()
{
    // One buffer set sized for the largest lane's batch; deadline
    // flushes release continuously varying batch sizes, and resizeRows
    // keeps the capacity, so the hot loop never reallocates after the
    // first full batch. (The routed path keeps its own equivalent
    // buffers in the router Scratch.)
    std::size_t max_batch = 1;
    for (std::size_t lane = 0; lane < queue_.lanes(); ++lane)
        max_batch = std::max(max_batch, queue_.policy(lane).maxBatch);
    ServeBuffers buffers;
    buffers.features = math::Matrix(max_batch, inputDim_);
    buffers.labels.reserve(max_batch);

    // The supervisor: every popped batch executes inside runSlice's
    // try/catch, so nothing a batch does — engine throw, router throw,
    // poison row, injected fault — can take the batcher thread down.
    while (std::optional<RequestBatch> batch = queue_.pop())
        runSlice(*batch, 0, batch->requests.size(), 0, buffers);
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
    telemetry::MetricsSnapshot snap = metrics_->snapshot();
    ServerStats stats;
    stats.queue = queue_.counters();
    stats.malformedFrames = static_cast<std::size_t>(
        snap.counterValue("server.malformed_frames"));
    stats.callbackErrors = static_cast<std::size_t>(
        snap.counterValue("server.callback_errors"));
    stats.wallSeconds =
        std::chrono::duration<double>(Clock::now() - startedAt_).count();
    stats.rowsServed = static_cast<std::size_t>(
        snap.counterValue("server.rows_served"));
    stats.batches =
        static_cast<std::size_t>(snap.counterValue("server.batches"));
    stats.failedBatches = static_cast<std::size_t>(
        snap.counterValue("server.failed_batches"));
    stats.failedRows = static_cast<std::size_t>(
        snap.counterValue("server.failed_rows"));
    stats.retriedBatches = static_cast<std::size_t>(
        snap.counterValue("server.retried_batches"));
    stats.deadlineTruncated = static_cast<std::size_t>(
        snap.counterValue("server.deadline_truncated"));
    stats.fallbackRows = static_cast<std::size_t>(
        snap.counterValue("server.fallback_rows"));
    stats.meanBatchRows =
        stats.batches > 0 ? static_cast<double>(stats.rowsServed) /
                                static_cast<double>(stats.batches)
                          : 0.0;
    // A run that served nothing keeps every percentile at its zeroed
    // default instead of consulting empty reservoirs.
    const telemetry::MetricsSnapshot::Entry *batch_lat =
        snap.find("server.batch_latency_us");
    const telemetry::MetricsSnapshot::Entry *request_lat =
        snap.find("server.request_latency_us");
    if (stats.batches > 0) {
        stats.p50BatchLatencyUs = entryPercentile(batch_lat, 0.50);
        stats.p99BatchLatencyUs = entryPercentile(batch_lat, 0.99);
    }
    if (stats.rowsServed > 0) {
        stats.p50RequestLatencyUs = entryPercentile(request_lat, 0.50);
        stats.p99RequestLatencyUs = entryPercentile(request_lat, 0.99);
    }
    if (batch_lat != nullptr)
        stats.batchLatencySamplesUs = batch_lat->samples;
    if (request_lat != nullptr)
        stats.requestLatencySamplesUs = request_lat->samples;

    stats.lanes.resize(queue_.lanes());
    for (std::size_t lane = 0; lane < queue_.lanes(); ++lane) {
        telemetry::Labels labels{{"lane", std::to_string(lane)}};
        LaneStats &out = stats.lanes[lane];
        out.queue = queue_.counters(lane);
        out.rowsServed = static_cast<std::size_t>(
            snap.counterValue("server.lane.rows_served", labels));
        out.rowsFailed = static_cast<std::size_t>(
            snap.counterValue("server.lane.rows_failed", labels));
        out.batches = static_cast<std::size_t>(
            snap.counterValue("server.lane.batches", labels));
        const telemetry::MetricsSnapshot::Entry *lane_lat =
            snap.find("server.lane.request_latency_us", labels);
        if (out.rowsServed > 0) {
            out.p50RequestLatencyUs = entryPercentile(lane_lat, 0.50);
            out.p99RequestLatencyUs = entryPercentile(lane_lat, 0.99);
        }
        if (lane_lat != nullptr)
            out.requestLatencySamplesUs = lane_lat->samples;
    }
    if (router_) {
        const std::vector<std::string> &names = router_->models();
        stats.models.resize(names.size());
        for (std::size_t m = 0; m < names.size(); ++m) {
            telemetry::Labels labels{{"model", names[m]}};
            ModelStats &out = stats.models[m];
            out.name = names[m];
            out.activeVersion = registry_->activeVersion(names[m]);
            out.rowsServed = static_cast<std::size_t>(
                snap.counterValue("server.model.rows", labels));
            out.batches = static_cast<std::size_t>(
                snap.counterValue("server.model.steps", labels));
            const telemetry::MetricsSnapshot::Entry *step_lat =
                snap.find("server.model.step_latency_us", labels);
            if (out.batches > 0) {
                out.p50StepLatencyUs = entryPercentile(step_lat, 0.50);
                out.p99StepLatencyUs = entryPercentile(step_lat, 0.99);
            }
            if (step_lat != nullptr)
                out.stepLatencySamplesUs = step_lat->samples;
            BreakerSnapshot breaker = router_->breaker(m);
            out.breakerState = breakerStateName(breaker.state);
            out.breakerOpens = breaker.opens;
            out.breakerFallbackRows = breaker.fallbackRows;
        }
    }
    finalStats_ = stats;
    stopped_ = true;
    return finalStats_;
}

}  // namespace homunculus::runtime
