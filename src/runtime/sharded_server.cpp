#include "runtime/sharded_server.hpp"

#include <algorithm>

#include "math/stats.hpp"
#include "net/packet.hpp"

namespace homunculus::runtime {

namespace {

/** splitmix64 finalizer: cheap, well-mixed 64-bit hash. Used both to
 *  place virtual nodes on the ring and to hash flow keys onto it, so
 *  correlated keys (sequential addresses, stride-allocated ports)
 *  still spread uniformly. */
std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** Percentiles from a merged sample set, zero when it is empty (the
 *  same "served nothing" convention Server::stop() uses). */
void
fillPercentiles(const std::vector<double> &samples, double &p50,
                double &p99)
{
    if (samples.empty())
        return;
    p50 = math::percentileNearestRank(samples, 0.50);
    p99 = math::percentileNearestRank(samples, 0.99);
}

/** The per-shard ServerConfig: identical knobs, disjoint ticket
 *  namespace (see kShardTicketShift). A caller-supplied metrics
 *  registry is dropped: shards must stay independently snapshotable
 *  (and sharing one registry would collide every shard onto the same
 *  instruments) — metricsSnapshot() is the cross-shard merge. */
ServerConfig
shardConfig(const ServerConfig &base, std::size_t shard)
{
    ServerConfig config = base;
    config.metrics = nullptr;
    std::uint64_t low = base.ticketBase != 0 ? base.ticketBase : 1;
    config.ticketBase =
        (static_cast<std::uint64_t>(shard) << kShardTicketShift) + low;
    return config;
}

}  // namespace

std::uint64_t
flowKey(const net::PacketView &packet)
{
    std::uint64_t addrs =
        (static_cast<std::uint64_t>(packet.ipv4.srcAddr) << 32) |
        packet.ipv4.dstAddr;
    std::uint32_t ports = 0;
    if (packet.tcp)
        ports = (static_cast<std::uint32_t>(packet.tcp->srcPort) << 16) |
                packet.tcp->dstPort;
    else if (packet.udp)
        ports = (static_cast<std::uint32_t>(packet.udp->srcPort) << 16) |
                packet.udp->dstPort;
    return splitmix64(addrs ^
                      (static_cast<std::uint64_t>(ports) << 8) ^
                      packet.ipv4.protocol);
}

std::uint64_t
flowKey(const net::RawPacket &packet)
{
    return flowKey(net::viewOf(packet));
}

ShardedServer::ShardedServer(const InferenceEngine &engine,
                             ShardedServerConfig config,
                             Server::VerdictFn on_verdict,
                             std::optional<ml::StandardScaler> scaler)
{
    std::size_t shard_count = std::max<std::size_t>(config.shards, 1);
    servers_.reserve(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s)
        servers_.push_back(std::make_unique<Server>(
            engine, shardConfig(config.server, s), on_verdict, scaler));
    buildRing(shard_count, config.virtualNodes);
    initFrontDoor(config.server);
}

ShardedServer::ShardedServer(std::shared_ptr<ModelRegistry> registry,
                             RouteConfig route,
                             ShardedServerConfig config,
                             Server::VerdictFn on_verdict,
                             Server::RouteTraceFn on_trace)
{
    std::size_t shard_count = std::max<std::size_t>(config.shards, 1);
    servers_.reserve(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s)
        servers_.push_back(std::make_unique<Server>(
            registry, route, shardConfig(config.server, s), on_verdict,
            on_trace));
    buildRing(shard_count, config.virtualNodes);
    initFrontDoor(config.server);
}

void
ShardedServer::initFrontDoor(const ServerConfig &base)
{
    frontMalformed_ = &frontMetrics_.counter("server.malformed_frames");
    frontCallbackErrors_ =
        &frontMetrics_.counter("server.callback_errors");
    std::uint64_t low = base.ticketBase != 0 ? base.ticketBase : 1;
    frontNextId_.store(
        (static_cast<std::uint64_t>(servers_.size())
         << kShardTicketShift) +
        low);
    onFailure_ = base.onFailure;
}

ShardedServer::~ShardedServer()
{
    stop();
}

void
ShardedServer::buildRing(std::size_t shard_count,
                         std::size_t virtual_nodes)
{
    std::size_t points = std::max<std::size_t>(virtual_nodes, 1);
    ring_.reserve(shard_count * points);
    for (std::size_t s = 0; s < shard_count; ++s)
        for (std::size_t v = 0; v < points; ++v) {
            RingPoint point;
            // (shard, vnode) -> a stable pseudo-random ring position;
            // shard+1 keeps shard 0's nodes off the v-only pattern.
            point.hash = splitmix64(
                (static_cast<std::uint64_t>(s + 1) << 32) ^ v);
            point.shard = s;
            ring_.push_back(point);
        }
    std::sort(ring_.begin(), ring_.end());
}

std::size_t
ShardedServer::shardFor(std::uint64_t flow_key) const
{
    RingPoint probe;
    probe.hash = splitmix64(flow_key);
    auto it = std::upper_bound(ring_.begin(), ring_.end(), probe);
    if (it == ring_.end())
        it = ring_.begin();  // wrap: the ring is a circle.
    return it->shard;
}

SubmitResult
ShardedServer::submit(std::uint64_t flow_key,
                      std::vector<double> features, std::size_t lane)
{
    return servers_[shardFor(flow_key)]->submit(std::move(features),
                                                lane);
}

SubmitResult
ShardedServer::submitPacket(const net::RawPacket &packet,
                            std::size_t lane)
{
    return servers_[shardFor(flowKey(packet))]->submitPacket(packet,
                                                             lane);
}

SubmitResult
ShardedServer::submitFrame(const std::vector<std::uint8_t> &frame,
                           std::size_t lane)
{
    // Parse once at the front door: the flow key needs the headers
    // anyway, and the owning shard extracts from the same view.
    auto packet = net::parseView(frame.data(), frame.size());
    if (!packet) {
        // Per-ticket malformed reporting, same contract as
        // Server::submitFrame — but from the front door's own ticket
        // namespace, since no shard ever saw the frame.
        std::uint64_t ticket = frontNextId_.fetch_add(1);
        frontMalformed_->add();
        if (onFailure_) {
            try {
                onFailure_(ticket, lane, "malformed frame");
            } catch (...) {
                frontCallbackErrors_->add();
            }
        }
        SubmitResult result;
        result.status = SubmitStatus::kMalformed;
        result.ticket = ticket;
        return result;
    }
    return servers_[shardFor(flowKey(*packet))]->submitPacket(*packet,
                                                              lane);
}

telemetry::MetricsSnapshot
ShardedServer::metricsSnapshot() const
{
    telemetry::MetricsSnapshot merged =
        frontMetrics_.snapshot().withLabel("shard", "front");
    for (std::size_t s = 0; s < servers_.size(); ++s)
        merged.merge(servers_[s]->metrics().snapshot().withLabel(
            "shard", std::to_string(s)));
    return merged;
}

std::size_t
ShardedServer::depth() const
{
    std::size_t total = 0;
    for (const auto &server : servers_)
        total += server->depth();
    return total;
}

const std::vector<ServerStats> &
ShardedServer::shardStats() const
{
    return shardStats_;
}

ServerStats
ShardedServer::stop()
{
    std::lock_guard<std::mutex> stop_lock(stopMutex_);
    if (stopped_)
        return mergedStats_;

    shardStats_.clear();
    shardStats_.reserve(servers_.size());
    for (auto &server : servers_)
        shardStats_.push_back(server->stop());

    ServerStats merged;
    for (const ServerStats &s : shardStats_) {
        merged.queue += s.queue;
        merged.rowsServed += s.rowsServed;
        merged.batches += s.batches;
        merged.malformedFrames += s.malformedFrames;
        merged.failedBatches += s.failedBatches;
        merged.failedRows += s.failedRows;
        merged.retriedBatches += s.retriedBatches;
        merged.callbackErrors += s.callbackErrors;
        merged.deadlineTruncated += s.deadlineTruncated;
        merged.fallbackRows += s.fallbackRows;
        // Shards ran concurrently; the run's wall time is the longest
        // shard's, not the sum.
        merged.wallSeconds = std::max(merged.wallSeconds, s.wallSeconds);
        merged.batchLatencySamplesUs.insert(
            merged.batchLatencySamplesUs.end(),
            s.batchLatencySamplesUs.begin(),
            s.batchLatencySamplesUs.end());
        merged.requestLatencySamplesUs.insert(
            merged.requestLatencySamplesUs.end(),
            s.requestLatencySamplesUs.begin(),
            s.requestLatencySamplesUs.end());
    }
    merged.malformedFrames +=
        static_cast<std::size_t>(frontMalformed_->value());
    merged.callbackErrors +=
        static_cast<std::size_t>(frontCallbackErrors_->value());
    merged.meanBatchRows =
        merged.batches > 0 ? static_cast<double>(merged.rowsServed) /
                                 static_cast<double>(merged.batches)
                           : 0.0;
    fillPercentiles(merged.batchLatencySamplesUs,
                    merged.p50BatchLatencyUs, merged.p99BatchLatencyUs);
    fillPercentiles(merged.requestLatencySamplesUs,
                    merged.p50RequestLatencyUs,
                    merged.p99RequestLatencyUs);

    // Lane slices: every shard has the same lane layout (one shared
    // ServerConfig), so merge index-wise.
    std::size_t lane_count =
        shardStats_.empty() ? 0 : shardStats_[0].lanes.size();
    merged.lanes.resize(lane_count);
    for (std::size_t lane = 0; lane < lane_count; ++lane) {
        LaneStats &out = merged.lanes[lane];
        for (const ServerStats &s : shardStats_) {
            if (lane >= s.lanes.size())
                continue;
            const LaneStats &in = s.lanes[lane];
            out.queue += in.queue;
            out.rowsServed += in.rowsServed;
            out.rowsFailed += in.rowsFailed;
            out.batches += in.batches;
            out.requestLatencySamplesUs.insert(
                out.requestLatencySamplesUs.end(),
                in.requestLatencySamplesUs.begin(),
                in.requestLatencySamplesUs.end());
        }
        fillPercentiles(out.requestLatencySamplesUs,
                        out.p50RequestLatencyUs,
                        out.p99RequestLatencyUs);
    }

    // Model slices (routed form): same route on every shard, so the
    // model list is index-aligned across shards too.
    std::size_t model_count =
        shardStats_.empty() ? 0 : shardStats_[0].models.size();
    merged.models.resize(model_count);
    for (std::size_t m = 0; m < model_count; ++m) {
        ModelStats &out = merged.models[m];
        out.name = shardStats_[0].models[m].name;
        out.activeVersion = shardStats_[0].models[m].activeVersion;
        for (const ServerStats &s : shardStats_) {
            if (m >= s.models.size())
                continue;
            const ModelStats &in = s.models[m];
            out.rowsServed += in.rowsServed;
            out.batches += in.batches;
            out.breakerOpens += in.breakerOpens;
            out.breakerFallbackRows += in.breakerFallbackRows;
            // "closed" everywhere merges to closed; any tripped shard
            // surfaces its state (first one wins — enough to flag it).
            if (out.breakerState == "closed" &&
                in.breakerState != "closed")
                out.breakerState = in.breakerState;
            out.stepLatencySamplesUs.insert(
                out.stepLatencySamplesUs.end(),
                in.stepLatencySamplesUs.begin(),
                in.stepLatencySamplesUs.end());
        }
        fillPercentiles(out.stepLatencySamplesUs, out.p50StepLatencyUs,
                        out.p99StepLatencyUs);
    }

    mergedStats_ = merged;
    stopped_ = true;
    return mergedStats_;
}

}  // namespace homunculus::runtime
