/**
 * @file
 * ShardedServer: N independent Servers behind one front door.
 *
 * One Server is one admission queue and one batcher thread — the
 * lock-free queue keeps its submit path flat under contention, but a
 * single consumer still bounds drain throughput, and the ROADMAP
 * north-star (millions of flows on >16-core boxes) wants the data
 * plane to scale *out*, not just contend less. The scale-out unit here
 * is the whole serving pipeline: each shard owns a private
 * RequestQueue, batcher thread, and engine, so shards share nothing on
 * the hot path (the well-known shared-nothing receive-side-scaling
 * shape: RSS hashes flows to rings, we hash flows to shards).
 *
 * Flow affinity: submissions carry a 64-bit flow key (for packets, the
 * 5-tuple via flowKey()). A consistent-hash ring — virtualNodes points
 * per shard, splitmix64-placed — maps key -> shard, so
 *
 *   - one flow's requests always land on one shard, whose single
 *     batcher serves them in admission order: per-flow verdict order
 *     is preserved without any cross-shard coordination;
 *   - shard counts can change between runs with only ~1/N of flows
 *     remapping (the consistent-hash property), keeping A/B sweeps
 *     comparable.
 *
 * Tickets stay globally unique across shards: shard s issues from
 * ticketBase s << 48 (ShardedServer::shardOfTicket recovers the shard
 * from a ticket), so merged drop/failure reports never collide.
 *
 * stop() stops every shard and merges their ServerStats: counters,
 * lane slices, and model slices are summed field-wise; latency
 * percentiles are recomputed from the concatenated reservoir
 * snapshots (exact whenever no shard overflowed its 64k reservoir —
 * merging two reservoirs by concatenation is sample-count-weighted,
 * which is the right weighting when both are exhaustive). Per-shard
 * stats stay available via shardStats() for per-shard reporting
 * (homc --serve-shards prints both).
 *
 * Verdict/trace/drop/failure callbacks are shared by all shards and
 * run on N batcher threads concurrently — they must be thread-safe
 * (the single-Server contract already required thread-safety against
 * producers; here it is batcher-vs-batcher too).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "runtime/server.hpp"

namespace homunculus::runtime {

/** Bit position of the shard index inside a sharded ticket. */
constexpr std::uint64_t kShardTicketShift = 48;

/** Stable 64-bit flow key of a parsed packet: the 5-tuple
 *  (addresses, ports, protocol), mixed through splitmix64. Frames of
 *  one TCP/UDP flow always map to the same key. */
std::uint64_t flowKey(const net::PacketView &packet);

/** flowKey() over viewOf(@p packet). */
std::uint64_t flowKey(const net::RawPacket &packet);

/** Scale-out knobs. */
struct ShardedServerConfig
{
    /** Independent Server instances (queue + batcher + engine each).
     *  Clamped to at least 1. */
    std::size_t shards = 2;
    /** Consistent-hash ring points per shard. More points smooth the
     *  key distribution across shards at the cost of a larger (still
     *  binary-searched) ring. */
    std::size_t virtualNodes = 64;
    /** Replicated per shard (ticketBase is overridden per shard to
     *  keep tickets globally unique). */
    ServerConfig server;
};

class ShardedServer
{
  public:
    /**
     * Single-model sharded server: every shard gets a copy of
     * @p engine (same plan, same execution policy — verdicts are
     * bit-identical across shards by the engine's own contract).
     */
    ShardedServer(const InferenceEngine &engine,
                  ShardedServerConfig config,
                  Server::VerdictFn on_verdict = {},
                  std::optional<ml::StandardScaler> scaler =
                      std::nullopt);

    /** Routed sharded server: shards share @p registry (hot swaps hit
     *  every shard) but each runs its own Router over @p route. */
    ShardedServer(std::shared_ptr<ModelRegistry> registry,
                  RouteConfig route, ShardedServerConfig config,
                  Server::VerdictFn on_verdict = {},
                  Server::RouteTraceFn on_trace = {});

    ~ShardedServer();

    ShardedServer(const ShardedServer &) = delete;
    ShardedServer &operator=(const ShardedServer &) = delete;

    /** Admit one feature row for @p flow_key's shard. Same contract
     *  as Server::submit (width check, scaler, lane). */
    SubmitResult submit(std::uint64_t flow_key,
                        std::vector<double> features,
                        std::size_t lane = 0);

    /** Parse a wire frame, key it by 5-tuple, and admit it on the
     *  owning shard. A malformed frame never reaches a shard: the
     *  front door counts it, issues a ticket from its own namespace
     *  (shard index == shards(), recoverable via shardOfTicket), and
     *  reports it through the shared onFailure sink under that
     *  ticket — same per-ticket contract as Server::submitFrame. */
    SubmitResult submitFrame(const std::vector<std::uint8_t> &frame,
                             std::size_t lane = 0);

    /** Extract + admit an already-parsed packet on its flow's shard. */
    SubmitResult submitPacket(const net::RawPacket &packet,
                              std::size_t lane = 0);

    /** Stop every shard, merge the stats (see file comment).
     *  Idempotent. */
    ServerStats stop();

    /** Per-shard stats, index == shard; valid after stop(). */
    const std::vector<ServerStats> &shardStats() const;

    /**
     * One merged telemetry snapshot of the whole fleet: every shard's
     * registry tagged {shard=N} plus the front door's {shard=front},
     * folded with MetricsSnapshot::merge. Live — callable mid-run (the
     * instruments are atomics) and after stop(). This is what
     * homc --serve-stats-json dumps for sharded runs.
     */
    telemetry::MetricsSnapshot metricsSnapshot() const;

    std::size_t shards() const { return servers_.size(); }
    /** The shard @p flow_key routes to (stable for a fixed config). */
    std::size_t shardFor(std::uint64_t flow_key) const;
    /** Recover the issuing shard from a sharded ticket. */
    static std::size_t shardOfTicket(std::uint64_t ticket)
    {
        return static_cast<std::size_t>(ticket >> kShardTicketShift);
    }

    /** Direct shard access (tests / per-shard introspection). */
    Server &shard(std::size_t index) { return *servers_.at(index); }
    const Server &shard(std::size_t index) const
    {
        return *servers_.at(index);
    }

    /** Rows queued across every shard and lane. */
    std::size_t depth() const;

  private:
    /** One consistent-hash ring point: hash -> owning shard. */
    struct RingPoint
    {
        std::uint64_t hash = 0;
        std::size_t shard = 0;

        bool operator<(const RingPoint &other) const
        {
            return hash < other.hash;
        }
    };

    void buildRing(std::size_t shard_count, std::size_t virtual_nodes);
    /** Bind the front door's instruments + ticket namespace (both
     *  constructors, after servers_ is sized). */
    void initFrontDoor(const ServerConfig &base);

    std::vector<std::unique_ptr<Server>> servers_;
    std::vector<RingPoint> ring_;  ///< sorted; immutable after ctor.

    /** The front door's own registry: events that belong to no shard
     *  (malformed frames rejected at parse, their onFailure callback
     *  errors). Merged into metricsSnapshot() as {shard=front}. */
    telemetry::MetricRegistry frontMetrics_;
    telemetry::Counter *frontMalformed_ = nullptr;
    telemetry::Counter *frontCallbackErrors_ = nullptr;
    /** Tickets for front-door malformed frames: namespace shards()
     *  << kShardTicketShift, disjoint from every shard's. */
    std::atomic<std::uint64_t> frontNextId_{0};
    FailureFn onFailure_;  ///< the shared sink (may be empty).

    std::mutex stopMutex_;  ///< serializes stop() callers.
    bool stopped_ = false;
    ServerStats mergedStats_;              ///< valid once stopped_.
    std::vector<ServerStats> shardStats_;  ///< valid once stopped_.
};

}  // namespace homunculus::runtime
