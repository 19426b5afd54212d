/**
 * @file
 * RequestQueue: multi-lane bounded admission queue with per-lane
 * size-or-deadline batching, pluggable backpressure, and a lock-free
 * submit path.
 *
 * The serving path's front door. StreamHarness replays a whole trace in
 * fixed micro-batches — fine for throughput measurement, useless under
 * live arrivals, where waiting to fill a batch makes tail latency
 * unbounded at low load and unbounded queueing makes it unbounded at
 * high load. This queue implements the standard serving answer to both
 * (the batching policy of ASAP-style operator runtimes), generalized to
 * mixed request classes:
 *
 *  - priority lanes: requests are admitted into one of N lanes, each
 *    with its own QueuePolicy (maxBatch / maxDelayUs / maxDepth). Lane
 *    0 is the most urgent. A control-plane probe lane can run a 250 µs
 *    deadline and a shallow depth while a bulk classification lane
 *    fills 1024-row batches behind it — the deadline classes the paper's
 *    deployments mix no longer share one FIFO and one delay budget.
 *  - size-or-deadline flush per lane: a lane becomes ready the moment
 *    it reaches maxBatch rows OR its oldest queued request has waited
 *    maxDelay. pop() releases the highest-priority ready lane (strict
 *    priority among ready lanes by default; QueueConfig::fairnessAgingUs
 *    lets a badly overdue lower-priority lane preempt, so sustained
 *    probe load cannot starve bulk lanes forever). When no lane is
 *    ready, the consumer sleeps until the earliest pending deadline.
 *  - backpressure, three ways (BackpressureMode):
 *      kShed            — pushes beyond a lane's maxDepth are rejected
 *                         at the door (counted). The system degrades by
 *                         dropping, not by serving everyone late.
 *      kBlockWithTimeout— the producer waits up to blockTimeoutUs for
 *                         space in its lane. Blocked producers are
 *                         granted freed space strictly in arrival
 *                         order (deterministic FIFO — a late pusher
 *                         can no longer admit while an early one is
 *                         still waking). A push that times out is shed.
 *      kEarlyDrop       — admission never blocks and the lane depth
 *                         still bounds memory, but additionally rows
 *                         that are already hopelessly late at flush
 *                         time (waited > dropAfterUs, default twice the
 *                         lane's maxDelay) are dropped instead of
 *                         served — under overload the engine's capacity
 *                         goes to rows that can still meet their SLO.
 *  - clean drain: close() stops admissions; pop() hands out the
 *    remaining rows (final partial batches included, highest-priority
 *    lane first) and then reports exhaustion, so shutdown loses nothing
 *    that was admitted.
 *
 * Submit fast path (the scale-out redesign): push() takes NO lock.
 * Admission control is an atomic per-lane depth ticket (fetch_add,
 * undone when the lane is over depth), and the row itself lands in a
 * per-lane lock-free MPSC ring (see mpsc_ring.hpp) with one CAS slot
 * reservation — so N submitting cores no longer serialize on one mutex
 * line, and submit-path p99 stays flat as producers are added. The
 * mutex + condition variables survive only at the two edges the issue
 * carves out:
 *
 *   - consumer sleep: when no lane is ready the consumer first polls
 *     the rings for a short, bounded spin (about one park/wake round
 *     trip, never past the earliest staged deadline), then parks on
 *     readyCv_. Producers detect a sleeping consumer via a flag with a
 *     seq_cst fence on each side (store-buffering pattern: either the
 *     producer observes the flag and notifies, or the consumer's
 *     post-flag recheck observes the published row — a wakeup can
 *     never be lost), and only then touch the mutex.
 *   - blocked producers (kBlockWithTimeout): waiters register in a
 *     FIFO list under the mutex; the consumer transfers freed depth
 *     tickets to the waiters at the head of the list, in arrival
 *     order, before returning the remainder to the door.
 *
 * The consumer drains the rings into per-lane staging deques and makes
 * all flush decisions there, single-threaded — so batch composition,
 * flush accounting, and early-drop behavior are bit-identical to the
 * mutex queue's, and deterministic for a given arrival order.
 *
 * Thread model: any number of producers push(); exactly ONE consumer
 * thread pop()s (runtime::Server's batcher — the single-consumer
 * contract the MPSC ring encodes). Counters and depths are atomics,
 * readable from any thread.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "runtime/mpsc_ring.hpp"
#include "runtime/telemetry.hpp"

namespace homunculus::runtime {

/**
 * Ceiling on every per-lane delay knob, one hour in microseconds.
 * steady_clock arithmetic is int64 nanoseconds; an unvalidated
 * maxDelayUs near 2^64 used to overflow `enqueuedAt + maxDelay` into
 * the past and turn "flush after N µs" into "flush immediately".
 * Policies clamp here at construction instead.
 */
constexpr std::uint64_t kMaxQueueDelayUs = 3'600'000'000ull;

/**
 * Floor on kEarlyDrop's drop budget, one millisecond. maxDelayUs == 0
 * is a legitimate "flush immediately" config, but doubling it would
 * make the drop budget zero too — and a zero budget drops every
 * admitted row at flush time (each was necessarily pushed before the
 * cutoff), turning the server into one that admits everything and
 * serves nothing.
 */
constexpr std::uint64_t kMinDropBudgetUs = 1000;

/** Per-lane batching + admission knobs. */
struct QueuePolicy
{
    /** Flush when this many rows are pending (the size trigger). */
    std::size_t maxBatch = 1024;
    /** Flush when the oldest pending row has waited this long (the
     *  deadline trigger), in microseconds. */
    std::uint64_t maxDelayUs = 1000;
    /** Admission bound: pushes beyond this many queued rows are shed
     *  or blocked, per the queue's BackpressureMode (0 = unbounded). */
    std::size_t maxDepth = 8192;
    /**
     * kEarlyDrop only: a row that has queued longer than this by flush
     * time is dropped instead of served. 0 picks the default of
     * 2 * maxDelayUs — the flush trigger itself puts the oldest row at
     * exactly maxDelay, so dropping at "> maxDelay" would shed every
     * steady-state deadline flush; twice the budget is unambiguously
     * late. Clamped like maxDelayUs.
     */
    std::uint64_t dropAfterUs = 0;

    /** The drop threshold kEarlyDrop actually applies (never below
     *  kMinDropBudgetUs — see its comment). */
    std::uint64_t effectiveDropAfterUs() const
    {
        std::uint64_t budget =
            dropAfterUs != 0 ? dropAfterUs : 2 * maxDelayUs;
        return budget >= kMinDropBudgetUs ? budget : kMinDropBudgetUs;
    }
};

/** What a producer does when its lane is at maxDepth. */
enum class BackpressureMode
{
    kShed,              ///< reject at the door (PR 4 behavior).
    kBlockWithTimeout,  ///< wait up to blockTimeoutUs for space.
    kEarlyDrop,         ///< shed at door + drop late rows at flush.
};

/** Printable mode name ("shed" / "block" / "early-drop"). */
const char *backpressureModeName(BackpressureMode mode);

/**
 * Notification that an *admitted* request was dropped at flush time
 * (kEarlyDrop aging out a row that blew its budget). Door-side
 * rejections don't come through here — push() already reports those
 * synchronously via Admission. @p waitedUs is how long the row sat
 * queued before it was shed.
 */
using DropFn = std::function<void(std::uint64_t ticket, std::size_t lane,
                                  std::uint64_t waitedUs)>;

/** Whole-queue configuration: one policy per priority lane. */
struct QueueConfig
{
    /** Lane policies, most urgent first. Empty behaves as one default
     *  lane. */
    std::vector<QueuePolicy> lanes;
    BackpressureMode backpressure = BackpressureMode::kShed;
    /** kBlockWithTimeout: longest a push may wait for space, in
     *  microseconds (clamped to kMaxQueueDelayUs). */
    std::uint64_t blockTimeoutUs = 10'000;
    /**
     * Lane-fairness aging budget in microseconds. 0 (the default)
     * keeps strict priority among ready lanes — the historical
     * behavior, where a continuously ready lane 0 starves everyone
     * below it. When > 0, a ready lane whose oldest row is overdue
     * (past the lane's own maxDelay) by more than this budget is
     * released ahead of higher-priority ready lanes, most-overdue lane
     * first — bounded priority inversion instead of unbounded
     * starvation. Flushes won this way are tagged in
     * QueueCounters::agedFlushes (they also count under their flush
     * reason as usual).
     */
    std::uint64_t fairnessAgingUs = 0;
    /**
     * Optional early-drop sink, so producers can retry or degrade
     * instead of discovering drops via counters. Invoked from the
     * consumer's pop() with no queue lock held — safe to call back
     * into push() — but must still be fast: it runs on the serving
     * thread's critical path.
     */
    DropFn onDrop;
    /**
     * Registry the queue's per-lane counters live in ("queue.accepted"
     * {lane=N}, ...). Non-owning; must outlive the queue. nullptr (the
     * default) gives the queue a private registry, so standalone
     * queues keep working — Server passes its own registry here so
     * queue, server, and router instruments share one snapshot.
     */
    telemetry::MetricRegistry *metrics = nullptr;
};

/** One queued inference request. */
struct Request
{
    std::uint64_t id = 0;               ///< caller-assigned ticket.
    std::size_t lane = 0;               ///< set by push().
    std::vector<double> features;       ///< one model-input row.
    std::chrono::steady_clock::time_point enqueuedAt;  ///< set by push().
};

/** Why a batch was released. */
enum class FlushReason { kSize, kDeadline, kDrain };

/** One released batch (single-lane by construction). */
struct RequestBatch
{
    std::vector<Request> requests;
    FlushReason reason = FlushReason::kSize;
    std::size_t lane = 0;
};

/** How push() disposed of a request. */
enum class Admission
{
    kAdmitted,        ///< queued; the request will be served or drained.
    kShed,            ///< rejected at maxDepth (kShed / kEarlyDrop).
    kTimedOut,        ///< waited blockTimeoutUs, still no space.
    kRejectedClosed,  ///< pushed after close().
};

/** True when the request was queued. */
inline bool
admitted(Admission a)
{
    return a == Admission::kAdmitted;
}

/** Monotonic counters (snapshot via RequestQueue::counters()). */
struct QueueCounters
{
    std::uint64_t accepted = 0;         ///< rows admitted.
    std::uint64_t shed = 0;             ///< rows rejected at maxDepth.
    std::uint64_t blockTimeouts = 0;    ///< sheds that waited first.
    std::uint64_t earlyDropped = 0;     ///< admitted rows dropped late.
    std::uint64_t rejectedClosed = 0;   ///< rows pushed after close().
    std::uint64_t sizeFlushes = 0;
    std::uint64_t deadlineFlushes = 0;
    std::uint64_t drainFlushes = 0;
    /** Flushes a lower-priority lane won via fairness aging (each also
     *  counts under its flush reason above). */
    std::uint64_t agedFlushes = 0;

    /** Field-wise sum — the single place the field list is walked, so
     *  the all-lane aggregate cannot drift when a counter is added. */
    QueueCounters &operator+=(const QueueCounters &other)
    {
        accepted += other.accepted;
        shed += other.shed;
        blockTimeouts += other.blockTimeouts;
        earlyDropped += other.earlyDropped;
        rejectedClosed += other.rejectedClosed;
        sizeFlushes += other.sizeFlushes;
        deadlineFlushes += other.deadlineFlushes;
        drainFlushes += other.drainFlushes;
        agedFlushes += other.agedFlushes;
        return *this;
    }
};

class RequestQueue
{
  public:
    /** Single-lane queue in kShed mode — the PR 4 front door. */
    explicit RequestQueue(QueuePolicy policy = {});
    /** Multi-lane queue; config.lanes[0] is the most urgent. */
    explicit RequestQueue(QueueConfig config);

    /**
     * Admit one request into @p lane (its enqueuedAt and lane are
     * stamped here). Returns kAdmitted when queued; otherwise the
     * request is not retained and the outcome is counted against the
     * lane. Lock-free in kShed/kEarlyDrop modes and whenever the lane
     * has space. In kBlockWithTimeout mode a push to a full lane waits
     * up to blockTimeoutUs for a flush to free space — waiters admit
     * in arrival order — and close() wakes it, to fail fast. Throws
     * std::out_of_range for an unknown lane.
     */
    Admission push(Request request, std::size_t lane = 0);

    /**
     * Block until some lane releases a batch: maxBatch rows pending,
     * its oldest pending row maxDelay old, or close() with rows left
     * (drain; final batches may be partial). The highest-priority ready
     * lane wins (subject to fairness aging — see QueueConfig); batches
     * preserve arrival order within their lane. In kEarlyDrop mode,
     * rows older than their lane's dropAfterUs are removed (and
     * counted) before the batch is formed; a flush whose rows all
     * dropped is not returned — pop() keeps going. Returns nullopt
     * once closed and fully drained. Single consumer thread only.
     */
    std::optional<RequestBatch> pop();

    /** Stop admissions; pending rows remain poppable (drain). */
    void close();

    bool closed() const;
    std::size_t depth() const;                ///< rows queued, all lanes.
    std::size_t depth(std::size_t lane) const;
    QueueCounters counters() const;           ///< sum over lanes.
    QueueCounters counters(std::size_t lane) const;

    std::size_t lanes() const { return config_.lanes.size(); }
    const QueuePolicy &policy(std::size_t lane = 0) const
    {
        return config_.lanes.at(lane);
    }
    const QueueConfig &config() const { return config_; }

    /** The registry holding this queue's instruments (the config's, or
     *  the queue's private one when none was supplied). */
    telemetry::MetricRegistry &metrics() { return *metrics_; }

  private:
    /** The queue's per-lane instruments, resolved once at construction
     *  from the telemetry registry ("queue.accepted" {lane=N}, ...);
     *  updates are the same relaxed-atomic adds the old embedded
     *  counters did, and counters() folds the registry values back
     *  into the plain QueueCounters view struct. */
    struct LaneCounters
    {
        telemetry::Counter *accepted = nullptr;
        telemetry::Counter *shed = nullptr;
        telemetry::Counter *blockTimeouts = nullptr;
        telemetry::Counter *earlyDropped = nullptr;
        telemetry::Counter *rejectedClosed = nullptr;
        telemetry::Counter *sizeFlushes = nullptr;
        telemetry::Counter *deadlineFlushes = nullptr;
        telemetry::Counter *drainFlushes = nullptr;
        telemetry::Counter *agedFlushes = nullptr;

        /** Resolve every counter for @p lane in @p registry. */
        void bind(telemetry::MetricRegistry &registry, std::size_t lane);

        QueueCounters snapshot() const;
    };

    /** One producer parked in kBlockWithTimeout mode, queued on the
     *  lane's FIFO waiter list (guarded by mutex_). The consumer
     *  transfers a freed depth ticket by setting granted. */
    struct BlockedWaiter
    {
        bool granted = false;
    };

    struct Lane
    {
        /** The lock-free admission path: producers publish here. */
        std::unique_ptr<MpscRing<Request>> ring;
        /** Consumer-private: rows drained from the ring, awaiting a
         *  flush decision. Never touched by producers. */
        std::deque<Request> staged;
        /** FIFO of blocked producers (kBlockWithTimeout), arrival
         *  order; guarded by mutex_. */
        std::deque<BlockedWaiter *> waiters;
        /**
         * Admission tickets: one per row between door and flush (ring
         * + staged + block-granted-but-not-yet-published). fetch_add
         * at the door, undone when over maxDepth — so shed decisions
         * are exact even under contention, and the ring (sized >=
         * maxDepth) can never be lapped by admitted rows.
         */
        std::atomic<std::size_t> depthTickets{0};
        LaneCounters counters;
    };

    /** One flush-time drop, recorded while forming a batch and
     *  reported to config_.onDrop afterwards (never under any lock). */
    struct DroppedRow
    {
        std::uint64_t ticket = 0;
        std::size_t lane = 0;
        std::uint64_t waitedUs = 0;
    };

    /** Clamp knobs + materialize the default lane (shared by both
     *  constructors; runs before lanes_ is sized off the config). */
    static QueueConfig normalizeConfig(QueueConfig config);

    /** Stamp @p request and publish it into @p lane's ring. Spins
     *  (with consumer wakeups) on the transient-full window, then
     *  counts the admission and wakes a sleeping consumer. */
    void publishAdmitted(std::size_t lane, Request request);

    /** kBlockWithTimeout slow path: join the lane's FIFO waiter list
     *  and wait for a transferred ticket, a timeout, or close(). */
    Admission pushBlocking(Request request, std::size_t lane);

    /** Return @p freed depth tickets to @p lane. In block mode the
     *  head waiters get them first (FIFO grants, under the mutex);
     *  everything ungranted goes back to the door. */
    void releaseSpace(std::size_t lane, std::size_t freed);

    /** Notify the consumer iff it parked (seq_cst-fence handshake
     *  against the sleeping_ flag — see the file comment). */
    void wakeConsumer();

    /** Move every published row from the rings into the staging
     *  deques (consumer only). */
    void drainRings();

    /** True when no lane's ring has a poppable row (consumer only). */
    bool ringsEmpty() const;

    /** Outstanding depth tickets across all lanes. */
    std::size_t totalTickets() const;

    /** The staged lane pop() should release at @p now, or kNoLane:
     *  highest-priority ready lane, preempted by the most-overdue
     *  starving lane when fairness aging is on (@p aged reports the
     *  preemption so the flush can be tagged). Consumer only. */
    std::size_t readyLane(std::chrono::steady_clock::time_point now,
                          FlushReason &reason, bool &aged) const;

    /** Form a batch from @p lane's staging deque: early-drop filter,
     *  up to maxBatch rows, flush accounting, ticket release.
     *  Consumer only; can come back empty when every row aged out. */
    RequestBatch takeBatch(std::size_t lane, FlushReason reason,
                           bool aged, std::vector<DroppedRow> &dropped);

    /** Deliver @p dropped to onDrop (no lock held) and clear it. */
    void fireDrops(std::vector<DroppedRow> &dropped);

    /** Poll the rings for up to kSpinBeforePark, never past
     *  @p earliest (the soonest staged deadline, or time_point::max()).
     *  True when a row arrived, the queue closed, or @p earliest came
     *  due — pop() then looks again without parking. The sleeping_
     *  flag stays down throughout, so producers skip the wake. */
    bool spinForWork(std::chrono::steady_clock::time_point earliest) const;

    /** Park until a producer or close() signals, or until @p earliest
     *  (the soonest staged deadline) when one exists. */
    void sleepUntilWork(bool any_pending,
                        std::chrono::steady_clock::time_point earliest);

    QueueConfig config_;
    /** Private registry when the config supplied none. Declared before
     *  lanes_ so lane counters can bind to it during construction. */
    std::unique_ptr<telemetry::MetricRegistry> metricsOwned_;
    telemetry::MetricRegistry *metrics_ = nullptr;
    std::vector<Lane> lanes_;
    std::atomic<bool> closed_{false};
    /** True while the consumer is parked on readyCv_ — the producer
     *  side of the lost-wakeup handshake. */
    std::atomic<bool> sleeping_{false};
    /** Guards: consumer sleep transitions, waiter lists, block-mode
     *  ticket grants. Never taken on the lock-free admit path. */
    mutable std::mutex mutex_;
    std::condition_variable readyCv_;   ///< the consumer waits here.
    std::condition_variable spaceCv_;   ///< blocked producers wait here.
};

}  // namespace homunculus::runtime
