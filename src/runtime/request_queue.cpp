#include "runtime/request_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

namespace homunculus::runtime {

namespace {

using Clock = std::chrono::steady_clock;

constexpr auto kNoLane = static_cast<std::size_t>(-1);

/**
 * Ring sizing: a bounded lane gets a ring at least as large as its
 * maxDepth, so the depth tickets — never more than maxDepth
 * outstanding — guarantee an admitted row always finds a free slot and
 * the publish loop cannot spin in steady state. Unbounded lanes (and
 * depths past the cap) fall back to the largest ring and flow-control
 * through the transient-full path instead.
 */
constexpr std::size_t kMinRingCapacity = 64;
constexpr std::size_t kMaxRingCapacity = std::size_t{1} << 16;

std::size_t
ringCapacityFor(const QueuePolicy &policy)
{
    if (policy.maxDepth == 0)
        return kMaxRingCapacity;
    return std::min(std::max(policy.maxDepth, kMinRingCapacity),
                    kMaxRingCapacity);
}

/**
 * How long the batcher polls the rings before it parks: about one
 * park/wake round trip (futex wait, notify, reschedule) on the
 * reference 4-vCPU VM. A row that lands inside the window costs
 * neither side a syscall — the batcher never parked, so the producer's
 * wakeConsumer() sees no sleeper. Not a knob: the trade is CPU for a
 * kernel round trip, and the round trip is a property of the host.
 */
constexpr auto kSpinBeforePark = std::chrono::microseconds(50);

/** Ring polls between clock reads while spinning. */
constexpr int kPollsPerClockRead = 32;

/** CPU-relax hint for a polling loop. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
}

/** One policy with every delay knob inside the overflow-safe range. */
QueuePolicy
clampPolicy(QueuePolicy policy)
{
    if (policy.maxBatch == 0)
        policy.maxBatch = 1;
    policy.maxDelayUs = std::min(policy.maxDelayUs, kMaxQueueDelayUs);
    policy.dropAfterUs = std::min(policy.dropAfterUs, kMaxQueueDelayUs);
    return policy;
}

}  // namespace

const char *
backpressureModeName(BackpressureMode mode)
{
    switch (mode) {
      case BackpressureMode::kShed: return "shed";
      case BackpressureMode::kBlockWithTimeout: return "block";
      case BackpressureMode::kEarlyDrop: return "early-drop";
    }
    return "?";
}

void
RequestQueue::LaneCounters::bind(telemetry::MetricRegistry &registry,
                                 std::size_t lane)
{
    telemetry::Labels labels{{"lane", std::to_string(lane)}};
    accepted = &registry.counter("queue.accepted", labels);
    shed = &registry.counter("queue.shed", labels);
    blockTimeouts = &registry.counter("queue.block_timeouts", labels);
    earlyDropped = &registry.counter("queue.early_dropped", labels);
    rejectedClosed = &registry.counter("queue.rejected_closed", labels);
    sizeFlushes = &registry.counter("queue.size_flushes", labels);
    deadlineFlushes = &registry.counter("queue.deadline_flushes", labels);
    drainFlushes = &registry.counter("queue.drain_flushes", labels);
    agedFlushes = &registry.counter("queue.aged_flushes", labels);
}

QueueCounters
queueCountersFrom(const telemetry::MetricsSnapshot &snapshot,
                  std::size_t lane)
{
    telemetry::Labels labels{{"lane", std::to_string(lane)}};
    QueueCounters c;
    c.accepted = snapshot.counterValue("queue.accepted", labels);
    c.shed = snapshot.counterValue("queue.shed", labels);
    c.blockTimeouts = snapshot.counterValue("queue.block_timeouts", labels);
    c.earlyDropped = snapshot.counterValue("queue.early_dropped", labels);
    c.rejectedClosed =
        snapshot.counterValue("queue.rejected_closed", labels);
    c.sizeFlushes = snapshot.counterValue("queue.size_flushes", labels);
    c.deadlineFlushes =
        snapshot.counterValue("queue.deadline_flushes", labels);
    c.drainFlushes = snapshot.counterValue("queue.drain_flushes", labels);
    c.agedFlushes = snapshot.counterValue("queue.aged_flushes", labels);
    return c;
}

QueueConfig
RequestQueue::normalizeConfig(QueueConfig config)
{
    if (config.lanes.empty())
        config.lanes.push_back(QueuePolicy{});
    for (QueuePolicy &lane : config.lanes)
        lane = clampPolicy(lane);
    config.blockTimeoutUs =
        std::min(config.blockTimeoutUs, kMaxQueueDelayUs);
    config.fairnessAgingUs =
        std::min(config.fairnessAgingUs, kMaxQueueDelayUs);
    return config;
}

RequestQueue::RequestQueue(QueuePolicy policy, std::size_t width)
    : RequestQueue(
          [&] {
              QueueConfig config;
              config.lanes.push_back(policy);
              return config;
          }(),
          width)
{
}

RequestQueue::RequestQueue(QueueConfig config, std::size_t width)
    : config_(normalizeConfig(std::move(config))), width_(width),
      metricsOwned_(config_.metrics != nullptr
                        ? nullptr
                        : std::make_unique<telemetry::MetricRegistry>()),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : metricsOwned_.get()),
      lanes_(config_.lanes.size())
{
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
        lanes_[i].ring = std::make_unique<MpscRing<Admitted>>(
            ringCapacityFor(config_.lanes[i]), width_);
        lanes_[i].staged = StagedRows(width_);
        lanes_[i].counters.bind(*metrics_, i);
    }
}

void
RequestQueue::wakeConsumer()
{
    // Store-buffering handshake with sleepUntilWork(): our ring publish
    // (release store) is ordered before this fence, the consumer's
    // sleeping_ store before its fence — so either we observe
    // sleeping_ == true here and notify, or the consumer's post-flag
    // recheck observes our row and never parks. Both fences are
    // seq_cst; a wakeup cannot be lost.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!sleeping_.load(std::memory_order_relaxed))
        return;
    {
        // Empty critical section: once we saw the flag, the consumer
        // either still holds the mutex (it parks before releasing it —
        // we wait here until it is actually inside wait) or has
        // already woken; either way the notify below lands.
        std::lock_guard<std::mutex> lock(mutex_);
    }
    readyCv_.notify_one();
}

void
RequestQueue::publishAdmitted(std::size_t lane_index, std::uint64_t id,
                              const double *row)
{
    Lane &state = lanes_[lane_index];
    Admitted request;
    request.id = id;
    request.enqueuedAt = Clock::now();
    // A bounded lane can't fill its ring (capacity >= maxDepth >=
    // outstanding tickets), so this loop runs once on the hot path.
    // Unbounded or over-cap lanes can hit a full lap when producers
    // outrun the consumer — keep the consumer awake and yield until it
    // frees slots; that IS the flow control for those lanes.
    while (!state.ring->tryPush(request, row)) {
        wakeConsumer();
        std::this_thread::yield();
    }
    state.counters.accepted->add();
    wakeConsumer();
}

Admission
RequestQueue::push(std::uint64_t id, const double *row, std::size_t lane)
{
    if (lane >= lanes_.size())
        throw std::out_of_range("RequestQueue: lane out of range");
    Lane &state = lanes_[lane];
    if (closed_.load(std::memory_order_acquire)) {
        state.counters.rejectedClosed->add();
        return Admission::kRejectedClosed;
    }
    const QueuePolicy &policy = config_.lanes[lane];
    if (policy.maxDepth != 0) {
        // The door: take a depth ticket optimistically and hand it
        // back when the lane is over depth. Counting both directions
        // with RMWs keeps shed decisions exact under any interleaving
        // — exactly maxDepth pushes admit into an unconsumed lane no
        // matter how many producers race.
        std::size_t held =
            state.depthTickets.fetch_add(1, std::memory_order_relaxed);
        if (held >= policy.maxDepth) {
            state.depthTickets.fetch_sub(1, std::memory_order_relaxed);
            if (config_.backpressure !=
                BackpressureMode::kBlockWithTimeout) {
                state.counters.shed->add();
                return Admission::kShed;
            }
            return pushBlocking(id, row, lane);
        }
    } else {
        state.depthTickets.fetch_add(1, std::memory_order_relaxed);
    }
    publishAdmitted(lane, id, row);
    return Admission::kAdmitted;
}

Admission
RequestQueue::pushBlocking(std::uint64_t id, const double *row,
                           std::size_t lane_index)
{
    Lane &state = lanes_[lane_index];
    const QueuePolicy &policy = config_.lanes[lane_index];
    auto give_up = Clock::now() +
                   std::chrono::microseconds(config_.blockTimeoutUs);
    BlockedWaiter self;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (closed_.load(std::memory_order_relaxed)) {
            state.counters.rejectedClosed->add();
            return Admission::kRejectedClosed;
        }
        // Register in the FIFO first, retry the door second: the
        // consumer hands freed tickets to registered waiters under
        // this same mutex, so a flush between our lock-free attempt
        // and here either granted us already or left a door ticket
        // the retry sees. (Ungranted waiters imply an empty door —
        // releaseSpace only returns tickets once the FIFO is empty —
        // so the retry can never overtake an earlier waiter.)
        state.waiters.push_back(&self);
        std::size_t held =
            state.depthTickets.fetch_add(1, std::memory_order_relaxed);
        if (held < policy.maxDepth) {
            state.waiters.pop_back();  // still the tail; nobody else
                                       // registered while we hold the
                                       // mutex.
        } else {
            state.depthTickets.fetch_sub(1, std::memory_order_relaxed);
            spaceCv_.wait_until(lock, give_up, [&] {
                return self.granted ||
                       closed_.load(std::memory_order_relaxed);
            });
            // A grant is a transferred ticket and wins over a
            // concurrent close or timeout — the space is already ours.
            if (!self.granted) {
                auto it = std::find(state.waiters.begin(),
                                    state.waiters.end(), &self);
                if (it != state.waiters.end())
                    state.waiters.erase(it);
                if (closed_.load(std::memory_order_relaxed)) {
                    state.counters.rejectedClosed->add();
                    return Admission::kRejectedClosed;
                }
                state.counters.shed->add();
                state.counters.blockTimeouts->add();
                return Admission::kTimedOut;
            }
        }
    }
    publishAdmitted(lane_index, id, row);
    return Admission::kAdmitted;
}

void
RequestQueue::releaseSpace(std::size_t lane_index, std::size_t freed)
{
    if (freed == 0)
        return;
    Lane &state = lanes_[lane_index];
    if (config_.backpressure != BackpressureMode::kBlockWithTimeout ||
        config_.lanes[lane_index].maxDepth == 0) {
        state.depthTickets.fetch_sub(freed, std::memory_order_relaxed);
        return;
    }
    // Block mode: freed tickets go to the head of the waiter FIFO
    // first (arrival-order admission — the grant IS the ticket
    // transfer), and only the remainder returns to the lock-free door.
    bool granted_any = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::size_t to_door = freed;
        while (to_door > 0 && !state.waiters.empty()) {
            state.waiters.front()->granted = true;
            state.waiters.pop_front();
            --to_door;
            granted_any = true;
        }
        if (to_door > 0)
            state.depthTickets.fetch_sub(to_door,
                                         std::memory_order_relaxed);
    }
    if (granted_any)
        spaceCv_.notify_all();
}

void
RequestQueue::StagedRows::drain(MpscRing<Admitted> &ring)
{
    // Single consumer: a slot canPop() reports stays poppable until we
    // pop it, so the FIFO grows only for a row that is really there.
    while (ring.canPop()) {
        if (count_ == meta_.size())
            grow();
        std::size_t tail = (head_ + count_) & (meta_.size() - 1);
        ring.tryPop(meta_[tail], rows_.data() + tail * width_);
        ++count_;
    }
}

void
RequestQueue::StagedRows::grow()
{
    std::size_t capacity = std::max<std::size_t>(16, 2 * meta_.size());
    std::vector<Admitted> meta(capacity);
    std::vector<double> rows(capacity * width_);
    for (std::size_t i = 0; i < count_; ++i) {
        std::size_t from = (head_ + i) & (meta_.size() - 1);
        meta[i] = meta_[from];
        std::copy_n(rows_.data() + from * width_, width_,
                    rows.data() + i * width_);
    }
    meta_ = std::move(meta);
    rows_ = std::move(rows);
    head_ = 0;
}

void
RequestQueue::drainRings()
{
    for (Lane &state : lanes_)
        state.staged.drain(*state.ring);
}

bool
RequestQueue::ringsEmpty() const
{
    for (const Lane &state : lanes_)
        if (state.ring->canPop())
            return false;
    return true;
}

std::size_t
RequestQueue::totalTickets() const
{
    std::size_t total = 0;
    for (const Lane &state : lanes_)
        total += state.depthTickets.load(std::memory_order_relaxed);
    return total;
}

std::size_t
RequestQueue::readyLane(Clock::time_point now, FlushReason &reason,
                        bool &aged) const
{
    std::size_t best = kNoLane;
    FlushReason best_reason = FlushReason::kSize;
    std::size_t aged_lane = kNoLane;
    std::uint64_t aged_overdue = 0;
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
        const Lane &state = lanes_[lane];
        if (state.staged.empty())
            continue;
        const QueuePolicy &policy = config_.lanes[lane];
        bool size_ready = state.staged.size() >= policy.maxBatch;
        auto deadline = state.staged.front().enqueuedAt +
                        std::chrono::microseconds(policy.maxDelayUs);
        bool deadline_ready = now >= deadline;
        if (!size_ready && !deadline_ready)
            continue;
        if (best == kNoLane) {
            best = lane;
            best_reason =
                size_ready ? FlushReason::kSize : FlushReason::kDeadline;
        }
        // Fairness aging: a lane overdue past its own deadline by more
        // than the budget may preempt strict priority; the most
        // overdue starving lane wins (ties go to the higher-priority
        // one, scanned first).
        if (config_.fairnessAgingUs > 0 && deadline_ready) {
            auto overdue = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    now - deadline)
                    .count());
            if (overdue > config_.fairnessAgingUs &&
                overdue > aged_overdue) {
                aged_lane = lane;
                aged_overdue = overdue;
            }
        }
    }
    if (aged_lane != kNoLane && aged_lane != best) {
        aged = true;
        reason = FlushReason::kDeadline;
        return aged_lane;
    }
    aged = false;
    reason = best_reason;
    return best;
}

void
RequestQueue::takeBatch(std::size_t lane_index, FlushReason reason,
                        bool aged, std::vector<DroppedRow> &dropped,
                        RequestBatch &batch)
{
    Lane &state = lanes_[lane_index];
    const QueuePolicy &policy = config_.lanes[lane_index];
    batch.requests.clear();
    batch.reason = reason;
    batch.lane = lane_index;

    std::size_t freed = 0;
    if (config_.backpressure == BackpressureMode::kEarlyDrop) {
        // Late rows form a prefix (ring order tracks stamp order up to
        // the reservation race, and the filter is conservative — it
        // stops at the first fresh-enough row): shed them now rather
        // than spending engine capacity on rows that already blew
        // their budget.
        auto now = Clock::now();
        auto cutoff = now - std::chrono::microseconds(
                                policy.effectiveDropAfterUs());
        while (!state.staged.empty() &&
               state.staged.front().enqueuedAt < cutoff) {
            if (config_.onDrop) {
                const Admitted &front = state.staged.front();
                DroppedRow drop;
                drop.ticket = front.id;
                drop.lane = lane_index;
                drop.waitedUs = static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::microseconds>(
                        now - front.enqueuedAt)
                        .count());
                dropped.push_back(drop);
            }
            state.staged.popFront();
            state.counters.earlyDropped->add();
            ++freed;
        }
        if (state.staged.empty()) {
            releaseSpace(lane_index, freed);
            return;  // everything aged out; no flush to count.
        }
    }

    std::size_t take = std::min(state.staged.size(), policy.maxBatch);
    // Size both buffers before any view is taken: a resize that
    // reallocates rows must not strand a view.
    batch.requests.resize(take);
    batch.rows.resize(take * width_);
    for (std::size_t i = 0; i < take; ++i) {
        const Admitted &front = state.staged.front();
        Request &request = batch.requests[i];
        double *row = batch.rows.data() + i * width_;
        std::copy_n(state.staged.frontRow(), width_, row);
        request.id = front.id;
        request.lane = lane_index;
        request.features = RowView(row, width_);
        request.enqueuedAt = front.enqueuedAt;
        state.staged.popFront();
    }
    freed += take;
    switch (reason) {
      case FlushReason::kSize:
        state.counters.sizeFlushes->add();
        break;
      case FlushReason::kDeadline:
        state.counters.deadlineFlushes->add();
        break;
      case FlushReason::kDrain:
        state.counters.drainFlushes->add();
        break;
    }
    if (aged)
        state.counters.agedFlushes->add();
    releaseSpace(lane_index, freed);
}

void
RequestQueue::fireDrops(std::vector<DroppedRow> &dropped)
{
    if (dropped.empty())
        return;
    if (config_.onDrop)
        for (const DroppedRow &drop : dropped)
            config_.onDrop(drop.ticket, drop.lane, drop.waitedUs);
    dropped.clear();
}

bool
RequestQueue::spinForWork(Clock::time_point earliest) const
{
    auto spin_end = std::min(earliest, Clock::now() + kSpinBeforePark);
    for (;;) {
        for (int poll = 0; poll < kPollsPerClockRead; ++poll) {
            if (closed_.load(std::memory_order_relaxed) || !ringsEmpty())
                return true;
            cpuRelax();
        }
        auto now = Clock::now();
        if (now >= earliest)
            return true;  // a staged deadline is due: go flush it.
        if (now >= spin_end)
            return false;
    }
}

void
RequestQueue::sleepUntilWork(bool any_pending,
                             Clock::time_point earliest)
{
    std::unique_lock<std::mutex> lock(mutex_);
    sleeping_.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    // Post-flag recheck (the other half of wakeConsumer()'s
    // handshake): anything published before we raised the flag is
    // visible here, so parking is safe only when both checks come up
    // empty.
    if (closed_.load(std::memory_order_relaxed) || !ringsEmpty()) {
        sleeping_.store(false, std::memory_order_relaxed);
        return;
    }
    if (any_pending)
        readyCv_.wait_until(lock, earliest);
    else
        readyCv_.wait(lock);
    sleeping_.store(false, std::memory_order_relaxed);
}

bool
RequestQueue::pop(RequestBatch &out)
{
    std::vector<DroppedRow> dropped;
    for (;;) {
        bool was_closed = closed_.load(std::memory_order_acquire);
        drainRings();
        if (was_closed) {
            // Drain: highest-priority non-empty lane, full batches
            // counted as size flushes like before, the rest as drain.
            std::size_t lane = kNoLane;
            for (std::size_t i = 0; i < lanes_.size(); ++i)
                if (!lanes_[i].staged.empty()) {
                    lane = i;
                    break;
                }
            if (lane == kNoLane) {
                if (totalTickets() == 0 && ringsEmpty()) {
                    out.requests.clear();
                    return false;  // closed and drained.
                }
                // An admitted row is still in flight between its door
                // ticket and its ring slot (or a granted waiter has
                // not published yet); it must drain, not vanish.
                std::this_thread::yield();
                continue;
            }
            FlushReason reason =
                lanes_[lane].staged.size() >=
                        config_.lanes[lane].maxBatch
                    ? FlushReason::kSize
                    : FlushReason::kDrain;
            takeBatch(lane, reason, false, dropped, out);
            fireDrops(dropped);
            if (out.requests.empty())
                continue;  // every row early-dropped; keep draining.
            return true;
        }

        FlushReason reason = FlushReason::kSize;
        bool aged = false;
        auto now = Clock::now();
        if (std::size_t lane = readyLane(now, reason, aged);
            lane != kNoLane) {
            takeBatch(lane, reason, aged, dropped, out);
            // Drop callbacks run with no lock held and after the
            // tickets went back — onDrop may legally push().
            fireDrops(dropped);
            if (out.requests.empty())
                continue;  // every row early-dropped; look again.
            return true;
        }

        // No lane ready: spin briefly, then sleep until the earliest
        // staged deadline (a producer wakes us for anything new —
        // including lanes that reach their size trigger before any
        // deadline).
        bool any_pending = false;
        Clock::time_point earliest = Clock::time_point::max();
        for (std::size_t i = 0; i < lanes_.size(); ++i) {
            if (lanes_[i].staged.empty())
                continue;
            any_pending = true;
            auto deadline = lanes_[i].staged.front().enqueuedAt +
                            std::chrono::microseconds(
                                config_.lanes[i].maxDelayUs);
            earliest = std::min(earliest, deadline);
        }
        if (!spinForWork(earliest))
            sleepUntilWork(any_pending, earliest);
    }
}

void
RequestQueue::close()
{
    closed_.store(true, std::memory_order_seq_cst);
    {
        // Empty critical section: serialize against a consumer (or
        // blocked producer) that checked closed_ and is committing to
        // its wait — the notify below can then never fall into the
        // check-to-wait window.
        std::lock_guard<std::mutex> lock(mutex_);
    }
    readyCv_.notify_all();
    spaceCv_.notify_all();
}

bool
RequestQueue::closed() const
{
    return closed_.load(std::memory_order_acquire);
}

std::size_t
RequestQueue::depth() const
{
    return totalTickets();
}

std::size_t
RequestQueue::depth(std::size_t lane) const
{
    if (lane >= lanes_.size())
        throw std::out_of_range("RequestQueue: lane out of range");
    return lanes_[lane].depthTickets.load(std::memory_order_relaxed);
}

QueueCounters
RequestQueue::counters() const
{
    telemetry::MetricsSnapshot snapshot = metrics_->snapshot();
    QueueCounters total;
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane)
        total += queueCountersFrom(snapshot, lane);
    return total;
}

QueueCounters
RequestQueue::counters(std::size_t lane) const
{
    if (lane >= lanes_.size())
        throw std::out_of_range("RequestQueue: lane out of range");
    return queueCountersFrom(metrics_->snapshot(), lane);
}

}  // namespace homunculus::runtime
