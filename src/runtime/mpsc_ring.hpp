/**
 * @file
 * MpscRing: bounded lock-free multi-producer / single-consumer ring.
 *
 * The admission fast path of runtime::RequestQueue. Under contention
 * the old mutex made every submitting core bounce one lock line (and
 * one deque) across the socket; here a producer's footprint is one CAS
 * on the reservation counter plus a release-store on its own slot, so
 * submit-path cache traffic stays local to the slot being written
 * instead of serializing on a lock.
 *
 * The design is the classic bounded-MPMC sequence-number queue
 * (Vyukov), restricted to one consumer:
 *
 *   - every slot carries an atomic sequence number. A slot whose
 *     seq == position is free for the producer that reserves that
 *     position; seq == position + 1 means "published, poppable";
 *     seq == position + capacity means the consumer freed it for the
 *     next lap.
 *   - producers reserve a position by CAS on head_, write the value
 *     into their private slot, then release-store seq = pos + 1. The
 *     release pairs with the consumer's acquire load of the same seq,
 *     so the value write happens-before the pop that reads it — the
 *     only handoff edge the ring needs (the "Instantaneous Instruction
 *     Execution" memory-model framing: one acquire/release pair per
 *     slot, no global fences on the ring itself).
 *   - the single consumer owns tail_ outright (a plain member, not an
 *     atomic): it acquire-loads the tail slot's seq, copies the value
 *     out, and release-stores seq = pos + capacity.
 *
 * FIFO: positions are handed out by one fetch-style CAS, so pop order
 * is exactly reservation order — a total order over all producers.
 *
 * Rows ride inline: a ring built with a row width W carries W doubles
 * per slot next to its value, in one flat array allocated with the
 * ring. tryPush copies the caller's row into the reserved slot before
 * the publishing release-store, and tryPop copies it out before the
 * freeing release-store, so the row needs no heap allocation of its
 * own and crosses threads on the slot's one acquire/release pair. A
 * full ring copies nothing: the caller's value and row are untouched,
 * so callers can retry (RequestQueue's publish loop) or shed.
 *
 * Capacity is rounded up to a power of two (index masking instead of
 * modulo). One lap of the ring can hold capacity() values; a push into
 * a ring whose next slot has not been freed yet returns false ("full")
 * rather than blocking — flow control lives in the caller.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

namespace homunculus::runtime {

template <typename T>
class MpscRing
{
    static_assert(std::is_trivially_copyable<T>::value,
                  "MpscRing values are copied into and out of slots");

  public:
    /** @p capacity is rounded up to a power of two, minimum 2; every
     *  slot also holds @p width doubles of row data. */
    explicit MpscRing(std::size_t capacity, std::size_t width = 0)
        : capacity_(roundUpPow2(capacity < 2 ? 2 : capacity)),
          mask_(capacity_ - 1), width_(width), slots_(new Slot[capacity_]),
          // Default-initialized: a slot's row pages are first touched
          // when a producer writes them, not here.
          rows_(new double[capacity_ * width_])
    {
        for (std::size_t i = 0; i < capacity_; ++i)
            slots_[i].seq.store(i, std::memory_order_relaxed);
    }

    MpscRing(const MpscRing &) = delete;
    MpscRing &operator=(const MpscRing &) = delete;

    /**
     * Reserve a slot and publish @p value and the width() doubles at
     * @p row into it (@p row may be null when width() is 0). Returns
     * false when the ring is full, having read neither. Safe from any
     * number of threads concurrently.
     */
    bool tryPush(const T &value, const double *row = nullptr)
    {
        std::size_t pos = head_.load(std::memory_order_relaxed);
        for (;;) {
            Slot &slot = slots_[pos & mask_];
            std::size_t seq = slot.seq.load(std::memory_order_acquire);
            auto dif = static_cast<std::intptr_t>(seq) -
                       static_cast<std::intptr_t>(pos);
            if (dif == 0) {
                // Slot free for this lap; race other producers for it.
                if (head_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed)) {
                    slot.value = value;
                    std::copy_n(row, width_, rowOf(pos));
                    slot.seq.store(pos + 1, std::memory_order_release);
                    return true;
                }
                // CAS refreshed pos; retry against the new position.
            } else if (dif < 0) {
                return false;  // a full lap behind the consumer.
            } else {
                // Another producer took pos; chase the head.
                pos = head_.load(std::memory_order_relaxed);
            }
        }
    }

    /**
     * Copy the oldest published value into @p out and its row into the
     * width() doubles at @p row (null when width() is 0), then free the
     * slot. Returns false when nothing is poppable (empty, or the next
     * slot is reserved but not yet published). Single consumer only.
     */
    bool tryPop(T &out, double *row = nullptr)
    {
        Slot &slot = slots_[tail_ & mask_];
        std::size_t seq = slot.seq.load(std::memory_order_acquire);
        if (seq != tail_ + 1)
            return false;
        out = slot.value;
        std::copy_n(rowOf(tail_), width_, row);
        slot.seq.store(tail_ + capacity_, std::memory_order_release);
        ++tail_;
        return true;
    }

    /** True when tryPop() would return a value. Consumer side only. */
    bool canPop() const
    {
        const Slot &slot = slots_[tail_ & mask_];
        return slot.seq.load(std::memory_order_acquire) == tail_ + 1;
    }

    std::size_t capacity() const { return capacity_; }
    /** Doubles of row data each slot carries. */
    std::size_t width() const { return width_; }

  private:
    struct Slot
    {
        std::atomic<std::size_t> seq{0};
        T value{};
    };

    static std::size_t roundUpPow2(std::size_t v)
    {
        std::size_t p = 1;
        while (p < v)
            p <<= 1;
        return p;
    }

    double *rowOf(std::size_t pos) const
    {
        return rows_.get() + (pos & mask_) * width_;
    }

    std::size_t capacity_;
    std::size_t mask_;
    std::size_t width_;
    std::unique_ptr<Slot[]> slots_;
    /** capacity_ x width_ row data; row i belongs to slot i. */
    std::unique_ptr<double[]> rows_;
    /** Producer reservation counter — the one contended line. */
    alignas(64) std::atomic<std::size_t> head_{0};
    /** Consumer position; plain because exactly one thread pops. */
    alignas(64) std::size_t tail_ = 0;
};

}  // namespace homunculus::runtime
