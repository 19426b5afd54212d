/**
 * @file
 * Tests for the bounded lock-free MPSC ring behind RequestQueue's
 * submit fast path: FIFO order, full/empty/wraparound edges, inline
 * rows (the bytes a producer wrote are the bytes the consumer reads,
 * lap after lap, at the serving widths), a full ring reading nothing
 * of the caller's value or row, and multi-producer interleaving (every
 * pushed value and its row arrive exactly once, per-producer
 * subsequences stay ordered). The concurrent cases run under TSAN in
 * CI (MpscRing* is in the sanitizer filter).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "runtime/mpsc_ring.hpp"

namespace hr = homunculus::runtime;

TEST(MpscRing, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(hr::MpscRing<int>(1).capacity(), 2u);
    EXPECT_EQ(hr::MpscRing<int>(2).capacity(), 2u);
    EXPECT_EQ(hr::MpscRing<int>(3).capacity(), 4u);
    EXPECT_EQ(hr::MpscRing<int>(64).capacity(), 64u);
    EXPECT_EQ(hr::MpscRing<int>(65).capacity(), 128u);
}

TEST(MpscRing, PopOnEmptyFailsAndPushPopRoundTripsFifo)
{
    hr::MpscRing<int> ring(8);
    int out = -1;
    EXPECT_FALSE(ring.canPop());
    EXPECT_FALSE(ring.tryPop(out));
    for (int i = 0; i < 5; ++i) {
        int value = i;
        ASSERT_TRUE(ring.tryPush(value));
    }
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(ring.tryPop(out));
        EXPECT_EQ(out, i);
    }
    EXPECT_FALSE(ring.tryPop(out));
}

TEST(MpscRing, FullRingRejectsWithoutConsumingTheValue)
{
    hr::MpscRing<int> ring(4, 3);
    for (int i = 0; i < 4; ++i) {
        std::vector<double> row(3, i);
        ASSERT_TRUE(ring.tryPush(i, row.data()));
    }
    // Full: the push fails and the caller keeps its value and row
    // intact — that is what lets RequestQueue retry or shed.
    const int keeper = 9;
    std::vector<double> keeper_row{9.5, -9.5, 9.25};
    const std::vector<double> before = keeper_row;
    EXPECT_FALSE(ring.tryPush(keeper, keeper_row.data()));
    EXPECT_EQ(keeper_row, before);

    int out = -1;
    std::vector<double> out_row(3, -1.0);
    ASSERT_TRUE(ring.tryPop(out, out_row.data()));
    EXPECT_EQ(out, 0);
    EXPECT_EQ(out_row, (std::vector<double>{0, 0, 0}));
    // One slot freed: the same value and row now go in, and come out
    // behind the three rows still queued.
    EXPECT_TRUE(ring.tryPush(keeper, keeper_row.data()));
    for (int i = 1; i < 4; ++i)
        ASSERT_TRUE(ring.tryPop(out, out_row.data()));
    ASSERT_TRUE(ring.tryPop(out, out_row.data()));
    EXPECT_EQ(out, keeper);
    EXPECT_EQ(out_row, before);
}

TEST(MpscRing, FullRingLeavesTheCallersRowUntouched)
{
    // Width 30 (the BD schema): a rejected push must not write the
    // caller's row nor any slot's row.
    constexpr std::size_t kWidth = 30;
    hr::MpscRing<std::uint64_t> ring(2, kWidth);
    std::vector<double> row(kWidth);
    for (std::uint64_t i = 0; i < 2; ++i) {
        for (std::size_t c = 0; c < kWidth; ++c)
            row[c] = static_cast<double>(i * 100 + c);
        ASSERT_TRUE(ring.tryPush(i, row.data()));
    }
    std::vector<double> rejected(kWidth);
    for (std::size_t c = 0; c < kWidth; ++c)
        rejected[c] = -static_cast<double>(c) - 0.5;
    const std::vector<double> before = rejected;
    EXPECT_FALSE(ring.tryPush(7, rejected.data()));
    EXPECT_EQ(std::memcmp(rejected.data(), before.data(),
                          kWidth * sizeof(double)),
              0);
    std::uint64_t out = 0;
    std::vector<double> out_row(kWidth);
    for (std::uint64_t i = 0; i < 2; ++i) {
        ASSERT_TRUE(ring.tryPop(out, out_row.data()));
        EXPECT_EQ(out, i);
        for (std::size_t c = 0; c < kWidth; ++c)
            EXPECT_EQ(out_row[c], static_cast<double>(i * 100 + c));
    }
    EXPECT_FALSE(ring.canPop());
}

TEST(MpscRing, WrapAroundStaysFifoAcrossManyLaps)
{
    // Capacity 4 with 1000 values: every slot's sequence number laps
    // 250 times; any wraparound bug in the seq arithmetic shows up as
    // a reorder, a loss, or a bogus full/empty.
    hr::MpscRing<int> ring(4);
    int out = -1;
    int next_push = 0, next_pop = 0;
    while (next_pop < 1000) {
        while (next_push < 1000) {
            int value = next_push;
            if (!ring.tryPush(value))
                break;
            ++next_push;
        }
        ASSERT_TRUE(ring.tryPop(out));
        EXPECT_EQ(out, next_pop);
        ++next_pop;
    }
    EXPECT_FALSE(ring.canPop());
}

namespace {

/** Row @p value of a ring test: distinct bit patterns per value and
 *  column, non-integral so a dropped or shifted byte shows. */
double
cellOf(std::uint64_t value, std::size_t column)
{
    return static_cast<double>(value) * 1024.0 +
           static_cast<double>(column) + 0.125;
}

/** Push 1000 values with their rows through an 8-slot ring of
 *  @p width doubles (125 laps), popping as it fills; every popped row
 *  must be byte-equal to the row pushed with its value. */
void
expectRowsSurviveLaps(std::size_t width)
{
    hr::MpscRing<std::uint64_t> ring(8, width);
    EXPECT_EQ(ring.width(), width);
    std::vector<double> row(width), out_row(width), expected(width);
    std::uint64_t out = 0, next_push = 0, next_pop = 0;
    while (next_pop < 1000) {
        while (next_push < 1000) {
            for (std::size_t c = 0; c < width; ++c)
                row[c] = cellOf(next_push, c);
            if (!ring.tryPush(next_push, row.data()))
                break;
            ++next_push;
        }
        ASSERT_TRUE(ring.tryPop(out, out_row.data()));
        ASSERT_EQ(out, next_pop);
        for (std::size_t c = 0; c < width; ++c)
            expected[c] = cellOf(next_pop, c);
        ASSERT_EQ(std::memcmp(out_row.data(), expected.data(),
                              width * sizeof(double)),
                  0)
            << "width " << width << ", value " << next_pop;
        ++next_pop;
    }
    EXPECT_FALSE(ring.canPop());
}

}  // namespace

TEST(MpscRing, InlineRowsSurviveManyLapsAtWidth7)
{
    expectRowsSurviveLaps(7);  // the AD and TC schemas.
}

TEST(MpscRing, InlineRowsSurviveManyLapsAtWidth30)
{
    expectRowsSurviveLaps(30);  // the BD schema.
}

TEST(MpscRing, MultiProducerDeliversEverythingOncePerProducerOrdered)
{
    // 4 producers x 5000 values, value = producer * stride + i. The
    // consumer records arrival order; afterwards: exact multiset (no
    // loss, no duplication) and each producer's subsequence arrives in
    // its own push order (reservation order is the ring's FIFO).
    constexpr std::uint64_t kProducers = 4;
    constexpr std::uint64_t kPerProducer = 5000;
    // Each value carries a 7-double row derived from it; a row torn
    // between producers or read before its publish shows as a
    // mismatch.
    constexpr std::uint64_t kStride = 1u << 20;
    constexpr std::size_t kWidth = 7;
    hr::MpscRing<std::uint64_t> ring(256, kWidth);

    std::vector<std::uint64_t> seen;
    seen.reserve(kProducers * kPerProducer);
    std::size_t torn_rows = 0;
    std::thread consumer([&] {
        std::uint64_t out = 0;
        double row[kWidth];
        while (seen.size() < kProducers * kPerProducer) {
            if (ring.tryPop(out, row)) {
                seen.push_back(out);
                for (std::size_t c = 0; c < kWidth; ++c)
                    torn_rows += row[c] != cellOf(out, c);
            } else {
                std::this_thread::yield();
            }
        }
    });
    std::vector<std::thread> producers;
    for (std::uint64_t p = 0; p < kProducers; ++p)
        producers.emplace_back([&ring, p] {
            double row[kWidth];
            for (std::uint64_t i = 0; i < kPerProducer; ++i) {
                std::uint64_t value = p * kStride + i;
                for (std::size_t c = 0; c < kWidth; ++c)
                    row[c] = cellOf(value, c);
                while (!ring.tryPush(value, row))
                    std::this_thread::yield();
            }
        });
    for (std::thread &t : producers)
        t.join();
    consumer.join();

    ASSERT_EQ(seen.size(), kProducers * kPerProducer);
    EXPECT_EQ(torn_rows, 0u);
    std::vector<std::uint64_t> next(kProducers, 0);
    for (std::uint64_t value : seen) {
        std::uint64_t p = value / kStride;
        ASSERT_LT(p, kProducers);
        EXPECT_EQ(value % kStride, next[p]) << "producer " << p
                                            << " reordered";
        ++next[p];
    }
    for (std::uint64_t p = 0; p < kProducers; ++p)
        EXPECT_EQ(next[p], kPerProducer);
}
