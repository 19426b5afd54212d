// Unit tests of the benchmark's own arithmetic (perfbench/src/measure).

#include <gtest/gtest.h>

#include <vector>

#include "measure.hpp"

namespace pb = perfbench;

TEST(NearestRank, PicksTheCeilRankAndCountsTheTail)
{
    std::vector<double> samples;
    for (int i = 100; i >= 1; --i)
        samples.push_back(static_cast<double>(i));

    pb::Percentile p50 = pb::nearestRank(samples, 0.50);
    EXPECT_EQ(p50.value, 50.0);
    EXPECT_EQ(p50.count, 100u);
    EXPECT_EQ(p50.beyond, 50u);

    pb::Percentile p90 = pb::nearestRank(samples, 0.90);
    EXPECT_EQ(p90.value, 90.0);
    EXPECT_EQ(p90.beyond, 10u);

    // p99 of 100 samples rests on a single sample beyond it.
    pb::Percentile p99 = pb::nearestRank(samples, 0.99);
    EXPECT_EQ(p99.value, 99.0);
    EXPECT_EQ(p99.beyond, 1u);
}

TEST(NearestRank, SmallAndEmptySets)
{
    std::vector<double> one{7.5};
    EXPECT_EQ(pb::nearestRank(one, 0.5).value, 7.5);
    EXPECT_EQ(pb::nearestRank(one, 0.99).value, 7.5);

    // ceil(0.5 * 5) = 3rd smallest.
    std::vector<double> five{5, 1, 4, 2, 3};
    EXPECT_EQ(pb::nearestRank(five, 0.5).value, 3.0);
    // ceil(0.9 * 5) = 5th smallest (the maximum).
    EXPECT_EQ(pb::nearestRank(five, 0.9).value, 5.0);

    std::vector<double> none;
    pb::Percentile empty = pb::nearestRank(none, 0.5);
    EXPECT_EQ(empty.value, 0.0);
    EXPECT_EQ(empty.count, 0u);
}

TEST(DueTime, LatencyIsChargedFromTheDueTimeWhenTheGeneratorRunsLate)
{
    // Every request is due 10 us apart; the generator stalls for 35 us
    // before request 0, then sends the backlog back to back.
    const double rate_hz = 100'000.0;
    EXPECT_EQ(pb::dueOffsetNs(0, rate_hz), 0);
    EXPECT_EQ(pb::dueOffsetNs(3, rate_hz), 30'000);

    pb::DueTimes late;
    late.dueNs = pb::dueOffsetNs(1, rate_hz);  // 10 us
    late.submitStartNs = 36'000;               // sent 26 us late
    late.verdictNs = 50'000;                   // 14 us after sending
    pb::DueLatency charged = pb::dueLatency(late);
    EXPECT_DOUBLE_EQ(charged.lateUs, 26.0);
    // Not the 14 us the request spent inside the system: the stall
    // counts against every request it delayed.
    EXPECT_DOUBLE_EQ(charged.latencyUs, 40.0);

    pb::DueTimes on_time;
    on_time.dueNs = 100'000;
    on_time.submitStartNs = 100'000;
    on_time.verdictNs = 112'500;
    pb::DueLatency exact = pb::dueLatency(on_time);
    EXPECT_DOUBLE_EQ(exact.lateUs, 0.0);
    EXPECT_DOUBLE_EQ(exact.latencyUs, 12.5);
}

TEST(Outcomes, FailFracCountsEveryUnservedKindAgainstSent)
{
    pb::Outcomes none;
    EXPECT_EQ(none.failFrac(), 0.0);

    pb::Outcomes outcomes;
    outcomes.sent = 1000;
    outcomes.shed = 3;
    outcomes.timedOut = 2;
    outcomes.failed = 1;
    outcomes.earlyDropped = 4;
    outcomes.rejected = 10;
    EXPECT_EQ(outcomes.notServed(), 20u);
    EXPECT_DOUBLE_EQ(outcomes.failFrac(), 0.02);
}

TEST(StageSum, SubtractsTheOverlapAndHoldsTheTolerance)
{
    // 2 us late, 3 us in submit of which 0.5 us after admission, 45 us
    // admission to verdict: 49.5 us accounted for against 50 us.
    pb::StageSum close = pb::stageSum(2.0, 3.0, 45.0, 0.5, 50.0, 0.05);
    EXPECT_DOUBLE_EQ(close.sumUs, 49.5);
    EXPECT_NEAR(close.relErr, 0.01, 1e-12);
    EXPECT_TRUE(close.ok);

    // Without the overlap the stages would over-count; a stage missing
    // 15 us is caught.
    pb::StageSum far = pb::stageSum(2.0, 3.0, 30.0, 0.0, 50.0, 0.05);
    EXPECT_NEAR(far.relErr, 0.30, 1e-12);
    EXPECT_FALSE(far.ok);

    EXPECT_TRUE(pb::stageSum(0, 0, 0, 0, 0, 0.05).ok);
    EXPECT_FALSE(pb::stageSum(1, 0, 0, 0, 0, 0.05).ok);
}

TEST(WeightedRank, UnitWeightsMatchNearestRankAndWeightsShiftTheRank)
{
    std::vector<double> plain{5, 1, 4, 2, 3, 9, 7, 8, 6, 10};
    std::vector<pb::Weighted> unit;
    for (double v : plain)
        unit.push_back({v, 1.0});
    for (double p : {0.1, 0.5, 0.9, 1.0}) {
        std::vector<double> copy = plain;
        std::vector<pb::Weighted> wcopy = unit;
        EXPECT_EQ(pb::weightedRank(wcopy, p), pb::nearestRank(copy, p).value)
            << "p=" << p;
    }

    // One kept sample standing for nine others outweighs the rest.
    std::vector<pb::Weighted> skewed{{1.0, 1.0}, {2.0, 9.0}, {3.0, 1.0}};
    EXPECT_EQ(pb::weightedRank(skewed, 0.5), 2.0);
    EXPECT_EQ(pb::weightedRank(skewed, 0.95), 3.0);

    std::vector<pb::Weighted> none;
    EXPECT_EQ(pb::weightedRank(none, 0.5), 0.0);
}

TEST(Reservoir, KeepsEverythingUpToCapacityThenStaysUniformAndBounded)
{
    std::uint64_t rng = 1;
    pb::Reservoir small(8);
    for (int i = 0; i < 5; ++i)
        small.add(static_cast<float>(i), rng);
    std::vector<pb::Weighted> kept;
    small.appendTo(kept);
    ASSERT_EQ(kept.size(), 5u);
    EXPECT_EQ(kept[0].weight, 1.0);

    // 100k samples 0..99999 into 1000 slots: weights sum back to the
    // stream length and the median lands near the stream's median.
    pb::Reservoir big(1000);
    for (int i = 0; i < 100'000; ++i)
        big.add(static_cast<float>(i), rng);
    EXPECT_EQ(big.seen(), 100'000u);
    std::vector<pb::Weighted> sample;
    big.appendTo(sample);
    ASSERT_EQ(sample.size(), 1000u);
    double total = 0.0;
    for (const auto &s : sample)
        total += s.weight;
    EXPECT_NEAR(total, 100'000.0, 1e-6);
    EXPECT_NEAR(pb::weightedRank(sample, 0.5), 50'000.0, 5'000.0);
}
