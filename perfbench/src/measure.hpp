/**
 * @file
 * The benchmark's own arithmetic: percentiles with their sample counts,
 * open-loop due-time accounting, failure fractions, and the stage-sum
 * check. Kept free of the library so tests/test_measure.cpp can pin it
 * without building a server.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/** One percentile read off a sample set, with what it rests on. */
struct Percentile
{
    double value = 0.0;
    std::size_t count = 0;   ///< samples the percentile was taken over.
    std::size_t beyond = 0;  ///< samples strictly above its rank.
};

/**
 * Nearest-rank percentile: the smallest sample whose rank r (1-based,
 * ascending) satisfies r >= ceil(p * n), with p in (0, 1]. Reorders
 * @p samples (nth_element). An empty set gives an all-zero result.
 */
Percentile nearestRank(std::vector<double> &samples, double p);

/** One kept sample standing for @p weight samples of a subsampled set. */
struct Weighted
{
    double value = 0.0;
    double weight = 1.0;
};

/**
 * Nearest-rank percentile of a weighted sample set: the smallest value
 * whose cumulative weight (ascending) reaches p * total weight. With
 * unit weights it equals nearestRank(). Reorders @p samples (sort).
 */
double weightedRank(std::vector<Weighted> &samples, double p);

/**
 * Fixed-size uniform subsample of one stream (Vitter's Algorithm R):
 * keeps every sample until @p capacity, then each later one replaces a
 * random kept slot with probability capacity / seen. Memory never
 * grows, so recording on a serving thread never allocates.
 */
class Reservoir
{
  public:
    explicit Reservoir(std::size_t capacity = 0) : kept_(capacity) {}

    void add(float value, std::uint64_t &rng_state);
    std::uint64_t seen() const { return seen_; }
    /** The kept samples, each weighted seen / kept. */
    void appendTo(std::vector<Weighted> &out) const;

  private:
    std::vector<float> kept_;
    std::uint64_t seen_ = 0;
};

/** Arithmetic mean; 0 for an empty set. */
double mean(const std::vector<double> &samples);

/**
 * Open-loop schedule: request @p index is due @p index / @p rate_hz
 * seconds after the schedule starts, in whole nanoseconds.
 */
std::int64_t dueOffsetNs(std::uint64_t index, double rate_hz);

/** One open-loop request's timeline, all on one clock (ns). */
struct DueTimes
{
    std::int64_t dueNs = 0;          ///< when the schedule wanted it sent.
    std::int64_t submitStartNs = 0;  ///< when the generator called in.
    std::int64_t verdictNs = 0;      ///< when its verdict arrived.
};

/** What an open-loop request is charged. */
struct DueLatency
{
    double latencyUs = 0.0;  ///< verdict - due: a stall is charged to
                             ///< every request it delayed.
    double lateUs = 0.0;     ///< submit start - due (0 when on time).
};

DueLatency dueLatency(const DueTimes &times);

/** How a serving run's sent requests ended, for fail_frac. */
struct Outcomes
{
    std::uint64_t sent = 0;          ///< submit calls made.
    std::uint64_t shed = 0;          ///< refused at admission.
    std::uint64_t timedOut = 0;      ///< blocked and gave up.
    std::uint64_t failed = 0;        ///< admitted, then failed.
    std::uint64_t earlyDropped = 0;  ///< admitted, then aged out.
    std::uint64_t rejected = 0;      ///< closed or malformed at submit.

    /** Add another phase's counts. */
    Outcomes &operator+=(const Outcomes &other);

    std::uint64_t notServed() const
    {
        return shed + timedOut + failed + earlyDropped + rejected;
    }
    /** notServed / sent; 0 when nothing was sent. */
    double failFrac() const;
};

/**
 * The traced run's additivity check: on the open-loop path the mean
 * late + submit + admit-to-verdict times, less the part of the submit
 * call after admission (@p overlap_us, counted in both submit and
 * admit-to-verdict), should add up to the mean end-to-end latency;
 * @p tolerance is the largest accepted |sum - e2e| / e2e.
 */
struct StageSum
{
    double sumUs = 0.0;
    double e2eUs = 0.0;
    double relErr = 0.0;
    bool ok = false;
};

StageSum stageSum(double late_us, double submit_us, double admit_us,
                  double overlap_us, double e2e_us, double tolerance);

}  // namespace perfbench
