#include "measure.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

Percentile
nearestRank(std::vector<double> &samples, double p)
{
    Percentile result;
    result.count = samples.size();
    if (samples.empty())
        return result;
    p = std::clamp(p, 0.0, 1.0);
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(samples.size())));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(samples.begin(), nth, samples.end());
    result.value = *nth;
    result.beyond = samples.size() - rank;
    return result;
}

double
weightedRank(std::vector<Weighted> &samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end(),
              [](const Weighted &a, const Weighted &b) {
                  return a.value < b.value;
              });
    double total = 0.0;
    for (const Weighted &s : samples)
        total += s.weight;
    const double target = std::clamp(p, 0.0, 1.0) * total;
    double cumulative = 0.0;
    for (const Weighted &s : samples) {
        cumulative += s.weight;
        if (cumulative >= target)
            return s.value;
    }
    return samples.back().value;
}

void
Reservoir::add(float value, std::uint64_t &rng_state)
{
    if (seen_ < kept_.size()) {
        kept_[seen_] = value;
    } else if (!kept_.empty()) {
        rng_state = rng_state * 6364136223846793005ull + 1442695040888963407ull;
        std::uint64_t slot = (rng_state >> 33) % (seen_ + 1);
        if (slot < kept_.size())
            kept_[slot] = value;
    }
    ++seen_;
}

void
Reservoir::appendTo(std::vector<Weighted> &out) const
{
    std::size_t kept = std::min<std::uint64_t>(seen_, kept_.size());
    if (kept == 0)
        return;
    double weight = static_cast<double>(seen_) / static_cast<double>(kept);
    for (std::size_t i = 0; i < kept; ++i)
        out.push_back({kept_[i], weight});
}

double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : samples)
        sum += v;
    return sum / static_cast<double>(samples.size());
}

std::int64_t
dueOffsetNs(std::uint64_t index, double rate_hz)
{
    return static_cast<std::int64_t>(
        std::llround(static_cast<double>(index) * 1e9 / rate_hz));
}

DueLatency
dueLatency(const DueTimes &times)
{
    DueLatency result;
    result.latencyUs =
        static_cast<double>(times.verdictNs - times.dueNs) / 1e3;
    result.lateUs =
        static_cast<double>(std::max<std::int64_t>(
            0, times.submitStartNs - times.dueNs)) /
        1e3;
    return result;
}

Outcomes &
Outcomes::operator+=(const Outcomes &other)
{
    sent += other.sent;
    shed += other.shed;
    timedOut += other.timedOut;
    failed += other.failed;
    earlyDropped += other.earlyDropped;
    rejected += other.rejected;
    return *this;
}

double
Outcomes::failFrac() const
{
    if (sent == 0)
        return 0.0;
    return static_cast<double>(notServed()) / static_cast<double>(sent);
}

StageSum
stageSum(double late_us, double submit_us, double admit_us,
         double overlap_us, double e2e_us, double tolerance)
{
    StageSum result;
    result.sumUs = late_us + submit_us + admit_us - overlap_us;
    result.e2eUs = e2e_us;
    result.relErr = e2e_us > 0.0
                        ? std::abs(result.sumUs - e2e_us) / e2e_us
                        : (result.sumUs == 0.0 ? 0.0 : 1.0);
    result.ok = result.relErr <= tolerance;
    return result;
}

}  // namespace perfbench
