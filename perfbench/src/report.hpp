/**
 * @file
 * What one benchmark invocation reports: metrics with units and sample
 * counts, per-layer metrics it could not measure (with the reason),
 * correctness gates, and run metadata. print() writes a human-readable
 * block and then, as the last line, one machine-readable record that
 * perfbench/run.py turns into the benchmark's result line.
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Command-line knobs shared by every workload. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

class Report
{
  public:
    /** Record a metric. @p count is the number of samples behind it
     *  (0 when it is a single reading or a count). */
    void metric(const std::string &name, double value,
                const std::string &unit, std::size_t count = 0);
    /** A metric this workload cannot measure, and why. */
    void absent(const std::string &name, const std::string &reason);
    /** A correctness gate; any failed gate makes the run incorrect. */
    void gate(const std::string &name, bool ok, const std::string &detail);
    /** Free-form run metadata (host fingerprint, seed, ...). */
    void meta(const std::string &key, const std::string &value);

    /** Requests (or compiles) attempted and how many did not succeed. */
    void outcomes(std::uint64_t attempted, std::uint64_t failed);

    bool correct() const;
    void print(std::ostream &out) const;

  private:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
        std::size_t count = 0;
    };
    struct Gate
    {
        std::string name;
        bool ok = false;
        std::string detail;
    };

    std::vector<Metric> metrics_;
    std::vector<std::pair<std::string, std::string>> absent_;
    std::vector<Gate> gates_;
    std::vector<std::pair<std::string, std::string>> meta_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

/** Seconds on the steady clock since an arbitrary fixed origin. */
double nowSeconds();

}  // namespace perfbench
