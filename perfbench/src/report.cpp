#include "report.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace perfbench {
namespace {

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

}  // namespace

void
Report::metric(const std::string &name, double value,
               const std::string &unit, std::size_t count)
{
    if (!std::isfinite(value)) {
        absent(name, "not a finite number");
        return;
    }
    metrics_.push_back({name, value, unit, count});
}

void
Report::absent(const std::string &name, const std::string &reason)
{
    absent_.emplace_back(name, reason);
}

void
Report::gate(const std::string &name, bool ok, const std::string &detail)
{
    gates_.push_back({name, ok, detail});
}

void
Report::meta(const std::string &key, const std::string &value)
{
    meta_.emplace_back(key, value);
}

void
Report::outcomes(std::uint64_t attempted, std::uint64_t failed)
{
    attempted_ = attempted;
    failed_ = failed;
}

bool
Report::correct() const
{
    if (gates_.empty())
        return false;
    for (const Gate &gate : gates_)
        if (!gate.ok)
            return false;
    return true;
}

void
Report::print(std::ostream &out) const
{
    for (const auto &[key, value] : meta_)
        out << "meta    " << key << " = " << value << "\n";
    for (const Gate &gate : gates_)
        out << "gate    " << (gate.ok ? "PASS " : "FAIL ") << gate.name
            << ": " << gate.detail << "\n";
    for (const Metric &m : metrics_) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", m.value);
        out << "metric  " << m.name << " = " << buf << " " << m.unit;
        if (m.count > 0)
            out << " (n=" << m.count << ")";
        out << "\n";
    }
    for (const auto &[name, reason] : absent_)
        out << "absent  " << name << ": " << reason << "\n";
    out << "outcome attempted=" << attempted_ << " failed=" << failed_
        << " correct=" << (correct() ? "true" : "false") << "\n";

    std::string json = "{\"correct\": ";
    json += correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        json += (i ? ", " : "") + jsonString(m.name) + ": {\"value\": " +
                jsonNumber(m.value) + ", \"unit\": " + jsonString(m.unit) +
                ", \"count\": " + std::to_string(m.count) + "}";
    }
    json += "}, \"absent\": {";
    for (std::size_t i = 0; i < absent_.size(); ++i)
        json += (i ? ", " : "") + jsonString(absent_[i].first) + ": " +
                jsonString(absent_[i].second);
    json += "}}";
    out << "PERFBENCH_RESULT " << json << "\n";
}

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace perfbench
