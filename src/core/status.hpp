/**
 * @file
 * Status / Result<T>: the compiler driver's error-reporting vocabulary.
 *
 * The session API reports failures as values instead of bare booleans or
 * exceptions: a Status carries a machine-readable code, a human-readable
 * message, and per-spec context lines (which spec had no feasible model,
 * which family was pruned, ...). Result<T> couples a Status with the
 * value a successful call would produce.
 */
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace homunculus::core {

/** Outcome classes a compile stage can report. */
enum class StatusCode {
    kOk = 0,
    kInvalidArgument,     ///< malformed input (spec without a data loader).
    kFailedPrecondition,  ///< stage called out of order.
    kNotFound,            ///< unknown backend / spec name.
    kInfeasible,          ///< no configuration satisfies the envelope.
    kCancelled,           ///< cooperative cancellation was requested.
    kInternal,            ///< a stage raised unexpectedly.
};

inline const char *
statusCodeName(StatusCode code)
{
    switch (code) {
      case StatusCode::kOk: return "OK";
      case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
      case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
      case StatusCode::kNotFound: return "NOT_FOUND";
      case StatusCode::kInfeasible: return "INFEASIBLE";
      case StatusCode::kCancelled: return "CANCELLED";
      case StatusCode::kInternal: return "INTERNAL";
    }
    return "?";
}

/** An error (or success) value with diagnostics. */
class Status
{
  public:
    Status() = default;
    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    static Status ok() { return {}; }
    static Status
    invalidArgument(std::string message)
    {
        return {StatusCode::kInvalidArgument, std::move(message)};
    }
    static Status
    failedPrecondition(std::string message)
    {
        return {StatusCode::kFailedPrecondition, std::move(message)};
    }
    static Status
    notFound(std::string message)
    {
        return {StatusCode::kNotFound, std::move(message)};
    }
    static Status
    infeasible(std::string message)
    {
        return {StatusCode::kInfeasible, std::move(message)};
    }
    static Status
    cancelled(std::string message)
    {
        return {StatusCode::kCancelled, std::move(message)};
    }
    static Status
    internal(std::string message)
    {
        return {StatusCode::kInternal, std::move(message)};
    }

    bool isOk() const { return code_ == StatusCode::kOk; }
    explicit operator bool() const { return isOk(); }

    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** Attach a per-spec / per-family diagnostic line. */
    Status &
    withContext(std::string note)
    {
        context_.push_back(std::move(note));
        return *this;
    }
    const std::vector<std::string> &context() const { return context_; }

    /** "INFEASIBLE: no feasible model [spec 'ad': ...; spec 'tc': ...]" */
    std::string
    toString() const
    {
        std::string out = statusCodeName(code_);
        if (!message_.empty())
            out += std::string(": ") + message_;
        if (!context_.empty()) {
            out += " [";
            for (std::size_t i = 0; i < context_.size(); ++i) {
                if (i > 0)
                    out += "; ";
                out += context_[i];
            }
            out += "]";
        }
        return out;
    }

  private:
    StatusCode code_ = StatusCode::kOk;
    std::string message_;
    std::vector<std::string> context_;
};

/**
 * A Status plus the value a successful call produced. value() on an
 * error Result throws the Status as a std::runtime_error, which keeps
 * crash-on-failure call sites (benches, examples) one-liners.
 */
template <typename T>
class Result
{
  public:
    Result(T value) : value_(std::move(value)) {}
    Result(Status status) : status_(std::move(status))
    {
        if (status_.isOk())
            status_ = Status::internal("Result constructed from OK status "
                                       "without a value");
    }

    bool isOk() const { return status_.isOk(); }
    explicit operator bool() const { return isOk(); }
    const Status &status() const { return status_; }

    T &
    value() &
    {
        if (!isOk())
            throw std::runtime_error(status_.toString());
        return *value_;
    }
    const T &
    value() const &
    {
        if (!isOk())
            throw std::runtime_error(status_.toString());
        return *value_;
    }
    /** Rvalue access moves: `compile(platform).value()` never copies. */
    T &&
    value() &&
    {
        if (!isOk())
            throw std::runtime_error(status_.toString());
        return std::move(*value_);
    }

    T *operator->() { return &value(); }
    const T *operator->() const { return &value(); }
    T &operator*() & { return value(); }
    const T &operator*() const & { return value(); }
    T &&operator*() && { return std::move(*this).value(); }

  private:
    Status status_;
    std::optional<T> value_;
};

}  // namespace homunculus::core
