/// \file status.hpp
/// \brief Structured error taxonomy of the library boundary
/// (docs/robustness.md).
///
/// Library entry points that can fail for a *caller-visible* reason (bad
/// input text, budget exhausted, cancelled) report a Status / Result<T>
/// instead of throwing, so callers can distinguish the categories without
/// string-matching exception messages. Internal invariants still assert;
/// the CLI maps each category to a distinct exit code (exit_code_for).

#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace rmrls {

/// The failure categories of the library boundary.
enum class StatusCode : std::uint8_t {
  kOk = 0,
  kInvalidArgument,   ///< caller misuse: bad option values, width mismatch
  kParseError,        ///< malformed input text (.tfc / spec)
  kInvalidSpec,       ///< well-formed text, semantically invalid function
                      ///< (non-bijective image, size not a power of two)
  kBudgetExhausted,   ///< every engine ran out of budget without a circuit
  kCancelled,         ///< the caller's CancelToken fired
  kInternal,          ///< invariant violation (e.g. verification failure)
  kUnavailable,       ///< load shed: the server's admission queue is full
                      ///< or it is draining (docs/serving.md); retryable
};

[[nodiscard]] constexpr const char* to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kParseError: return "parse_error";
    case StatusCode::kInvalidSpec: return "invalid_spec";
    case StatusCode::kBudgetExhausted: return "budget_exhausted";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kInternal: return "internal";
    case StatusCode::kUnavailable: return "unavailable";
  }
  return "unknown";
}

/// The CLI exit-code contract (documented in `rmrls --help`): 0 success,
/// 2 usage / invalid argument, 3 unreadable or malformed input, 4 budget
/// exhausted without a circuit, 5 cancelled, 6 internal error, 7 server
/// unavailable (load shed / draining — the request is safe to retry).
[[nodiscard]] constexpr int exit_code_for(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return 0;
    case StatusCode::kInvalidArgument: return 2;
    case StatusCode::kParseError: return 3;
    case StatusCode::kInvalidSpec: return 3;
    case StatusCode::kBudgetExhausted: return 4;
    case StatusCode::kCancelled: return 5;
    case StatusCode::kInternal: return 6;
    case StatusCode::kUnavailable: return 7;
  }
  return 6;
}

/// One failure (or success) with an optional source location. Parsers fill
/// `file`/`line` so diagnostics render as `file:line: reason`.
class [[nodiscard]] Status {
 public:
  Status() = default;  ///< ok
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}
  Status(StatusCode code, std::string message, std::string file, int line)
      : code_(code),
        message_(std::move(message)),
        file_(std::move(file)),
        line_(line) {}

  [[nodiscard]] static Status parse_error(std::string_view file, int line,
                                          std::string reason) {
    return Status(StatusCode::kParseError, std::move(reason),
                  std::string(file), line);
  }
  [[nodiscard]] static Status invalid_spec(std::string_view file,
                                           std::string reason) {
    return Status(StatusCode::kInvalidSpec, std::move(reason),
                  std::string(file), 0);
  }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }
  [[nodiscard]] const std::string& file() const { return file_; }
  [[nodiscard]] int line() const { return line_; }  ///< 0 = no line info

  /// `file:line: message`, degrading gracefully when location is absent.
  [[nodiscard]] std::string to_string() const {
    if (file_.empty()) return message_;
    if (line_ <= 0) return file_ + ": " + message_;
    return file_ + ":" + std::to_string(line_) + ": " + message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
  std::string file_;
  int line_ = 0;
};

/// A value or a Status explaining its absence. Accessing value() of a
/// failed Result throws std::logic_error — that is a programming error at
/// the call site, not an input failure, so it is loud.
template <class T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}            // NOLINT implicit
  Result(Status status) : status_(std::move(status)) {     // NOLINT implicit
    if (status_.ok()) {
      status_ = Status(StatusCode::kInternal,
                       "Result constructed from an ok Status without a value");
    }
  }

  [[nodiscard]] bool ok() const { return value_.has_value(); }
  [[nodiscard]] const Status& status() const { return status_; }

  [[nodiscard]] T& value() & {
    require();
    return *value_;
  }
  [[nodiscard]] const T& value() const& {
    require();
    return *value_;
  }
  [[nodiscard]] T&& value() && {
    require();
    return std::move(*value_);
  }

 private:
  void require() const {
    if (!value_.has_value()) {
      throw std::logic_error("Result::value() on error status: " +
                             status_.to_string());
    }
  }

  Status status_;
  std::optional<T> value_;
};

}  // namespace rmrls
