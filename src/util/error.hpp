// Structured engine errors.
//
// The engine used to fail every contract violation the same way: print and
// std::abort(). That is the right call for invariant corruption (a broken
// heap is not recoverable), but most of what actually goes wrong in a run
// is *configuration*: a channel declared with too little lookahead, a DML
// attribute of the wrong type, an event injected inside the open window.
// Those are the caller's doing, so they throw: massf_cli and the campaign
// runner report them as a failed run instead of a crash.
//
// EngineError carries a category, the throw site (file:line), and a
// message. The category names what kind of input was wrong:
//
//   kConfig         bad options / DML / injected work
//   kTopology       ChannelGraph vs engine disagreement
//   kInternal       API misuse / invariant adjacent
//
// An error is a property of the run's event stream, so it fails the same
// way on every executor: nothing re-runs a run that threw.
//
// MASSF_CHECK (util/check.hpp) remains abort-based and is reserved for true
// invariants; everything a caller could plausibly have caused throws.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace massf {

enum class ErrorCategory {
  kConfig,
  kTopology,
  kInternal,
};

inline const char* error_category_name(ErrorCategory c) {
  switch (c) {
    case ErrorCategory::kConfig: return "config";
    case ErrorCategory::kTopology: return "topology";
    case ErrorCategory::kInternal: return "internal";
  }
  return "unknown";
}

class EngineError : public std::runtime_error {
 public:
  EngineError(ErrorCategory category, const char* file, int line,
              std::string_view message)
      : std::runtime_error(format(category, file, line, message)),
        category_(category),
        file_(file),
        line_(line) {}

  ErrorCategory category() const { return category_; }
  const char* file() const { return file_; }
  int line() const { return line_; }

 private:
  static std::string format(ErrorCategory category, const char* file,
                            int line, std::string_view message) {
    std::string s = "massf: ";
    s += error_category_name(category);
    s += " error at ";
    s += file;
    s += ':';
    s += std::to_string(line);
    s += ": ";
    s.append(message.data(), message.size());
    return s;
  }

  ErrorCategory category_;
  const char* file_;
  int line_;
};

}  // namespace massf

/// Throws massf::EngineError with the call site baked in. `msg` may be any
/// expression convertible to std::string_view (std::string temporaries ok).
#define MASSF_THROW(category, msg) \
  throw ::massf::EngineError((category), __FILE__, __LINE__, (msg))

/// Contract check that throws instead of aborting. Use for conditions the
/// caller could have caused (bad options, topology mismatch); keep
/// MASSF_CHECK for invariants that indicate corruption.
#define MASSF_ENFORCE(expr, category, msg) \
  do {                                     \
    if (!(expr)) MASSF_THROW(category, msg); \
  } while (0)
