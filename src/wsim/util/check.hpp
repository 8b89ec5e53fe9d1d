#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace wsim::util {

/// Thrown when a precondition or invariant check fails.
class CheckError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Precondition check: throws CheckError with the failing location when
/// `condition` is false. Used at public API boundaries (Expects-style).
inline void require(bool condition, const std::string& what,
                    std::source_location loc = std::source_location::current()) {
  if (!condition) {
    throw CheckError(std::string(loc.file_name()) + ":" +
                     std::to_string(loc.line()) + ": requirement failed: " + what);
  }
}

/// String-literal overload: overload resolution prefers this exact match
/// over the std::string conversion, so hot-path checks with literal
/// messages build no std::string on the success path.
inline void require(bool condition, const char* what,
                    std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] {
    throw CheckError(std::string(loc.file_name()) + ":" +
                     std::to_string(loc.line()) + ": requirement failed: " + what);
  }
}

/// Input check: throws CheckError carrying `what` alone. For input from
/// outside the program (command-line flags, data files), whose error text
/// names the flag or the file and line, never a source location.
inline void check_input(bool condition, const std::string& what) {
  if (!condition) {
    throw CheckError(what);
  }
}

/// Internal invariant check: same behaviour as require(), separate name so
/// call sites document whether a failure blames the caller or the library.
inline void ensure(bool condition, const std::string& what,
                   std::source_location loc = std::source_location::current()) {
  if (!condition) {
    throw CheckError(std::string(loc.file_name()) + ":" +
                     std::to_string(loc.line()) + ": invariant violated: " + what);
  }
}

/// String-literal overload of ensure(); see the require() counterpart.
inline void ensure(bool condition, const char* what,
                   std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] {
    throw CheckError(std::string(loc.file_name()) + ":" +
                     std::to_string(loc.line()) + ": invariant violated: " + what);
  }
}

}  // namespace wsim::util
