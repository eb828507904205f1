// Error types shared across the perfskel libraries.
//
// The library throws exceptions derived from psk::Error for unrecoverable
// conditions (mis-configured topologies, deadlocked replays, malformed trace
// files).  Recoverable "soft" conditions are reported through return values.
#pragma once

#include <stdexcept>
#include <string>
#include <type_traits>

namespace psk {

/// Base class for all exceptions thrown by the perfskel libraries.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A simulated program stopped making progress: the event queue drained while
/// one or more rank coroutines were still suspended (e.g. a Recv whose
/// matching Send never arrives in a mis-compressed skeleton).
class DeadlockError : public Error {
 public:
  explicit DeadlockError(const std::string& what) : Error(what) {}
};

/// Invalid argument or configuration detected at API boundaries.
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error(what) {}
};

/// Malformed or inconsistent trace / signature input.
class FormatError : public Error {
 public:
  explicit FormatError(const std::string& what) : Error(what) {}
};

/// An operation exceeded its configured deadline: a timed MPI wait ran out
/// of retries (the peer's node stayed down), or a simulation blew its
/// wall-clock watchdog budget.  Sweep executors record these as `timeout`
/// cells instead of failing the whole run.
class TimeoutError : public Error {
 public:
  explicit TimeoutError(const std::string& what) : Error(what) {}
};

namespace util {

// Checks run once or more per simulated MPI call, so a passing check must
// not allocate.  Pass a literal message as is (the `const char*` form); pass
// a message built from values as a callable, e.g.
//   require(ok, [&] { return "bad rank " + std::to_string(rank); });
// which is called only when the check fails.  The `std::string` form is for
// messages the caller already holds.

/// Throws ConfigError with `what` when `cond` is false.
inline void require(bool cond, const char* what) {
  if (!cond) throw ConfigError(what);
}

inline void require(bool cond, const std::string& what) {
  if (!cond) throw ConfigError(what);
}

/// Throws ConfigError with the message `make_what()` returns when `cond` is
/// false; `make_what` is not called when `cond` holds.
template <typename MakeWhat>
  requires std::is_invocable_r_v<std::string, MakeWhat&>
void require(bool cond, MakeWhat&& make_what) {
  if (!cond) throw ConfigError(make_what());
}

}  // namespace util
}  // namespace psk
