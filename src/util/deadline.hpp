// Cooperative per-solve cancellation: step budgets and wall-clock deadlines.
//
// A solve that must not run away (a service request with a latency contract,
// a soak harness driving adversarial instances) installs a deadline::Scope on
// its thread before calling into an engine. Every engine's block loop
// (core::run_blocks, core/engine_driver.hpp) calls deadline::check(site)
// once per block, next to the engine's SHAREDRES_FAILPOINT site. When the
// scope's step budget is exhausted (or its wall-clock deadline has passed)
// the check throws a typed util::Error (code kDeadlineExceeded); run_blocks
// rolls the output schedule back, and the engine's reset() rebinds it for
// the next request, so an aborted solve never corrupts reusable state
// (tested in tests/test_engine_driver.cpp, tests/test_batch.cpp and
// tests/test_service.cpp).
//
// Unlike fail points this is a production feature, compiled into every build:
// the inactive-path cost is one thread_local load per step, noise next to
// the step body itself.
//
// Determinism: a step budget counts step-loop iterations, which are a pure
// function of the instance and algorithm — the same request with the same
// budget aborts at the same step in every run, at every thread count. Wall-
// clock deadlines are inherently nondeterministic; the service's byte-
// identity contract therefore only covers step-budget expiry (DESIGN.md
// §13). Tests pin wall-clock behavior through set_clock().
#pragma once

#include <cstdint>
#include <string>

namespace sharedres::util::deadline {

/// Monotonic nanosecond source used for wall-clock deadlines. Tests install
/// a fake to make expiry deterministic; nullptr restores steady_clock.
using ClockFn = std::uint64_t (*)();
void set_clock(ClockFn fn);

/// Current monotonic time in nanoseconds through the installed clock.
[[nodiscard]] std::uint64_t now_ns();

/// Limits for one Scope. Zero means "no limit" for either field.
struct Limits {
  std::uint64_t max_steps = 0;    ///< abort after this many check() calls
  std::uint64_t deadline_ns = 0;  ///< absolute now_ns() cutoff
};

/// RAII thread-local cancellation scope. At most one Scope is active per
/// thread (nesting throws std::logic_error: a nested solve inheriting the
/// outer budget silently would double-count steps). The engines observe the
/// scope through check(); code that never installs one pays a single
/// thread_local pointer test per step.
class Scope {
 public:
  explicit Scope(Limits limits);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// check() calls observed by this scope so far.
  [[nodiscard]] std::uint64_t steps() const { return steps_; }
  /// True once a check() in this scope has thrown.
  [[nodiscard]] bool expired() const { return expired_; }

 private:
  friend void check(const char* site);

  Limits limits_;
  std::uint64_t steps_ = 0;
  bool expired_ = false;
};

/// True when the calling thread has an active Scope.
[[nodiscard]] bool active();

/// Step-loop hook. Counts one step against the calling thread's active
/// Scope (no-op without one) and throws util::Error(kDeadlineExceeded) when
/// the budget is exhausted or the wall-clock deadline has passed. The clock
/// is consulted only every 1024 steps so the hot loop never pays a clock
/// read per iteration. `site` names the loop for the error message
/// ("sos_engine.step", "unit_engine.step", "improved_engine.step",
/// "multires_engine.step").
void check(const char* site);

}  // namespace sharedres::util::deadline
