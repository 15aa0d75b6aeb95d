// The one run loop behind the step engines (paper Listing 1 plus the
// fast-forward from the proof of Theorem 3.3, DESIGN.md §4).
//
// Every engine executes the same block: prepare the step, plan the shares,
// apply them once; if no job finished and the plan may repeat, plan again
// and, when the plan is unchanged, apply it up to just before the first job
// finishes; then count and emit the block. Emitting copies the step's
// shares into the schedule's flat storage (core/schedule.hpp), and the
// steps are scratch the driver keeps across blocks and runs, so once an
// engine and its output schedule have grown, a run allocates nothing. Two
// layers own that loop:
//
//   run_blocks()  the shell: reserve the block list, take a Schedule::Mark,
//                 run the fail point and deadline check before each block,
//                 roll `out` back on a throw. All four engines use it.
//   EngineDriver  the body, for engines whose step is a share vector taken
//                 from remaining work in resource units (SosEngine,
//                 ImprovedEngine, MultiResEngine). UnitEngine walks its
//                 virtual order its own way inside run_blocks().
//
// An engine `E : EngineDriver<E, Step>` (Step has a `shares` vector)
// supplies, besides its own state and its reset():
//
//   prepare_step()                  admissions / window maintenance
//   plan_into(Step&) const          the shares, a pure function of the state
//   finish_job(JobId)               drop a job whose remaining work hit 0
//   block_hint() const              lower bound on the block count
//   count_block(const Step&, Time)  per-block statistics
//   publish_stats()                 flush them to obs::Registry, once per run
//   kName, kStepSite                invariant prefix, fail point site
//
// It may shadow apply(), repeatable() and steps_until_change(); the driver
// calls them through the engine, so the shadow wins. The driver calls
// count_block() and publish_stats() only when obs::enabled(), so neither
// needs its own guard. An engine with make_info(const Step&, Time first_step)
// const also accepts a StepObserver; passing one to any other engine does
// not compile.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"
#include "obs/registry.hpp"
#include "util/checked.hpp"
#include "util/deadline.hpp"
#include "util/failpoint.hpp"

namespace sharedres::core {

/// Run `block` until `engine.done()`, appending to `out`. Strong exception
/// guarantee for `out`: if a block throws (overflow, invariant breach,
/// injected fault, expired deadline), every block this call appended —
/// including length merged into a pre-existing block — is rolled back. The
/// engine is then fit only for reset() or destruction. `site` names both the
/// fail point and the deadline check that run before each block.
template <class Engine, class Block>
void run_blocks(const Engine& engine, Schedule& out, std::size_t hint,
                const char* site, Block&& block) {
  out.reserve_blocks(hint);
  const Schedule::Mark mark = out.mark();
  try {
    while (!engine.done()) {
      SHAREDRES_FAILPOINT(site);
      util::deadline::check(site);
      block();
    }
  } catch (...) {
    out.rollback(mark);
    throw;
  }
}

/// Append one block of `reps` steps, copying the engine's scratch shares
/// into the schedule's flat storage; with an observer, `info`, its repeat
/// set to `reps`, then goes to on_step().
inline void emit_block(Schedule& out, Time reps,
                       std::span<const Assignment> shares,
                       StepObserver* observer, StepInfo& info) {
  out.append(reps, shares);
  if (observer == nullptr) return;
  info.repeat = reps;
  observer->on_step(info);
}

template <class Engine, class Step>
class EngineDriver {
 public:
  [[nodiscard]] const Instance& instance() const { return *inst_; }
  [[nodiscard]] bool done() const { return remaining_jobs_ == 0; }
  [[nodiscard]] Time now() const { return now_; }
  /// Remaining work of job j in resource units: s_j at start, 0 once done.
  [[nodiscard]] Res remaining(JobId j) const { return rem_[j]; }
  [[nodiscard]] bool finished(JobId j) const { return rem_[j] == 0; }

  /// The step's resource assignment as a pure function of the prepared
  /// state. Call prepare_step() first.
  [[nodiscard]] Step plan() const {
    Step out;
    self().plan_into(out);
    return out;
  }

  /// Apply `planned` for `reps` consecutive steps. Requires that no job
  /// would finish strictly before step `reps` (violating it throws).
  /// Returns true iff some job finished in the final step.
  bool apply(const Step& planned, Time reps);

  /// Run to completion, appending blocks to `out`. With fast_forward, runs
  /// of identical steps are emitted as single blocks; stepwise execution
  /// gives the same schedule. If a step throws, `out` is rolled back to its
  /// state at entry and the engine is fit only for reset() or destruction
  /// (run_blocks). A completed run publishes its statistics once; a run that
  /// throws publishes nothing.
  void run(Schedule& out, bool fast_forward = true) {
    drive(out, fast_forward, nullptr);
  }
  /// As run(out, fast_forward), notifying `observer` (may be null) once per
  /// emitted block.
  void run(Schedule& out, bool fast_forward, StepObserver* observer)
    requires requires(const Engine& e, const Step& s) { e.make_info(s, 1); }
  {
    drive(out, fast_forward, observer);
  }

 protected:
  EngineDriver() = default;

  /// Bind `instance`: every job unfinished with its total work s_j (checked
  /// at Instance construction, so this is a plain copy of the SoA lane),
  /// clock 0.
  void reset_work(const Instance& instance) {
    inst_ = &instance;
    const std::vector<Res>& totals = instance.total_requirements();
    rem_.assign(totals.begin(), totals.end());
    remaining_jobs_ = totals.size();
    now_ = 0;
    finished_.clear();
  }

  // Internal invariant check: these fire only on engine bugs, never on user
  // input, but throwing keeps test failures informative.
  static void ensure(bool cond, const char* msg) {
    if (!cond) {
      throw std::logic_error(std::string(Engine::kName) + " invariant: " +
                             msg);
    }
  }

  /// Whether the step just applied may be fast-forwarded at all.
  [[nodiscard]] static bool repeatable(const Step&) { return true; }

  /// For a plan that repeats unchanged while no job finishes: the number of
  /// steps up to and including the first finish.
  [[nodiscard]] Time steps_until_change(const Step& steady) const;

  const Instance* inst_ = nullptr;
  std::vector<Res> rem_;            // s_j(t−1) in resource units; 0 = done
  std::size_t remaining_jobs_ = 0;  // jobs with rem_ > 0
  Time now_ = 0;                    // completed time steps

 private:
  [[nodiscard]] const Engine& self() const {
    return static_cast<const Engine&>(*this);
  }
  [[nodiscard]] Engine& self() { return static_cast<Engine&>(*this); }

  void drive(Schedule& out, bool fast_forward, StepObserver* observer);

  std::vector<JobId> finished_;  // apply()'s batched finish list
  Step planned_;                 // drive()'s scratch steps
  Step again_;
};

// The members below are not inline: each engine's .cpp explicitly
// instantiates its driver (the header declares it extern), so the run loop
// is compiled once, next to the engine's own step functions.

template <class Engine, class Step>
bool EngineDriver<Engine, Step>::apply(const Step& planned, Time reps) {
  ensure(reps >= 1, "apply with reps < 1");
  // Decrement every share first, then drop the finished jobs in one batch:
  // the engine's finish_job surgery stays off the decrement loop. Every job
  // is written to the finish list and the count advances only for those
  // that hit 0, so the loop has no branch on the data.
  if (finished_.size() < planned.shares.size()) {
    finished_.resize(planned.shares.size());
  }
  std::size_t finished = 0;
  for (const Assignment& a : planned.shares) {
    const Res total = util::mul_checked(a.share, reps);
    ensure(rem_[a.job] >= total, "apply overshoots a job's remaining work");
    ensure(reps == 1 || rem_[a.job] > util::mul_checked(a.share, reps - 1),
           "apply: a job would finish strictly inside the block");
    rem_[a.job] -= total;
    finished_[finished] = a.job;
    finished += static_cast<std::size_t>(rem_[a.job] == 0);
  }
  for (std::size_t i = 0; i < finished; ++i) {
    self().finish_job(finished_[i]);
    --remaining_jobs_;
  }
  now_ += reps;
  return finished > 0;
}

template <class Engine, class Step>
Time EngineDriver<Engine, Step>::steps_until_change(const Step& steady) const {
  Time until_change = std::numeric_limits<Time>::max();
  for (const Assignment& a : steady.shares) {
    until_change = std::min(until_change, util::ceil_div(rem_[a.job], a.share));
  }
  return until_change;
}

template <class Engine, class Step>
void EngineDriver<Engine, Step>::drive(Schedule& out, bool fast_forward,
                                       StepObserver* observer) {
  Engine& e = self();
  // Two scratch steps reused across every block and every run, so once
  // their share vectors have grown a block allocates nothing: emit_block
  // copies the shares into the schedule's flat storage. StepInfo (which
  // copies the shares) is only filled for an observer.
  Step& planned = planned_;
  Step& again = again_;
  run_blocks(e, out, e.block_hint(), Engine::kStepSite, [&] {
    e.prepare_step();
    e.plan_into(planned);
    StepInfo info;
    if constexpr (requires { e.make_info(planned, now_); }) {
      if (observer != nullptr) info = e.make_info(planned, now_ + 1);
    }
    const bool finished_any = e.apply(planned, 1);
    Time reps = 1;
    if (fast_forward && !finished_any && e.repeatable(planned) && !done()) {
      // No job finished, so what was admitted stays admitted and only the
      // shrinking remaining work can alter the plan. If the re-planned step
      // is identical it stays identical until steps_until_change(): extend
      // up to just before that step.
      e.plan_into(again);
      if (again.shares == planned.shares) {
        const Time extra = e.steps_until_change(again) - 1;
        if (extra > 0) {
          e.apply(again, extra);
          reps += extra;
        }
      }
    }
    if (obs::enabled()) e.count_block(planned, reps);
    emit_block(out, reps, planned.shares, observer, info);
  });
  if (obs::enabled()) e.publish_stats();
}

}  // namespace sharedres::core
