// The unit-size variant of the sliding-window algorithm (paper Section 3,
// discussion below Theorem 3.3).
//
// With p_j = 1 for all jobs, s_j = r_j and at most one job is ever started
// but unfinished. That job ι is treated as a job of requirement s_ι(t−1) and
// virtually reordered among the remaining jobs; windows may then use all m
// processors (m-maximal instead of (m−1)-maximal), which improves the
// asymptotic ratio from 1 + 2/(m−2) to 1 + 1/(m−1).
//
// The walk keeps the unfinished jobs in a doubly-linked list sorted by
// *current* requirement (r_j for unstarted jobs, s_ι(t−1) for ι) and rebuilds
// the window around ι every step: all window jobs except the rightmost finish
// within the step, the rightmost becomes the new ι. step() and a stepwise
// run() always walk; the walk is the engine's reference.
//
// A fast-forward run() first asks whether the instance is in the *prefix
// regime*: n ≤ m, or the m smallest r_j sum to at least C. Then the walk
// never slides (MoveWindowRight) and every window is ι (at the front of the
// virtual order, since q = r_ρ − share < r_ρ for the previous window's
// maximum ρ) followed by the next unstarted jobs in sorted order: later
// unstarted m-windows sum to at least the first one. The whole walk state
// collapses to the first unstarted index c and ι's key q, so run() scans the
// sorted requirement lane once, block by block, without building the list.
// It emits the walk's blocks, StepInfo and engine.unit.* counters exactly.
// Both paths share the other engines' shell (run_blocks, emit_block in
// core/engine_driver.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine_driver.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"
#include "util/align.hpp"

namespace sharedres::core {

class UnitEngine {
 public:
  /// Requires instance.unit_size() and m ≥ 2.
  explicit UnitEngine(const Instance& instance);

  /// Rebind the engine to a new instance, reusing all internal buffers.
  /// Equivalent to constructing a fresh engine, but allocation-free once the
  /// buffers have grown to the largest instance seen — the batch pipeline's
  /// steady-state path. The walk's state (key array, linked list, next-alive
  /// DSU) is built by the first step() or walking run(), not here. The
  /// instance must stay alive for the engine's lifetime.
  void reset(const Instance& instance);

  [[nodiscard]] bool done() const { return remaining_jobs_ == 0; }
  [[nodiscard]] Time now() const { return now_; }

  /// Execute one time step of the walk; returns the emitted StepInfo.
  StepInfo step();

  /// Run to completion. fast_forward collapses the long solo runs of a
  /// single high-requirement job into one block and, on a fresh engine in
  /// the prefix regime, replaces the walk by the prefix scan (file comment);
  /// the schedule, the StepInfo sequence and the counters are the walk's.
  /// Strong exception guarantee for `out`: if a step throws, `out` is rolled
  /// back to its state at entry, and the engine is fit only for reset() or
  /// destruction.
  void run(Schedule& out, bool fast_forward = true,
           StepObserver* observer = nullptr);

  // ---- introspection of the walk, for tests (valid after step()) ----
  [[nodiscard]] Res remaining(JobId j) const { return rem_[j]; }
  /// Unfinished jobs in current virtual order (sorted by current key).
  [[nodiscard]] std::vector<JobId> virtual_order() const;
  /// The single started-but-unfinished job, or kNoJob.
  [[nodiscard]] JobId started_job() const { return iota_; }

 private:
  struct StepPlan {
    JobId wl = kNoJob, wr = kNoJob;  // window bounds in the virtual list
    std::size_t wsize = 0;
    Res wkey = 0;                    // Σ current keys over the window
    Res max_share = 0;               // share granted to wr
  };

  static constexpr const char* kStepSite = "unit_engine.step";

  /// Build the walk's state for the bound instance (reset() defers it).
  void build_walk();
  /// The prefix regime (file comment): n ≤ m, or Σ of the m smallest r_j
  /// is at least C.
  [[nodiscard]] bool prefix_regime() const;
  /// One block of the prefix scan: the walk's next block, described in
  /// `info` (whose share vector is reused).
  void prefix_block(StepInfo& info);

  [[nodiscard]] Res key(JobId j) const { return rem_[j]; }
  [[nodiscard]] StepPlan build_window() const;
  /// Execute `plan` for one step, describing it in `info` (whose share
  /// vector is reused).
  void execute(const StepPlan& plan, StepInfo& info);
  /// A solo window whose job absorbs the whole capacity repeats identically
  /// until the job's remainder drops below C.
  [[nodiscard]] bool solo_run(const StepPlan& plan) const {
    return plan.wsize == 1 && plan.max_share == capacity_ &&
           key(plan.wr) > capacity_;
  }
  /// Fast-forward a solo_run() window as one block.
  void execute_solo(const StepPlan& plan, StepInfo& info);
  void count_block(const StepInfo& info);
  void publish_stats();
  void unlink(JobId j);
  void finish(JobId j);
  void reposition_started(JobId j);
  /// First alive static job with index ≥ i (next-alive DSU, path halving).
  [[nodiscard]] JobId find_alive(JobId i) const;

  const Instance* inst_;
  const Res* reqs_ = nullptr;  // inst_->requirements().data() (SoA hot lane)
  std::size_t m_;
  Res capacity_;

  std::vector<Res> rem_;  // current key; 0 = finished. Unstarted: r_j.
  std::vector<JobId> next_, prev_;
  JobId head_, tail_;
  JobId iota_ = kNoJob;
  /// Resume point for the window walk after a full window completion: the
  /// list node just left of the window that finished. Every m-window entirely
  /// left of it has requirement < C (each was examined — and slid past — by
  /// an earlier walk, and keys only shrink), so GrowWindowLeft from here
  /// rebuilds exactly the window a restart-from-head walk would slide to.
  /// This caps the total walk work at O(m) amortized per step instead of the
  /// O(n) restart cost documented in DESIGN.md §4.
  JobId cursor_ = kNoJob;
  /// Next-alive successor structure (DSU with path halving) over the static
  /// sorted job array; lets reposition_started() find its insertion point by
  /// binary search over requirements instead of a list walk, which is
  /// quadratic overall for small m.
  mutable std::vector<JobId> succ_;

  std::size_t remaining_jobs_ = 0;
  Time now_ = 0;
  bool walk_built_ = false;
  /// The prefix scan's state: the first unstarted sorted job c (every job
  /// before it is finished or ι) and ι's key q (the walk keeps it in rem_).
  JobId next_unstarted_ = 0;
  Res iota_key_ = 0;
  /// run()'s per-block description, reused across blocks and runs so a
  /// block allocates nothing once its share vector has grown.
  StepInfo info_;

  /// Deterministic run statistics, mirroring SosEngine::RunStats under the
  /// engine.unit prefix (metric catalog: DESIGN.md §9). Plain fields keep
  /// the walk/step hot paths free of atomic registry traffic;
  /// publish_stats() flushes them once per completed run(). Mutable because
  /// the const window walk (build_window) classifies its own resume mode.
  struct alignas(util::kCacheLineSize) RunStats {
    std::uint64_t iota_resumes = 0;
    std::uint64_t cursor_resumes = 0;
    std::uint64_t window_rebuilds = 0;
    std::uint64_t walk_hops = 0;
    std::uint64_t blocks = 0;
    std::uint64_t steps = 0;
    std::uint64_t case1_steps = 0;
    std::uint64_t case2_steps = 0;
    std::uint64_t full_requirement_steps = 0;
    std::uint64_t fast_forward_steps = 0;
    std::uint64_t fast_forward_blocks = 0;
    std::uint64_t fractured_handoffs = 0;
  };
  mutable RunStats stats_;
};

}  // namespace sharedres::core
