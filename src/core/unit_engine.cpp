#include "core/unit_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/registry.hpp"

namespace sharedres::core {

namespace {

void ensure(bool cond, const char* msg) {
  if (!cond) throw std::logic_error(std::string("UnitEngine invariant: ") + msg);
}

/// Reset `info` for the next block, keeping its share vector's capacity.
void clear_info(StepInfo& info) {
  std::vector<Assignment> shares = std::move(info.shares);
  shares.clear();
  info = StepInfo{};
  info.shares = std::move(shares);
}

}  // namespace

UnitEngine::UnitEngine(const Instance& instance) { reset(instance); }

void UnitEngine::reset(const Instance& instance) {
  inst_ = &instance;
  reqs_ = instance.requirements().data();
  m_ = static_cast<std::size_t>(instance.machines());
  capacity_ = instance.capacity();
  ensure(instance.unit_size(), "unit-size jobs required");
  ensure(m_ >= 2, "m >= 2 required");

  const std::size_t n = instance.size();
  rem_.resize(n);
  // Unit sizes: s_j = r_j, so the initial keys are a straight copy of the
  // contiguous SoA requirement lane.
  std::copy_n(reqs_, n, rem_.begin());

  head_ = n;
  tail_ = n + 1;
  next_.resize(n + 2);
  prev_.resize(n + 2);
  JobId last = head_;
  for (JobId j = 0; j < n; ++j) {
    next_[last] = j;
    prev_[j] = last;
    last = j;
  }
  next_[last] = tail_;
  prev_[tail_] = last;
  next_[tail_] = tail_;
  prev_[head_] = head_;
  remaining_jobs_ = n;

  succ_.resize(n + 1);
  for (JobId i = 0; i <= n; ++i) succ_[i] = i;  // index n == "past the end"

  iota_ = kNoJob;
  cursor_ = kNoJob;
  now_ = 0;
  stats_ = {};  // a prior run that threw may have left stats behind
}

JobId UnitEngine::find_alive(JobId i) const {
  while (succ_[i] != i) {
    succ_[i] = succ_[succ_[i]];  // path halving
    i = succ_[i];
  }
  return i;
}

void UnitEngine::finish(JobId j) {
  unlink(j);
  succ_[j] = j + 1;
  --remaining_jobs_;
  if (j == iota_) iota_ = kNoJob;
}

std::vector<JobId> UnitEngine::virtual_order() const {
  std::vector<JobId> out;
  out.reserve(remaining_jobs_);
  for (JobId j = next_[head_]; j != tail_; j = next_[j]) out.push_back(j);
  return out;
}

void UnitEngine::unlink(JobId j) {
  next_[prev_[j]] = next_[j];
  prev_[next_[j]] = prev_[j];
}

void UnitEngine::reposition_started(JobId j) {
  // The key of j just shrank; re-insert it so the list stays sorted. Every
  // node except j carries its static requirement as key, so the insertion
  // point is: before the first *alive* static job whose requirement exceeds
  // key(j) — found by binary search over the sorted requirements plus a
  // next-alive DSU hop, O(log n) instead of a (potentially linear) walk.
  if (prev_[j] == head_ || key(prev_[j]) <= key(j)) return;  // in place
  unlink(j);
  // Binary search over the SoA requirement lane: half the bytes per probe of
  // the former Job-struct search, same upper_bound semantics.
  const std::vector<Res>& reqs = inst_->requirements();
  auto it = std::upper_bound(reqs.begin(), reqs.end(), key(j));
  JobId f = find_alive(static_cast<JobId>(it - reqs.begin()));
  if (f == j) f = find_alive(j + 1);  // skip the unlinked job itself
  const JobId fnode = (f >= inst_->size()) ? tail_ : f;
  const JobId p = prev_[fnode];
  next_[p] = j;
  prev_[j] = p;
  next_[j] = fnode;
  prev_[fnode] = j;
}

UnitEngine::StepPlan UnitEngine::build_window() const {
  ensure(remaining_jobs_ > 0, "build_window after completion");
  StepPlan plan;
  // Start from the started job ι (the only survivor of the last window); if
  // the previous window completed fully, resume from the cursor it left
  // behind instead of restarting from the leftmost remaining job — the
  // GrowWindowLeft below re-examines the ≤ m−1 jobs left of the cursor, and
  // everything further left is known to slide (see the cursor_ invariant).
  JobId start;
  if (iota_ != kNoJob) {
    start = iota_;
    if (obs::enabled()) ++stats_.iota_resumes;
  } else if (cursor_ != kNoJob && cursor_ != head_) {
    start = cursor_;
    if (obs::enabled()) ++stats_.cursor_resumes;
  } else {
    start = next_[head_];
    // From-scratch walk (no cursor to resume from). The PR 1 cursor
    // invariant keeps this O(n) over a whole run — asserted from this
    // counter by tests/test_sos_properties.cpp.
    if (obs::enabled()) ++stats_.window_rebuilds;
  }
  plan.wl = plan.wr = start;
  plan.wsize = 1;
  plan.wkey = key(plan.wl);
  std::uint64_t hops = 0;

  // GrowWindowLeft(W, t, m, 1).
  while (plan.wsize < m_ && prev_[plan.wl] != head_ && plan.wkey < capacity_) {
    plan.wl = prev_[plan.wl];
    ++plan.wsize;
    plan.wkey = util::add_checked(plan.wkey, key(plan.wl));
    ++hops;
  }
  // GrowWindowRight(W, t, m, 1).
  while (plan.wkey < capacity_ && next_[plan.wr] != tail_ && plan.wsize < m_) {
    plan.wr = next_[plan.wr];
    ++plan.wsize;
    plan.wkey = util::add_checked(plan.wkey, key(plan.wr));
    ++hops;
  }
  // MoveWindowRight(W, t, 1): slide while the leftmost member is unstarted.
  while (plan.wkey < capacity_ && next_[plan.wr] != tail_ && plan.wl != iota_) {
    plan.wkey -= key(plan.wl);
    plan.wl = next_[plan.wl];
    plan.wr = next_[plan.wr];
    plan.wkey = util::add_checked(plan.wkey, key(plan.wr));
    ++hops;
  }
  if (obs::enabled()) stats_.walk_hops += hops;

  const Res others = plan.wkey - key(plan.wr);
  ensure(others < capacity_, "Property (b) violated by the unit window");
  plan.max_share = std::min(capacity_ - others, key(plan.wr));
  ensure(plan.max_share > 0, "unit window assigns max W a zero share");
  return plan;
}

void UnitEngine::execute(const StepPlan& plan, StepInfo& info) {
  clear_info(info);
  info.first_step = now_ + 1;
  info.repeat = 1;
  info.window_size = plan.wsize;
  info.window_requirement = plan.wkey;
  info.left_border = prev_[plan.wl] == head_;
  info.right_border = next_[plan.wr] == tail_;
  info.step_case =
      plan.wkey >= capacity_ ? StepCase::kHeavy : StepCase::kLight;
  if (iota_ != kNoJob) info.fractured = iota_;

  info.shares.reserve(plan.wsize);
  for (JobId j = plan.wl;; j = next_[j]) {
    const Res share = (j == plan.wr) ? plan.max_share : key(j);
    info.shares.push_back({j, share});
    info.resource_used = util::add_checked(info.resource_used, share);
    if (share == reqs_[j]) ++info.full_requirement_jobs;
    if (j == plan.wr) break;
  }

  // Apply: every member except possibly wr finishes.
  const JobId resume = prev_[plan.wl];
  JobId j = plan.wl;
  while (true) {
    const JobId nxt = next_[j];
    const bool is_max = (j == plan.wr);
    const Res share = is_max ? plan.max_share : key(j);
    rem_[j] -= share;
    if (rem_[j] == 0) {
      finish(j);
    } else {
      ensure(is_max, "non-max unit window job failed to finish");
      iota_ = j;
      reposition_started(j);
    }
    if (is_max) break;
    j = nxt;
  }
  if (iota_ == kNoJob) cursor_ = resume;  // full completion: resume here
  ++now_;
}

void UnitEngine::execute_solo(const StepPlan& plan, StepInfo& info) {
  const JobId j = plan.wr;
  const Time reps = key(j) / capacity_;  // steps at full capacity
  const Res leftover = key(j) - reps * capacity_;
  clear_info(info);
  info.first_step = now_ + 1;
  info.repeat = reps;
  info.shares.push_back({j, capacity_});
  info.window_size = 1;
  info.window_requirement = plan.wkey;
  info.left_border = prev_[j] == head_;
  info.right_border = next_[j] == tail_;
  info.step_case = StepCase::kHeavy;
  if (iota_ != kNoJob) info.fractured = iota_;
  info.resource_used = capacity_;
  rem_[j] -= reps * capacity_;
  now_ += reps;
  if (leftover == 0) {
    cursor_ = prev_[j];  // full completion: resume here
    finish(j);
  } else {
    iota_ = j;
    reposition_started(j);
  }
  if (obs::enabled()) ++stats_.fast_forward_blocks;
}

StepInfo UnitEngine::step() {
  StepInfo info;
  execute(build_window(), info);
  return info;
}

/// Deterministic per-block stats; mirrors the SosEngine catalog under the
/// engine.unit prefix. In the light case every window job receives its full
/// *current* key, so at most the started job ι falls short of its static
/// requirement — the unit-case reading of the Theorem 3.3 dichotomy.
/// Accumulated in plain fields; publish_stats() flushes once per run.
void UnitEngine::count_block(const StepInfo& info) {
  const auto ureps = static_cast<std::uint64_t>(info.repeat);
  ++stats_.blocks;
  stats_.steps += ureps;
  if (info.step_case == StepCase::kHeavy) {
    stats_.case1_steps += ureps;
  } else {
    stats_.case2_steps += ureps;
    if (info.window_size - info.full_requirement_jobs <= 1) {
      stats_.full_requirement_steps += ureps;
    }
  }
  stats_.fast_forward_steps += ureps - 1;
  if (info.fractured) ++stats_.fractured_handoffs;
}

void UnitEngine::publish_stats() {
  SHAREDRES_OBS_COUNT("engine.unit.runs");
  SHAREDRES_OBS_COUNT_N("engine.unit.iota_resumes", stats_.iota_resumes);
  SHAREDRES_OBS_COUNT_N("engine.unit.cursor_resumes", stats_.cursor_resumes);
  SHAREDRES_OBS_COUNT_N("engine.unit.window_rebuilds", stats_.window_rebuilds);
  SHAREDRES_OBS_COUNT_N("engine.unit.walk_hops", stats_.walk_hops);
  SHAREDRES_OBS_COUNT_N("engine.unit.blocks", stats_.blocks);
  SHAREDRES_OBS_COUNT_N("engine.unit.steps", stats_.steps);
  SHAREDRES_OBS_COUNT_N("engine.unit.case1_steps", stats_.case1_steps);
  SHAREDRES_OBS_COUNT_N("engine.unit.case2_steps", stats_.case2_steps);
  SHAREDRES_OBS_COUNT_N("engine.unit.full_requirement_steps",
                        stats_.full_requirement_steps);
  SHAREDRES_OBS_COUNT_N("engine.unit.fast_forward_steps",
                        stats_.fast_forward_steps);
  SHAREDRES_OBS_COUNT_N("engine.unit.fast_forward_blocks",
                        stats_.fast_forward_blocks);
  SHAREDRES_OBS_COUNT_N("engine.unit.fractured_handoffs",
                        stats_.fractured_handoffs);
  stats_ = {};
}

void UnitEngine::run(Schedule& out, bool fast_forward, StepObserver* observer) {
  run_blocks(*this, out, remaining_jobs_ / m_ + 1, kStepSite, [&] {
    const StepPlan plan = build_window();
    if (fast_forward && solo_run(plan)) {
      execute_solo(plan, info_);
    } else {
      execute(plan, info_);
    }
    if (obs::enabled()) count_block(info_);
    emit_block(out, info_.repeat, info_.shares, observer, info_);
  });
  if (obs::enabled()) publish_stats();
}

}  // namespace sharedres::core
