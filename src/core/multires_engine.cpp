#include "core/multires_engine.hpp"

#include <algorithm>

#include "obs/registry.hpp"

namespace sharedres::core {

MultiResEngine::MultiResEngine(const Instance& instance, Params params) {
  reset(instance, params);
}

void MultiResEngine::reset(const Instance& instance, Params params) {
  reset_work(instance);
  params_ = params;
  axes_ = instance.resource_count();
  ensure(params_.machine_cap >= 1, "machine_cap must be >= 1");

  const std::size_t n = instance.size();
  used_.assign(axes_, 0);
  for (std::size_t k = 0; k < axes_; ++k) {
    const Res* reqs = instance.axis_requirements(k);
    const Res cap = instance.capacity(k);
    for (std::size_t j = 0; j < n; ++j) {
      // The facade rejects over-capacity jobs with a typed error before the
      // engine exists; inside the engine it is an invariant.
      ensure(reqs[j] <= cap, "job requirement exceeds an axis capacity");
    }
  }

  next_unstarted_.resize(n);
  prev_unstarted_.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    next_unstarted_[j] = j + 1 < n ? j + 1 : kNoJob;
    prev_unstarted_[j] = j > 0 ? j - 1 : kNoJob;
  }
  head_unstarted_ = n > 0 ? 0 : kNoJob;
  unstarted_ = n;

  active_.clear();
  active_.reserve(params_.machine_cap);
  stats_ = {};  // a prior run that threw may have left stats behind
}

bool MultiResEngine::fits(JobId j) const {
  for (std::size_t k = 0; k < axes_; ++k) {
    // used_[k] ≤ C_k always, so the subtraction form cannot overflow.
    if (inst_->axis_requirements(k)[j] > inst_->capacity(k) - used_[k]) {
      return false;
    }
  }
  return true;
}

void MultiResEngine::admit(JobId j) {
  const auto it = std::lower_bound(active_.begin(), active_.end(), j);
  ensure(it == active_.end() || *it != j, "admit of an already-running job");
  active_.insert(it, j);
  for (std::size_t k = 0; k < axes_; ++k) {
    used_[k] += inst_->axis_requirements(k)[j];
    ensure(used_[k] <= inst_->capacity(k), "admission exceeds a capacity");
  }
  // Unlink from the unstarted list (monotone deletion).
  const JobId prev = prev_unstarted_[j];
  const JobId next = next_unstarted_[j];
  if (prev == kNoJob) {
    head_unstarted_ = next;
  } else {
    next_unstarted_[prev] = next;
  }
  if (next != kNoJob) prev_unstarted_[next] = prev;
  --unstarted_;
}

void MultiResEngine::prepare_step() {
  ensure(remaining_jobs_ > 0, "prepare_step after completion");
  std::uint64_t admissions = 0;
  JobId j = head_unstarted_;
  while (j != kNoJob && active_.size() < params_.machine_cap) {
    const JobId next = next_unstarted_[j];
    if (fits(j)) {
      admit(j);
      ++admissions;
    }
    j = next;
  }
  if (obs::enabled()) {
    stats_.admissions += admissions;
    saturated_ = false;
    for (std::size_t k = 0; k < axes_; ++k) {
      saturated_ = saturated_ || used_[k] == inst_->capacity(k);
    }
  }
}

void MultiResEngine::plan_into(MultiResStep& out) const {
  ensure(!active_.empty(), "plan with no running jobs");
  out.shares.clear();
  out.shares.reserve(active_.size());
  const Res* reqs = inst_->requirements().data();
  for (const JobId j : active_) {
    // Rigid: always full rate, so the work left is whole steps of it.
    ensure(rem_[j] % reqs[j] == 0, "rigid job with a partial step left");
    out.shares.push_back({j, reqs[j]});
  }
}

void MultiResEngine::finish_job(JobId j) {
  const auto it = std::lower_bound(active_.begin(), active_.end(), j);
  ensure(it != active_.end() && *it == j, "finish_job on non-running job");
  active_.erase(it);
  for (std::size_t k = 0; k < axes_; ++k) {
    used_[k] -= inst_->axis_requirements(k)[j];
  }
}

void MultiResEngine::count_block(const MultiResStep& planned, Time reps) {
  // The plan has one share per running job, and apply() only finishes
  // jobs, so the unstarted set is the one the plan saw.
  const auto ureps = static_cast<std::uint64_t>(reps);
  ++stats_.blocks;
  stats_.steps += ureps;
  stats_.fast_forward_steps += ureps - 1;
  if (saturated_) stats_.saturated_steps += ureps;
  if (planned.shares.size() == params_.machine_cap) {
    stats_.machine_full_steps += ureps;
  }
  if (unstarted_ == 0) stats_.drain_steps += ureps;
}

void MultiResEngine::publish_stats() {
  SHAREDRES_OBS_COUNT("engine.multires.runs");
  SHAREDRES_OBS_COUNT_N("engine.multires.blocks", stats_.blocks);
  SHAREDRES_OBS_COUNT_N("engine.multires.steps", stats_.steps);
  SHAREDRES_OBS_COUNT_N("engine.multires.fast_forward_steps",
                        stats_.fast_forward_steps);
  SHAREDRES_OBS_COUNT_N("engine.multires.admissions", stats_.admissions);
  SHAREDRES_OBS_COUNT_N("engine.multires.saturated_steps",
                        stats_.saturated_steps);
  SHAREDRES_OBS_COUNT_N("engine.multires.machine_full_steps",
                        stats_.machine_full_steps);
  SHAREDRES_OBS_COUNT_N("engine.multires.drain_steps", stats_.drain_steps);
  stats_ = {};
}

template class EngineDriver<MultiResEngine, MultiResStep>;

}  // namespace sharedres::core
