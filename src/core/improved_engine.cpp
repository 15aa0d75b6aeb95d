#include "core/improved_engine.hpp"

#include <algorithm>

#include "obs/registry.hpp"
#include "util/checked.hpp"

namespace sharedres::core {

ImprovedEngine::ImprovedEngine(const Instance& instance, Params params) {
  reset(instance, params);
}

void ImprovedEngine::reset(const Instance& instance, Params params) {
  reset_work(instance);
  reqs_ = instance.requirements().data();
  params_ = params;
  ensure(params_.machine_cap >= 1, "machine_cap must be >= 1");
  ensure(params_.budget >= 1, "budget must be >= 1");

  const std::size_t n = instance.size();
  link_.resize(n + 1);
  for (std::size_t p = 0; p <= n; ++p) link_[p] = p;
  unstarted_ = n;

  active_.clear();
  active_.reserve(params_.machine_cap);
  absorber_ = kNoJob;
  core_req_ = 0;
  stats_ = {};  // a prior run that threw may have left stats behind
}

JobId ImprovedEngine::largest_unstarted_below(std::size_t pos) {
  // 1-based position walk with path halving; link_[0] == 0 is "none".
  std::size_t p = pos;
  while (link_[p] != p) {
    link_[p] = link_[link_[p]];
    p = link_[p];
  }
  return p == 0 ? kNoJob : p - 1;
}

void ImprovedEngine::admit(JobId j, bool as_absorber) {
  const auto it = std::lower_bound(active_.begin(), active_.end(), j);
  ensure(it == active_.end() || *it != j, "admit of an already-running job");
  active_.insert(it, j);
  if (as_absorber) {
    ensure(absorber_ == kNoJob, "second absorber admitted");
    absorber_ = j;
  } else {
    core_req_ = util::add_checked(core_req_, req(j));
    ensure(core_req_ <= params_.budget, "full-rate admissions exceed budget");
  }
  link_[j + 1] = j;  // leave the unstarted set (monotone deletion)
  --unstarted_;
}

void ImprovedEngine::prepare_step() {
  ensure(remaining_jobs_ > 0, "prepare_step after completion");
  const std::size_t n = inst_->size();
  const Res* const end = reqs_ + n;
  std::uint64_t core_adm = 0;
  std::uint64_t abs_adm = 0;
  while (active_.size() < params_.machine_cap && unstarted_ > 0) {
    const bool has_absorber = absorber_ != kNoJob;
    const Res slack = params_.budget - core_req_;
    // Full-rate admission, largest first: with an absorber running its grant
    // must stay ≥ 1, so a candidate needs r < slack (strict); without one,
    // r ≤ slack. Both forms compare resource against resource, so the
    // decision is invariant under uniform scaling of (C, r_1..r_n) — the
    // solve cache's canonicalization contract.
    const auto bound = static_cast<std::size_t>(
        (has_absorber ? std::lower_bound(reqs_, end, slack)
                      : std::upper_bound(reqs_, end, slack)) -
        reqs_);
    const JobId pick = bound == 0 ? kNoJob : largest_unstarted_below(bound);
    if (pick != kNoJob) {
      admit(pick, /*as_absorber=*/false);
      ++core_adm;
      continue;
    }
    // Nothing fits at full rate. If slack remains and no absorber is
    // running, fracture-admit the largest unstarted job: its requirement
    // exceeds the slack (else it would have been admitted above), so it can
    // soak up any capacity later finishes free, and starting the biggest
    // job early serves the longest-job bound.
    if (!has_absorber && slack > 0) {
      admit(largest_unstarted_below(n), /*as_absorber=*/true);
      ++abs_adm;
      continue;
    }
    break;
  }
  if (obs::enabled()) {
    stats_.core_admissions += core_adm;
    stats_.absorber_admissions += abs_adm;
  }
}

void ImprovedEngine::plan_into(BalancedStep& out) const {
  ensure(!active_.empty(), "plan with no running jobs");
  out.shares.clear();
  out.shares.reserve(active_.size());
  out.absorber = absorber_;
  for (const JobId j : active_) {
    Res share;
    if (j == absorber_) {
      share = std::min({req(j), rem_[j], params_.budget - core_req_});
      ensure(share > 0, "absorber planned a zero share");
    } else {
      // Full-rate jobs decrement by exactly r_j per step, so rem stays a
      // positive multiple of r_j until the finishing step.
      ensure(rem_[j] >= req(j), "full-rate job with rem < r");
      share = req(j);
    }
    out.shares.push_back({j, share});
  }
}

void ImprovedEngine::finish_job(JobId j) {
  const auto it = std::lower_bound(active_.begin(), active_.end(), j);
  ensure(it != active_.end() && *it == j, "finish_job on non-running job");
  active_.erase(it);
  if (j == absorber_) {
    absorber_ = kNoJob;
  } else {
    core_req_ -= req(j);
  }
}

void ImprovedEngine::count_block(const BalancedStep& planned, Time reps) {
  // Facts of the step as planned: apply() only finishes jobs, so the
  // unstarted set is the one the plan saw, and the plan has one share per
  // running job.
  Res used = 0;
  for (const Assignment& a : planned.shares) {
    used = util::add_checked(used, a.share);
  }
  const auto ureps = static_cast<std::uint64_t>(reps);
  ++stats_.blocks;
  stats_.steps += ureps;
  stats_.fast_forward_steps += ureps - 1;
  if (used == params_.budget) stats_.saturated_steps += ureps;
  if (planned.shares.size() == params_.machine_cap) {
    stats_.machine_full_steps += ureps;
  }
  if (unstarted_ == 0) stats_.drain_steps += ureps;
}

void ImprovedEngine::publish_stats() {
  SHAREDRES_OBS_COUNT("engine.improved.runs");
  SHAREDRES_OBS_COUNT_N("engine.improved.blocks", stats_.blocks);
  SHAREDRES_OBS_COUNT_N("engine.improved.steps", stats_.steps);
  SHAREDRES_OBS_COUNT_N("engine.improved.fast_forward_steps",
                        stats_.fast_forward_steps);
  SHAREDRES_OBS_COUNT_N("engine.improved.saturated_steps",
                        stats_.saturated_steps);
  SHAREDRES_OBS_COUNT_N("engine.improved.machine_full_steps",
                        stats_.machine_full_steps);
  SHAREDRES_OBS_COUNT_N("engine.improved.core_admissions",
                        stats_.core_admissions);
  SHAREDRES_OBS_COUNT_N("engine.improved.absorber_admissions",
                        stats_.absorber_admissions);
  SHAREDRES_OBS_COUNT_N("engine.improved.drain_steps", stats_.drain_steps);
  stats_ = {};
}

template class EngineDriver<ImprovedEngine, BalancedStep>;

}  // namespace sharedres::core
