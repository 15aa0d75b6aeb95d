#include "core/sos_engine.hpp"

#include <algorithm>
#include <limits>

#include "obs/registry.hpp"

namespace sharedres::core {

namespace {

/// True when a planned light-case (Case 2) step satisfies the Theorem 3.3
/// dichotomy: every window job except at most one (the fractured ι) receives
/// its full requirement. The Case-2 extra job is not a window member when
/// the step is planned, so its share is excluded.
[[maybe_unused]] bool light_step_fulfills_requirements(
    const SosEngine& engine, const PlannedStep& planned) {
  std::size_t partial = 0;
  const std::vector<Res>& reqs = engine.instance().requirements();
  const std::size_t window_shares =
      planned.shares.size() - (planned.extra_job ? 1 : 0);
  for (std::size_t i = 0; i < window_shares; ++i) {
    const Assignment& a = planned.shares[i];
    if (a.share != reqs[a.job]) ++partial;
  }
  return partial <= 1;
}

// Extended gcd: returns g = gcd(a, b) and x with a·x ≡ g (mod b).
Res egcd(Res a, Res b, Res& x) {
  Res x0 = 1, x1 = 0;
  Res r0 = a, r1 = b;
  while (r1 != 0) {
    const Res q = r0 / r1;
    const Res r2 = r0 - q * r1;
    const Res x2 = x0 - q * x1;
    r0 = r1;
    r1 = r2;
    x0 = x1;
    x1 = x2;
  }
  x = x0;
  return r0;
}

/// The fractured job's remainder follows q(j) = (q − j·σ) mod r across a
/// steady block. It hits 0 — unfracturing the job and changing the plan —
/// at the smallest j ≥ 1 with j·σ ≡ q (mod r), or never if gcd(σ, r) ∤ q.
/// Returns that j, or Time max if no such step exists.
Time first_unfracture_step(Res q, Res sigma, Res r) {
  Res x = 0;
  const Res g = egcd(sigma % r, r, x);
  if (q % g != 0) return std::numeric_limits<Time>::max();
  const Res modulus = r / g;
  // j ≡ (q/g) · x (mod r/g); normalize into [1, modulus].
  const util::i128 j =
      (static_cast<util::i128>(q / g) * x) % modulus;
  Res result = static_cast<Res>(j);
  if (result < 0) result += modulus;
  if (result == 0) result = modulus;
  return result;
}

}  // namespace

SosEngine::SosEngine(const Instance& instance, Params params) {
  reset(instance, params);
}

void SosEngine::reset(const Instance& instance, Params params) {
  reset_work(instance);
  reqs_ = instance.requirements().data();
  totals_ = instance.total_requirements().data();
  params_ = params;
  ensure(params_.window_cap >= 1, "window_cap must be >= 1");
  ensure(params_.budget >= 1, "budget must be >= 1");

  const std::size_t n = instance.size();
  fractured_.assign(n, 0);  // s_j = p_j·r_j: nobody starts fractured
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

  wl_ = wr_ = kNoJob;
  wsize_ = 0;
  wreq_ = 0;
  stats_ = {};  // a prior run that threw may have left stats behind
}

std::vector<JobId> SosEngine::window_members() const {
  std::vector<JobId> out;
  if (wl_ == kNoJob) return out;
  out.reserve(wsize_);
  for (JobId j = wl_;; j = next_[j]) {
    out.push_back(j);
    if (j == wr_) break;
  }
  return out;
}

WindowSnapshot SosEngine::snapshot() const {
  WindowSnapshot snap;
  snap.instance = inst_;
  snap.remaining = rem_;
  snap.window = window_members();
  snap.k = params_.window_cap;
  snap.budget = params_.budget;
  return snap;
}

bool SosEngine::window_left_border() const {
  // L_t(∅) = ∅ by the paper's convention.
  return wl_ == kNoJob || prev_[wl_] == head_;
}

bool SosEngine::window_right_border() const {
  // R_t(∅) = J(t−1): the border is only reached when no jobs remain.
  if (wl_ == kNoJob) return remaining_jobs_ == 0;
  return next_[wr_] == tail_;
}

JobId SosEngine::find_fractured() const {
  JobId found = kNoJob;
  if (wl_ == kNoJob) return found;
  for (JobId j = wl_;; j = next_[j]) {
    if (fractured_[j] != 0) {
      if (found == kNoJob) {
        found = j;
      } else {
        ensure(!params_.strict,
               "more than one fractured job in the window");
      }
    }
    if (j == wr_) break;
  }
  return found;
}

void SosEngine::add_right(JobId j) {
  if (wl_ == kNoJob) {
    wl_ = wr_ = j;
  } else {
    ensure(next_[wr_] == j, "add_right: job is not adjacent to the window");
    wr_ = j;
  }
  ++wsize_;
  wreq_ = util::add_checked(wreq_, req(j));
}

void SosEngine::finish_job(JobId j) {
  // Remove from the window if it is a member (every scheduled job is: the
  // window is the contiguous list segment [wl_, wr_], so an id-range test
  // suffices for membership).
  const bool in_window = wl_ != kNoJob && wl_ <= j && j <= wr_;
  if (in_window) {
    --wsize_;
    wreq_ -= req(j);
    if (wsize_ == 0) {
      wl_ = wr_ = kNoJob;
    } else {
      if (j == wl_) wl_ = next_[j];
      if (j == wr_) wr_ = prev_[j];
    }
  }
  next_[prev_[j]] = next_[j];
  prev_[next_[j]] = prev_[j];
}

void SosEngine::prepare_step() {
  ensure(remaining_jobs_ > 0, "prepare_step after completion");
  // Finished jobs were already dropped from W by finish_job (equivalent to
  // Listing 1 line 2, W ← W ∩ J(t−1)).
  std::uint64_t hops = 0;

  // GrowWindowLeft(W, t, cap, R): note L_t(∅) = ∅, so an empty window skips.
  while (params_.grow_left && wl_ != kNoJob && wsize_ < params_.window_cap &&
         prev_[wl_] != head_ && wreq_ < params_.budget) {
    const JobId c = prev_[wl_];
    wl_ = c;
    ++wsize_;
    wreq_ = util::add_checked(wreq_, req(c));
    ++hops;
  }

  // GrowWindowRight(W, t, cap, R): from an empty window, min R_t(∅) is the
  // leftmost remaining job.
  while (wreq_ < params_.budget && wsize_ < params_.window_cap) {
    const JobId c = (wl_ == kNoJob) ? next_[head_] : next_[wr_];
    if (c == tail_) break;
    add_right(c);
    ++hops;
  }

  // MoveWindowRight(W, t, R): slide while the leftmost job is unstarted.
  while (params_.move_right && wl_ != kNoJob && wreq_ < params_.budget &&
         next_[wr_] != tail_ && !started(wl_)) {
    const JobId out = wl_;
    const JobId in = next_[wr_];
    wl_ = next_[out];
    wr_ = in;
    wreq_ = util::add_checked(wreq_ - req(out), req(in));
    ++hops;
  }
  if (obs::enabled()) stats_.window_hops += hops;
}

void SosEngine::plan_into(PlannedStep& out) const {
  ensure(wl_ != kNoJob, "plan with an empty window");
  out.shares.clear();
  out.extra_job = false;
  out.step_case = StepCase::kLight;
  out.fractured.reset();
  out.shares.reserve(wsize_ + 1);

  const JobId iota = find_fractured();
  if (iota != kNoJob) out.fractured = iota;
  const Res r_without_f = iota == kNoJob ? wreq_ : wreq_ - req(iota);

  if (r_without_f >= params_.budget) {
    // Case 1: assign full requirements to W ∖ (F ∪ {max W}), grant ι exactly
    // q_ι(t−1) (unfracturing it), give max W whatever remains.
    out.step_case = StepCase::kHeavy;
    ensure(iota != wr_, "Case 1 with fractured max W contradicts Property (b)");
    Res used = 0;
    for (JobId j = wl_;; j = next_[j]) {
      if (j != wr_ && j != iota) {
        ensure(!params_.strict || rem_[j] >= req(j),
               "unfractured window job with rem < r");
        const Res share = std::min(req(j), rem_[j]);
        out.shares.push_back({j, share});
        used = util::add_checked(used, share);
      }
      if (j == wr_) break;
    }
    if (iota != kNoJob) {
      const Res q = rem_[iota] % req(iota);
      out.shares.push_back({iota, q});
      used = util::add_checked(used, q);
    }
    ensure(used < params_.budget, "Case 1 leaves nothing for max W");
    const Res rest = params_.budget - used;
    const Res share_max = std::min({rest, req(wr_), rem_[wr_]});
    ensure(share_max > 0, "Case 1 assigns max W a zero share");
    out.shares.push_back({wr_, share_max});
  } else {
    // Case 2: everyone in W ∖ F gets the full requirement; ι gets
    // min{R − r(W∖F), s_ι(t−1), r_ι}; leftover may start min R_t(W).
    out.step_case = StepCase::kLight;
    Res used = 0;
    for (JobId j = wl_;; j = next_[j]) {
      if (j != iota) {
        ensure(!params_.strict || rem_[j] >= req(j),
               "unfractured window job with rem < r");
        const Res share = std::min(req(j), rem_[j]);
        out.shares.push_back({j, share});
        used = util::add_checked(used, share);
      }
      if (j == wr_) break;
    }
    if (iota != kNoJob) {
      const Res share =
          std::min({params_.budget - r_without_f, rem_[iota], req(iota)});
      ensure(share > 0, "Case 2 assigns the fractured job a zero share");
      out.shares.push_back({iota, share});
      used = util::add_checked(used, share);
    }
    const Res leftover = params_.budget - used;
    // The window-size gate is a no-op under strict invariants (|W| ≤ cap and
    // the extra job's predecessor ι always finishes); in ablated non-strict
    // runs it caps the processor count at window_cap + 1 = m.
    if (params_.allow_extra_job && leftover > 0 && next_[wr_] != tail_ &&
        wsize_ <= params_.window_cap) {
      const JobId x = next_[wr_];
      const Res share = std::min({leftover, req(x), rem_[x]});
      out.shares.push_back({x, share});
      out.extra_job = true;
    }
  }
}

bool SosEngine::apply(const PlannedStep& planned, Time reps) {
  if (planned.extra_job) {
    ensure(reps == 1, "extra-job steps cannot repeat");
    add_right(planned.shares.back().job);
  }
  const bool finished_any = EngineDriver::apply(planned, reps);
  for (const Assignment& a : planned.shares) {
    if (a.share < req(a.job)) {
      fractured_[a.job] = rem_[a.job] % req(a.job) != 0 ? 1 : 0;
    }
  }
  return finished_any;
}

Time SosEngine::steps_until_change(const PlannedStep& steady) const {
  Time until_change = EngineDriver::steps_until_change(steady);
  // A steady light-case block also ends when the fractured job's remainder
  // hits an exact multiple of its requirement: the job unfractures
  // mid-stream and the case split flips (caught by the fuzz suite; see
  // tests/test_fuzz.cpp).
  if (steady.fractured) {
    const JobId iota = *steady.fractured;
    Res sigma = 0;
    for (const Assignment& a : steady.shares) {
      if (a.job == iota) sigma = a.share;
    }
    const Res q = rem_[iota] % req(iota);
    ensure(q > 0 && sigma > 0, "steady block with unfractured iota");
    if (sigma % req(iota) != 0) {
      until_change =
          std::min(until_change, first_unfracture_step(q, sigma, req(iota)));
    }
  }
  return until_change;
}

StepInfo SosEngine::make_info(const PlannedStep& planned,
                              Time first_step) const {
  StepInfo info;
  info.first_step = first_step;
  info.repeat = 1;
  info.shares = planned.shares;
  info.window_size = wsize_;
  info.window_requirement = wreq_;
  info.left_border = window_left_border();
  info.right_border = window_right_border();
  info.step_case = planned.step_case;
  info.fractured = planned.fractured;
  info.extra_job_started = planned.extra_job;
  for (const Assignment& a : planned.shares) {
    info.resource_used = util::add_checked(info.resource_used, a.share);
    if (a.share == req(a.job)) ++info.full_requirement_jobs;
  }
  return info;
}

StepInfo SosEngine::step() {
  prepare_step();
  const PlannedStep planned = plan();
  StepInfo info = make_info(planned, now_ + 1);
  apply(planned, 1);
  return info;
}

/// Per-block deterministic stats: structural facts of the emitted schedule,
/// independent of threads and wall time.
void SosEngine::count_block(const PlannedStep& planned, Time reps) {
  const auto ureps = static_cast<std::uint64_t>(reps);
  ++stats_.blocks;
  stats_.steps += ureps;
  if (planned.step_case == StepCase::kHeavy) {
    stats_.case1_steps += ureps;
  } else {
    stats_.case2_steps += ureps;
    if (light_step_fulfills_requirements(*this, planned)) {
      stats_.full_requirement_steps += ureps;
    }
  }
  stats_.fast_forward_steps += ureps - 1;
  if (planned.fractured) ++stats_.fractured_handoffs;
  if (planned.extra_job) ++stats_.extra_job_starts;
}

void SosEngine::publish_stats() {
  SHAREDRES_OBS_COUNT("engine.sos.runs");
  SHAREDRES_OBS_COUNT_N("engine.sos.window_hops", stats_.window_hops);
  SHAREDRES_OBS_COUNT_N("engine.sos.blocks", stats_.blocks);
  SHAREDRES_OBS_COUNT_N("engine.sos.steps", stats_.steps);
  SHAREDRES_OBS_COUNT_N("engine.sos.case1_steps", stats_.case1_steps);
  SHAREDRES_OBS_COUNT_N("engine.sos.case2_steps", stats_.case2_steps);
  SHAREDRES_OBS_COUNT_N("engine.sos.full_requirement_steps",
                        stats_.full_requirement_steps);
  SHAREDRES_OBS_COUNT_N("engine.sos.fast_forward_steps",
                        stats_.fast_forward_steps);
  SHAREDRES_OBS_COUNT_N("engine.sos.fractured_handoffs",
                        stats_.fractured_handoffs);
  SHAREDRES_OBS_COUNT_N("engine.sos.extra_job_starts",
                        stats_.extra_job_starts);
  stats_ = {};
}

template class EngineDriver<SosEngine, PlannedStep>;

}  // namespace sharedres::core
