#include "online/dynamic.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/registry.hpp"
#include "util/checked.hpp"

namespace sharedres::online {

using core::Assignment;
using core::JobId;
using core::Res;
using core::Time;

DynamicEngine::DynamicEngine(int machines, Res capacity, DynamicPolicy policy)
    : machines_(0), capacity_(capacity), policy_(policy) {
  if (machines < 1) throw std::invalid_argument("DynamicEngine: machines < 1");
  if (capacity < 1) throw std::invalid_argument("DynamicEngine: capacity < 1");
  machines_ = static_cast<std::size_t>(machines);
}

JobId DynamicEngine::submit(Time release, const core::Job& job) {
  if (release <= now_) {
    throw std::invalid_argument(
        "DynamicEngine::submit: release step is already committed");
  }
  if (job.size < 1 || job.requirement < 1) {
    throw std::invalid_argument("DynamicEngine::submit: malformed job");
  }
  const JobId id = jobs_.size();
  JobState st;
  st.job = job;
  st.release = release;
  st.rem = job.total_requirement();
  jobs_.push_back(st);
  DynamicJobStats stats;
  stats.release = release;
  stats_.push_back(stats);
  share_.push_back(0);
  ++unfinished_;
  return id;
}

void DynamicEngine::apply(JobId j, Res share, std::vector<Assignment>& out) {
  JobState& st = jobs_[j];
  st.rem -= share;
  st.started = st.rem > 0;
  out.push_back(Assignment{j, share});
  if (share > 0 && stats_[j].start == 0) stats_[j].start = now_;
  if (st.rem == 0) {
    stats_[j].completion = now_;
    --unfinished_;
    const Time flow = stats_[j].flow_time();
    SHAREDRES_OBS_COUNT("online.completed");
    SHAREDRES_OBS_COUNT_N("online.flow_time_total", flow);
    SHAREDRES_OBS_OBSERVE("online.flow_time",
                          ({1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048,
                            4096, 8192, 16384, 32768}),
                          flow);
  }
}

void DynamicEngine::step_greedy(std::vector<Assignment>& out) {
  const Time t = now_;
  // Released, unfinished jobs; started ones are mandatory (they hold a
  // machine non-preemptively and must receive >= 1 unit every step).
  std::vector<std::size_t> started, fresh;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (jobs_[j].rem == 0 || jobs_[j].release > t) continue;
    (jobs_[j].started ? started : fresh).push_back(j);
  }
  if (started.empty() && fresh.empty()) return;  // idle step

  Res left = capacity_;
  std::size_t machines_left = machines_;
  std::size_t in_flight = 0;

  // Sustain started jobs (one unit reserve each), smallest remaining first
  // for the top-ups. Same rule as schedule_online_greedy always applied.
  auto by_remaining = [&](std::size_t a, std::size_t b) {
    return jobs_[a].rem != jobs_[b].rem ? jobs_[a].rem < jobs_[b].rem : a < b;
  };
  std::sort(started.begin(), started.end(), by_remaining);
  std::sort(fresh.begin(), fresh.end(), by_remaining);

  for (const std::size_t j : started) share_[j] = 0;
  for (const std::size_t j : fresh) share_[j] = 0;
  for (const std::size_t j : started) {
    if (machines_left == 0 || left == 0) {
      throw std::logic_error("online greedy cannot sustain started jobs");
    }
    share_[j] = 1;
    --left;
    --machines_left;
  }
  auto top_up = [&](std::size_t j) {
    const Res cap = std::min(jobs_[j].job.requirement,
                             std::min(jobs_[j].rem, capacity_));
    const Res extra = std::min(cap - share_[j], left);
    share_[j] += extra;
    left -= extra;
  };
  for (const std::size_t j : started) top_up(j);
  bool any_progress = !started.empty();
  for (const std::size_t j : fresh) {
    if (machines_left == 0 || left == 0) break;
    const Res cap = std::min(jobs_[j].job.requirement,
                             std::min(jobs_[j].rem, capacity_));
    const Res grant = std::min(cap, left);
    if (grant == 0) continue;
    // Start only if it finishes now, or we can sustain it in later steps
    // (one unit per open job), or nothing else progressed yet.
    if (grant < jobs_[j].rem && any_progress &&
        static_cast<Res>(in_flight + started.size()) + 1 >= capacity_) {
      continue;
    }
    share_[j] = grant;
    left -= grant;
    --machines_left;
    any_progress = true;
    if (grant < jobs_[j].rem) ++in_flight;
  }

  for (const std::size_t j : started) apply(j, share_[j], out);
  for (const std::size_t j : fresh) {
    if (share_[j] == 0) continue;
    apply(j, share_[j], out);
  }
  if (out.empty()) {
    throw std::logic_error("online greedy made no progress");
  }
}

void DynamicEngine::step_reservation(std::vector<Assignment>& out) {
  const Time t = now_;
  std::vector<std::size_t> running, waiting;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (jobs_[j].rem == 0 || jobs_[j].release > t) continue;
    (jobs_[j].started ? running : waiting).push_back(j);
  }
  if (running.empty() && waiting.empty()) return;  // idle step

  Res left = capacity_;
  std::size_t machines_left = machines_;
  // Running jobs keep their full reservation.
  for (const std::size_t j : running) {
    const Res rate = std::min(jobs_[j].job.requirement, capacity_);
    const Res grant = std::min(rate, jobs_[j].rem);
    apply(j, grant, out);
    left -= grant;
    --machines_left;
  }
  // Admit waiting jobs in submission order while their reservation fits.
  for (const std::size_t j : waiting) {
    if (machines_left == 0) break;
    const Res rate = std::min(jobs_[j].job.requirement, capacity_);
    if (rate > left) continue;
    const Res grant = std::min(rate, jobs_[j].rem);
    apply(j, grant, out);
    left -= grant;
    --machines_left;
  }
  if (out.empty()) {
    throw std::logic_error("online reservation made no progress");
  }
}

void DynamicEngine::step() {
  ++now_;
  std::vector<Assignment> out;
  switch (policy_) {
    case DynamicPolicy::kGreedy:
      step_greedy(out);
      break;
    case DynamicPolicy::kReservation:
      step_reservation(out);
      break;
  }
  Res busy = 0;
  for (const Assignment& a : out) busy = util::add_checked(busy, a.share);
  busy_units_ = util::add_checked(busy_units_, busy);
  SHAREDRES_OBS_COUNT("online.steps");
  SHAREDRES_OBS_COUNT_N("online.busy_units", busy);
  schedule_.append(1, out);
}

Time DynamicEngine::run_until_idle() {
  while (!idle()) step();
  return now_;
}

double DynamicEngine::utilization() const {
  if (now_ == 0) return 0.0;
  return static_cast<double>(busy_units_) /
         (static_cast<double>(capacity_) * static_cast<double>(now_));
}

}  // namespace sharedres::online
