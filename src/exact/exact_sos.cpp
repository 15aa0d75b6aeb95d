#include "exact/exact_sos.hpp"

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "core/lower_bounds.hpp"
#include "core/sos_scheduler.hpp"

namespace sharedres::exact {

namespace {

using core::Instance;
using core::Res;
using core::Time;

/// Sequential upper bound: one job at a time at intake min(r_j, C). Valid
/// non-preemptively for any m, hence an upper bound in both modes.
Time sequential_upper_bound(const Instance& inst) {
  Time total = 0;
  for (const core::Job& job : inst.jobs()) {
    total += util::ceil_div(job.total_requirement(),
                            std::min(job.requirement, inst.capacity()));
  }
  return total;
}

class Searcher {
 public:
  Searcher(const Instance& inst, bool preemptive, const ExactLimits& limits)
      : inst_(inst), preemptive_(preemptive), budget_(limits) {
    const std::size_t n = inst.size();
    rem_.resize(n);
    for (core::JobId j = 0; j < n; ++j) {
      rem_[j] = inst.job(j).total_requirement();
    }
    best_ = sequential_upper_bound(inst);
    if (inst.machines() >= 2) {
      best_ = std::min(best_, core::schedule_sos(inst).makespan());
    }
  }

  std::optional<Time> solve() {
    if (inst_.empty()) return Time{0};
    dfs(0);
    if (budget_.exhausted()) return std::nullopt;
    return best_;
  }

 private:
  [[nodiscard]] Res total(core::JobId j) const {
    return inst_.job(j).total_requirement();
  }
  [[nodiscard]] Res req(core::JobId j) const {
    return inst_.job(j).requirement;
  }
  [[nodiscard]] bool is_started(core::JobId j) const {
    return !preemptive_ && rem_[j] > 0 && rem_[j] != total(j);
  }

  /// Eq. (1) and the per-job bound applied to the remaining work; 0 exactly
  /// when no work remains.
  [[nodiscard]] Time remaining_lower_bound() const {
    const Res cap = inst_.capacity();
    Res sum = 0;
    util::i64 parts = 0;
    Time longest = 0;
    for (core::JobId j = 0; j < rem_.size(); ++j) {
      if (rem_[j] == 0) continue;
      sum = util::add_checked(sum, rem_[j]);
      parts += util::ceil_div(rem_[j], req(j));
      longest = std::max(longest,
                         util::ceil_div(rem_[j], std::min(req(j), cap)));
    }
    return std::max({util::ceil_div(sum, cap),
                     util::ceil_div(parts, static_cast<util::i64>(
                                               inst_.machines())),
                     longest});
  }

  /// Memo key: jobs are interchangeable up to (r_j, s_j, rem_j), so the
  /// canonical state is that triple list sorted.
  [[nodiscard]] std::vector<Res> canonical_state() const {
    std::vector<std::tuple<Res, Res, Res>> triples;
    triples.reserve(rem_.size());
    for (core::JobId j = 0; j < rem_.size(); ++j) {
      triples.emplace_back(req(j), total(j), rem_[j]);
    }
    std::sort(triples.begin(), triples.end());
    std::vector<Res> key;
    key.reserve(triples.size() * 3);
    for (const auto& [r, s, q] : triples) {
      key.push_back(r);
      key.push_back(s);
      key.push_back(q);
    }
    return key;
  }

  void dfs(Time steps_used) {
    if (!budget_.spend()) return;

    const Time lower = remaining_lower_bound();
    if (lower == 0) {
      best_ = std::min(best_, steps_used);
      return;
    }
    if (steps_used + lower >= best_) return;
    if (memo_.dominated(canonical_state(), steps_used)) return;

    // Started jobs must run (non-preemptive); unstarted jobs are
    // interchangeable up to (r, rem), which in preemptive mode is their
    // whole state.
    std::vector<core::JobId> started;
    std::map<std::pair<Res, Res>, std::vector<core::JobId>> groups;
    for (core::JobId j = 0; j < rem_.size(); ++j) {
      if (rem_[j] == 0) continue;
      if (is_started(j)) {
        started.push_back(j);
      } else {
        groups[{req(j), rem_[j]}].push_back(j);
      }
    }
    for_each_step(
        started, groups, static_cast<std::size_t>(inst_.machines()),
        inst_.capacity(),
        [&](core::JobId j) {
          return std::min({req(j), rem_[j], inst_.capacity()});
        },
        [&](core::JobId a, core::JobId b) {  // same (r, s, rem)
          return req(a) == req(b) && total(a) == total(b) &&
                 rem_[a] == rem_[b];
        },
        budget_,
        [&](const std::vector<core::JobId>& active,
            const std::vector<Res>& sigma) {
          for (std::size_t t = 0; t < active.size(); ++t) {
            rem_[active[t]] -= sigma[t];
          }
          dfs(steps_used + 1);
          for (std::size_t t = 0; t < active.size(); ++t) {
            rem_[active[t]] += sigma[t];
          }
        });
  }

  const Instance& inst_;
  bool preemptive_;
  Budget budget_;

  std::vector<Res> rem_;
  Time best_ = 0;
  DominanceMemo memo_;
};

}  // namespace

std::optional<Time> exact_makespan(const Instance& instance,
                                   const ExactLimits& limits) {
  return Searcher(instance, /*preemptive=*/false, limits).solve();
}

std::optional<Time> exact_makespan_preemptive(const Instance& instance,
                                              const ExactLimits& limits) {
  return Searcher(instance, /*preemptive=*/true, limits).solve();
}

std::optional<std::size_t> exact_bin_count(
    const binpack::PackingInstance& instance, const ExactLimits& limits) {
  instance.validate_input();
  std::vector<core::Job> jobs;
  jobs.reserve(instance.items.size());
  for (const Res w : instance.items) jobs.push_back(core::Job{1, w});
  const Instance sos(instance.cardinality, instance.capacity, std::move(jobs));
  const auto result = exact_makespan_preemptive(sos, limits);
  if (!result) return std::nullopt;
  return static_cast<std::size_t>(*result);
}

}  // namespace sharedres::exact
