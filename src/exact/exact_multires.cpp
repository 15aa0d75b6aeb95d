#include "exact/exact_multires.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace sharedres::exact {

namespace {

using core::Instance;
using core::JobId;
using core::Res;
using core::Time;

/// The mask-based subset enumeration caps the job count; way above the
/// n ≲ 8 regime the state space is enumerable in anyway.
constexpr std::size_t kMaxJobs = 30;

struct Running {
  JobId job;
  Time rem;  ///< remaining full-rate steps, ≥ 1
};

class Searcher {
 public:
  Searcher(const Instance& inst, const ExactLimits& limits)
      : inst_(inst), budget_(limits),
        machine_cap_(static_cast<std::size_t>(inst.machines())),
        axes_(inst.resource_count()) {}

  [[nodiscard]] bool exceeded() const { return budget_.exhausted(); }

  /// Exact remaining makespan from (waiting, running); running is sorted by
  /// job id. Meaningless once exceeded() is true.
  Time dfs(std::uint32_t waiting, const std::vector<Running>& running) {
    if (waiting == 0 && running.empty()) return 0;
    if (!budget_.spend()) return 0;

    // One entry for the job and one for its remaining time: a remaining
    // time may use all 64 bits, so packing both into one word would let
    // two different states share a key.
    std::vector<std::uint64_t> key;
    key.reserve(1 + 2 * running.size());
    key.push_back(waiting);
    for (const Running& r : running) {
      key.push_back(r.job);
      key.push_back(static_cast<std::uint64_t>(r.rem));
    }
    if (const auto it = memo_.find(key); it != memo_.end()) return it->second;

    std::vector<Res> used(axes_, 0);
    for (const Running& r : running) {
      for (std::size_t k = 0; k < axes_; ++k) {
        used[k] += inst_.axis_requirements(k)[r.job];
      }
    }

    Time best = kInfinite;
    // Every subset of the waiting set is a candidate start decision at this
    // event (active-schedule normal form, file comment of the header). The
    // loop visits sub = waiting, …, 0; the empty subset is only a move when
    // something is running (otherwise no time passes).
    std::uint32_t sub = waiting;
    while (true) {
      if (feasible(sub, running.size(), used) &&
          !(sub == 0 && running.empty())) {
        std::vector<Running> next;
        next.reserve(running.size() +
                     static_cast<std::size_t>(std::popcount(sub)));
        for (const Running& r : running) next.push_back(r);
        for (std::uint32_t bits = sub; bits != 0; bits &= bits - 1) {
          const auto j = static_cast<JobId>(std::countr_zero(bits));
          next.push_back({j, inst_.sizes()[j]});
        }
        std::sort(next.begin(), next.end(),
                  [](const Running& a, const Running& b) {
                    return a.job < b.job;
                  });
        Time delta = next.front().rem;
        for (const Running& r : next) delta = std::min(delta, r.rem);
        std::vector<Running> advanced;
        advanced.reserve(next.size());
        for (const Running& r : next) {
          if (r.rem > delta) advanced.push_back({r.job, r.rem - delta});
        }
        const Time value = delta + dfs(waiting & ~sub, advanced);
        if (!exceeded()) best = std::min(best, value);
      }
      if (sub == 0) break;
      sub = (sub - 1) & waiting;
    }

    memo_.emplace(std::move(key), best);
    return best;
  }

 private:
  static constexpr Time kInfinite = std::numeric_limits<Time>::max() / 2;

  /// Machine count and all d capacities admit starting `sub` beside the
  /// current running set.
  [[nodiscard]] bool feasible(std::uint32_t sub, std::size_t running_count,
                              const std::vector<Res>& used) const {
    if (running_count + static_cast<std::size_t>(std::popcount(sub)) >
        machine_cap_) {
      return false;
    }
    for (std::size_t k = 0; k < axes_; ++k) {
      Res total = used[k];
      for (std::uint32_t bits = sub; bits != 0; bits &= bits - 1) {
        const auto j = static_cast<JobId>(std::countr_zero(bits));
        // Every requirement is ≤ its capacity (checked by the caller), so
        // the running uses plus ≤ m starts stay far from 64-bit range only
        // if capacities are sane; compare incrementally to stay safe.
        if (inst_.axis_requirements(k)[j] > inst_.capacity(k) - total) {
          return false;
        }
        total += inst_.axis_requirements(k)[j];
      }
    }
    return true;
  }

  const Instance& inst_;
  Budget budget_;
  std::size_t machine_cap_;
  std::size_t axes_;
  std::map<std::vector<std::uint64_t>, Time> memo_;
};

}  // namespace

std::optional<core::Time> exact_multires_makespan(
    const core::Instance& instance, const ExactLimits& limits) {
  if (instance.empty()) return core::Time{0};
  if (instance.size() > kMaxJobs) return std::nullopt;
  for (std::size_t k = 0; k < instance.resource_count(); ++k) {
    const Res* reqs = instance.axis_requirements(k);
    for (std::size_t j = 0; j < instance.size(); ++j) {
      if (reqs[j] > instance.capacity(k)) {
        throw util::Error::invalid_instance(
            "job " + std::to_string(j) + ": requirement " +
            std::to_string(reqs[j]) + " for resource " + std::to_string(k) +
            " exceeds its capacity " + std::to_string(instance.capacity(k)) +
            " (no rigid schedule exists)");
      }
    }
  }

  Searcher searcher(instance, limits);
  const auto waiting =
      static_cast<std::uint32_t>((std::uint64_t{1} << instance.size()) - 1);
  const core::Time best = searcher.dfs(waiting, {});
  if (searcher.exceeded()) return std::nullopt;
  return best;
}

}  // namespace sharedres::exact
