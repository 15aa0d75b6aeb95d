// A brute force for the exact step searches. It walks breadth-first over
// every integral share vector of every step — no maximality, no symmetry,
// no bound — so the first step count at which all work is done is the
// optimum over integral schedules. Agreement with the oracles checks what
// their step enumerator (exact/search.hpp) rests on: maximal share vectors
// suffice, and the dominance memo, the interchangeable-job rules and the
// bounds prune nothing optimal.
//
// Preemptive instances also run with C and every r_j doubled, so the brute
// force may use half units of the original grid: the optimum must not drop
// (integral shares suffice there). Without preemption it can drop; the last
// test pins one instance per model.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/instance.hpp"
#include "exact/exact_fixed.hpp"
#include "exact/exact_sos.hpp"
#include "fixedassign/fixed_model.hpp"
#include "util/prng.hpp"

namespace sharedres {
namespace {

using core::Instance;
using core::Job;
using core::Res;
using core::Time;
using fixedassign::FixedInstance;

/// A search state packed into one word, 8 bits per entry, so the visited
/// set stays cheap in unoptimized builds. The instances below keep every
/// entry under 256 and use at most 8 entries.
using State = std::uint64_t;
constexpr unsigned kBits = 8;

Res entry(State state, std::size_t i) {
  return static_cast<Res>((state >> (kBits * i)) & 0xff);
}
State packed(Res value, std::size_t i) {
  return static_cast<State>(value) << (kBits * i);
}

/// Fewest steps from `start` to the all-zero state, where
/// `successors(state, emit)` emits every state one step can reach.
template <class Successors>
Time breadth_first(State start, const Successors& successors) {
  std::unordered_set<State> seen{start};
  std::vector<State> level{start};
  for (Time steps = 0; !level.empty(); ++steps) {
    std::vector<State> next;
    for (const State state : level) {
      if (state == 0) return steps;
      successors(state, [&](State reached) {
        if (seen.insert(reached).second) next.push_back(reached);
      });
    }
    level = std::move(next);
  }
  ADD_FAILURE() << "brute force found no schedule";
  return -1;
}

/// Every share vector with σ_i ≤ cap[i], Σσ ≤ capacity, at most
/// `max_running` positive entries and σ_i ≥ 1 where must_run[i]. The
/// all-zero vector is left out: it reaches the same state.
template <class Emit>
void for_each_share_vector(const std::vector<Res>& cap,
                           const std::vector<bool>& must_run, Res capacity,
                           std::size_t max_running, const Emit& emit) {
  std::vector<Res> sigma(cap.size(), 0);
  auto rec = [&](auto&& self, std::size_t i, Res left,
                 std::size_t running) -> void {
    if (i == cap.size()) {
      if (running > 0) emit(sigma);
      return;
    }
    for (Res s = must_run[i] ? 1 : 0; s <= std::min(cap[i], left); ++s) {
      if (s > 0 && running == max_running) break;
      sigma[i] = s;
      self(self, i + 1, left - s, running + (s > 0 ? 1 : 0));
    }
    sigma[i] = 0;
  };
  rec(rec, 0, capacity, 0);
}

/// SoS optimum over integral schedules. Entry j is job j's remaining
/// requirement; non-preemptively a job strictly between its total and 0
/// has started and must run.
Time brute_force_sos(const Instance& inst, bool preemptive) {
  const std::size_t n = inst.size();
  State start = 0;
  for (std::size_t j = 0; j < n; ++j) {
    start |= packed(inst.job(j).total_requirement(), j);
  }
  const auto m = static_cast<std::size_t>(inst.machines());
  return breadth_first(start, [&](State state, auto&& emit) {
    std::vector<Res> cap(n);
    std::vector<bool> must_run(n);
    for (std::size_t j = 0; j < n; ++j) {
      const Res rem = entry(state, j);
      cap[j] = std::min({inst.job(j).requirement, rem, inst.capacity()});
      must_run[j] = !preemptive && rem > 0 && rem < entry(start, j);
    }
    for_each_share_vector(cap, must_run, inst.capacity(), m,
                          [&](const std::vector<Res>& sigma) {
                            State next = state;
                            for (std::size_t j = 0; j < n; ++j) {
                              next -= packed(sigma[j], j);
                            }
                            emit(next);
                          });
  });
}

/// Fixed-assignment optimum over integral schedules. Per processor i,
/// entry 2i is the remaining requirement of its current job and entry
/// 2i+1 counts its finished jobs; a finished job loads the next one.
Time brute_force_fixed(const FixedInstance& inst) {
  const std::size_t m = inst.machines();
  State start = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (!inst.queues[i].empty()) start |= packed(inst.queues[i][0], 2 * i);
  }
  return breadth_first(start, [&](State state, auto&& emit) {
    std::vector<Res> cap(m);
    std::vector<bool> must_run(m);
    for (std::size_t i = 0; i < m; ++i) {
      const Res rem = entry(state, 2 * i);
      const auto head = static_cast<std::size_t>(entry(state, 2 * i + 1));
      cap[i] = std::min(rem, inst.capacity);
      must_run[i] = rem > 0 && rem < inst.queues[i][head];
    }
    for_each_share_vector(
        cap, must_run, inst.capacity, m, [&](const std::vector<Res>& sigma) {
          State next = state;
          for (std::size_t i = 0; i < m; ++i) {
            if (sigma[i] == 0) continue;
            next -= packed(sigma[i], 2 * i);
            if (entry(next, 2 * i) > 0) continue;
            // Clear the finished-job count (it would otherwise make the
            // done state nonzero), then load the next job if there is one.
            const auto head =
                static_cast<std::size_t>(entry(next, 2 * i + 1)) + 1;
            next -= packed(static_cast<Res>(head - 1), 2 * i + 1);
            if (head < inst.queues[i].size()) {
              next |= packed(static_cast<Res>(head), 2 * i + 1) |
                      packed(inst.queues[i][head], 2 * i);
            }
          }
          emit(next);
        });
  });
}

/// m ∈ [2, 4], C ∈ [2, 6], n ∈ [1, max_jobs], p ∈ [1, max_size] and
/// r ∈ [1, C + over]: r > C makes a job take several steps even at p = 1.
Instance random_sos(util::Rng& rng, std::size_t max_jobs, Res max_size,
                    Res over) {
  const auto m = static_cast<int>(rng.uniform_int(2, 4));
  const Res capacity = rng.uniform_int(2, 6);
  const auto n = static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<std::int64_t>(max_jobs)));
  std::vector<Job> jobs;
  for (std::size_t j = 0; j < n; ++j) {
    jobs.push_back(
        Job{rng.uniform_int(1, max_size), rng.uniform_int(1, capacity + over)});
  }
  return Instance(m, capacity, std::move(jobs));
}

/// The same jobs on a grid twice as fine: C and every r_j doubled.
Instance half_grid(const Instance& inst) {
  std::vector<Job> jobs;
  for (const Job& job : inst.jobs()) {
    jobs.push_back(Job{job.size, 2 * job.requirement});
  }
  return Instance(inst.machines(), 2 * inst.capacity(), std::move(jobs));
}

TEST(ExactBruteForce, NonPreemptiveOptimumMatches) {
  // Equal totals s = 6 at r = 1 and r = 6: jobs the search treats as
  // interchangeable must agree on r too. At C = 4 the r = 1 jobs take 6
  // steps each and the r = 6 jobs at least 2: 16 job-steps on 2 machines.
  const Instance equal_totals(2, 4,
                              {Job{6, 1}, Job{6, 1}, Job{1, 6}, Job{1, 6}});
  EXPECT_EQ(exact::exact_makespan(equal_totals), 8);
  EXPECT_EQ(brute_force_sos(equal_totals, /*preemptive=*/false), 8);

  util::Rng rng(2701);
  for (int trial = 0; trial < 1200; ++trial) {
    const Instance inst = random_sos(rng, 4, 3, 2);
    const auto opt = exact::exact_makespan(inst);
    ASSERT_TRUE(opt.has_value()) << "trial " << trial;
    ASSERT_EQ(*opt, brute_force_sos(inst, /*preemptive=*/false))
        << "trial " << trial;
  }
}

TEST(ExactBruteForce, PreemptiveOptimumMatches) {
  util::Rng rng(2702);
  for (int trial = 0; trial < 800; ++trial) {
    const Instance inst = random_sos(rng, 3, 3, 2);
    const auto opt = exact::exact_makespan_preemptive(inst);
    ASSERT_TRUE(opt.has_value()) << "trial " << trial;
    ASSERT_EQ(*opt, brute_force_sos(inst, /*preemptive=*/true))
        << "trial " << trial;
  }
  for (int trial = 0; trial < 150; ++trial) {
    const Instance inst = random_sos(rng, 3, 2, 1);
    const auto opt = exact::exact_makespan_preemptive(inst);
    ASSERT_TRUE(opt.has_value()) << "half grid, trial " << trial;
    ASSERT_EQ(*opt, brute_force_sos(half_grid(inst), /*preemptive=*/true))
        << "half grid, trial " << trial;
  }
}

TEST(ExactBruteForce, FixedAssignmentOptimumMatches) {
  util::Rng rng(2703);
  for (int trial = 0; trial < 1000; ++trial) {
    FixedInstance inst;
    inst.capacity = rng.uniform_int(2, 6);
    inst.queues.resize(static_cast<std::size_t>(rng.uniform_int(1, 3)));
    for (auto& queue : inst.queues) {
      const auto jobs = static_cast<std::size_t>(rng.uniform_int(1, 3));
      for (std::size_t j = 0; j < jobs; ++j) {
        queue.push_back(rng.uniform_int(1, inst.capacity + 2));
      }
    }
    const auto opt = exact::exact_fixed_makespan(inst);
    ASSERT_TRUE(opt.has_value()) << "trial " << trial;
    ASSERT_EQ(*opt, brute_force_fixed(inst)) << "trial " << trial;
  }
}

TEST(ExactBruteForce, HalfUnitsBeatWholeUnitsWithoutPreemption) {
  // Three jobs of 3 units at intake ≤ 1, C = 2. With whole units a running
  // job takes exactly 1 per step, so each runs for 3 steps and at most two
  // run at once; within 5 steps every 3-step interval holds step 3, so 6 is
  // the best. With halves, A = 1,1,1 in steps 1-3, B = 1,½,½,1 in steps 1-4
  // and C = ½,½,1,1 in steps 2-5 make 5.
  const Instance sos(4, 2, {Job{3, 1}, Job{3, 1}, Job{3, 1}});
  EXPECT_EQ(exact::exact_makespan(sos), 6);
  EXPECT_EQ(brute_force_sos(sos, /*preemptive=*/false), 6);
  EXPECT_EQ(brute_force_sos(half_grid(sos), /*preemptive=*/false), 5);

  // Fixed assignment: four steps would use all 8 units at C = 2. Queue
  // A = 1, 3, 1 needs all four (the 3 takes two), so queue B's job of 3
  // gets what A leaves: 1, then 1 across steps 2 and 3, then 1. B must run
  // without a gap, so steps 2 and 3 each need a positive share of that one
  // unit: halves do it, whole units cannot and take a fifth step.
  const FixedInstance fixed{2, {{1, 3, 1}, {3}}};
  EXPECT_EQ(exact::exact_fixed_makespan(fixed), 5);
  EXPECT_EQ(brute_force_fixed(fixed), 5);
  EXPECT_EQ(brute_force_fixed(FixedInstance{4, {{2, 6, 2}, {6}}}), 4);
}

}  // namespace
}  // namespace sharedres
