// core::validate and validate_all against the step-by-step reference
// (tests/validator_reference.hpp).
//
// The reference is the oracle: wherever a schedule is small enough to
// expand, validate() and validate_all() must give its verdict, and
// validate()'s message must be validate_all()'s first detail. Hand-built
// cases cover each rule and the 64-bit edges, where a scan that dropped an
// overflow test would wrap back into the feasible range. A grid runs every
// row of batch::solvers() over the instance families and injects one
// violation of every kind reachable through Schedule into each schedule;
// validate_all's first code must be the injected one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "batch/solver.hpp"
#include "core/engine_scratch.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/validator.hpp"
#include "util/checked.hpp"
#include "validator_reference.hpp"
#include "workloads/multires_generators.hpp"
#include "workloads/sos_generators.hpp"

namespace sharedres::core {
namespace {

constexpr Res kMax = std::numeric_limits<Res>::max();
constexpr std::int64_t kReferenceCells = std::int64_t{1} << 20;

using Blocks = std::vector<Block>;

Schedule build(const Blocks& blocks) {
  Schedule s;
  for (const Block& b : blocks) s.append(b.length, b.assignments);
  return s;
}

/// The verdict, held to the reference, and validate_all's first violation.
struct Outcome {
  bool ok = true;
  std::optional<ViolationCode> first;
  std::string detail;
};

Outcome agree(const Instance& inst, const Schedule& s) {
  const ValidationResult first = validate(inst, s);
  const ValidationReport all = validate_all(inst, s);
  EXPECT_EQ(first.ok, all.ok()) << first.error;
  if (!first.ok && !all.ok()) {
    EXPECT_EQ(first.error, all.violations[0].detail);
  }
  if (reference::expandable(s, kReferenceCells)) {
    const reference::Verdict ref = reference::check(inst, s);
    EXPECT_EQ(ref.ok, first.ok) << "reference: " << ref.reason
                                << "; validate: " << first.error;
  }
  if (all.ok()) return {};
  return {false, all.violations[0].code, all.violations[0].detail};
}

void expect_first(const Instance& inst, const Schedule& s,
                  ViolationCode code) {
  const Outcome got = agree(inst, s);
  EXPECT_FALSE(got.ok);
  ASSERT_TRUE(got.first.has_value());
  EXPECT_STREQ(to_string(*got.first), to_string(code)) << got.detail;
}

// ------------------------------------------------------------ hand cases

TEST(ValidatorReference, AcceptsFeasibleSchedules) {
  const Instance inst(2, 10, {Job{2, 3}, Job{1, 8}});
  Schedule s;
  s.append(1, {Assignment{0, 3}, Assignment{1, 7}});
  s.append(1, {Assignment{0, 3}, Assignment{1, 1}});
  EXPECT_TRUE(agree(inst, s).ok);
  // Empty steps anywhere, and an instance with no jobs at all.
  Schedule gaps;
  gaps.append(2, {});
  gaps.append(2, {Assignment{0, 3}});
  gaps.append(1, {});
  gaps.append(1, {Assignment{1, 8}});
  EXPECT_TRUE(agree(inst, gaps).ok);
  EXPECT_TRUE(agree(Instance(1, 1, {}), Schedule{}).ok);
}

TEST(ValidatorReference, RejectsEachRule) {
  const Instance inst(2, 10, {Job{2, 3}, Job{1, 8}, Job{1, 25}});
  // Job 2 has r = 25 > C = 10: 3 steps at share 10 (25 = 10 + 10 + 5).
  const auto tail = [](Schedule s) {
    s.append(2, {Assignment{2, 10}});
    s.append(1, {Assignment{2, 5}});
    return s;
  };
  const auto with = [&](std::vector<Assignment> first) {
    Schedule s;
    s.append(1, std::move(first));
    s.append(1, {Assignment{0, 3}, Assignment{1, 1}});
    return tail(s);
  };
  EXPECT_TRUE(agree(inst, with({Assignment{0, 3}, Assignment{1, 7}})).ok);
  expect_first(inst,
               with({Assignment{0, 3}, Assignment{1, 7}, Assignment{1, 7}}),
               ViolationCode::kTooManyJobs);
  expect_first(inst, with({Assignment{3, 3}, Assignment{1, 7}}),
               ViolationCode::kInvalidJobId);
  expect_first(inst, with({Assignment{kNoJob, 3}, Assignment{1, 7}}),
               ViolationCode::kInvalidJobId);
  expect_first(inst, with({Assignment{0, 0}, Assignment{1, 7}}),
               ViolationCode::kNonPositiveShare);
  expect_first(inst,
               with({Assignment{0, std::numeric_limits<Res>::min()},
                     Assignment{1, 7}}),
               ViolationCode::kNonPositiveShare);
  expect_first(inst, with({Assignment{0, 4}, Assignment{1, 6}}),
               ViolationCode::kShareAboveRequirement);
  expect_first(inst, with({Assignment{0, 3}, Assignment{0, 3}}),
               ViolationCode::kDuplicateJob);
  expect_first(inst, with({Assignment{0, 3}, Assignment{1, 6}}),
               ViolationCode::kCreditMismatch);

  // 3 + 8 > C = 10 with every credit exact: the overuse is the only defect.
  Schedule over;
  over.append(1, {Assignment{0, 3}, Assignment{1, 8}});
  over.append(1, {Assignment{0, 3}});
  expect_first(inst, tail(over), ViolationCode::kResourceOveruse);

  // Share 11 ≤ r = 25 but above C = 10; job 2 still gets 11 + 10 + 4 = 25.
  Schedule over_c;
  over_c.append(1, {Assignment{0, 3}, Assignment{1, 7}});
  over_c.append(1, {Assignment{0, 3}, Assignment{1, 1}});
  over_c.append(1, {Assignment{2, 11}});
  over_c.append(1, {Assignment{2, 10}});
  over_c.append(1, {Assignment{2, 4}});
  expect_first(inst, over_c, ViolationCode::kShareAboveCapacity);

  // Job 2 pauses for a step between its runs.
  Schedule paused;
  paused.append(1, {Assignment{0, 3}, Assignment{1, 7}});
  paused.append(1, {Assignment{0, 3}, Assignment{1, 1}});
  paused.append(1, {Assignment{2, 10}});
  paused.append(1, {});
  paused.append(1, {Assignment{2, 10}});
  paused.append(1, {Assignment{2, 5}});
  expect_first(inst, paused, ViolationCode::kPreemption);
}

TEST(ValidatorReference, RejectsSideAxisOveruse) {
  // d = 2, C = (10, 6). Job 0: r = (4, 6); job 1: r = (6, 2). At full rate
  // they fit axis 0 (4 + 6 = 10) and break axis 1 (6 + 2 = 8 > 6).
  const Instance inst(2, {10, 6},
                      {MultiJob{1, {4, 6}}, MultiJob{1, {6, 2}}});
  Schedule together;
  together.append(1, {Assignment{0, 4}, Assignment{1, 6}});
  const Outcome got = agree(inst, together);
  ASSERT_TRUE(got.first.has_value());
  EXPECT_EQ(*got.first, ViolationCode::kResourceOveruse);
  EXPECT_NE(got.detail.find("overuses resource 1"), std::string::npos);

  // Half rate on job 0 eats ⌈2·6/4⌉ = 3 of axis 1: 3 + 2 = 5 fits.
  Schedule apart;
  apart.append(1, {Assignment{0, 2}, Assignment{1, 6}});
  apart.append(1, {Assignment{0, 2}});
  EXPECT_TRUE(agree(inst, apart).ok);
}

// --------------------------------------------------------- 64-bit edges
//
// The credit and side-axis product cases are ones the scan gets wrong if
// it drops its overflow test: the wrapped 64-bit value lands back inside
// the feasible range.

TEST(ValidatorReference, SumsPast64BitsNeedADuplicateJob) {
  // Instance keeps Σ_j p_j·r_{j,k} under 2^63 on every axis, so distinct
  // jobs at shares ≤ r_j cannot take a block's sum past 64 bits: two such
  // jobs are no instance at all.
  const Res c = Res{3} << 61;
  EXPECT_THROW(Instance(2, c, {Job{1, c}, Job{1, c}}), util::OverflowError);
  const Res big = Res{1} << 62;
  EXPECT_THROW(Instance(2, {8, big},
                        {MultiJob{1, {1, big}}, MultiJob{1, {1, big}}}),
               util::OverflowError);
  // One job twice in a block does: the duplicate is reported first, the
  // overflowing sum after it.
  Schedule twice;
  twice.append(1, {Assignment{0, c}, Assignment{0, c}});
  const Instance primary(2, c, {Job{1, c}});
  expect_first(primary, twice, ViolationCode::kDuplicateJob);
  const ValidationReport p = validate_all(primary, twice);
  ASSERT_GE(p.violations.size(), 2u);
  EXPECT_EQ(p.violations[1].detail,
            "block 0 overuses the resource: share sum overflows 64 bits "
            "(capacity 6917529027641081856)");
  Schedule side_twice;
  side_twice.append(1, {Assignment{0, 1}, Assignment{0, 1}});
  const Instance side(2, {8, big}, {MultiJob{1, {1, big}}});
  expect_first(side, side_twice, ViolationCode::kDuplicateJob);
  const ValidationReport k = validate_all(side, side_twice);
  ASSERT_GE(k.violations.size(), 2u);
  EXPECT_EQ(k.violations[1].detail,
            "block 0 overuses resource 1: consumption overflows 64 bits "
            "(capacity 4611686018427387904)");
}

TEST(ValidatorReference, CreditProductPast64BitsIsOverflow) {
  // share 2^32 for 2^32 + 1 steps credits 2^64 + 2^32, which wraps to the
  // 2^32 the job needs. Too long to expand: the expected code pins it.
  const Res r = Res{1} << 32;
  const Instance inst(2, r, {Job{1, r}});
  Schedule s;
  s.append(r + 1, {Assignment{0, r}});
  expect_first(inst, s, ViolationCode::kCreditOverflow);
}

TEST(ValidatorReference, CreditSumPast64BitsIsOverflow) {
  // Six one-step blocks credit 5·2^62 = 2^64 + 2^62: wrapped, exactly the
  // 2^62 the job needs. Alternating shares keep append() from merging.
  const Res r = Res{1} << 62;
  const Instance inst(2, r, {Job{1, r}});
  Schedule s;
  for (const Res share : {r, r - 1, r, r - 1, r, Res{2}}) {
    s.append(1, {Assignment{0, share}});
  }
  expect_first(inst, s, ViolationCode::kCreditOverflow);
}

TEST(ValidatorReference, SideAxisProductPast64Bits) {
  // 2^40 · 2^40 overflows 64 bits, but the consumption ⌈x·r_1/r_0⌉ = 2^40
  // fits: feasible while the sum stays within C_1, overuse past it.
  const Res r = Res{1} << 40;
  const std::vector<MultiJob> jobs{MultiJob{1, {r, r}}, MultiJob{1, {r, r}}};
  Schedule s;
  s.append(1, {Assignment{0, r}, Assignment{1, r}});
  EXPECT_TRUE(agree(Instance(2, {2 * r, 2 * r}, jobs), s).ok);
  expect_first(Instance(2, {2 * r, 2 * r - 1}, jobs), s,
               ViolationCode::kResourceOveruse);
  // 2^40 · 2^41 wraps to 0; the true consumption 2^41 overuses C_1 = 2^40.
  Schedule wide;
  wide.append(1, {Assignment{0, r}});
  expect_first(Instance(2, {r, r}, {MultiJob{1, {r, 2 * r}}}), wide,
               ViolationCode::kResourceOveruse);
  // A share above r_0 makes the consumption itself pass 64 bits; the share
  // is reported first and the overflow after it.
  Schedule above;
  above.append(1, {Assignment{0, 4}});
  const Instance huge(2, {8, 8}, {MultiJob{1, {1, Res{1} << 62}}});
  expect_first(huge, above, ViolationCode::kShareAboveRequirement);
  const ValidationReport report = validate_all(huge, above);
  ASSERT_GE(report.violations.size(), 2u);
  EXPECT_EQ(report.violations[1].detail,
            "block 0 overuses resource 1: consumption overflows 64 bits "
            "(capacity 8)");
}

TEST(ValidatorReference, SideAxisProductPast64BitsBeforeACreditMismatch) {
  // Job 1 runs at 2^40 - 1 and eats ⌈(2^40 - 1)·2^40 / 2^40⌉ = 2^40 - 1 of
  // axis 1, within C_1 = 2^41, though the product passes 64 bits. Its credit
  // falls one unit short: that is the first and only violation, with no
  // overuse reported for the wide product.
  const Res r = Res{1} << 40;
  const Instance inst(2, {2 * r, 2 * r},
                      {MultiJob{1, {r, r}}, MultiJob{1, {r, r}}});
  Schedule s;
  s.append(1, {Assignment{0, r}, Assignment{1, r - 1}});
  expect_first(inst, s, ViolationCode::kCreditMismatch);
  const ValidationReport report = validate_all(inst, s);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].detail,
            "job 1 credited 1099511627775 units, needs exactly "
            "1099511627776");
}

TEST(ValidatorReference, MakespanOf2To63Minus1) {
  // Idle steps up to the largest makespan: feasible, and the scan must not
  // step past 2^63 - 1 after the last block.
  Schedule idle;
  idle.append(kMax, {});
  EXPECT_TRUE(agree(Instance(2, 1, {}), idle).ok);
  Schedule late;
  late.append(kMax - 1, {});
  late.append(1, {Assignment{0, 1}});
  EXPECT_TRUE(agree(Instance(2, 1, {Job{1, 1}}), late).ok);
  Schedule bad;
  bad.append(kMax - 1, {});
  bad.append(1, {Assignment{0, 2}});
  const Instance one(2, 1, {Job{1, 1}});
  const ValidationReport report = validate_all(one, bad);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].step, kMax);
  expect_first(one, bad, ViolationCode::kShareAboveRequirement);
}

// ------------------------------------------------------- injection grid

/// One kind of injected violation: a name, the code validate_all must
/// report first, and a mutation that returns nullopt where the schedule
/// offers no place for it.
struct Injection {
  const char* name;
  ViolationCode code;
  std::optional<Blocks> (*inject)(const Instance&, const Blocks&);
};

std::optional<std::size_t> first_busy(const Blocks& blocks) {
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    if (!blocks[bi].assignments.empty()) return bi;
  }
  return std::nullopt;
}

Res full_share(const Instance& inst, JobId j) {
  return std::min(inst.job(j).requirement, inst.capacity());
}

/// Block index range [first, last] each job runs in (first > last: never).
std::vector<std::pair<std::size_t, std::size_t>> presence(
    const Instance& inst, const Blocks& blocks) {
  std::vector<std::pair<std::size_t, std::size_t>> span(
      inst.size(), {blocks.size(), 0});
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    for (const Assignment& a : blocks[bi].assignments) {
      span[a.job].first = std::min(span[a.job].first, bi);
      span[a.job].second = std::max(span[a.job].second, bi);
    }
  }
  return span;
}

/// Per-axis load of `block` plus a job at `extra` share (0: none).
std::vector<reference::Wide> loads(const Instance& inst, const Block& block,
                                   JobId extra_job, Res extra) {
  std::vector<reference::Wide> load(inst.resource_count(), 0);
  auto add = [&](JobId j, Res share) {
    const Res r0 = inst.job(j).requirement;
    load[0] += share;
    for (std::size_t k = 1; k < load.size(); ++k) {
      const reference::Wide eaten =
          static_cast<reference::Wide>(share) * inst.requirement(j, k);
      load[k] += (eaten + r0 - 1) / r0;
    }
  };
  for (const Assignment& a : block.assignments) add(a.job, a.share);
  if (extra > 0) add(extra_job, extra);
  return load;
}

/// Into the first block where that overuses an axis, add at full share a job
/// whose run ends just before the block or starts just after it, so the run
/// stays contiguous. `side_only` asks for axis 0 to still fit.
std::optional<Blocks> add_neighbour(const Instance& inst, const Blocks& blocks,
                                    bool side_only) {
  const auto span = presence(inst, blocks);
  const auto m = static_cast<std::size_t>(inst.machines());
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    if (blocks[bi].assignments.size() >= m) continue;
    for (JobId j = 0; j < inst.size(); ++j) {
      if (span[j].first > span[j].second) continue;
      const bool before = span[j].second + 1 == bi;
      const bool after = span[j].first == bi + 1;
      if (!before && !after) continue;
      const std::vector<reference::Wide> load =
          loads(inst, blocks[bi], j, full_share(inst, j));
      const bool primary = load[0] > inst.capacity();
      bool side = false;
      for (std::size_t k = 1; k < load.size(); ++k) {
        side = side || load[k] > inst.capacity(k);
      }
      if (side_only ? (side && !primary) : primary) {
        Blocks out = blocks;
        out[bi].assignments.push_back(Assignment{j, full_share(inst, j)});
        return out;
      }
    }
  }
  return std::nullopt;
}

/// Append one block that runs a job of the last block alone, at its full
/// share (at least `min_share`), for length(share, s_j) steps: the job's run
/// stays contiguous and only its credit changes.
std::optional<Blocks> extend_last(const Instance& inst, const Blocks& blocks,
                                  Res min_share, Time (*length)(Res, Res)) {
  if (blocks.empty()) return std::nullopt;
  Time makespan = 0;
  for (const Block& b : blocks) makespan += b.length;
  for (const Assignment& a : blocks.back().assignments) {
    const Res share = full_share(inst, a.job);
    if (share < min_share) continue;
    const Time len = length(share, inst.job(a.job).total_requirement());
    if (len > kMax - makespan) continue;
    Blocks out = blocks;
    out.push_back(Block{len, {Assignment{a.job, share}}});
    return out;
  }
  return std::nullopt;
}

/// Move `delta` units of one job's share from the second step of a block to
/// its first, where `delta` (0: none) breaks a rule. The job's credit and
/// every rule the move does not break still hold, so the scan has to catch
/// that very rule.
std::optional<Blocks> shift_share(
    const Instance& inst, const Blocks& blocks,
    Res (*delta)(const Instance&, const Block&, const Assignment&)) {
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    const Block& b = blocks[bi];
    if (b.length < 2) continue;
    for (std::size_t slot = 0; slot < b.assignments.size(); ++slot) {
      const Res d = delta(inst, b, b.assignments[slot]);
      if (d <= 0 || d >= b.assignments[slot].share) continue;
      Block first = b;
      Block second = b;
      first.length = 1;
      second.length = 1;
      first.assignments[slot].share += d;
      second.assignments[slot].share -= d;
      Blocks out = blocks;
      out[bi] = std::move(first);
      const auto next = out.begin() + static_cast<std::ptrdiff_t>(bi) + 1;
      if (b.length > 2) out.insert(next, Block{b.length - 2, b.assignments});
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(bi) + 1,
                 std::move(second));
      return out;
    }
  }
  return std::nullopt;
}

const Injection kInjections[] = {
    {"too_many_jobs", ViolationCode::kTooManyJobs,
     [](const Instance& inst, const Blocks& blocks) -> std::optional<Blocks> {
       const auto bi = first_busy(blocks);
       if (!bi) return std::nullopt;
       Blocks out = blocks;
       auto& as = out[*bi].assignments;
       while (as.size() <= static_cast<std::size_t>(inst.machines())) {
         as.push_back(as.front());
       }
       return out;
     }},
    {"invalid_job_id", ViolationCode::kInvalidJobId,
     [](const Instance& inst, const Blocks& blocks) -> std::optional<Blocks> {
       const auto bi = first_busy(blocks);
       if (!bi) return std::nullopt;
       Blocks out = blocks;
       out[*bi].assignments[0].job = inst.size();
       return out;
     }},
    {"non_positive_share", ViolationCode::kNonPositiveShare,
     [](const Instance&, const Blocks& blocks) -> std::optional<Blocks> {
       const auto bi = first_busy(blocks);
       if (!bi) return std::nullopt;
       Blocks out = blocks;
       out[*bi].assignments[0].share = 0;
       return out;
     }},
    {"share_above_requirement", ViolationCode::kShareAboveRequirement,
     [](const Instance& inst, const Blocks& blocks) -> std::optional<Blocks> {
       const auto bi = first_busy(blocks);
       if (!bi) return std::nullopt;
       Blocks out = blocks;
       Assignment& a = out[*bi].assignments[0];
       a.share = inst.job(a.job).requirement + 1;
       return out;
     }},
    {"share_above_capacity", ViolationCode::kShareAboveCapacity,
     [](const Instance& inst, const Blocks& blocks) -> std::optional<Blocks> {
       for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
         for (std::size_t slot = 0; slot < blocks[bi].assignments.size();
              ++slot) {
           if (inst.job(blocks[bi].assignments[slot].job).requirement >
               inst.capacity()) {
             Blocks out = blocks;
             out[bi].assignments[slot].share = inst.capacity() + 1;
             return out;
           }
         }
       }
       return std::nullopt;
     }},
    {"share_above_capacity_alone", ViolationCode::kShareAboveCapacity,
     [](const Instance& inst, const Blocks& blocks) -> std::optional<Blocks> {
       return shift_share(inst, blocks,
                          [](const Instance& in, const Block&,
                             const Assignment& a) -> Res {
                            const Res c = in.capacity();
                            return in.job(a.job).requirement > c
                                       ? c + 1 - a.share
                                       : 0;
                          });
     }},
    {"duplicate_job", ViolationCode::kDuplicateJob,
     [](const Instance& inst, const Blocks& blocks) -> std::optional<Blocks> {
       const auto bi = first_busy(blocks);
       if (!bi) return std::nullopt;
       Blocks out = blocks;
       auto& as = out[*bi].assignments;
       if (as.size() < static_cast<std::size_t>(inst.machines())) {
         as.push_back(as.front());
       } else if (as.size() >= 2) {
         as.back() = as.front();
       } else {
         return std::nullopt;
       }
       return out;
     }},
    {"preemption", ViolationCode::kPreemption,
     [](const Instance&, const Blocks& blocks) -> std::optional<Blocks> {
       // An idle step inside a run: between two blocks a job spans, or
       // after the first step of a block of length >= 2.
       for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
         const Block& b = blocks[bi];
         if (b.assignments.empty()) continue;
         Blocks out = blocks;
         if (b.length >= 2) {
           out[bi].length = 1;
           out.insert(out.begin() + static_cast<std::ptrdiff_t>(bi) + 1,
                      {Block{1, {}}, Block{b.length - 1, b.assignments}});
           return out;
         }
         if (bi + 1 == blocks.size()) continue;
         for (const Assignment& a : b.assignments) {
           for (const Assignment& next : blocks[bi + 1].assignments) {
             if (next.job != a.job) continue;
             out.insert(out.begin() + static_cast<std::ptrdiff_t>(bi) + 1,
                        Block{1, {}});
             return out;
           }
         }
       }
       return std::nullopt;
     }},
    {"resource_overuse", ViolationCode::kResourceOveruse,
     [](const Instance& inst, const Blocks& blocks) -> std::optional<Blocks> {
       // Raise one share to its full value where that breaks axis 0; else
       // bring in a neighbouring job.
       for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
         for (std::size_t slot = 0; slot < blocks[bi].assignments.size();
              ++slot) {
           Blocks out = blocks;
           Assignment& a = out[bi].assignments[slot];
           if (a.share == full_share(inst, a.job)) continue;
           a.share = full_share(inst, a.job);
           if (loads(inst, out[bi], 0, 0)[0] > inst.capacity()) return out;
         }
       }
       return add_neighbour(inst, blocks, /*side_only=*/false);
     }},
    {"resource_overuse_alone", ViolationCode::kResourceOveruse,
     [](const Instance& inst, const Blocks& blocks) -> std::optional<Blocks> {
       if (inst.resource_count() > 1) return std::nullopt;
       return shift_share(inst, blocks,
                          [](const Instance& in, const Block& b,
                             const Assignment& a) -> Res {
                            Res used = 0;
                            for (const Assignment& x : b.assignments) {
                              used += x.share;
                            }
                            const Res d = in.capacity() - used + 1;
                            return a.share + d <= full_share(in, a.job) ? d
                                                                        : 0;
                          });
     }},
    {"side_axis_overuse", ViolationCode::kResourceOveruse,
     [](const Instance& inst, const Blocks& blocks) -> std::optional<Blocks> {
       return add_neighbour(inst, blocks, /*side_only=*/true);
     }},
    {"credit_mismatch", ViolationCode::kCreditMismatch,
     [](const Instance& inst, const Blocks& blocks) -> std::optional<Blocks> {
       return extend_last(inst, blocks, 1, [](Res, Res) { return Time{1}; });
     }},
    {"credit_overflow_product", ViolationCode::kCreditOverflow,
     [](const Instance& inst, const Blocks& blocks) -> std::optional<Blocks> {
       // share · length passes 2^63 - 1 on its own.
       return extend_last(inst, blocks, 2, [](Res share, Res) {
         return kMax / share + 1;
       });
     }},
    {"credit_overflow_sum", ViolationCode::kCreditOverflow,
     [](const Instance& inst, const Blocks& blocks) -> std::optional<Blocks> {
       // share · length fits; added to the job's full credit s_j it does
       // not (share ≤ s_j).
       return extend_last(inst, blocks, 1, [](Res share, Res need) {
         return (kMax - need) / share + 1;
       });
     }},
};

struct GridCase {
  const batch::Solver* solver;
  std::string label;
  Instance instance;
};

std::vector<GridCase> grid() {
  std::vector<GridCase> cases;
  for (const batch::Solver& solver : batch::solvers()) {
    for (const std::uint64_t seed : {1u, 2u}) {
      if (solver.multi_resource) {
        for (const std::string& family : workloads::multires_families()) {
          for (const std::size_t d : {1u, 2u, 3u}) {
            workloads::MultiResConfig cfg;
            cfg.machines = 4;
            cfg.resources = d;
            cfg.capacity = 1000;
            cfg.jobs = 16;
            cfg.max_size = 3;
            cfg.seed = seed;
            cases.push_back(
                {&solver,
                 family + "/d" + std::to_string(d) + "/s" +
                     std::to_string(seed),
                 workloads::make_multires_instance(family, cfg)});
          }
        }
        continue;
      }
      for (const std::string& family : workloads::instance_families()) {
        workloads::SosConfig cfg;
        cfg.machines = 4;
        cfg.capacity = 1000;
        cfg.jobs = 16;
        cfg.max_size = solver.unit_only ? 1 : 3;
        cfg.seed = seed;
        cases.push_back({&solver, family + "/s" + std::to_string(seed),
                         workloads::make_instance(family, cfg)});
      }
    }
  }
  return cases;
}

TEST(ValidatorGrid, InjectedViolationsAgreeOnEverySolverAndFamily) {
  std::map<std::string, int> injected;
  for (const GridCase& c : grid()) {
    SCOPED_TRACE(std::string(c.solver->name) + " " + c.label);
    Schedule clean;
    EngineScratch engines;
    c.solver->solve(c.instance, clean, engines);
    ASSERT_TRUE(agree(c.instance, clean).ok);
    for (const Injection& injection : kInjections) {
      SCOPED_TRACE(injection.name);
      const std::optional<Blocks> bad =
          injection.inject(c.instance, clean.copy_blocks());
      if (!bad) continue;
      const Outcome got = agree(c.instance, build(*bad));
      ASSERT_TRUE(got.first.has_value());
      EXPECT_STREQ(to_string(*got.first), to_string(injection.code))
          << got.detail;
      if (injection.code == ViolationCode::kResourceOveruse) {
        // Which axis broke shows in the message.
        const bool side = got.detail.find("overuses resource ") !=
                          std::string::npos;
        EXPECT_EQ(side, std::string(injection.name) == "side_axis_overuse")
            << got.detail;
      }
      ++injected[std::string(c.solver->name) + "/" + injection.name];
      ++injected[injection.name];
    }
  }
  // Every kind lands somewhere, and every row takes every kind its
  // instances allow: share_above_capacity needs a job with r_j > C (not in
  // the rigid row's clamped families), side_axis_overuse needs d > 1, and
  // the two "_alone" kinds need a block of length ≥ 2 whose job can shift.
  for (const Injection& injection : kInjections) {
    EXPECT_GT(injected[injection.name], 0) << injection.name;
  }
  for (const batch::Solver& solver : batch::solvers()) {
    for (const Injection& injection : kInjections) {
      const std::string name = injection.name;
      if (name == "side_axis_overuse" || name.ends_with("_alone") ||
          (name == "share_above_capacity" && solver.multi_resource)) {
        continue;
      }
      EXPECT_GT(injected[std::string(solver.name) + "/" + name], 0)
          << solver.name << " " << name;
    }
  }
}

}  // namespace
}  // namespace sharedres::core
