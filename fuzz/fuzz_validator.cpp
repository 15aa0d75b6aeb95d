// Differential fuzz harness for the schedule validator.
//
// Bytes are decoded into a small instance (m ∈ [1,4], d ∈ {1,2,3}, n ≤ 8,
// capacities ∈ [1,32], sizes ≤ 3, requirements ≤ 48 so some exceed their
// capacity; a flag multiplies every requirement and capacity by 2^53, where
// side-axis products pass 64 bits) and a schedule, built one of two ways:
//
//   * raw: blocks straight from the bytes — any job ids (out of range
//     included), shares from 0 and -1 through r_j ± 1 and C + 1 to 2^62,
//     2^63 - 1 and -2^63, lengths from 1 to 2^62;
//   * engine: a row of batch::solvers() solves the instance, then
//     byte-driven mutations nudge shares, lengths and job ids, drop, copy
//     or add assignments and insert idle or extra blocks.
//
// The step-by-step reference (tests/validator_reference.hpp) is the
// oracle: core::validate and core::validate_all must give its verdict on
// every schedule, and validate()'s message must be validate_all()'s first
// detail. A schedule too long to expand (the 2^62-scale lengths) skips the
// reference and keeps the rest.
//
// Instances the constructor rejects (overflowing totals), rows whose
// preconditions the instance fails, and mutations that take the makespan
// past 2^63 - 1 are skipped: each is a typed rejection, not a finding.
// Anything else escaping, or any disagreement, aborts — that is the crash
// libFuzzer (or a corpus replay) reports.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "../tests/validator_reference.hpp"
#include "batch/solver.hpp"
#include "core/engine_scratch.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/validator.hpp"
#include "util/checked.hpp"
#include "util/error.hpp"

namespace {

namespace core = sharedres::core;
using core::Res;
using core::Time;

constexpr Res kMax = std::numeric_limits<Res>::max();
constexpr std::int64_t kReferenceCells = std::int64_t{1} << 16;

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "fuzz_validator: %s\n", what.c_str());
  std::abort();
}

/// Reads the input front to back; past the end every byte is 0.
class Bytes {
 public:
  Bytes(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  bool more() const { return pos_ < size_; }
  std::uint8_t next() { return pos_ < size_ ? data_[pos_++] : 0; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

Time length_of(unsigned b) {
  static constexpr Time kLengths[] = {
      1, 1, 2, 3, 5, std::int64_t{1} << 31, std::int64_t{1} << 62,
      kMax / 2 + 1};
  return kLengths[b % std::size(kLengths)];
}

Res share_of(const core::Instance& inst, core::JobId job, unsigned b) {
  const Res r = job < inst.size() ? inst.job(job).requirement : 1;
  const Res c = inst.capacity();
  switch (b % 12) {
    case 0: return 0;
    case 1: return -1;
    case 2: return 1;
    case 3: return r - 1;
    case 4: case 5: return r;
    case 6: return r + 1;
    case 7: return c;
    case 8: return c + 1;
    case 9: return std::int64_t{1} << 62;
    case 10: return kMax;
    default: return std::numeric_limits<Res>::min();
  }
}

core::JobId job_of(const core::Instance& inst, unsigned b) {
  if (b == 255) return core::kNoJob;
  return b % (inst.size() + 2);
}

std::vector<core::Block> raw_blocks(const core::Instance& inst, Bytes& in) {
  std::vector<core::Block> blocks;
  const auto m = static_cast<std::size_t>(inst.machines());
  while (in.more() && blocks.size() < 16) {
    const std::uint8_t head = in.next();
    core::Block block;
    block.length = length_of(head);
    const std::size_t count = (head / 8u) % (m + 2);
    for (std::size_t i = 0; i < count; ++i) {
      const core::JobId job = job_of(inst, in.next());
      block.assignments.push_back({job, share_of(inst, job, in.next())});
    }
    blocks.push_back(std::move(block));
  }
  return blocks;
}

void mutate(const core::Instance& inst, std::vector<core::Block>& blocks,
            Bytes& in) {
  while (in.more() && !blocks.empty()) {
    const std::uint8_t op = in.next();
    core::Block& block = blocks[in.next() % blocks.size()];
    const std::uint8_t arg = in.next();
    auto& as = block.assignments;
    core::Assignment* slot = as.empty() ? nullptr : &as[arg % as.size()];
    switch (op % 8) {
      case 0:  // nudge a share by ±1 (wrapping at the ends)
        if (slot) {
          (void)__builtin_add_overflow(slot->share, (arg & 1) != 0 ? 1 : -1,
                                       &slot->share);
        }
        break;
      case 1:  // a share from the table
        if (slot) slot->share = share_of(inst, slot->job, arg / 4u);
        break;
      case 2:  // another job id
        if (slot) slot->job = job_of(inst, arg / 4u);
        break;
      case 3:  // a new length
        block.length = arg % 2 == 0 ? 1 + arg % 5 : length_of(arg / 2u);
        break;
      case 4:  // drop an assignment
        if (slot) as.erase(as.begin() + (slot - as.data()));
        break;
      case 5:  // copy an assignment (a duplicate, maybe one too many)
        if (slot) as.push_back(*slot);
        break;
      case 6: {  // add any job at its full share
        const core::JobId job = job_of(inst, arg);
        as.push_back({job, share_of(inst, job, 4)});
        break;
      }
      default: {  // insert an idle block or a copy of this one
        const auto at = blocks.begin() + (&block - blocks.data());
        core::Block extra{1 + arg % 3, {}};
        if (arg % 2 != 0) extra.assignments = as;
        blocks.insert(at, std::move(extra));
        break;
      }
    }
  }
}

void compare(const core::Instance& inst, const core::Schedule& schedule) {
  const core::ValidationResult first = core::validate(inst, schedule);
  const core::ValidationReport all = core::validate_all(inst, schedule);
  if (first.ok != all.ok() ||
      (!first.ok && first.error != all.violations[0].detail)) {
    die("validate does not report validate_all's first violation: '" +
        first.error + "'");
  }
  if (!sharedres::core::reference::expandable(schedule, kReferenceCells)) {
    return;
  }
  const auto verdict = sharedres::core::reference::check(inst, schedule);
  if (verdict.ok != first.ok) {
    die("the reference says " + std::string(verdict.ok ? "ok" : "no") +
        " (" + verdict.reason + "), validate says " +
        (first.ok ? "ok" : "no (" + first.error + ")"));
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 3) return 0;
  Bytes in(data, size);
  const std::uint8_t flags = in.next();
  const std::size_t axes = 1 + flags % 3;
  const bool engine = (flags / 3) % 2 != 0;
  const Res scale = (flags / 6) % 2 != 0 ? Res{1} << 53 : 1;
  const int machines = 1 + in.next() % 4;

  std::vector<Res> capacities(axes);
  for (Res& c : capacities) c = (1 + in.next() % 32) * scale;
  std::vector<core::MultiJob> jobs(static_cast<std::size_t>(in.next() % 9));
  for (core::MultiJob& job : jobs) {
    job.size = 1 + in.next() % 3;
    for (std::size_t k = 0; k < axes; ++k) {
      Res r = 1 + in.next() % 48;
      // The rigid d > 1 row takes only jobs that fit every axis.
      if (engine && axes > 1) r = 1 + (r - 1) % (capacities[k] / scale);
      job.requirements.push_back(r * scale);
    }
  }

  try {
    const core::Instance inst(machines, capacities, std::move(jobs));
    std::vector<core::Block> blocks;
    if (engine) {
      const auto rows = sharedres::batch::solvers();
      const auto& row =
          axes > 1 ? *sharedres::batch::find_solver("multires")
                   : rows[in.next() % rows.size()];
      row.check(inst);
      core::Schedule solved;
      core::EngineScratch engines;
      row.solve(inst, solved, engines);
      if (!core::validate(inst, solved).ok) die("a solver's schedule fails");
      blocks = solved.copy_blocks();
      mutate(inst, blocks, in);
    } else {
      blocks = raw_blocks(inst, in);
    }
    core::Schedule schedule;
    for (const core::Block& block : blocks) {
      if (block.length <= 0) continue;  // append() takes positive lengths
      schedule.append(block.length, block.assignments);
    }
    compare(inst, schedule);
  } catch (const sharedres::util::Error&) {
    // a row's precondition, or an instance the constructor rejects
  } catch (const sharedres::util::OverflowError&) {
    // totals or a makespan past 2^63 - 1
  }
  return 0;
}
