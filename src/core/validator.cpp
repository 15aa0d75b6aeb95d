#include "core/validator.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/registry.hpp"
#include "util/checked.hpp"

namespace sharedres::core {

const char* to_string(ViolationCode code) {
  switch (code) {
    case ViolationCode::kNonPositiveBlockLength: return "non_positive_block_length";
    case ViolationCode::kTooManyJobs: return "too_many_jobs";
    case ViolationCode::kInvalidJobId: return "invalid_job_id";
    case ViolationCode::kNonPositiveShare: return "non_positive_share";
    case ViolationCode::kShareAboveRequirement: return "share_above_requirement";
    case ViolationCode::kShareAboveCapacity: return "share_above_capacity";
    case ViolationCode::kDuplicateJob: return "duplicate_job";
    case ViolationCode::kPreemption: return "preemption";
    case ViolationCode::kResourceOveruse: return "resource_overuse";
    case ViolationCode::kCreditMismatch: return "credit_mismatch";
    case ViolationCode::kCreditOverflow: return "credit_overflow";
  }
  return "?";
}

namespace {

/// Side-axis consumption ⌈share · r_{j,k} / r_{j,0}⌉ (validator.hpp V3) of a
/// positive share, in 128 bits: the product can pass 64 bits while the
/// consumption fits. It is at most r_{j,k} when share ≤ r_{j,0}.
util::i128 side_consumption(Res share, Res axis_requirement,
                            Res primary_requirement) {
  Res product = 0;
  if (!__builtin_mul_overflow(share, axis_requirement, &product)) {
    return util::ceil_div(product, primary_requirement);
  }
  return (static_cast<util::i128>(share) * axis_requirement +
          primary_requirement - 1) /
         primary_requirement;
}

/// Bounded violation sink shared by both validation modes.
class Sink {
 public:
  explicit Sink(std::size_t cap) : cap_(cap) {}

  /// Record a violation; returns false once the report is full (callers
  /// stop scanning — adversarial schedules cannot force unbounded output).
  bool add(Violation v) {
    out_.push_back(std::move(v));
    if (out_.size() < cap_) return true;
    truncated_ = true;
    return false;
  }

  [[nodiscard]] std::vector<Violation>& violations() { return out_; }
  [[nodiscard]] bool truncated() const { return truncated_; }

 private:
  std::size_t cap_;
  std::vector<Violation> out_;
  bool truncated_ = false;
};

/// One pass over the schedule, recording violations into `sink`. The scan
/// continues past defects (skipping only bookkeeping the defect makes
/// meaningless, e.g. credit for an invalid job id) so one run attributes
/// every independent problem. validate() stops it at the first.
///
/// validate() runs on every record `batch` and `serve` solve, and those
/// schedules are feasible, so the scan is written for that path: it
/// allocates only its per-job vector, tests overflow with
/// `__builtin_*_overflow` instead of catching util::OverflowError, and
/// marks every violation branch [[unlikely]], so the formatting code stays
/// out of the loop and its registers.
void scan(const Instance& instance, const Schedule& schedule, Sink& sink) {
  const std::size_t n = instance.size();
  const Res capacity = instance.capacity();
  const auto m = static_cast<std::size_t>(instance.machines());
  const std::size_t axes = instance.resource_count();
  const Res* requirement = instance.requirements().data();

  // Per job: the last block it ran in (kUnseen: none yet) and the units
  // credited so far, with a flag once that sum passes 64 bits.
  struct Track {
    std::size_t last_block;
    Res credit;
    bool overflowed;
  };
  constexpr std::size_t kUnseen = static_cast<std::size_t>(-1);
  std::vector<Track> track(n, Track{kUnseen, 0, false});

  const Schedule::BlockRange blocks = schedule.blocks();
  Time step = 1;  // 1-based first step of the current block
  std::size_t bi = 0;
  for (auto it = blocks.begin(); it != blocks.end(); ++it, ++bi) {
    const BlockView b = *it;
    if (b.length <= 0) [[unlikely]] {
      if (!sink.add({ViolationCode::kNonPositiveBlockLength, step, bi, kNoJob,
                     -1, "block with non-positive length"})) {
        return;
      }
    }
    if (b.assignments.size() > m) [[unlikely]] {
      std::ostringstream os;
      os << "block " << bi << " runs " << b.assignments.size() << " jobs > m="
         << m;
      if (!sink.add({ViolationCode::kTooManyJobs, step, bi, kNoJob, -1,
                     os.str()})) {
        return;
      }
    }
    // A share sum past 64 bits is flagged and reported as overuse below.
    Res used = 0;
    bool used_overflowed = false;
    for (const Assignment& a : b.assignments) {
      // The assignment's slot, wanted only by a violation: the loop keeps no
      // index of its own.
      const auto machine = [&] {
        return static_cast<int>(&a - b.assignments.data());
      };
      if (a.job >= n) [[unlikely]] {
        if (!sink.add({ViolationCode::kInvalidJobId, step, bi, kNoJob,
                       machine(), "assignment with invalid job id"})) {
          return;
        }
        continue;  // no job to attribute shares or credit to
      }
      const Res r = requirement[a.job];
      if (a.share <= 0) [[unlikely]] {
        if (!sink.add({ViolationCode::kNonPositiveShare, step, bi, a.job,
                       machine(), "assignment with non-positive share"})) {
          return;
        }
      }
      if (a.share > r) [[unlikely]] {
        std::ostringstream os;
        os << "job " << a.job << " granted share " << a.share
           << " above its requirement " << r;
        if (!sink.add({ViolationCode::kShareAboveRequirement, step, bi, a.job,
                       machine(), os.str()})) {
          return;
        }
      }
      if (a.share > capacity) [[unlikely]] {
        if (!sink.add({ViolationCode::kShareAboveCapacity, step, bi, a.job,
                       machine(), "share exceeds resource capacity"})) {
          return;
        }
      }
      if (__builtin_add_overflow(used, a.share, &used)) used_overflowed = true;

      // A job seen before may only have run in the previous block: the same
      // block is a duplicate, an earlier one a preemption.
      Track& t = track[a.job];
      if (t.last_block != kUnseen && t.last_block + 1 != bi) [[unlikely]] {
        std::ostringstream os;
        const bool twice = t.last_block == bi;
        if (twice) {
          os << "job " << a.job << " scheduled twice in block " << bi;
        } else {
          os << "job " << a.job << " preempted: runs in blocks "
             << t.last_block << " and " << bi << " but not in between";
        }
        if (!sink.add({twice ? ViolationCode::kDuplicateJob
                             : ViolationCode::kPreemption,
                       step, bi, a.job, machine(), os.str()})) {
          return;
        }
      }
      t.last_block = bi;
      Res gained = 0;
      if (__builtin_mul_overflow(a.share, b.length, &gained) ||
          __builtin_add_overflow(t.credit, gained, &t.credit)) {
        t.overflowed = true;
      }
    }
    if (used_overflowed || used > capacity) [[unlikely]] {
      std::ostringstream os;
      if (used_overflowed) {
        os << "block " << bi << " overuses the resource: share sum overflows "
           << "64 bits (capacity " << capacity << ")";
      } else {
        os << "block " << bi << " overuses the resource: " << used << " > "
           << capacity;
      }
      if (!sink.add({ViolationCode::kResourceOveruse, step, bi, kNoJob, -1,
                     os.str()})) {
        return;
      }
    }
    // Side axis k ≥ 1 of the d-resource generalization (V3), one pass over
    // the block per axis, so a d = 1 block pays nothing for it. Assignments
    // without a valid job or a positive share consume nothing.
    for (std::size_t k = 1; k < axes; ++k) {
      Res axis_used = 0;
      bool axis_overflowed = false;
      for (const Assignment& a : b.assignments) {
        if (a.job >= n || a.share <= 0) continue;
        const util::i128 eaten = side_consumption(
            a.share, instance.requirement(a.job, k), requirement[a.job]);
        if (eaten > std::numeric_limits<Res>::max() ||
            __builtin_add_overflow(axis_used, static_cast<Res>(eaten),
                                   &axis_used)) {
          axis_overflowed = true;
        }
      }
      if (axis_overflowed || axis_used > instance.capacity(k)) [[unlikely]] {
        std::ostringstream os;
        if (axis_overflowed) {
          os << "block " << bi << " overuses resource " << k
             << ": consumption overflows 64 bits (capacity "
             << instance.capacity(k) << ")";
        } else {
          os << "block " << bi << " overuses resource " << k << ": "
             << axis_used << " > " << instance.capacity(k);
        }
        if (!sink.add({ViolationCode::kResourceOveruse, step, bi, kNoJob, -1,
                       os.str()})) {
          return;
        }
      }
    }
    // No violation names the step after the last block, and 1 + makespan
    // does not fit when the makespan is 2^63 - 1.
    if (bi + 1 < blocks.size()) step += std::max<Time>(b.length, 0);
  }

  const Res* need = instance.total_requirements().data();
  for (JobId j = 0; j < n; ++j) {
    if (track[j].overflowed) [[unlikely]] {
      std::ostringstream os;
      os << "job " << j << " credit bookkeeping overflows 64 bits";
      if (!sink.add({ViolationCode::kCreditOverflow, 0,
                     static_cast<std::size_t>(-1), j, -1, os.str()})) {
        return;
      }
      continue;
    }
    if (track[j].credit != need[j]) [[unlikely]] {
      std::ostringstream os;
      os << "job " << j << " credited " << track[j].credit
         << " units, needs exactly " << need[j];
      if (!sink.add({ViolationCode::kCreditMismatch, 0,
                     static_cast<std::size_t>(-1), j, -1, os.str()})) {
        return;
      }
    }
  }
}

}  // namespace

ValidationResult validate(const Instance& instance, const Schedule& schedule) {
  SHAREDRES_OBS_COUNT("validator.runs");
  Sink sink(1);
  scan(instance, schedule, sink);
  if (sink.violations().empty()) return {};
  SHAREDRES_OBS_COUNT("validator.infeasible");
  return {false, std::move(sink.violations().front().detail)};
}

ValidationReport validate_all(const Instance& instance,
                              const Schedule& schedule,
                              std::size_t max_violations) {
  SHAREDRES_OBS_COUNT("validator.collect_all_runs");
  Sink sink(std::max<std::size_t>(max_violations, 1));
  scan(instance, schedule, sink);
  SHAREDRES_OBS_COUNT_N("validator.violations", sink.violations().size());
  if (sink.truncated()) SHAREDRES_OBS_COUNT("validator.truncations");
  return ValidationReport{std::move(sink.violations())};
}

util::Json to_json(const ValidationReport& report) {
  util::Json violations{util::Json::Array{}};
  for (const Violation& v : report.violations) {
    util::Json entry{util::Json::Object{}};
    entry.emplace("code", to_string(v.code));
    entry.emplace("step", v.step);
    entry.emplace("block", v.block == static_cast<std::size_t>(-1)
                               ? util::Json(nullptr)
                               : util::Json(static_cast<util::i64>(v.block)));
    entry.emplace("job", v.job == kNoJob
                             ? util::Json(nullptr)
                             : util::Json(static_cast<util::i64>(v.job)));
    entry.emplace("machine",
                  v.machine < 0 ? util::Json(nullptr) : util::Json(v.machine));
    entry.emplace("detail", v.detail);
    violations.push_back(std::move(entry));
  }
  util::Json doc{util::Json::Object{}};
  doc.emplace("ok", report.ok());
  doc.emplace("violation_count",
              static_cast<util::i64>(report.violations.size()));
  doc.emplace("violations", std::move(violations));
  return doc;
}

void validate_or_throw(const Instance& instance, const Schedule& schedule) {
  const ValidationResult r = validate(instance, schedule);
  if (!r.ok) throw std::logic_error("invalid schedule: " + r.error);
}

}  // namespace sharedres::core
