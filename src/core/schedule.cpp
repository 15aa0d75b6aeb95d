#include "core/schedule.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/registry.hpp"

namespace sharedres::core {

void Schedule::append(Time length, std::span<const Assignment> assignments) {
  if (length <= 0) throw std::invalid_argument("Schedule::append: length <= 0");
  // Checked before anything changes, so an OverflowError leaves the schedule
  // as it was.
  const Time end = util::add_checked(makespan(), length);
  SHAREDRES_OBS_COUNT("schedule.blocks_appended");
  if (!heads_.empty() &&
      std::ranges::equal(blocks().back().assignments, assignments)) {
    heads_.back().end_step = end;
    SHAREDRES_OBS_COUNT("schedule.block_merges");
    return;
  }
  assignments_.insert(assignments_.end(), assignments.begin(),
                      assignments.end());
  // A head that cannot be stored takes its assignments back out, so a
  // failed append leaves the schedule as it was.
  try {
    heads_.push_back(Head{end, assignments_.size()});
  } catch (...) {
    assignments_.resize(assignments_.size() - assignments.size());
    throw;
  }
}

void Schedule::rollback(const Mark& m) {
  if (m.blocks > heads_.size() || m.assignments > assignments_.size()) {
    throw std::invalid_argument("Schedule::rollback: mark is from the future");
  }
  SHAREDRES_OBS_COUNT("schedule.rollbacks");
  SHAREDRES_OBS_COUNT_N("schedule.rollback_blocks_discarded",
                        heads_.size() - m.blocks);
  heads_.resize(m.blocks);
  assignments_.resize(m.assignments);
  if (!heads_.empty()) heads_.back().end_step = m.last_end;
}

std::vector<Block> Schedule::copy_blocks() const {
  std::vector<Block> out;
  out.reserve(heads_.size());
  for (const BlockView b : blocks()) {
    out.push_back(
        Block{b.length, {b.assignments.begin(), b.assignments.end()}});
  }
  return out;
}

void Schedule::for_each_block(
    const std::function<void(Time, BlockView)>& fn) const {
  Time t = 1;
  for (const BlockView b : blocks()) {
    fn(t, b);
    t += b.length;
  }
}

void Schedule::for_each_step(
    const std::function<void(Time, std::span<const Assignment>)>& fn) const {
  Time t = 1;
  for (const BlockView b : blocks()) {
    for (Time i = 0; i < b.length; ++i, ++t) fn(t, b.assignments);
  }
}

std::vector<Res> Schedule::credited(std::size_t num_jobs) const {
  std::vector<Res> total(num_jobs, 0);
  for (const BlockView b : blocks()) {
    for (const Assignment& a : b.assignments) {
      if (a.job >= num_jobs) {
        throw std::out_of_range("Schedule::credited: job id out of range");
      }
      total[a.job] = util::add_checked(
          total[a.job], util::mul_checked(a.share, b.length));
    }
  }
  return total;
}

}  // namespace sharedres::core
