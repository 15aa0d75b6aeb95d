#include "core/schedule.hpp"

#include <stdexcept>

#include "obs/registry.hpp"

namespace sharedres::core {

void Schedule::append(Time length, std::vector<Assignment> assignments) {
  if (length <= 0) throw std::invalid_argument("Schedule::append: length <= 0");
  // Checked before anything changes, so an OverflowError leaves the schedule
  // as it was. A merged block is never longer than the new makespan, so its
  // length fits whenever the makespan does.
  const Time makespan = util::add_checked(makespan_, length);
  SHAREDRES_OBS_COUNT("schedule.blocks_appended");
  if (!blocks_.empty() && blocks_.back().assignments == assignments) {
    blocks_.back().length += length;
    SHAREDRES_OBS_COUNT("schedule.block_merges");
  } else {
    blocks_.push_back(Block{length, std::move(assignments)});
  }
  makespan_ = makespan;
}

Schedule::Mark Schedule::mark() const {
  return {blocks_.size(), makespan_,
          blocks_.empty() ? Time{0} : blocks_.back().length};
}

void Schedule::rollback(const Mark& m) {
  if (m.blocks > blocks_.size()) {
    throw std::invalid_argument("Schedule::rollback: mark is from the future");
  }
  SHAREDRES_OBS_COUNT("schedule.rollbacks");
  SHAREDRES_OBS_COUNT_N("schedule.rollback_blocks_discarded",
                        blocks_.size() - m.blocks);
  blocks_.resize(m.blocks);
  if (!blocks_.empty()) blocks_.back().length = m.last_length;
  makespan_ = m.makespan;
}

void Schedule::for_each_block(
    const std::function<void(Time, const Block&)>& fn) const {
  Time t = 1;
  for (const Block& b : blocks_) {
    fn(t, b);
    t += b.length;
  }
}

void Schedule::for_each_step(
    const std::function<void(Time, std::span<const Assignment>)>& fn) const {
  Time t = 1;
  for (const Block& b : blocks_) {
    for (Time i = 0; i < b.length; ++i, ++t) {
      fn(t, std::span<const Assignment>(b.assignments));
    }
  }
}

std::vector<Res> Schedule::credited(std::size_t num_jobs) const {
  std::vector<Res> total(num_jobs, 0);
  for (const Block& b : blocks_) {
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
