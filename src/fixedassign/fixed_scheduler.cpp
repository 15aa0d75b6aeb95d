#include "fixedassign/fixed_scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace sharedres::fixedassign {

namespace {

struct Cursor {
  std::size_t head = 0;  // index into the queue
  Res rem = 0;           // remaining requirement of the current job
};

/// Advance cursors past finished jobs; returns false when everything done.
bool load_heads(const FixedInstance& inst, std::vector<Cursor>& cur) {
  bool any = false;
  for (std::size_t i = 0; i < inst.machines(); ++i) {
    if (cur[i].rem == 0 && cur[i].head < inst.queues[i].size()) {
      cur[i].rem = inst.queues[i][cur[i].head];
    }
    any = any || cur[i].rem > 0;
  }
  return any;
}

}  // namespace

FixedSchedule schedule_fixed_greedy(const FixedInstance& instance) {
  instance.validate_input();
  const std::size_t m = instance.machines();
  std::vector<Cursor> cur(m);

  FixedSchedule schedule;
  while (load_heads(instance, cur)) {
    std::vector<std::size_t> active;
    for (std::size_t i = 0; i < m; ++i) {
      if (cur[i].rem > 0) active.push_back(i);
    }
    std::sort(active.begin(), active.end(), [&](std::size_t a, std::size_t b) {
      return cur[a].rem != cur[b].rem ? cur[a].rem < cur[b].rem : a < b;
    });

    std::vector<Res> step(m, 0);
    Res left = instance.capacity;
    std::size_t in_flight = 0;  // started-but-unfinished after this step

    // Pass 1: a started job must progress every step — reserve one unit.
    for (std::size_t i = 0; i < m; ++i) {
      const bool started =
          cur[i].rem > 0 && cur[i].rem != instance.queues[i][cur[i].head];
      if (started) {
        if (left == 0) {
          throw std::logic_error(
              "fixed greedy: cannot sustain all started jobs");
        }
        step[i] = 1;
        --left;
      }
    }
    // Pass 2: top up by least remaining requirement. An unstarted head is
    // only touched if it can finish this step or the in-flight budget
    // (one unit per open job per future step) permits leaving it open.
    bool any_progress = false;
    for (const std::size_t i : active) {
      const Res cap = std::min(cur[i].rem, instance.capacity);
      const Res extra = std::min(cap - step[i], left);
      const bool was_started = step[i] > 0;
      const Res total = step[i] + extra;
      if (!was_started && total > 0 && total < cur[i].rem && any_progress &&
          static_cast<Res>(in_flight) + 1 >= instance.capacity) {
        continue;  // starting it would overcommit future steps
      }
      step[i] = total;
      left -= extra;
      any_progress = any_progress || step[i] > 0;
      if (step[i] > 0 && step[i] < cur[i].rem) ++in_flight;
    }

    for (std::size_t i = 0; i < m; ++i) {
      cur[i].rem -= step[i];
      if (cur[i].rem == 0 && step[i] > 0) ++cur[i].head;
    }
    schedule.shares.push_back(std::move(step));
  }
  return schedule;
}

}  // namespace sharedres::fixedassign
