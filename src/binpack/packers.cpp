#include "binpack/packers.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/instance.hpp"
#include "core/sos_scheduler.hpp"

namespace sharedres::binpack {

Packing sliding_window_packing(const PackingInstance& instance) {
  instance.validate_input();
  if (instance.cardinality < 2) {
    throw std::invalid_argument("sliding_window_packing requires k >= 2");
  }
  // Items become unit-size jobs with r_j = w_i; bins become time steps.
  std::vector<core::Job> jobs;
  jobs.reserve(instance.items.size());
  for (const Res w : instance.items) jobs.push_back(core::Job{1, w});
  const core::Instance sos(instance.cardinality, instance.capacity,
                           std::move(jobs));
  const core::Schedule schedule = core::schedule_sos_unit(sos);

  Packing packing;
  packing.bins.reserve(static_cast<std::size_t>(schedule.makespan()));
  for (const core::BlockView block : schedule.blocks()) {
    std::vector<ItemPart> bin;
    bin.reserve(block.assignments.size());
    for (const core::Assignment& a : block.assignments) {
      bin.push_back(ItemPart{sos.original_id(a.job), a.share});
    }
    for (core::Time i = 0; i < block.length; ++i) packing.bins.push_back(bin);
  }
  return packing;
}

Packing next_fit_packing(const PackingInstance& instance,
                         bool sort_decreasing) {
  instance.validate_input();
  std::vector<std::size_t> order(instance.items.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (sort_decreasing) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return instance.items[a] > instance.items[b];
                     });
  }

  Packing packing;
  std::vector<ItemPart> bin;
  Res space = instance.capacity;
  const auto k = static_cast<std::size_t>(instance.cardinality);
  auto close_bin = [&] {
    packing.bins.push_back(std::move(bin));
    bin.clear();
    space = instance.capacity;
  };

  for (const std::size_t item : order) {
    Res left = instance.items[item];
    while (left > 0) {
      if (bin.size() >= k || space == 0) close_bin();
      const Res put = std::min(left, space);
      bin.push_back(ItemPart{item, put});
      space -= put;
      left -= put;
    }
  }
  if (!bin.empty()) close_bin();
  return packing;
}

Packing pairing_packing(const PackingInstance& instance) {
  instance.validate_input();
  if (instance.cardinality != 2) {
    throw std::invalid_argument("pairing_packing requires k = 2");
  }
  // Items sorted by size; two cursors, largest-first with smallest top-up.
  std::vector<std::size_t> order(instance.items.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return instance.items[a] < instance.items[b];
                   });
  std::vector<Res> left(instance.items);

  Packing packing;
  std::size_t lo = 0;
  std::size_t hi = order.size();
  while (lo < hi) {
    const std::size_t big = order[hi - 1];
    if (left[big] == 0) {
      --hi;
      continue;
    }
    std::vector<ItemPart> bin;
    const Res part = std::min(left[big], instance.capacity);
    bin.push_back(ItemPart{big, part});
    left[big] -= part;
    Res space = instance.capacity - part;
    if (left[big] == 0) --hi;
    // Top up with the smallest remaining item (skip the big one itself).
    while (space > 0 && lo < hi) {
      const std::size_t small = order[lo];
      if (left[small] == 0 || small == big) {
        ++lo;
        continue;
      }
      const Res put = std::min(left[small], space);
      bin.push_back(ItemPart{small, put});
      left[small] -= put;
      space -= put;
      if (left[small] == 0) ++lo;
      break;  // cardinality 2: at most one top-up part
    }
    packing.bins.push_back(std::move(bin));
  }
  return packing;
}

Packing first_fit_decreasing_packing(const PackingInstance& instance) {
  instance.validate_input();
  std::vector<std::size_t> order(instance.items.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return instance.items[a] > instance.items[b];
                   });

  Packing packing;
  std::vector<Res> space;  // free capacity per open bin
  const auto k = static_cast<std::size_t>(instance.cardinality);

  for (const std::size_t item : order) {
    Res left = instance.items[item];
    // First fit: walk existing bins; open new ones for the remainder.
    for (std::size_t b = 0; b < packing.bins.size() && left > 0; ++b) {
      if (space[b] == 0 || packing.bins[b].size() >= k) continue;
      const Res put = std::min(left, space[b]);
      packing.bins[b].push_back(ItemPart{item, put});
      space[b] -= put;
      left -= put;
    }
    while (left > 0) {
      const Res put = std::min(left, instance.capacity);
      packing.bins.push_back({ItemPart{item, put}});
      space.push_back(instance.capacity - put);
      left -= put;
    }
  }
  return packing;
}

double sliding_window_ratio_bound(int cardinality) {
  if (cardinality < 2) {
    throw std::invalid_argument("sliding_window_ratio_bound requires k >= 2");
  }
  return 1.0 + 1.0 / static_cast<double>(cardinality - 1);
}

}  // namespace sharedres::binpack
