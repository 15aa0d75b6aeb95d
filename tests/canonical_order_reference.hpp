// Reference for core::Instance's canonical job order, shared by
// tests/test_core_model.cpp and fuzz/fuzz_canonical.cpp.
//
// The classic constructor computes the order through packed u64 keys, a
// byte radix and a sorted-input skip (instance.hpp). This is the plain
// definition: an index std::stable_sort with the (r, p) comparator. The two
// must agree on every input.
#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include "core/job.hpp"

namespace sharedres::core::reference {

/// Caller indices of `jobs` in ascending (r, p) order, caller order on full
/// ties.
inline std::vector<std::size_t> canonical_order(const std::vector<Job>& jobs) {
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (jobs[a].requirement != jobs[b].requirement) {
                       return jobs[a].requirement < jobs[b].requirement;
                     }
                     return jobs[a].size < jobs[b].size;
                   });
  return order;
}

}  // namespace sharedres::core::reference
