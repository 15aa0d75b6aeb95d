#include "core/instance.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "util/error.hpp"

namespace sharedres::core {

namespace {

/// Up to this many jobs the packed keys are sorted with std::sort; above it
/// with the byte radix below. Chosen by measurement: on 24–64-job requests
/// the radix's fixed histogram work made Instance construction ~20% slower,
/// while at 400 jobs it sorts in about a quarter of std::sort's time.
constexpr std::size_t kComparisonSortMaxJobs = 64;

unsigned bit_width(std::uint64_t v) {
  return static_cast<unsigned>(std::bit_width(v));
}

/// The canonical (r, p) comparator.
bool canonical_less(const Job& a, const Job& b) {
  if (a.requirement != b.requirement) return a.requirement < b.requirement;
  return a.size < b.size;
}

/// The order as defined: an index stable sort with the (r, p) comparator.
/// Used when packed keys would not fit in 64 bits.
void comparator_order(const std::vector<Job>& jobs,
                      std::vector<std::size_t>& order) {
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return canonical_less(jobs[a], jobs[b]);
                   });
}

/// LSD radix sort of `keys` on their low `bytes` bytes, one pass per byte.
/// A byte that is equal in every key moves nothing, so its pass is skipped.
void radix_sort(std::vector<std::uint64_t>& keys, unsigned bytes) {
  const std::size_t n = keys.size();
  std::array<std::array<std::size_t, 256>, 8> counts{};
  for (const std::uint64_t key : keys) {
    for (unsigned b = 0; b < bytes; ++b) ++counts[b][(key >> (8 * b)) & 0xff];
  }
  std::vector<std::uint64_t> buffer(n);
  for (unsigned b = 0; b < bytes; ++b) {
    std::array<std::size_t, 256>& slot = counts[b];
    if (slot[(keys[0] >> (8 * b)) & 0xff] == n) continue;
    std::size_t next = 0;
    for (std::size_t& c : slot) next += std::exchange(c, next);
    for (const std::uint64_t key : keys) {
      buffer[slot[(key >> (8 * b)) & 0xff]++] = key;
    }
    keys.swap(buffer);
  }
}

/// The canonical order through packed keys (r << (bp+bi)) | (p << bi) | j,
/// where bp, bi and the width of r are the bit widths of the largest p, of
/// n - 1 and of the largest r. The index makes every key unique, so any sort
/// of the keys is exactly the stable order. `r_bits` and `p_bits` are the OR
/// of all r and of all p (same bit width as the maxima). Requires n ≥ 2.
/// Returns false, leaving `order` untouched, when a key would need more than
/// 64 bits.
bool packed_order(const std::vector<Job>& jobs, std::uint64_t r_bits,
                  std::uint64_t p_bits, std::vector<std::size_t>& order) {
  const std::size_t n = jobs.size();
  const unsigned bi = bit_width(n - 1);
  const unsigned bp = bit_width(p_bits);
  const unsigned width = bit_width(r_bits) + bp + bi;
  if (width > 64) return false;
  std::vector<std::uint64_t> keys(n);
  for (std::size_t j = 0; j < n; ++j) {
    keys[j] = (static_cast<std::uint64_t>(jobs[j].requirement) << (bp + bi)) |
              (static_cast<std::uint64_t>(jobs[j].size) << bi) | j;
  }
  if (n <= kComparisonSortMaxJobs) {
    std::sort(keys.begin(), keys.end());
  } else {
    radix_sort(keys, (width + 7) / 8);
  }
  const std::uint64_t index_mask = (std::uint64_t{1} << bi) - 1;
  for (std::size_t j = 0; j < n; ++j) {
    order[j] = static_cast<std::size_t>(keys[j] & index_mask);
  }
  return true;
}

}  // namespace

Instance::Instance(int machines, Res capacity, std::vector<Job> jobs)
    : machines_(machines), capacity_(capacity), jobs_(std::move(jobs)) {
  if (machines_ < 1) throw util::Error::invalid_instance("machines < 1");
  if (capacity_ < 1) throw util::Error::invalid_instance("capacity < 1");
  std::uint64_t r_bits = 0;
  std::uint64_t p_bits = 0;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (jobs_[j].size < 1) {
      throw util::Error::invalid_instance("job " + std::to_string(j) +
                                          ": size < 1");
    }
    if (jobs_[j].requirement < 1) {
      throw util::Error::invalid_instance("job " + std::to_string(j) +
                                          ": requirement < 1");
    }
    r_bits |= static_cast<std::uint64_t>(jobs_[j].requirement);
    p_bits |= static_cast<std::uint64_t>(jobs_[j].size);
  }

  // Stable sort by the canonical total order (requirement, then size): two
  // instances over the same job multiset normalize to the same job sequence,
  // so every engine sees permutation-equivalent inputs identically — the
  // invariance the solve cache (src/cache) keys on. Full (r, p) ties are
  // interchangeable jobs; keeping the caller's relative order among them
  // makes generator output (and therefore experiments) deterministic. How
  // the order is computed is in the class comment (instance.hpp).
  original_.resize(jobs_.size());
  // Every decoded canonical form (cache::CanonicalForm) is already in order.
  if (std::is_sorted(jobs_.begin(), jobs_.end(), canonical_less)) {
    std::iota(original_.begin(), original_.end(), std::size_t{0});
  } else {
    if (!packed_order(jobs_, r_bits, p_bits, original_)) {
      comparator_order(jobs_, original_);
    }
    std::vector<Job> sorted;
    sorted.reserve(jobs_.size());
    for (const std::size_t idx : original_) sorted.push_back(jobs_[idx]);
    jobs_ = std::move(sorted);
  }

  build_primary_arrays();
  capacities_ = {capacity_};
  axis_totals_ = {total_requirement_};
}

Instance::Instance(int machines, std::vector<Res> capacities,
                   std::vector<MultiJob> jobs)
    : machines_(machines) {
  const std::size_t d = capacities.size();
  if (machines_ < 1) throw util::Error::invalid_instance("machines < 1");
  if (d < 1) {
    throw util::Error::invalid_instance("no resources: capacities is empty");
  }
  if (d > kMaxResources) {
    throw util::Error::invalid_instance(
        "resource count " + std::to_string(d) + " exceeds the supported "
        "maximum of " + std::to_string(kMaxResources));
  }
  for (std::size_t k = 0; k < d; ++k) {
    if (capacities[k] < 1) {
      throw util::Error::invalid_instance("resource " + std::to_string(k) +
                                          ": capacity < 1");
    }
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (jobs[j].size < 1) {
      throw util::Error::invalid_instance("job " + std::to_string(j) +
                                          ": size < 1");
    }
    if (jobs[j].requirements.size() != d) {
      throw util::Error::invalid_instance(
          "job " + std::to_string(j) + ": expected " + std::to_string(d) +
          " requirements, got " + std::to_string(jobs[j].requirements.size()));
    }
    for (std::size_t k = 0; k < d; ++k) {
      if (jobs[j].requirements[k] < 1) {
        throw util::Error::invalid_instance(
            "job " + std::to_string(j) + ": requirement for resource " +
            std::to_string(k) + " < 1");
      }
    }
  }

  // Canonical total order, extended for d axes: (r_0, p, r_1, …, r_{d-1})
  // lexicographic, stable. At d = 1 this is exactly the classic comparator,
  // so single-axis MultiJob instances are bit-identical to classic ones; the
  // secondary-axis tie-break keeps job-permutation invariance exact for the
  // solve cache at d > 1 (full-key ties are fully identical rows).
  const std::size_t n = jobs.size();
  original_.resize(n);
  std::iota(original_.begin(), original_.end(), std::size_t{0});
  std::stable_sort(original_.begin(), original_.end(),
                   [&](std::size_t a, std::size_t b) {
                     const MultiJob& ja = jobs[a];
                     const MultiJob& jb = jobs[b];
                     if (ja.requirements[0] != jb.requirements[0]) {
                       return ja.requirements[0] < jb.requirements[0];
                     }
                     if (ja.size != jb.size) return ja.size < jb.size;
                     for (std::size_t k = 1; k < d; ++k) {
                       if (ja.requirements[k] != jb.requirements[k]) {
                         return ja.requirements[k] < jb.requirements[k];
                       }
                     }
                     return false;
                   });

  jobs_.reserve(n);
  for (const std::size_t idx : original_) {
    jobs_.push_back(Job{jobs[idx].size, jobs[idx].requirements[0]});
  }
  extra_requirements_.resize((d - 1) * n);
  for (std::size_t k = 1; k < d; ++k) {
    Res* column = extra_requirements_.data() + (k - 1) * n;
    for (std::size_t j = 0; j < n; ++j) {
      column[j] = jobs[original_[j]].requirements[k];
    }
  }

  capacity_ = capacities[0];
  resource_count_ = d;
  capacities_ = std::move(capacities);

  build_primary_arrays();
  axis_totals_.assign(d, 0);
  axis_totals_[0] = total_requirement_;
  for (std::size_t k = 1; k < d; ++k) {
    const Res* column = axis_requirements(k);
    for (std::size_t j = 0; j < n; ++j) {
      axis_totals_[k] = util::add_checked(
          axis_totals_[k], util::mul_checked(sizes_[j], column[j]));
    }
  }
}

void Instance::build_primary_arrays() {
  for (const Job& j : jobs_) {
    total_requirement_ =
        util::add_checked(total_requirement_, j.total_requirement());
    total_size_ = util::add_checked(total_size_, j.size);
    unit_size_ = unit_size_ && j.size == 1;
  }

  // SoA mirrors of the sorted job array, built once so the engines' window
  // scans read contiguous 8-byte lanes (instance.hpp). The checked total
  // above bounds every s_j, so the products cannot overflow here.
  const std::size_t n = jobs_.size();
  requirements_.resize(n);
  sizes_.resize(n);
  total_requirements_.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    requirements_[j] = jobs_[j].requirement;
    sizes_[j] = jobs_[j].size;
    total_requirements_[j] = jobs_[j].requirement * jobs_[j].size;
  }
}

}  // namespace sharedres::core
