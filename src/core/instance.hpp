// An SoS problem instance: m processors, d shared resources, n jobs.
#pragma once

#include <vector>

#include "core/job.hpp"
#include "core/types.hpp"

namespace sharedres::core {

/// Upper bound on the resource dimension d. Generous for the VM-packing
/// workloads (CPU+RAM+bandwidth+... rarely exceeds a handful of axes) while
/// keeping the per-axis state O(d·n) trivially bounded against adversarial
/// input.
inline constexpr std::size_t kMaxResources = 8;

/// A job of the d-resource generalization (after Maack/Pukrop/Rau, arXiv
/// 2210.01523): processing volume p plus one requirement per resource axis.
/// requirements[0] is the PRIMARY axis — progress is credited in its units,
/// exactly like the 1-resource model; axes 1..d-1 are side constraints
/// consumed proportionally (see validator.hpp V3).
struct MultiJob {
  Res size = 1;                   ///< p_j ≥ 1
  std::vector<Res> requirements;  ///< r_{j,k} ≥ 1 for k = 0..d-1
};

/// Immutable instance. Jobs are stored sorted by the canonical total order —
/// non-decreasing primary requirement (the paper's WLOG r_1 ≤ … ≤ r_n), ties
/// broken by non-decreasing size, then lexicographically by the secondary
/// requirement axes — so any permutation of the same job multiset normalizes
/// to the same job sequence (the invariance the solve cache in src/cache
/// relies on); `original_id(j)` recovers the caller's ordering. At d = 1 the
/// order (and the whole layout) is bit-compatible with the historical
/// 1-resource instance.
///
/// The classic constructor computes that order in linear time. Input that is
/// already in order (every decoded canonical form is) is kept as it is.
/// Otherwise each job becomes one u64 key (r << (bp+bi)) | (p << bi) | index,
/// with bp and bi the bit widths of the largest p and of n - 1; the index
/// makes keys unique, so sorting them gives exactly the stable order. Up to
/// 64 jobs std::sort orders the keys, above that an LSD radix over the bytes
/// the keys use (a byte equal in every key is skipped). Keys wider than 64
/// bits (r or p near 2^62) fall back to an index std::stable_sort with the
/// (r, p) comparator, which is also the tests' reference. The d-resource
/// constructor always uses its comparator sort.
///
/// `capacity()` is the per-step budget C of the primary resource in integer
/// units; a job requirement of r units corresponds to the paper's
/// r_j = r / C, so requirements above C model jobs that can never run at
/// full efficiency (r_j > 1 in the paper's normalization, as allowed by the
/// bin-packing view). `capacity(k)` / `axis_requirements(k)` expose the
/// additional axes of the d-resource generalization.
class Instance {
 public:
  /// Validates and normalizes. Throws util::Error (code kInvalidInstance)
  /// on: m < 1, capacity < 1, any job with size < 1 or requirement < 1; an
  /// empty job list is allowed (trivial instance). Totals are computed with
  /// checked arithmetic, so adversarial magnitudes surface as
  /// util::OverflowError instead of wrapping.
  Instance(int machines, Res capacity, std::vector<Job> jobs);

  /// d-resource constructor: one capacity per axis, one requirement vector
  /// per job (every vector exactly capacities.size() long). Additionally
  /// throws kInvalidInstance on: no axes, more than kMaxResources axes, any
  /// capacity < 1, a requirement vector of the wrong length, any
  /// requirement < 1. With a single axis this is exactly the classic
  /// constructor.
  Instance(int machines, std::vector<Res> capacities,
           std::vector<MultiJob> jobs);

  [[nodiscard]] int machines() const { return machines_; }
  /// Primary-axis capacity C = capacity(0).
  [[nodiscard]] Res capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return jobs_.size(); }
  [[nodiscard]] bool empty() const { return jobs_.empty(); }

  // ---- d-resource views ----

  /// Number of resource axes d ≥ 1 (1 for every classic instance).
  [[nodiscard]] std::size_t resource_count() const { return resource_count_; }
  /// Per-axis capacities, size d; capacities()[0] == capacity().
  [[nodiscard]] const std::vector<Res>& capacities() const {
    return capacities_;
  }
  /// Capacity of axis k; requires k < resource_count().
  [[nodiscard]] Res capacity(std::size_t k) const { return capacities_[k]; }
  /// Contiguous per-sorted-job requirements of axis k (axis 0 aliases
  /// requirements()); requires k < resource_count().
  [[nodiscard]] const Res* axis_requirements(std::size_t k) const {
    return k == 0 ? requirements_.data()
                  : extra_requirements_.data() + (k - 1) * jobs_.size();
  }
  /// r_{j,k} for sorted job j on axis k.
  [[nodiscard]] Res requirement(JobId j, std::size_t k) const {
    return axis_requirements(k)[j];
  }
  /// Σ_j p_j · r_{j,k} for axis k (checked at construction);
  /// axis_total_requirement(0) == total_requirement().
  [[nodiscard]] Res axis_total_requirement(std::size_t k) const {
    return axis_totals_[k];
  }

  /// Jobs sorted by non-decreasing (primary) requirement.
  [[nodiscard]] const std::vector<Job>& jobs() const { return jobs_; }
  [[nodiscard]] const Job& job(JobId j) const { return jobs_[j]; }

  // ---- structure-of-arrays views (engine hot paths) ----
  //
  // The engines' window maintenance walks jobs by the thousands per step;
  // reading one 8-byte field out of a contiguous array instead of a 16-byte
  // Job struct halves the cache traffic and lets the per-window accumulation
  // loops auto-vectorize. Built once at construction, same index space as
  // jobs(); requirements()[j] == job(j).requirement etc.

  /// r_j per sorted job, contiguous (the primary axis).
  [[nodiscard]] const std::vector<Res>& requirements() const {
    return requirements_;
  }
  /// p_j per sorted job, contiguous.
  [[nodiscard]] const std::vector<Res>& sizes() const { return sizes_; }
  /// s_j = p_j · r_j per sorted job, contiguous (checked at construction).
  [[nodiscard]] const std::vector<Res>& total_requirements() const {
    return total_requirements_;
  }

  /// Prefix sums over requirements(): element i is Σ_{j<i} r_j, size n+1.
  /// Σ r_j over the contiguous sorted range [lo, hi) is a two-load O(1)
  /// query: requirement_prefix()[hi] - requirement_prefix()[lo].
  [[nodiscard]] const std::vector<Res>& requirement_prefix() const {
    return requirement_prefix_;
  }
  /// Prefix sums over total_requirements(): element i is Σ_{j<i} s_j.
  [[nodiscard]] const std::vector<Res>& total_requirement_prefix() const {
    return total_requirement_prefix_;
  }
  /// Σ r_j over sorted jobs [lo, hi); requires lo ≤ hi ≤ size().
  [[nodiscard]] Res requirement_range(std::size_t lo, std::size_t hi) const {
    return requirement_prefix_[hi] - requirement_prefix_[lo];
  }
  /// Σ s_j over sorted jobs [lo, hi); requires lo ≤ hi ≤ size().
  [[nodiscard]] Res total_requirement_range(std::size_t lo,
                                            std::size_t hi) const {
    return total_requirement_prefix_[hi] - total_requirement_prefix_[lo];
  }

  /// Index of sorted job j in the constructor's job vector.
  [[nodiscard]] std::size_t original_id(JobId j) const { return original_[j]; }

  /// Σ_j s_j — total primary-resource requirement of the instance (checked).
  [[nodiscard]] Res total_requirement() const { return total_requirement_; }
  /// Σ_j p_j — total processing volume (checked).
  [[nodiscard]] Res total_size() const { return total_size_; }
  /// True iff every job has p_j = 1.
  [[nodiscard]] bool unit_size() const { return unit_size_; }

 private:
  /// Totals + SoA/prefix construction shared by both constructors; runs after
  /// jobs_ is sorted. Fills total_requirement_, total_size_, unit_size_ and
  /// every primary-axis array.
  void build_primary_arrays();

  int machines_;
  Res capacity_;
  std::vector<Job> jobs_;
  std::vector<std::size_t> original_;
  std::vector<Res> requirements_;
  std::vector<Res> sizes_;
  std::vector<Res> total_requirements_;
  std::vector<Res> requirement_prefix_;        // size n+1
  std::vector<Res> total_requirement_prefix_;  // size n+1
  Res total_requirement_ = 0;
  Res total_size_ = 0;
  bool unit_size_ = true;

  // d-resource state; the classic constructor leaves extra_requirements_
  // empty and capacities_/axis_totals_ as one-element vectors.
  std::size_t resource_count_ = 1;
  std::vector<Res> capacities_;         // size d
  std::vector<Res> extra_requirements_; // axis-major, (d-1)·n entries
  std::vector<Res> axis_totals_;        // size d, Σ_j p_j · r_{j,k}
};

}  // namespace sharedres::core
