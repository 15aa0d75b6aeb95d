#include "core/lower_bounds.hpp"

#include <algorithm>

namespace sharedres::core {

Time LowerBounds::combined() const {
  return std::max({resource, volume, longest_job});
}

util::Rational LowerBounds::combined_exact() const {
  return std::max({resource_exact, volume_exact,
                   util::Rational(longest_job)});
}

LowerBounds lower_bounds(const Instance& instance) {
  LowerBounds lb;
  const Res capacity = instance.capacity();
  const auto m = static_cast<Res>(instance.machines());

  lb.resource = util::ceil_div(instance.total_requirement(), capacity);
  lb.volume = util::ceil_div(instance.total_size(), m);
  lb.resource_exact = util::Rational(instance.total_requirement(), capacity);
  lb.volume_exact = util::Rational(instance.total_size(), m);

  // A job with r_j ≤ C runs at its full requirement and needs exactly p_j
  // steps; only one with r_j > C needs the division ⌈s_j / C⌉.
  const std::vector<Res>& requirements = instance.requirements();
  const std::vector<Res>& sizes = instance.sizes();
  const std::vector<Res>& totals = instance.total_requirements();
  for (std::size_t j = 0; j < instance.size(); ++j) {
    lb.longest_job = std::max(lb.longest_job,
                              requirements[j] <= capacity
                                  ? sizes[j]
                                  : util::ceil_div(totals[j], capacity));
  }

  // d-resource generalization: every axis yields the same two bound shapes
  // (validator.hpp V3 — a job consumes ≥ share · r_{j,k} / r_{j,0} of axis k
  // per step, so over a whole schedule axis k must deliver Σ_j p_j · r_{j,k}
  // at ≤ C_k per step, and one job's per-step axis-k intake is capped by
  // min(r_{j,k}, C_k)). The maxima over axes are still valid lower bounds,
  // and the k = 0 terms are exactly the classic values, so at d = 1 nothing
  // below runs and the bounds reduce to the 1-resource ones. A job with
  // r_{j,k} ≤ C_k adds p_j, which the primary axis already counted.
  for (std::size_t k = 1; k < instance.resource_count(); ++k) {
    const Res axis_total = instance.axis_total_requirement(k);
    const Res axis_cap = instance.capacity(k);
    lb.resource = std::max(lb.resource, util::ceil_div(axis_total, axis_cap));
    lb.resource_exact =
        std::max(lb.resource_exact, util::Rational(axis_total, axis_cap));
    const Res* reqs = instance.axis_requirements(k);
    for (std::size_t j = 0; j < instance.size(); ++j) {
      if (reqs[j] <= axis_cap) continue;
      lb.longest_job = std::max(
          lb.longest_job,
          util::ceil_div(util::mul_checked(sizes[j], reqs[j]), axis_cap));
    }
  }
  return lb;
}

}  // namespace sharedres::core
