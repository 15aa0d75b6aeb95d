// Differential fuzz harness for the d-resource subsystem (DESIGN.md §16).
//
// Bytes are decoded into a small, always-valid d-resource instance
// (m ∈ [2,5], d ∈ {1,2,3}, C_k ∈ [1,32], n ≤ 10, sizes ≤ 3, requirements
// r_{j,k} ∈ [1, C_k] so the rigid facade accepts every decoded job). For
// each instance the harness cross-checks schedule_multires against three
// independent oracles:
//
//   * the validator: the emitted schedule must satisfy V1–V5 exactly,
//     including the per-axis V3 checks, by core::validate and by the
//     step-by-step reference (tests/validator_reference.hpp);
//   * the generalized lower bound: makespan ≥ lower_bounds(inst).combined();
//   * the engine contract: the stepwise (fast_forward = false) run must
//     produce the identical makespan and credit vector.
//
// The canonicalization layer rides the same input: canonicalize must be
// idempotent (same key, hash, unit scales on its own output) at every d —
// the property the d-resource solve-cache key depends on.
//
// The input is valid by construction, so NO exception may escape: a throw,
// an infeasible schedule, a makespan below the lower bound, or a canonical
// mismatch each abort() — that is the crash libFuzzer (or a corpus replay)
// reports.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "../tests/validator_reference.hpp"
#include "cache/canonical.hpp"
#include "core/instance.hpp"
#include "core/lower_bounds.hpp"
#include "core/multires_scheduler.hpp"
#include "core/validator.hpp"

namespace {

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "fuzz_multires: %s\n", what);
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  namespace core = sharedres::core;
  namespace cache = sharedres::cache;
  if (size < 2 + 3) return 0;

  const int machines = 2 + data[0] % 4;
  const std::size_t axes = 1 + data[1] % 3;
  std::vector<core::Res> capacities(axes);
  for (std::size_t k = 0; k < axes; ++k) {
    capacities[k] = 1 + data[2 + k] % 32;
  }
  std::vector<core::MultiJob> jobs;
  for (std::size_t i = 2 + axes; i + axes < size && jobs.size() < 10;
       i += 1 + axes) {
    core::MultiJob job;
    job.size = 1 + data[i] % 3;
    job.requirements.resize(axes);
    for (std::size_t k = 0; k < axes; ++k) {
      // Clamp into [1, C_k]: the rigid facade rejects over-capacity jobs
      // with a typed error, and this harness only feeds valid instances.
      job.requirements[k] = 1 + data[i + 1 + k] % capacities[k];
    }
    jobs.push_back(std::move(job));
  }
  const core::Instance inst(machines, std::move(capacities), std::move(jobs));

  const core::Schedule fast = core::schedule_multires(inst);
  const auto result = core::validate(inst, fast);
  if (!result.ok) {
    std::fprintf(stderr, "fuzz_multires: infeasible schedule: %s\n",
                 result.error.c_str());
    std::abort();
  }
  const auto verdict = core::reference::check(inst, fast);
  if (!verdict.ok) {
    std::fprintf(stderr, "fuzz_multires: the reference rejects: %s\n",
                 verdict.reason.c_str());
    std::abort();
  }
  const core::Time bound = core::lower_bounds(inst).combined();
  if (!inst.empty() && fast.makespan() < bound) {
    die("makespan below the combined lower bound");
  }

  const core::Schedule slow =
      core::schedule_multires(inst, {.fast_forward = false});
  if (slow.makespan() != fast.makespan()) {
    die("stepwise and fast-forward makespans diverge");
  }
  if (slow.credited(inst.size()) != fast.credited(inst.size())) {
    die("stepwise and fast-forward credit vectors diverge");
  }

  const cache::CanonicalForm form = cache::canonicalize(inst);
  const cache::CanonicalForm again = cache::canonicalize(form.instance());
  if (again.key != form.key) die("canonicalize is not idempotent (key)");
  if (again.hash != form.hash) die("canonicalize is not idempotent (hash)");
  if (again.scale != 1) die("canonical instance re-canonicalizes with scale != 1");
  for (const core::Res s : again.axis_scales) {
    if (s != 1) die("canonical instance has a non-unit axis scale");
  }
  return 0;
}
