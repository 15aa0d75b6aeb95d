// Differential fuzz harness for the scheduling engines.
//
// Bytes are decoded into a small, always-valid instance (m ∈ [2,5],
// C ∈ [1,64], n ≤ 12, sizes ≤ 4, requirements ≤ 96) — small enough that
// makespans stay tiny, large enough to hit every window/case branch. For
// each instance the harness cross-checks schedule_sos (and, when all sizes
// are 1, schedule_sos_unit) against two independent oracles:
//
//   * the validator: the emitted schedule must satisfy V1–V5 exactly, by
//     core::validate and by the step-by-step reference
//     (tests/validator_reference.hpp);
//   * the lower bound: makespan ≥ lower_bounds(inst).combined().
//
// schedule_improved runs through the same two oracles plus a third,
// differential one: the portfolio picks the best of its candidates, so its
// makespan may never exceed schedule_sos's on the same instance. Its
// stepwise/fast-forward identity is checked too (the balanced engine's
// absorber makes that path qualitatively different from the SoS window
// engine's — see core/improved_engine.hpp).
//
// The input is valid by construction, so NO exception may escape: a throw,
// an infeasible schedule, or a makespan below the lower bound each abort()
// — that is the crash libFuzzer (or a corpus replay) reports.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "../tests/validator_reference.hpp"
#include "core/improved_scheduler.hpp"
#include "core/instance.hpp"
#include "core/lower_bounds.hpp"
#include "core/sos_scheduler.hpp"
#include "core/validator.hpp"

namespace {

[[noreturn]] void die(const char* engine, const char* what) {
  std::fprintf(stderr, "fuzz_engine: %s: %s\n", engine, what);
  std::abort();
}

void cross_check(const char* engine, const sharedres::core::Instance& inst,
                 const sharedres::core::Schedule& sched,
                 sharedres::core::Time lower_bound) {
  const auto result = sharedres::core::validate(inst, sched);
  if (!result.ok) {
    std::fprintf(stderr, "fuzz_engine: %s: infeasible schedule: %s\n", engine,
                 result.error.c_str());
    std::abort();
  }
  const auto verdict = sharedres::core::reference::check(inst, sched);
  if (!verdict.ok) {
    std::fprintf(stderr, "fuzz_engine: %s: the reference rejects: %s\n",
                 engine, verdict.reason.c_str());
    std::abort();
  }
  if (!inst.empty() && sched.makespan() < lower_bound) {
    die(engine, "makespan below the combined lower bound");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  namespace core = sharedres::core;
  if (size < 2) return 0;

  const int machines = 2 + data[0] % 4;
  const core::Res capacity = 1 + data[1] % 64;
  std::vector<core::Job> jobs;
  bool unit = true;
  for (std::size_t i = 2; i + 1 < size && jobs.size() < 12; i += 2) {
    const core::Res job_size = 1 + data[i] % 4;
    const core::Res requirement = 1 + data[i + 1] % 96;
    if (job_size != 1) unit = false;
    jobs.push_back(core::Job{job_size, requirement});
  }
  const core::Instance inst(machines, capacity, std::move(jobs));
  const core::Time bound = core::lower_bounds(inst).combined();

  const core::Schedule sos = core::schedule_sos(inst);
  cross_check("sos", inst, sos, bound);
  // The fast-forwarded and stepwise forms promise identical schedules.
  core::SosOptions stepwise;
  stepwise.fast_forward = false;
  if (core::schedule_sos(inst, stepwise) != sos) {
    die("sos", "fast-forward and stepwise schedules differ");
  }
  if (unit) {
    cross_check("unit", inst, core::schedule_sos_unit(inst), bound);
  }

  const core::Schedule improved = core::schedule_improved(inst);
  cross_check("improved", inst, improved, bound);
  if (improved.makespan() > sos.makespan()) {
    die("improved", "portfolio makespan exceeds schedule_sos");
  }
  core::ImprovedOptions improved_stepwise;
  improved_stepwise.fast_forward = false;
  if (core::schedule_improved(inst, improved_stepwise) != improved) {
    die("improved", "fast-forward and stepwise schedules differ");
  }
  return 0;
}
