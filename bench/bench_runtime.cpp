// E3 — running time: Theorem 3.3 claims O((m+n)·n) for the fast-forward
// implementation. Sweeps n and m for the general and the unit-size engines,
// the stepwise reference on small inputs, and the front-accumulation
// adversarial workload from DESIGN.md §4 (the worst case for the unit
// engine's window-walk maintenance — the workload the resumable cursor
// exists for). Every cell is timed --reps times; the table and the JSON
// artifact report min/median and jobs-per-second throughput.
//
// Usage: bench_runtime [--max-n=N] [--adversarial-n=N] [--parallel-n=N]
//                      [--reps=K] [--csv] [--json-dir=DIR]
//   --max-n          cap on the sweep sizes (default 256000); CI smoke runs
//                    pass a small cap so the bench finishes in seconds
//   --adversarial-n  size of the front-accumulation case (default 256000)
//   --parallel-n     size of the E14 heavy-regime unit-engine cells
//                    (default 0 = section skipped, keeping the default
//                    invocation's label set — and with it the checked-in CI
//                    baseline — unchanged)
#include <iostream>
#include <string>

#include "core/engine_scratch.hpp"
#include "core/sos_scheduler.hpp"
#include "harness.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workloads/sos_generators.hpp"

namespace {

using namespace sharedres;

core::Instance instance_for(std::size_t n, int m, core::Res max_size,
                            std::uint64_t seed) {
  workloads::SosConfig cfg;
  cfg.machines = m;
  cfg.capacity = 1'000'000;
  cfg.jobs = n;
  cfg.max_size = max_size;
  cfg.seed = seed;
  return workloads::uniform_instance(cfg);
}

std::string cell_label(const char* engine, std::size_t n, int m) {
  return std::string(engine) + "/n=" + std::to_string(n) +
         "/m=" + std::to_string(m);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  bench::Harness h(cli, "bench_runtime",
                   "E3 running time of the sliding-window engines "
                   "(Theorem 3.3: O((m+n)n))");
  const auto max_n = static_cast<std::size_t>(cli.get_int("max-n", 256'000));
  const auto adv_n =
      static_cast<std::size_t>(cli.get_int("adversarial-n", 256'000));
  const auto reps = static_cast<std::size_t>(cli.get_int("reps", 3));

  const std::size_t sizes[] = {1'000, 4'000, 16'000, 64'000, 256'000};
  const int machine_counts[] = {4, 16, 64};

  // Makespans accumulate into the table, which keeps the timed calls
  // observable (nothing for the optimizer to delete).
  h.section(
      "E3  Fast-forward engine runtimes (general sizes / unit sizes), "
      "median of --reps");
  util::Table grid({"engine", "n", "m", "min_ms", "median_ms", "jobs_per_s",
                    "makespan"});
  for (const std::size_t n : sizes) {
    if (n > max_n) continue;
    for (const int m : machine_counts) {
      {
        const core::Instance inst = instance_for(n, m, 5, 42);
        core::Time span = 0;
        const bench::Timing t = h.measure(
            cell_label("sos", n, m), reps,
            [&] { span = core::schedule_sos(inst).makespan(); },
            static_cast<double>(n));
        grid.add("sos", n, m, util::fixed(t.seconds_min * 1e3, 3),
                 util::fixed(t.seconds_median * 1e3, 3),
                 util::fixed(t.items_per_second, 0), span);
      }
      {
        const core::Instance inst = instance_for(n, m, 1, 43);
        core::Time span = 0;
        const bench::Timing t = h.measure(
            cell_label("unit", n, m), reps,
            [&] { span = core::schedule_sos_unit(inst).makespan(); },
            static_cast<double>(n));
        grid.add("unit", n, m, util::fixed(t.seconds_min * 1e3, 3),
                 util::fixed(t.seconds_median * 1e3, 3),
                 util::fixed(t.items_per_second, 0), span);
      }
    }
  }
  h.table(grid);

  // Stepwise reference: one block per time step, no fast-forward — only
  // feasible on small inputs (makespan-many steps).
  h.section("Stepwise reference engine (no fast-forward), small n, m = 8");
  util::Table stepwise({"n", "min_ms", "median_ms", "makespan"});
  for (const std::size_t n : {500u, 1'000u, 2'000u}) {
    if (n > max_n) continue;
    const core::Instance inst = instance_for(n, 8, 3, 44);
    core::Time span = 0;
    const bench::Timing t = h.measure(
        cell_label("stepwise", n, 8), reps,
        [&] { span = core::schedule_sos(inst, {.fast_forward = false})
                         .makespan(); });
    stepwise.add(n, util::fixed(t.seconds_min * 1e3, 3),
                 util::fixed(t.seconds_median * 1e3, 3), span);
  }
  h.table(stepwise);

  // The DESIGN.md §4 adversarial workload: every m-window is light, every
  // step completes its whole window, so a restart-from-head window walk
  // degenerates to O(n²/m) total work. The unit engine's resumable cursor
  // keeps this linear; this cell is the perf-regression canary for it.
  h.section(
      "Front-accumulation adversarial workload (DESIGN.md §4), unit engine, "
      "m = 4");
  util::Table adv({"n", "m", "min_ms", "median_ms", "jobs_per_s",
                   "makespan"});
  {
    workloads::SosConfig cfg;
    cfg.machines = 4;
    cfg.capacity = 1'000'000;
    cfg.jobs = adv_n;
    cfg.seed = 42;
    const core::Instance inst = workloads::front_accumulation_instance(cfg);
    core::Time span = 0;
    const bench::Timing t = h.measure(
        cell_label("unit_front_accumulation", adv_n, 4), reps,
        [&] { span = core::schedule_sos_unit(inst).makespan(); },
        static_cast<double>(adv_n));
    adv.add(adv_n, 4, util::fixed(t.seconds_min * 1e3, 3),
            util::fixed(t.seconds_median * 1e3, 3),
            util::fixed(t.items_per_second, 0), span);
  }
  h.table(adv);

  // E14 — the unit engine's prefix scan (core/unit_engine.hpp) against its
  // stepwise walk on the heavy prefix regime: m = 512, r_j uniform on
  // [0.002, 0.004]·C, so the 512 smallest r_j already sum past C and every
  // fast-forward run takes the scan. No r_j reaches C, so the stepwise walk
  // emits the fast-forward walk's blocks one for one. The schedules are
  // asserted equal before any timing is reported — a fast wrong answer must
  // fail the bench, not set a baseline.
  const auto par_n = static_cast<std::size_t>(cli.get_int("parallel-n", 0));
  if (par_n > 0) {
    h.section(
        "E14  Unit engine, prefix scan vs stepwise walk, heavy regime "
        "(m = 512, r ∈ [0.002, 0.004]·C)");
    workloads::SosConfig cfg;
    cfg.machines = 512;
    cfg.capacity = 1'000'000;
    cfg.jobs = par_n;
    cfg.max_size = 1;
    cfg.seed = 7;
    const core::Instance inst = workloads::uniform_instance(cfg, 0.002, 0.004);

    if (!(core::schedule_sos_unit(inst) ==
          core::schedule_sos_unit(inst, {.fast_forward = false}))) {
      std::cerr << "bench_runtime: the prefix scan's schedule differs from "
                   "the stepwise walk's\n";
      return 1;
    }
    util::Table e14({"engine", "n", "min_ms", "median_ms", "jobs_per_s",
                     "speedup_vs_walk"});
    // Both rows reuse one engine scratch and one output schedule across
    // reps, as a batch worker does: a fresh 16 MB schedule per rep would
    // time the allocator's first-touch page faults, not the engine.
    core::EngineScratch engines;
    core::Schedule out;
    double walk_min = 0.0;
    for (const bool prefix : {false, true}) {
      const char* engine = prefix ? "unit_prefix" : "unit_walk";
      const core::SosOptions options{.fast_forward = prefix};
      const bench::Timing t = h.measure(
          cell_label(engine, par_n, 512), reps,
          [&] { core::schedule_sos_unit(inst, out, engines, options); },
          static_cast<double>(par_n));
      if (!prefix) walk_min = t.seconds_min;
      e14.add(engine, par_n, util::fixed(t.seconds_min * 1e3, 3),
              util::fixed(t.seconds_median * 1e3, 3),
              util::fixed(t.items_per_second, 0),
              util::fixed(walk_min / t.seconds_min, 2));
    }
    h.table(e14);
  }

  return h.finish();
}
