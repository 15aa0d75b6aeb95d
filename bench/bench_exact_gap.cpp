// E8 — lower-bound tightness: on exhaustively solvable tiny instances,
// how close is the Eq. (1) bound to the true optimum, and how close does the
// approximation come to OPT (rather than to the bound)? Also compares the
// non-preemptive optimum with the preemptive relaxation (the bin-packing
// view), quantifying the "cost of non-preemption" the paper's Corollary 3.9
// argues is asymptotically negligible.
//
// Usage: bench_exact_gap [--instances=N] [--csv] [--json-dir=DIR]
#include "core/lower_bounds.hpp"
#include "core/sos_scheduler.hpp"
#include "exact/exact_sos.hpp"
#include "harness.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workloads/sos_generators.hpp"

int main(int argc, char** argv) {
  using namespace sharedres;
  const util::Cli cli(argc, argv);
  bench::Harness h(cli, "bench_exact_gap",
                   "E8 Eq. (1) tightness and true approximation ratios on "
                   "exhaustively solved tiny instances");
  const auto count = static_cast<std::uint64_t>(cli.get_int("instances", 60));

  util::Table table({"m", "solved", "LB=OPT", "OPT/LB_max", "alg/OPT_mean",
                     "alg/OPT_max", "preempt_gain_max"});
  for (const int m : {2, 3, 4}) {
    util::Summary opt_over_lb, alg_over_opt, preempt_gain;
    int lb_tight = 0;
    int solved = 0;
    for (std::uint64_t seed = 1; seed <= count; ++seed) {
      const core::Instance inst =
          workloads::tiny_grid_instance(m, 6, 6, 2, seed);
      const auto opt = exact::exact_makespan(inst);
      const auto pre = exact::exact_makespan_preemptive(inst);
      if (!opt || !pre) {
        h.fail("exact search exceeded its state budget at m=" +
               std::to_string(m) + " seed " + std::to_string(seed));
      }
      ++solved;
      const auto lb = core::lower_bounds(inst).combined();
      lb_tight += (lb == *opt);
      opt_over_lb.add(static_cast<double>(*opt) / static_cast<double>(lb));
      alg_over_opt.add(
          static_cast<double>(core::schedule_sos(inst).makespan()) /
          static_cast<double>(*opt));
      preempt_gain.add(static_cast<double>(*opt) /
                       static_cast<double>(*pre));
    }
    table.add(m, solved,
              util::fixed(static_cast<double>(lb_tight) /
                              static_cast<double>(solved),
                          3),
              util::fixed(opt_over_lb.max(), 3),
              util::fixed(alg_over_opt.mean(), 3),
              util::fixed(alg_over_opt.max(), 3),
              util::fixed(preempt_gain.max(), 3));
  }

  h.section(
      "E8  Eq. (1) tightness and true approximation ratios on exhaustively "
      "solved tiny instances");
  h.table(table);
  return h.finish();
}
