// E9 — the price of fixed assignment: the paper's model (Section 1.2's
// predecessor [3]) fixes jobs to processors; Section 3's contribution is to
// optimize the assignment too. This bench quantifies the gap: fixed greedy
// vs the free-assignment sliding window on the same job sets, plus the
// fixed greedy's true ratio against the exact fixed optimum on tiny
// instances.
//
// Usage: bench_fixedassign [--seeds=K] [--csv] [--json-dir=DIR]
#include "core/lower_bounds.hpp"
#include "core/sos_scheduler.hpp"
#include "exact/exact_fixed.hpp"
#include "fixedassign/fixed_model.hpp"
#include "fixedassign/fixed_scheduler.hpp"
#include "harness.hpp"
#include "util/cli.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace sharedres;

fixedassign::FixedInstance random_fixed(std::size_t machines,
                                        std::size_t max_queue, core::Res cap,
                                        core::Res max_req, double skew,
                                        std::uint64_t seed) {
  util::Rng rng(seed);
  fixedassign::FixedInstance inst;
  inst.capacity = cap;
  inst.queues.resize(machines);
  for (std::size_t i = 0; i < machines; ++i) {
    // skew > 0 piles more work on low-index queues.
    const double factor = 1.0 + skew * static_cast<double>(machines - 1 - i);
    const auto jobs = static_cast<std::size_t>(rng.uniform_int(
        1, std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                         factor * static_cast<double>(
                                                      max_queue) /
                                         2.0))));
    for (std::size_t j = 0; j < jobs; ++j) {
      inst.queues[i].push_back(rng.uniform_int(1, max_req));
    }
  }
  return inst;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  sharedres::bench::Harness h(
      cli, "bench_fixedassign",
      "E9 price of fixed assignment ([3] model vs Section 3)");
  const auto seeds = static_cast<std::uint64_t>(cli.get_int("seeds", 10));

  util::Table table(
      {"workload", "m", "fixed/LB", "free/LB", "free_vs_fixed"});
  struct Row {
    const char* name;
    double skew;
  };
  for (const Row row : {Row{"balanced", 0.0}, Row{"skewed", 0.6}}) {
    for (const std::size_t m : {4u, 8u, 16u}) {
      util::Summary fixed_ratio, free_ratio, improvement;
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        const auto inst = random_fixed(m, 12, 100'000, 60'000, row.skew, seed);
        // Each variant is measured against its own valid lower bound: the
        // fixed bound includes per-queue serialization, which the free
        // relaxation is allowed to break.
        const auto fixed_lb =
            static_cast<double>(fixedassign::fixed_lower_bound(inst));
        const core::Instance relaxed = fixedassign::relax_to_sos(inst);
        const auto free_lb = static_cast<double>(
            core::lower_bounds(relaxed).combined());
        const auto fixed = static_cast<double>(
            fixedassign::schedule_fixed_greedy(inst).makespan());
        const auto free_assign =
            static_cast<double>(core::schedule_sos_unit(relaxed).makespan());
        fixed_ratio.add(fixed / fixed_lb);
        free_ratio.add(free_assign / free_lb);
        improvement.add(fixed / free_assign);
      }
      table.add(row.name, m, util::fixed(fixed_ratio.mean()),
                util::fixed(free_ratio.mean()),
                util::fixed(improvement.mean()));
    }
  }
  h.section("E9  Price of fixed assignment ([3] model vs Section 3)");
  h.table(table);

  // Tiny instances: greedy vs exact fixed optimum.
  util::Table tiny({"m", "solved", "greedy/OPT_mean", "greedy/OPT_max"});
  for (const std::size_t m : {2u, 3u}) {
    util::Summary ratio;
    int solved = 0;
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      const auto inst = random_fixed(m, 3, 6, 8, 0.0, seed + 500);
      const auto opt = exact::exact_fixed_makespan(inst);
      if (!opt) {
        h.fail("exact search exceeded its state budget at m=" +
               std::to_string(m) + " seed " + std::to_string(seed));
      }
      ++solved;
      ratio.add(static_cast<double>(
                    fixedassign::schedule_fixed_greedy(inst).makespan()) /
                static_cast<double>(*opt));
    }
    tiny.add(m, solved, util::fixed(ratio.mean()), util::fixed(ratio.max()));
  }
  h.section(
      "Tiny instances vs exact fixed optimum ([3] prove 2-1/m for their "
      "greedy):");
  h.table(tiny);
  return h.finish();
}
