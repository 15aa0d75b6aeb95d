// E4 — Corollary 3.9: splittable bin packing with cardinality constraint k.
// The sliding-window packer (asymptotic 1 + 1/(k−1)) against NextFit,
// NextFit-Decreasing, the k=2 pairing heuristic, the combined lower bound,
// and exact optima on tiny instances. The interesting shape: as k grows the
// window packer's overhead vanishes (1/(k−1) → 0) while NextFit keeps a
// constant-factor gap on cardinality-bound workloads.
//
// Usage: bench_binpack [--items=N] [--seeds=K] [--csv] [--json-dir=DIR]
#include "binpack/packers.hpp"
#include "exact/exact_sos.hpp"
#include "harness.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workloads/binpack_generators.hpp"

int main(int argc, char** argv) {
  using namespace sharedres;
  const util::Cli cli(argc, argv);
  bench::Harness h(cli, "bench_binpack",
                   "E4 splittable bin packing with cardinality constraints "
                   "(Corollary 3.9)");
  const auto items = static_cast<std::size_t>(cli.get_int("items", 300));
  const auto seeds = static_cast<std::uint64_t>(cli.get_int("seeds", 5));

  struct Family {
    const char* name;
    binpack::PackingInstance (*make)(const workloads::PackConfig&);
  };
  const Family families[] = {
      {"uniform",
       [](const workloads::PackConfig& cfg) {
         return workloads::uniform_items(cfg);
       }},
      {"router",
       [](const workloads::PackConfig& cfg) {
         return workloads::router_tables(cfg);
       }},
      {"trap",
       [](const workloads::PackConfig& cfg) {
         // items counts groups of k here; normalize the total item count.
         auto c = cfg;
         c.items = cfg.items / static_cast<std::size_t>(cfg.cardinality);
         return workloads::cardinality_trap_items(c);
       }},
      {"halfplus",
       [](const workloads::PackConfig& cfg) {
         return workloads::half_plus_epsilon_items(cfg);
       }},
  };

  util::Table table({"family", "k", "window/LB", "nextfit/LB", "nfd/LB",
                     "ffd/LB", "pairing/LB", "window_bound"});
  for (const Family& family : families) {
    for (const int k : {2, 3, 4, 8, 16, 32, 64}) {
      util::Summary win, nf, nfd, ffd, pair;
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        workloads::PackConfig cfg;
        cfg.capacity = 1'000'000;
        cfg.cardinality = k;
        cfg.items = items;
        cfg.seed = seed;
        const binpack::PackingInstance inst = family.make(cfg);
        const double lb = static_cast<double>(
            binpack::packing_lower_bounds(inst).combined());
        win.add(static_cast<double>(
                    binpack::sliding_window_packing(inst).bin_count()) /
                lb);
        nf.add(static_cast<double>(
                   binpack::next_fit_packing(inst).bin_count()) /
               lb);
        nfd.add(static_cast<double>(
                    binpack::next_fit_packing(inst, true).bin_count()) /
                lb);
        ffd.add(static_cast<double>(
                    binpack::first_fit_decreasing_packing(inst).bin_count()) /
                lb);
        if (k == 2) {
          pair.add(static_cast<double>(
                       binpack::pairing_packing(inst).bin_count()) /
                   lb);
        }
      }
      table.add(family.name, k, util::fixed(win.mean()),
                util::fixed(nf.mean()), util::fixed(nfd.mean()),
                util::fixed(ffd.mean()),
                k == 2 ? util::fixed(pair.mean()) : std::string("-"),
                util::fixed(binpack::sliding_window_ratio_bound(k)));
    }
  }

  h.section(
      "E4  Splittable bin packing with cardinality constraints "
      "(Corollary 3.9)");
  h.table(table);

  // Tiny-instance block: ratios against the TRUE optimum.
  util::Table tiny({"k", "instances", "window/OPT_mean", "window/OPT_max",
                    "LB=OPT_fraction"});
  for (const int k : {2, 3, 4}) {
    util::Summary ratio;
    int lb_tight = 0;
    int solved = 0;
    for (std::uint64_t seed = 100; seed < 130; ++seed) {
      util::Rng rng(seed);
      binpack::PackingInstance inst;
      inst.capacity = 6;
      inst.cardinality = k;
      const auto n = static_cast<std::size_t>(rng.uniform_int(3, 6));
      for (std::size_t i = 0; i < n; ++i) {
        inst.items.push_back(rng.uniform_int(1, 9));
      }
      const auto opt = exact::exact_bin_count(inst);
      if (!opt) {
        h.fail("exact search exceeded its state budget at k=" +
               std::to_string(k) + " seed " + std::to_string(seed));
      }
      ++solved;
      ratio.add(static_cast<double>(
                    binpack::sliding_window_packing(inst).bin_count()) /
                static_cast<double>(*opt));
      lb_tight +=
          binpack::packing_lower_bounds(inst).combined() == *opt ? 1 : 0;
    }
    tiny.add(k, solved, util::fixed(ratio.mean()), util::fixed(ratio.max()),
             util::fixed(static_cast<double>(lb_tight) /
                         static_cast<double>(solved)));
  }
  h.section("Tiny instances vs exact optimum:");
  h.table(tiny);
  return h.finish();
}
