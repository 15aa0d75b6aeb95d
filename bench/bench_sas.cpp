// E5 — Theorem 4.8: sum of task completion times of the combined SAS
// algorithm against the Lemma-4.3 lower bound, across machine counts and
// task mixes. Also reports the T1/T2 split and the per-lemma slack of the
// two sub-schedulers.
//
// Usage: bench_sas [--tasks=K] [--seeds=S] [--csv] [--json-dir=DIR]
#include "exact/exact_sas.hpp"
#include "harness.hpp"
#include "sas/sas_bounds.hpp"
#include "sas/sas_scheduler.hpp"
#include "sas/weighted.hpp"
#include "util/cli.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workloads/sas_generators.hpp"

int main(int argc, char** argv) {
  using namespace sharedres;
  const util::Cli cli(argc, argv);
  bench::Harness h(cli, "bench_sas",
                   "E5 SAS sum of completion times vs Lemma 4.3 lower bound "
                   "(Theorem 4.8)");
  const auto tasks = static_cast<std::size_t>(cli.get_int("tasks", 48));
  const auto seeds = static_cast<std::uint64_t>(cli.get_int("seeds", 5));

  struct Mix {
    const char* name;
    sas::SasInstance (*make)(const workloads::SasConfig&);
  };
  const Mix mixes[] = {
      {"mixed",
       [](const workloads::SasConfig& cfg) {
         return workloads::mixed_task_set(cfg);
       }},
      {"heavy",
       [](const workloads::SasConfig& cfg) {
         return workloads::heavy_task_set(cfg);
       }},
      {"light",
       [](const workloads::SasConfig& cfg) {
         return workloads::light_task_set(cfg);
       }},
  };

  util::Table table({"mix", "m", "ratio_mean", "ratio_max", "t1_share",
                     "bound", "valid"});
  for (const Mix& mix : mixes) {
    for (const int m : {4, 6, 8, 16, 32, 64}) {
      util::Summary ratio;
      util::Summary t1_share;
      bool all_valid = true;
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        workloads::SasConfig cfg;
        cfg.machines = m;
        cfg.capacity = 1'000'000;
        cfg.tasks = tasks;
        cfg.min_jobs = 1;
        cfg.max_jobs = 24;
        cfg.seed = seed;
        const sas::SasInstance inst = mix.make(cfg);
        const sas::SasResult result = sas::schedule_sas(inst);
        all_valid = all_valid && sas::validate(inst, result).ok;
        const auto lb = sas::sas_lower_bound(inst);
        ratio.add(static_cast<double>(result.sum_completion) /
                  static_cast<double>(lb));
        int t1 = 0;
        for (const int c : result.task_class) t1 += (c == 1);
        t1_share.add(static_cast<double>(t1) /
                     static_cast<double>(inst.tasks.size()));
      }
      table.add(mix.name, m, util::fixed(ratio.mean()),
                util::fixed(ratio.max()), util::fixed(t1_share.mean(), 2),
                util::fixed(sas::sas_ratio_bound(m).to_double()),
                all_valid ? "yes" : "NO");
    }
  }

  h.section(
      "E5  SAS sum of completion times vs Lemma 4.3 lower bound "
      "(Theorem 4.8)");
  h.table(table);

  // E5b — the weighted extension: Smith-rule ordering vs the paper's order
  // under the weighted objective Σ w_i·f_i (weights uniform in [1, 20]).
  util::Table wtable({"mix", "m", "smith/wLB", "paper_order/wLB",
                      "smith_gain"});
  for (const Mix& mix : mixes) {
    for (const int m : {4, 8, 32}) {
      util::Summary smith_ratio, plain_ratio, gain;
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        workloads::SasConfig cfg;
        cfg.machines = m;
        cfg.capacity = 1'000'000;
        cfg.tasks = tasks;
        cfg.min_jobs = 1;
        cfg.max_jobs = 24;
        cfg.seed = seed;
        const sas::SasInstance inst = mix.make(cfg);
        util::Rng wrng(seed * 31 + 7);
        std::vector<core::Res> weights;
        weights.reserve(inst.tasks.size());
        for (std::size_t i = 0; i < inst.tasks.size(); ++i) {
          weights.push_back(wrng.uniform_int(1, 20));
        }
        const auto wlb = static_cast<double>(
            sas::weighted_lower_bound(inst, weights));
        const auto smith = static_cast<double>(sas::weighted_objective(
            sas::schedule_sas_weighted(inst, weights), weights));
        const auto plain = static_cast<double>(
            sas::weighted_objective(sas::schedule_sas(inst), weights));
        smith_ratio.add(smith / wlb);
        plain_ratio.add(plain / wlb);
        gain.add(plain / smith);
      }
      wtable.add(mix.name, m, util::fixed(smith_ratio.mean()),
                 util::fixed(plain_ratio.mean()), util::fixed(gain.mean()));
    }
  }
  h.section(
      "E5b  Weighted extension (Smith-rule order vs paper order, ratios vs "
      "the proven weighted LB)");
  h.table(wtable);

  // Micro instances: the Theorem-4.8 algorithm against the TRUE optimum
  // (exact branch-and-bound) and the Lemma-4.3 bound's tightness.
  util::Table tiny({"capacity", "solved", "alg/OPT_mean", "alg/OPT_max",
                    "LB=OPT_fraction"});
  for (const core::Res capacity : {4, 6, 8}) {
    util::Summary ratio;
    int solved = 0;
    int lb_tight = 0;
    for (std::uint64_t seed = 200; seed < 230; ++seed) {
      util::Rng rng(seed);
      sas::SasInstance inst;
      inst.machines = 4;
      inst.capacity = capacity;
      const auto k = static_cast<std::size_t>(rng.uniform_int(1, 3));
      for (std::size_t i = 0; i < k; ++i) {
        sas::Task task;
        const auto jobs = static_cast<std::size_t>(rng.uniform_int(1, 3));
        for (std::size_t j = 0; j < jobs; ++j) {
          task.requirements.push_back(rng.uniform_int(1, capacity));
        }
        inst.tasks.push_back(std::move(task));
      }
      const auto opt =
          exact::exact_sas_sum_completion(inst, {.max_states = 300'000});
      if (!opt) {
        h.fail("exact search exceeded its state budget at capacity " +
               std::to_string(capacity) + " seed " + std::to_string(seed));
      }
      ++solved;
      ratio.add(static_cast<double>(sas::schedule_sas(inst).sum_completion) /
                static_cast<double>(*opt));
      lb_tight += (sas::sas_lower_bound(inst) == *opt);
    }
    tiny.add(capacity, solved, util::fixed(ratio.mean()),
             util::fixed(ratio.max()),
             util::fixed(static_cast<double>(lb_tight) /
                             static_cast<double>(std::max(1, solved)),
                         3));
  }
  h.section("Micro instances vs exact optimum (m = 4):");
  h.table(tiny);
  return h.finish();
}
