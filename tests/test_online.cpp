// Online-arrivals extension: validator, both online schedulers, lower
// bounds, the clairvoyant comparison, the stochastic arrival processes,
// and the stepwise dynamic engine (irrevocable commits, flow accounting).
#include <gtest/gtest.h>

#include <numeric>

#include "core/sos_scheduler.hpp"
#include "online/arrivals.hpp"
#include "online/dynamic.hpp"
#include "online/online_model.hpp"
#include "online/online_scheduler.hpp"
#include "util/json.hpp"
#include "util/prng.hpp"
#include "workloads/sos_generators.hpp"
#include "workloads/traffic.hpp"

namespace sharedres {
namespace {

using core::Job;
using core::Res;
using core::Time;
using online::OnlineInstance;
using online::OnlineJob;

OnlineInstance hand_instance() {
  OnlineInstance inst;
  inst.machines = 2;
  inst.capacity = 10;
  inst.jobs = {
      OnlineJob{1, Job{2, 6}},   // released at start
      OnlineJob{1, Job{1, 4}},
      OnlineJob{4, Job{1, 10}},  // arrives later
  };
  return inst;
}

TEST(Online, GreedyValidAndRespectsReleases) {
  const OnlineInstance inst = hand_instance();
  const core::Schedule s = online::schedule_online_greedy(inst);
  const auto check = online::validate(inst, s);
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_GE(s.makespan(), online::online_lower_bound(inst));
}

TEST(Online, ReservationValidAndRespectsReleases) {
  const OnlineInstance inst = hand_instance();
  const core::Schedule s = online::schedule_online_reservation(inst);
  const auto check = online::validate(inst, s);
  ASSERT_TRUE(check.ok) << check.error;
}

TEST(Online, ValidatorRejectsEarlyStart) {
  const OnlineInstance inst = hand_instance();
  // Core-feasible (all jobs exactly completed) but job 2 runs at t=1
  // although it is released at t=4.
  core::Schedule bad;
  bad.append(1, {core::Assignment{2, 10}});
  bad.append(1, {core::Assignment{0, 6}, core::Assignment{1, 4}});
  bad.append(1, {core::Assignment{0, 6}});
  const auto check = online::validate(inst, bad);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("release"), std::string::npos);
}

TEST(Online, LowerBoundHandCase) {
  // Job 2: release 4, s = 10, intake 10 → finishes ≥ step 4.
  // Resource: Σs = 12+4+10 = 26 → ≥ 3. Volume: 4 jobs... Σp = 4, m=2 → 2.
  EXPECT_EQ(online::online_lower_bound(hand_instance()), 4);
}

TEST(Online, IdleGapsHandledCorrectly) {
  OnlineInstance inst;
  inst.machines = 2;
  inst.capacity = 10;
  inst.jobs = {
      OnlineJob{1, Job{1, 5}},
      OnlineJob{10, Job{1, 5}},  // long idle gap before this one
  };
  for (const auto& schedule : {online::schedule_online_greedy(inst),
                               online::schedule_online_reservation(inst)}) {
    const auto check = online::validate(inst, schedule);
    ASSERT_TRUE(check.ok) << check.error;
    EXPECT_EQ(schedule.makespan(), 10);  // 1 step + 8 idle + 1 step
  }
}

TEST(Online, AllReleasedAtOnceMatchesOfflineRegime) {
  // With every release at step 1 the greedy is just an offline heuristic;
  // it must land between the offline lower bound and a constant factor of
  // the offline window schedule.
  workloads::SosConfig cfg;
  cfg.machines = 6;
  cfg.capacity = 10'000;
  cfg.jobs = 60;
  cfg.max_size = 3;
  cfg.seed = 17;
  online::OnlineInstance inst =
      workloads::online_arrivals("uniform", cfg, 1'000'000, 1);
  for (auto& oj : inst.jobs) oj.release = 1;
  const Time greedy = online::schedule_online_greedy(inst).makespan();
  const Time offline =
      core::schedule_sos(inst.clairvoyant()).makespan();
  EXPECT_GE(greedy, offline / 3);
  EXPECT_LE(greedy, 3 * offline + 3);
}

TEST(Online, GeneratorSweepBothSchedulersValid) {
  for (const std::string& family : workloads::instance_families()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      workloads::SosConfig cfg;
      cfg.machines = 5;
      cfg.capacity = 5'000;
      cfg.jobs = 50;
      cfg.max_size = 3;
      cfg.seed = seed;
      const OnlineInstance inst =
          workloads::online_arrivals(family, cfg, 6, 3);
      const core::Schedule greedy = online::schedule_online_greedy(inst);
      const core::Schedule reservation =
          online::schedule_online_reservation(inst);
      const auto c1 = online::validate(inst, greedy);
      ASSERT_TRUE(c1.ok) << family << "/" << seed << ": " << c1.error;
      const auto c2 = online::validate(inst, reservation);
      ASSERT_TRUE(c2.ok) << family << "/" << seed << ": " << c2.error;
      const Time lb = online::online_lower_bound(inst);
      ASSERT_GE(greedy.makespan(), lb);
      ASSERT_GE(reservation.makespan(), lb);
    }
  }
}

TEST(Online, FuzzTinyCapacitiesAndWeirdShapes) {
  // Tiny capacities make the sustain-reservation logic earn its keep: with
  // C < m the scheduler must refuse to open more jobs than it can feed.
  util::Rng rng(606);
  for (int trial = 0; trial < 200; ++trial) {
    OnlineInstance inst;
    inst.machines = static_cast<int>(rng.uniform_int(1, 6));
    inst.capacity = rng.uniform_int(1, 8);
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 8));
    Time release = 1;
    for (std::size_t j = 0; j < n; ++j) {
      release += rng.uniform_int(0, 3);
      inst.jobs.push_back(OnlineJob{
          release, Job{rng.uniform_int(1, 3),
                       rng.uniform_int(1, inst.capacity * 2)}});
    }
    const core::Schedule greedy = online::schedule_online_greedy(inst);
    const auto c1 = online::validate(inst, greedy);
    ASSERT_TRUE(c1.ok) << "trial " << trial << ": " << c1.error;
    const core::Schedule reservation =
        online::schedule_online_reservation(inst);
    const auto c2 = online::validate(inst, reservation);
    ASSERT_TRUE(c2.ok) << "trial " << trial << ": " << c2.error;
    if (!inst.jobs.empty()) {
      ASSERT_GE(greedy.makespan(), online::online_lower_bound(inst));
    }
  }
}

TEST(Online, GeneratorDeterministicAndOrdered) {
  workloads::SosConfig cfg;
  cfg.machines = 4;
  cfg.capacity = 1'000;
  cfg.jobs = 40;
  cfg.max_size = 2;
  cfg.seed = 23;
  const auto a = workloads::online_arrivals("pareto", cfg, 5, 2);
  const auto b = workloads::online_arrivals("pareto", cfg, 5, 2);
  ASSERT_EQ(a.size(), b.size());
  Time last = 0;
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a.jobs[j].release, b.jobs[j].release);
    EXPECT_EQ(a.jobs[j].job, b.jobs[j].job);
    EXPECT_GE(a.jobs[j].release, last);  // non-decreasing releases
    last = a.jobs[j].release;
  }
}

// ---- arrival processes ----------------------------------------------------

online::ArrivalConfig arrival_config(online::ArrivalKind kind,
                                     std::uint64_t seed, double rate = 1.5) {
  online::ArrivalConfig cfg;
  cfg.kind = kind;
  cfg.seed = seed;
  cfg.rate = rate;
  return cfg;
}

const online::ArrivalKind kAllKinds[] = {online::ArrivalKind::kPoisson,
                                         online::ArrivalKind::kBursty,
                                         online::ArrivalKind::kDiurnal};

TEST(Arrivals, SameSeedBitIdenticalDistinctSeedsDiffer) {
  for (const online::ArrivalKind kind : kAllKinds) {
    const auto a = online::arrival_times(arrival_config(kind, 7), 200);
    const auto b = online::arrival_times(arrival_config(kind, 7), 200);
    EXPECT_EQ(a, b) << online::to_string(kind);
    const auto c = online::arrival_times(arrival_config(kind, 8), 200);
    EXPECT_NE(a, c) << online::to_string(kind);
    ASSERT_EQ(a.size(), 200u);
    Time last = 1;
    for (const Time t : a) {
      EXPECT_GE(t, last);  // 1-based, non-decreasing
      last = t;
    }
  }
}

TEST(Arrivals, EmpiricalMeanMatchesConfiguredRate) {
  // The long-run mean of every process is the configured rate: exact for
  // poisson, by stationary-state scaling for bursty, by profile
  // normalization for diurnal (sampled over whole cycles: 3840 steps is
  // 10 full 24-slot x 16-step days).
  for (const online::ArrivalKind kind : kAllKinds) {
    online::ArrivalProcess process(arrival_config(kind, 11, 2.0));
    const std::size_t steps = 3840;
    std::size_t total = 0;
    for (std::size_t i = 0; i < steps; ++i) total += process.next_count();
    const double mean = static_cast<double>(total) / static_cast<double>(steps);
    EXPECT_NEAR(mean, 2.0, 0.4) << online::to_string(kind);
  }
}

TEST(Arrivals, CurrentRateTracksProcessState) {
  // Poisson: constant. Diurnal: profile playback with mean 1 over a cycle.
  online::ArrivalProcess poisson(
      arrival_config(online::ArrivalKind::kPoisson, 3, 2.5));
  EXPECT_DOUBLE_EQ(poisson.current_rate(), 2.5);
  (void)poisson.next_count();
  EXPECT_DOUBLE_EQ(poisson.current_rate(), 2.5);

  online::ArrivalConfig cfg = arrival_config(online::ArrivalKind::kDiurnal, 3);
  cfg.rate = 3.0;
  cfg.steps_per_slot = 4;
  cfg.profile = {1.0, 3.0};  // normalized to {0.5, 1.5}
  online::ArrivalProcess diurnal(cfg);
  double sum = 0.0;
  for (int i = 0; i < 8; ++i) {  // one full cycle
    sum += diurnal.current_rate();
    (void)diurnal.next_count();
  }
  EXPECT_NEAR(sum / 8.0, 3.0, 1e-9);      // cycle mean is the configured rate
  EXPECT_DOUBLE_EQ(diurnal.current_rate(), 1.5);  // cycle restarts at slot 0
}

TEST(Arrivals, DegenerateConfigs) {
  EXPECT_TRUE(online::arrival_times(
                  arrival_config(online::ArrivalKind::kPoisson, 1, 0.0), 10)
                  .empty());
  EXPECT_TRUE(online::arrival_times(
                  arrival_config(online::ArrivalKind::kBursty, 1), 0)
                  .empty());
  const auto capped = online::arrival_times(
      arrival_config(online::ArrivalKind::kPoisson, 1, 0.5), 100,
      /*horizon=*/5);
  for (const Time t : capped) EXPECT_LE(t, 5);
  // A huge rate packs everything onto the first step.
  const auto packed = online::arrival_times(
      arrival_config(online::ArrivalKind::kPoisson, 1, 1e6), 10);
  ASSERT_EQ(packed.size(), 10u);
  for (const Time t : packed) EXPECT_EQ(t, 1);
}

TEST(Arrivals, InvalidConfigsThrow) {
  auto times = [](const online::ArrivalConfig& cfg) {
    return online::arrival_times(cfg, 10);
  };
  auto cfg = arrival_config(online::ArrivalKind::kPoisson, 1);
  cfg.rate = -1.0;
  EXPECT_THROW(times(cfg), std::invalid_argument);
  cfg = arrival_config(online::ArrivalKind::kBursty, 1);
  cfg.burst_factor = 0.5;
  EXPECT_THROW(times(cfg), std::invalid_argument);
  cfg = arrival_config(online::ArrivalKind::kBursty, 1);
  cfg.p_enter_burst = 1.5;
  EXPECT_THROW(times(cfg), std::invalid_argument);
  cfg = arrival_config(online::ArrivalKind::kDiurnal, 1);
  cfg.steps_per_slot = 0;
  EXPECT_THROW(times(cfg), std::invalid_argument);
  cfg = arrival_config(online::ArrivalKind::kDiurnal, 1);
  cfg.profile = {0.0, 0.0};
  EXPECT_THROW(times(cfg), std::invalid_argument);
  cfg = arrival_config(online::ArrivalKind::kDiurnal, 1);
  cfg.profile = {1.0, -2.0};
  EXPECT_THROW(times(cfg), std::invalid_argument);
  EXPECT_THROW((void)online::parse_arrival_kind("weibull"),
               std::invalid_argument);
}

// ---- traffic workloads ----------------------------------------------------

TEST(Traffic, InstanceDeterministicSortedAndSchedulable) {
  workloads::SosConfig cfg;
  cfg.machines = 5;
  cfg.capacity = 5'000;
  cfg.jobs = 60;
  cfg.max_size = 3;
  cfg.seed = 9;
  const auto arrivals = arrival_config(online::ArrivalKind::kBursty, 9);
  const OnlineInstance a = workloads::traffic_instance("bimodal", cfg, arrivals);
  const OnlineInstance b = workloads::traffic_instance("bimodal", cfg, arrivals);
  ASSERT_EQ(a.size(), cfg.jobs);
  ASSERT_EQ(a.size(), b.size());
  Time last = 0;
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a.jobs[j].release, b.jobs[j].release);
    EXPECT_EQ(a.jobs[j].job, b.jobs[j].job);
    EXPECT_GE(a.jobs[j].release, last);
    last = a.jobs[j].release;
  }
  for (const auto& schedule : {online::schedule_online_greedy(a),
                               online::schedule_online_reservation(a)}) {
    const auto check = online::validate(a, schedule);
    ASSERT_TRUE(check.ok) << check.error;
  }
}

TEST(Traffic, StreamByteIdenticalPerSeedAndWellFormed) {
  workloads::TrafficStreamConfig cfg;
  cfg.requests = 20;
  cfg.sos.jobs = 6;
  cfg.sos.seed = 5;
  cfg.arrivals = arrival_config(online::ArrivalKind::kPoisson, 5);
  cfg.deadline_steps = 1'000;
  const std::vector<std::string> a = workloads::traffic_stream(cfg);
  const std::vector<std::string> b = workloads::traffic_stream(cfg);
  EXPECT_EQ(a, b);  // byte-identical for a fixed config
  cfg.sos.seed = 6;
  EXPECT_NE(a, workloads::traffic_stream(cfg));
  double last_arrival = 1.0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    const util::Json doc = util::Json::parse(a[k]);
    ASSERT_TRUE(doc.is_object());
    EXPECT_EQ(doc.at("id").as_string(), "req-" + std::to_string(k));
    EXPECT_GE(doc.at("arrival").as_double(), last_arrival);
    last_arrival = doc.at("arrival").as_double();
    EXPECT_EQ(doc.at("deadline_steps").as_double(), 1'000.0);
    EXPECT_EQ(doc.at("jobs").as_array().size(), 6u);
  }
}

TEST(Traffic, InstanceThrowsWhenProcessCannotDeliver) {
  workloads::SosConfig cfg;
  cfg.jobs = 10;
  EXPECT_THROW(workloads::traffic_instance(
                   "uniform", cfg,
                   arrival_config(online::ArrivalKind::kPoisson, 1, 0.0)),
               std::invalid_argument);
}

// ---- dynamic engine -------------------------------------------------------

/// Expand a schedule into per-step assignment lists (step 1..makespan).
std::vector<std::vector<core::Assignment>> expand(const core::Schedule& s) {
  std::vector<std::vector<core::Assignment>> steps;
  for (const core::BlockView b : s.blocks()) {
    for (Time t = 0; t < b.length; ++t) {
      steps.emplace_back(b.assignments.begin(), b.assignments.end());
    }
  }
  return steps;
}

TEST(Dynamic, CommitsAreIrrevocable) {
  // Property test: the committed prefix never changes — after every step,
  // the per-step expansion of committed() extends the previous one without
  // rewriting any earlier step.
  workloads::SosConfig cfg;
  cfg.machines = 4;
  cfg.capacity = 2'000;
  cfg.jobs = 50;
  cfg.max_size = 3;
  cfg.seed = 31;
  const OnlineInstance inst = workloads::traffic_instance(
      "nearboundary", cfg, arrival_config(online::ArrivalKind::kBursty, 31));
  online::DynamicEngine engine(inst.machines, inst.capacity,
                               online::DynamicPolicy::kGreedy);
  std::vector<std::vector<core::Assignment>> previous;
  std::size_t next = 0;
  while (next < inst.jobs.size() || !engine.idle()) {
    while (next < inst.jobs.size() &&
           inst.jobs[next].release == engine.now() + 1) {
      engine.submit(inst.jobs[next].release, inst.jobs[next].job);
      ++next;
    }
    engine.step();
    const auto current = expand(engine.committed());
    ASSERT_EQ(current.size(), static_cast<std::size_t>(engine.now()));
    ASSERT_GT(current.size(), previous.size());
    for (std::size_t t = 0; t < previous.size(); ++t) {
      ASSERT_EQ(current[t], previous[t]) << "step " << t + 1 << " mutated";
    }
    previous = std::move(current);
  }
  // The past cannot be submitted into.
  EXPECT_THROW(engine.submit(engine.now(), Job{1, 5}), std::invalid_argument);
  EXPECT_THROW(engine.submit(0, Job{1, 5}), std::invalid_argument);
  EXPECT_NO_THROW(engine.submit(engine.now() + 1, Job{1, 5}));
}

TEST(Dynamic, FlowAccountingMatchesBruteForceReplay) {
  // The engine's per-job {start, completion} and busy_units must equal what
  // a brute-force replay of the committed schedule derives from scratch.
  workloads::SosConfig cfg;
  cfg.machines = 5;
  cfg.capacity = 3'000;
  cfg.jobs = 40;
  cfg.max_size = 3;
  cfg.seed = 13;
  for (const auto policy : {online::DynamicPolicy::kGreedy,
                            online::DynamicPolicy::kReservation}) {
    const OnlineInstance inst = workloads::traffic_instance(
        "uniform", cfg, arrival_config(online::ArrivalKind::kPoisson, 13));
    online::DynamicEngine engine(inst.machines, inst.capacity, policy);
    for (const OnlineJob& oj : inst.jobs) engine.submit(oj.release, oj.job);
    engine.run_until_idle();
    ASSERT_EQ(engine.completed(), inst.size());

    const auto steps = expand(engine.committed());
    std::vector<Time> start(inst.size(), 0), completion(inst.size(), 0);
    std::vector<Res> delivered(inst.size(), 0);
    Res busy = 0;
    for (std::size_t t = 0; t < steps.size(); ++t) {
      for (const core::Assignment& a : steps[t]) {
        if (a.share == 0) continue;
        const auto j = static_cast<std::size_t>(a.job);
        if (start[j] == 0) start[j] = static_cast<Time>(t + 1);
        completion[j] = static_cast<Time>(t + 1);
        delivered[j] += a.share;
        busy += a.share;
      }
    }
    EXPECT_EQ(engine.busy_units(), busy);
    for (std::size_t j = 0; j < inst.size(); ++j) {
      const online::DynamicJobStats& s = engine.stats()[j];
      EXPECT_EQ(delivered[j], inst.jobs[j].job.total_requirement());
      EXPECT_EQ(s.release, inst.jobs[j].release);
      EXPECT_EQ(s.start, start[j]) << "job " << j;
      EXPECT_EQ(s.completion, completion[j]) << "job " << j;
      EXPECT_TRUE(s.finished());
      EXPECT_EQ(s.flow_time(), completion[j] - inst.jobs[j].release + 1);
      EXPECT_GE(s.start, s.release);  // never scheduled before release
    }
  }
}

TEST(Dynamic, WrappersAndLastMomentSubmissionAgree) {
  // Three routes to the same schedule: the monolithic wrapper (full
  // instance up front), the engine with everything submitted before the
  // first step, and the engine learning of each job one step before its
  // release. The policies only ever look at released jobs, so all three
  // must commit identical schedules — the refactor's equivalence claim.
  workloads::SosConfig cfg;
  cfg.machines = 4;
  cfg.capacity = 1'500;
  cfg.jobs = 45;
  cfg.max_size = 3;
  cfg.seed = 77;
  const OnlineInstance inst = workloads::traffic_instance(
      "pareto", cfg, arrival_config(online::ArrivalKind::kDiurnal, 77));
  for (const auto policy : {online::DynamicPolicy::kGreedy,
                            online::DynamicPolicy::kReservation}) {
    const core::Schedule wrapper =
        policy == online::DynamicPolicy::kGreedy
            ? online::schedule_online_greedy(inst)
            : online::schedule_online_reservation(inst);

    online::DynamicEngine upfront(inst.machines, inst.capacity, policy);
    for (const OnlineJob& oj : inst.jobs) upfront.submit(oj.release, oj.job);
    upfront.run_until_idle();

    online::DynamicEngine lazy(inst.machines, inst.capacity, policy);
    std::size_t next = 0;
    while (next < inst.jobs.size() || !lazy.idle()) {
      while (next < inst.jobs.size() &&
             inst.jobs[next].release == lazy.now() + 1) {
        lazy.submit(inst.jobs[next].release, inst.jobs[next].job);
        ++next;
      }
      lazy.step();
    }
    EXPECT_EQ(upfront.committed(), wrapper);
    EXPECT_EQ(lazy.committed(), wrapper);
  }
}

TEST(Dynamic, RejectsMalformedInput) {
  EXPECT_THROW(online::DynamicEngine(0, 10), std::invalid_argument);
  EXPECT_THROW(online::DynamicEngine(2, 0), std::invalid_argument);
  online::DynamicEngine engine(2, 10);
  EXPECT_THROW(engine.submit(1, Job{0, 5}), std::invalid_argument);
  EXPECT_THROW(engine.submit(1, Job{1, 0}), std::invalid_argument);
  // An empty engine is idle; stepping it anyway commits empty blocks.
  EXPECT_TRUE(engine.idle());
  engine.step();
  EXPECT_EQ(engine.now(), 1);
  EXPECT_EQ(engine.utilization(), 0.0);
}

}  // namespace
}  // namespace sharedres
