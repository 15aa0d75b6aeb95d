// The batch pipeline (src/batch): NDJSON record round trips and typed parse
// errors, pipeline output equal to one-shot solves and byte-identical across
// thread counts, mid-stream fault containment, and the engine/Schedule
// reset-reuse API the pipeline's scratch recycling is built on.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/baselines.hpp"
#include "batch/pipeline.hpp"
#include "batch/solver.hpp"
#include "batch/stream.hpp"
#include "batch/worker.hpp"
#include "cache/canonical.hpp"
#include "core/improved_engine.hpp"
#include "core/improved_scheduler.hpp"
#include "core/instance.hpp"
#include "core/lower_bounds.hpp"
#include "core/multires_scheduler.hpp"
#include "core/schedule.hpp"
#include "core/sos_engine.hpp"
#include "core/sos_scheduler.hpp"
#include "core/unit_engine.hpp"
#include "core/validator.hpp"
#include "io/text_io.hpp"
#include "result_record_reference.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "workloads/multires_generators.hpp"
#include "workloads/sos_generators.hpp"

namespace sharedres::batch {
namespace {

core::Instance make(int machines, core::Res capacity,
                    std::vector<core::Job> jobs) {
  return core::Instance(machines, capacity, std::move(jobs));
}

workloads::SosConfig config(std::uint64_t seed, std::size_t jobs = 12,
                            core::Res max_size = 3) {
  workloads::SosConfig cfg;
  cfg.machines = 4;
  cfg.capacity = 1000;
  cfg.jobs = jobs;
  cfg.max_size = max_size;
  cfg.seed = seed;
  return cfg;
}

/// Run the pipeline over `lines`, returning (full output text, summary).
std::pair<std::string, BatchSummary> run(const std::vector<std::string>& lines,
                                         const BatchOptions& options) {
  std::string input;
  for (const std::string& line : lines) input += line + "\n";
  std::istringstream in(input);
  std::ostringstream out;
  BatchSummary summary = run_batch(in, out, options);
  return {out.str(), std::move(summary)};
}

std::vector<std::string> output_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) lines.push_back(line);
  return lines;
}

// ---- stream records --------------------------------------------------------

TEST(BatchStream, InstanceRecordRoundTripsInOriginalOrder) {
  const core::Instance inst =
      make(3, 50, {{2, 40}, {1, 5}, {4, 17}});  // deliberately unsorted
  const std::string line = format_instance_record(inst, "case-7");

  const InstanceRecord parsed = parse_instance_record(line);
  EXPECT_EQ(parsed.id, "case-7");
  EXPECT_EQ(parsed.instance.machines(), 3);
  EXPECT_EQ(parsed.instance.capacity(), 50);
  ASSERT_EQ(parsed.instance.size(), 3u);
  // format emits the caller's original order, so a second format must be
  // byte-identical (stable fixed point).
  EXPECT_EQ(format_instance_record(parsed.instance, parsed.id), line);
}

TEST(BatchStream, ParseRejectsMalformedLinesWithTypedErrors) {
  const std::vector<std::string> parse_errors = {
      "",                                             // empty
      "not json",                                     // not JSON
      "[1,2]",                                        // not an object
      R"({"capacity":5,"jobs":[]})",                  // missing machines
      R"({"machines":"two","capacity":5,"jobs":[]})", // machines not a number
      R"({"machines":2.5,"capacity":5,"jobs":[]})",   // non-integral
      R"({"machines":2,"capacity":5,"jobs":{}})",     // jobs not an array
      R"({"machines":2,"capacity":5,"jobs":[[1]]})",  // pair too short
      R"({"machines":2,"capacity":5,"jobs":[[1,2,3]]})",  // pair too long
      R"({"id":7,"machines":2,"capacity":5,"jobs":[]})",  // id not a string
  };
  for (const std::string& line : parse_errors) {
    try {
      (void)parse_instance_record(line);
      FAIL() << "accepted: " << line;
    } catch (const util::Error& e) {
      EXPECT_EQ(e.code(), util::ErrorCode::kParse) << line;
    }
  }
  // Well-formed JSON with invalid semantics surfaces Instance's own typed
  // error, not a parse error.
  try {
    (void)parse_instance_record(R"({"machines":0,"capacity":5,"jobs":[]})");
    FAIL() << "accepted machines=0";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kInvalidInstance);
  }
}

TEST(BatchStream, ResultRecordFormatsOkAndErrorShapes) {
  ResultRecord ok;
  ok.index = 3;
  ok.id = "a";
  ok.ok = true;
  ok.algorithm = "window";
  ok.machines = 4;
  ok.jobs = 2;
  ok.makespan = 9;
  ok.lower_bound = 7;
  ok.blocks = 5;
  const util::Json ok_doc = util::Json::parse(format_result_record(ok));
  EXPECT_EQ(ok_doc.at("index").as_double(), 3);
  EXPECT_EQ(ok_doc.at("id").as_string(), "a");
  EXPECT_TRUE(ok_doc.at("ok").as_bool());
  EXPECT_EQ(ok_doc.at("makespan").as_double(), 9);
  EXPECT_FALSE(ok_doc.contains("error"));
  EXPECT_FALSE(ok_doc.contains("schedule"));  // only with schedule_text set

  ResultRecord bad;
  bad.index = 4;
  bad.ok = false;
  bad.error_code = "parse";
  bad.error_message = "boom";
  const util::Json bad_doc = util::Json::parse(format_result_record(bad));
  EXPECT_FALSE(bad_doc.at("ok").as_bool());
  EXPECT_EQ(bad_doc.at("error").at("code").as_string(), "parse");
  EXPECT_EQ(bad_doc.at("error").at("message").as_string(), "boom");
  EXPECT_FALSE(bad_doc.contains("makespan"));
}

TEST(BatchStream, ResultRecordMatchesJsonDomReference) {
  using reference::dom_result_record;
  const std::vector<std::string> texts = {
      "",
      "plain-7",
      "quote\"d",
      "back\\slash",
      "two\nlines\n",
      "cr\rtab\t",
      std::string("ctl\x01 and \x1f"),
      std::string("nul\0inside", 10),
      "\x7f del",
      "utf-8 \xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80",
      "# sharedres schedule v1\nblocks 1\nblock 3 2 0:40 1:25\n",
  };
  constexpr std::int64_t kExact = std::int64_t{1} << 53;
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::vector<std::int64_t> values = {
      0, 1, -kExact + 1, -kExact, kExact - 1, kExact, kExact + 1, kMax};
  for (const std::string& text : texts) {
    ResultRecord bad;
    bad.index = 4;
    bad.id = text;
    bad.error_code = text;
    bad.error_message = text;
    EXPECT_EQ(format_result_record(bad), dom_result_record(bad)) << text;

    for (const std::int64_t v : values) {
      ResultRecord ok;
      ok.index = static_cast<std::size_t>(v < 0 ? -v : v);
      ok.id = text;
      ok.ok = true;
      ok.algorithm = text;
      ok.machines = static_cast<int>(v % 100'000);
      ok.jobs = static_cast<std::size_t>(v < 0 ? -v : v);
      ok.makespan = v;
      ok.lower_bound = v;
      ok.blocks = ok.jobs;
      ok.schedule_text = text;
      EXPECT_EQ(format_result_record(ok), dom_result_record(ok))
          << text << " / " << v;
    }
  }

  // What util::Json prints, and therefore the result line too: integers
  // below 2^53 as their digits; at and above it the double the value rounds
  // to, in the shortest text that reads back to that double — which is
  // exponent form once it needs fewer digits than the integer has.
  ResultRecord big;
  big.ok = true;
  big.algorithm = "window";
  big.makespan = kExact + 1;
  big.lower_bound = kMax;
  big.index = std::numeric_limits<std::size_t>::max();
  const std::string line = format_result_record(big);
  EXPECT_NE(line.find("\"index\":1.8446744073709552e+19"), std::string::npos)
      << line;
  EXPECT_NE(line.find("\"makespan\":9007199254740992"), std::string::npos)
      << line;
  EXPECT_NE(line.find("\"lower_bound\":9.223372036854776e+18"),
            std::string::npos)
      << line;
}

// ---- pipeline --------------------------------------------------------------

TEST(BatchPipeline, MatchesOneShotSolvesAndCountsSummary) {
  std::vector<core::Instance> instances;
  std::vector<std::string> lines;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    instances.push_back(workloads::uniform_instance(config(seed)));
    lines.push_back(format_instance_record(instances.back(),
                                           "s" + std::to_string(seed)));
  }
  const auto [text, summary] = run(lines, BatchOptions{});
  EXPECT_EQ(summary.records, 6u);
  EXPECT_EQ(summary.ok, 6u);
  EXPECT_EQ(summary.failed, 0u);

  const std::vector<std::string> out = output_lines(text);
  ASSERT_EQ(out.size(), 7u);  // 6 results + summary
  std::uint64_t makespan_sum = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const util::Json doc = util::Json::parse(out[i]);
    EXPECT_TRUE(doc.at("ok").as_bool());
    EXPECT_EQ(doc.at("index").as_double(), static_cast<double>(i));
    const core::Schedule solo = core::schedule_sos(instances[i]);
    EXPECT_EQ(doc.at("makespan").as_double(),
              static_cast<double>(solo.makespan()));
    EXPECT_EQ(doc.at("lower_bound").as_double(),
              static_cast<double>(core::lower_bounds(instances[i]).combined()));
    EXPECT_EQ(doc.at("blocks").as_double(),
              static_cast<double>(solo.blocks().size()));
    makespan_sum += static_cast<std::uint64_t>(solo.makespan());
  }
  EXPECT_EQ(summary.makespan_sum, makespan_sum);
  const util::Json sum_doc = util::Json::parse(out.back());
  EXPECT_TRUE(sum_doc.at("summary").as_bool());
  EXPECT_EQ(sum_doc.at("records").as_double(), 6);
  EXPECT_EQ(
      sum_doc.at("metrics").at("counters").at("batch.records_ok").as_double(),
      6);
}

/// The one-shot value facade behind each solver row: the reference a
/// pipeline answer must reproduce byte for byte.
core::Schedule one_shot(const std::string& algorithm,
                        const core::Instance& inst) {
  if (algorithm == "window") return core::schedule_sos(inst);
  if (algorithm == "unit") return core::schedule_sos_unit(inst);
  if (algorithm == "improved") return core::schedule_improved(inst);
  if (algorithm == "gg") return baselines::schedule_garey_graham(inst);
  if (algorithm == "equalsplit") return baselines::schedule_equal_split(inst);
  if (algorithm == "sequential") return baselines::schedule_sequential(inst);
  if (algorithm == "multires") return core::schedule_multires(inst);
  ADD_FAILURE() << "no one-shot entry point for '" << algorithm << "'";
  return {};
}

TEST(BatchPipeline, EveryAlgorithmMatchesItsOneShotEntryPoint) {
  const core::Instance general = workloads::uniform_instance(config(11));
  const core::Instance unit =
      workloads::uniform_instance(config(12, 10, /*max_size=*/1));
  // Unit-size, and the unit engine wins the improved portfolio's race
  // (makespan 3 against 4 for the balanced and the window engine).
  const core::Instance unit_floor =
      workloads::uniform_instance(config(7, 10, /*max_size=*/1));
  workloads::MultiResConfig multi_cfg;
  multi_cfg.machines = 4;
  multi_cfg.jobs = 12;
  multi_cfg.max_size = 3;
  multi_cfg.seed = 5;
  const core::Instance multi =
      workloads::correlated_multires_instance(multi_cfg);
  ASSERT_EQ(multi.resource_count(), 2u);
  {
    const core::Schedule balanced = [&] {
      core::ImprovedEngine engine(
          unit_floor, {.machine_cap = 4, .budget = unit_floor.capacity()});
      core::Schedule out;
      engine.run(out);
      return out;
    }();
    const core::Time unit_makespan =
        core::schedule_sos_unit(unit_floor).makespan();
    ASSERT_LT(unit_makespan, balanced.makespan());
    ASSERT_LT(unit_makespan, core::schedule_sos(unit_floor).makespan());
  }

  for (const Solver& solver : solvers()) {
    const std::string name(solver.name);
    std::vector<const core::Instance*> cases = {&unit, &unit_floor};
    if (!solver.unit_only) cases.push_back(&general);
    if (solver.multi_resource) cases.push_back(&multi);
    for (const core::Instance* inst : cases) {
      SCOPED_TRACE(name + " on " + format_instance_record(*inst));
      BatchOptions options;
      options.algorithm = name;
      options.emit_schedules = true;
      const auto [text, summary] =
          run({format_instance_record(*inst)}, options);
      ASSERT_EQ(summary.ok, 1u);
      const util::Json doc = util::Json::parse(output_lines(text)[0]);
      const core::Schedule expected = one_shot(name, *inst);
      std::ostringstream expected_text;
      io::write_schedule(expected_text, expected);
      EXPECT_EQ(doc.at("algorithm").as_string(), name);
      EXPECT_EQ(doc.at("makespan").as_double(),
                static_cast<double>(expected.makespan()));
      EXPECT_EQ(doc.at("blocks").as_double(),
                static_cast<double>(expected.blocks().size()));
      EXPECT_EQ(doc.at("schedule").as_string(), expected_text.str());
    }
  }
}

TEST(BatchPipeline, OutputByteIdenticalAcrossThreadCounts) {
  std::vector<std::string> lines;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    lines.push_back(format_instance_record(
        workloads::uniform_instance(config(seed)), "s" + std::to_string(seed)));
    if (seed % 7 == 0) lines.push_back("mid-stream garbage");
  }
  BatchOptions options;
  options.threads = 1;
  options.queue_capacity = 4;
  const auto [reference, ref_summary] = run(lines, options);
  EXPECT_EQ(ref_summary.failed, 2u);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    options.threads = threads;
    const auto [text, summary] = run(lines, options);
    EXPECT_EQ(text, reference) << "threads=" << threads;
    EXPECT_EQ(summary.metrics, ref_summary.metrics) << "threads=" << threads;
  }
}

TEST(BatchPipeline, MalformedRecordMidStreamDoesNotAbortTheBatch) {
  const std::vector<std::string> lines = {
      format_instance_record(workloads::uniform_instance(config(1)), "first"),
      R"({"machines":2,"capacity":0,"jobs":[]})",  // invalid capacity
      format_instance_record(workloads::uniform_instance(config(2)), "last"),
  };
  const auto [text, summary] = run(lines, BatchOptions{});
  EXPECT_EQ(summary.records, 3u);
  EXPECT_EQ(summary.ok, 2u);
  EXPECT_EQ(summary.failed, 1u);
  const std::vector<std::string> out = output_lines(text);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_TRUE(util::Json::parse(out[0]).at("ok").as_bool());
  const util::Json error_doc = util::Json::parse(out[1]);
  EXPECT_FALSE(error_doc.at("ok").as_bool());
  EXPECT_EQ(error_doc.at("error").at("code").as_string(), "invalid_instance");
  EXPECT_TRUE(util::Json::parse(out[2]).at("ok").as_bool());
  EXPECT_EQ(util::Json::parse(out[2]).at("id").as_string(), "last");
}

TEST(BatchPipeline, EmitSchedulesEmbedsTheOneShotScheduleText) {
  const core::Instance inst = workloads::uniform_instance(config(5));
  BatchOptions options;
  options.emit_schedules = true;
  const auto [text, summary] = run({format_instance_record(inst)}, options);
  EXPECT_EQ(summary.ok, 1u);

  std::ostringstream expected;
  io::write_schedule(expected, core::schedule_sos(inst));
  const util::Json doc = util::Json::parse(output_lines(text)[0]);
  EXPECT_EQ(doc.at("schedule").as_string(), expected.str());
}

TEST(BatchPipeline, SkipsBlankLinesWithoutConsumingIndices) {
  const std::vector<std::string> lines = {
      "",
      format_instance_record(workloads::uniform_instance(config(1))),
      "   \t",
      format_instance_record(workloads::uniform_instance(config(2))),
  };
  const auto [text, summary] = run(lines, BatchOptions{});
  EXPECT_EQ(summary.records, 2u);
  const std::vector<std::string> out = output_lines(text);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(util::Json::parse(out[1]).at("index").as_double(), 1);
}

TEST(BatchPipeline, RejectsUnknownAlgorithmBeforeReadingTheStream) {
  BatchOptions options;
  options.algorithm = "nope";
  std::istringstream in("not even json\n");
  std::ostringstream out;
  try {
    (void)run_batch(in, out, options);
    FAIL() << "unknown algorithm accepted";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kCliUsage);
  }
  EXPECT_TRUE(out.str().empty());
}

TEST(BatchPipeline, SolveIntoHasNoFallbackForUnknownNames) {
  // A near miss used to run the sequential baseline under the given name.
  WorkerScratch scratch;
  const core::Instance inst = workloads::uniform_instance(config(3));
  for (const std::string name : {"Improved", "nope", ""}) {
    try {
      solve_into(inst, name, scratch);
      ADD_FAILURE() << "unknown algorithm '" << name << "' accepted";
    } catch (const util::Error& e) {
      EXPECT_EQ(e.code(), util::ErrorCode::kCliUsage);
      EXPECT_EQ(e.flag(), "algorithm");
    }
  }
}

TEST(SolverTable, PreconditionsThrowTheTypedTexts) {
  const core::Instance one_machine = make(1, 10, {{2, 4}, {1, 3}});
  const core::Instance d2(3, {10, 4}, {{3, {5, 5}}, {2, {2, 1}}});
  for (const Solver& solver : solvers()) {
    const std::string name(solver.name);
    if (solver.needs_two_machines) {
      try {
        solver.check(one_machine);
        ADD_FAILURE() << name << " accepted m = 1";
      } catch (const util::Error& e) {
        EXPECT_EQ(e.code(), util::ErrorCode::kInvalidInstance);
        EXPECT_EQ(std::string(e.what()),
                  "invalid instance: algorithm '" + name +
                      "' requires machines >= 2" +
                      (solver.unit_only ? " and unit-size jobs" : ""));
      }
    } else {
      EXPECT_NO_THROW(solver.check(one_machine)) << name;
    }
    if (solver.multi_resource) {
      EXPECT_NO_THROW(solver.check(d2)) << name;
    } else if (!solver.unit_only) {
      try {
        solver.check(d2);
        ADD_FAILURE() << name << " accepted d = 2";
      } catch (const util::Error& e) {
        EXPECT_EQ(e.code(), util::ErrorCode::kInvalidInstance);
        EXPECT_EQ(std::string(e.what()),
                  "invalid instance: algorithm '" + name +
                      "' requires a single resource; the instance has 2");
      }
    }
  }
  EXPECT_EQ(find_solver("Improved"), nullptr);
  EXPECT_EQ(&require_solver("improved"), find_solver("improved"));
}

TEST(BatchPipeline, SingleResourceAlgorithmsRejectMultiResourceRecords) {
  // Solved on its primary axis alone, this record oversubscribes the second
  // one (5 + 1 > 4); the worker used to abort the batch on the infeasible
  // schedule. The unit row gets the unit-size twin, so that its unit-size
  // check passes and the resource check is what fires.
  const std::string d2 =
      R"({"machines":3,"capacities":[10,4],"sizes":[3,2],)"
      R"("requirements":[[5,5],[2,1]]})";
  const std::string unit_d2 =
      R"({"machines":3,"capacities":[10,4],"requirements":[[5,5],[2,1]]})";
  for (const Solver& solver : solvers()) {
    if (solver.multi_resource) continue;
    const std::string name(solver.name);
    const std::vector<std::string> lines = {
        format_instance_record(
            workloads::uniform_instance(config(1, 10, /*max_size=*/1)), "a"),
        solver.unit_only ? unit_d2 : d2,
        format_instance_record(
            workloads::uniform_instance(config(2, 10, /*max_size=*/1)), "b"),
    };
    for (const std::size_t threads : {1u, 2u}) {
      for (const std::size_t cache : {0u, 16u}) {
        SCOPED_TRACE(name + " threads=" + std::to_string(threads) +
                     " cache=" + std::to_string(cache));
        BatchOptions options;
        options.algorithm = name;
        options.threads = threads;
        options.cache_capacity = cache;
        const auto [text, summary] = run(lines, options);
        EXPECT_EQ(summary.records, 3u);
        EXPECT_EQ(summary.failed, 1u);
        const std::vector<std::string> out = output_lines(text);
        ASSERT_EQ(out.size(), 4u);
        EXPECT_TRUE(util::Json::parse(out[0]).at("ok").as_bool());
        EXPECT_EQ(out[1],
                  R"({"index":1,"ok":false,"error":{"code":"invalid_instance",)"
                  R"("message":"invalid instance: algorithm ')" +
                      name +
                      R"(' requires a single resource; the instance has 2"}})");
        EXPECT_TRUE(util::Json::parse(out[2]).at("ok").as_bool());
      }
    }
  }
}

TEST(BatchPipeline, EmptyStreamYieldsOnlyASummaryLine) {
  const auto [text, summary] = run({}, BatchOptions{});
  EXPECT_EQ(summary.records, 0u);
  const std::vector<std::string> out = output_lines(text);
  ASSERT_EQ(out.size(), 1u);
  const util::Json doc = util::Json::parse(out[0]);
  EXPECT_TRUE(doc.at("summary").as_bool());
  EXPECT_EQ(doc.at("records").as_double(), 0);
}

// ---- reset-reuse API -------------------------------------------------------

TEST(BatchReset, SosEngineResetMatchesFreshEngineAcrossInstances) {
  // One engine reused across instances of very different shapes must emit
  // exactly the schedule a fresh engine would — including after shrinking.
  const std::vector<core::Instance> instances = {
      workloads::uniform_instance(config(1, 40)),
      workloads::uniform_instance(config(2, 3)),
      workloads::uniform_instance(config(3, 25)),
      make(3, 10, {{1, 10}, {1, 10}, {1, 10}}),
  };
  std::optional<core::SosEngine> reused;
  core::Schedule reused_out;
  for (const core::Instance& inst : instances) {
    const core::SosEngine::Params params{
        .window_cap = static_cast<std::size_t>(inst.machines() - 1),
        .budget = inst.capacity(),
        .allow_extra_job = true,
    };
    if (reused) {
      reused->reset(inst, params);
    } else {
      reused.emplace(inst, params);
    }
    reused_out.reset();
    reused->run(reused_out);

    core::SosEngine fresh(inst, params);
    core::Schedule fresh_out;
    fresh.run(fresh_out);
    EXPECT_EQ(reused_out, fresh_out);
    EXPECT_TRUE(core::validate(inst, reused_out).ok);
  }
}

TEST(BatchReset, UnitEngineResetMatchesFreshEngineAcrossInstances) {
  const std::vector<core::Instance> instances = {
      workloads::uniform_instance(config(7, 30, 1)),
      workloads::uniform_instance(config(8, 4, 1)),
      workloads::uniform_instance(config(9, 18, 1)),
  };
  std::optional<core::UnitEngine> reused;
  core::Schedule reused_out;
  for (const core::Instance& inst : instances) {
    if (reused) {
      reused->reset(inst);
    } else {
      reused.emplace(inst);
    }
    reused_out.reset();
    reused->run(reused_out);

    core::UnitEngine fresh(inst);
    core::Schedule fresh_out;
    fresh.run(fresh_out);
    EXPECT_EQ(reused_out, fresh_out);
    EXPECT_TRUE(core::validate(inst, reused_out).ok);
  }
}

TEST(BatchReset, ScheduleResetClearsContentAndKeepsBlockCapacity) {
  core::Schedule schedule;
  const auto fill = [&] {
    for (int i = 0; i < 16; ++i) {
      schedule.append(1, {{static_cast<core::JobId>(i), 1 + i}});
    }
  };
  fill();
  const core::Assignment* storage_before =
      schedule.blocks()[0].assignments.data();
  ASSERT_GT(schedule.makespan(), 0);

  schedule.reset();
  EXPECT_TRUE(schedule.empty());
  EXPECT_EQ(schedule.makespan(), 0);
  // Refilling reuses the storage the reset kept (tests/test_schedule.cpp
  // counts the allocations).
  fill();
  EXPECT_EQ(schedule.blocks()[0].assignments.data(), storage_before);
}

// ---- solve cache differentials ---------------------------------------------

/// `inst` with all requirements and the capacity multiplied by c, formatted
/// as an NDJSON record — a different byte string (and id) with the same
/// canonical key as `inst`.
std::string scaled_record(const core::Instance& inst, core::Res c,
                          const std::string& id) {
  std::vector<core::Job> jobs;
  for (std::size_t j = 0; j < inst.size(); ++j) {
    // Reconstruct the caller's original order so the scaled record is not
    // also a permutation (scaling alone must collide).
    jobs.emplace_back();
  }
  for (core::JobId j = 0; j < inst.size(); ++j) {
    jobs[inst.original_id(j)] =
        core::Job{inst.job(j).size, inst.job(j).requirement * c};
  }
  return format_instance_record(
      core::Instance(inst.machines(), inst.capacity() * c, std::move(jobs)),
      id);
}

/// A duplicate-heavy stream: `unique` generated instances, each followed by
/// scaled twins — the canonical-collision traffic the cache exists for.
std::vector<std::string> collision_stream(std::size_t unique) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < unique; ++i) {
    const core::Instance inst =
        workloads::uniform_instance(config(300 + i, /*jobs=*/10));
    lines.push_back(format_instance_record(inst, "u" + std::to_string(i)));
    lines.push_back(scaled_record(inst, 3, "x3-" + std::to_string(i)));
    lines.push_back(scaled_record(inst, 7, "x7-" + std::to_string(i)));
  }
  return lines;
}

/// Per-record lines only (everything but the trailing summary line).
std::vector<std::string> record_lines(const std::string& text) {
  std::vector<std::string> lines = output_lines(text);
  if (!lines.empty()) lines.pop_back();
  return lines;
}

double summary_counter(const std::string& text, const std::string& name) {
  const std::vector<std::string> lines = output_lines(text);
  const util::Json doc = util::Json::parse(lines.back());
  return doc.at("metrics").at("counters").at(name).as_double();
}

TEST(BatchCache, PerRecordOutputMatchesCacheOffAcrossThreadCounts) {
  const std::vector<std::string> lines = collision_stream(6);

  BatchOptions off;
  const std::string reference = run(lines, off).first;

  BatchOptions on = off;
  on.cache_capacity = 64;
  std::string first_cached;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    on.threads = threads;
    const std::string cached = run(lines, on).first;
    // Per-record lines: byte-identical to the cache-off run.
    EXPECT_EQ(record_lines(cached), record_lines(reference))
        << "threads=" << threads;
    // Whole output (including the summary's cache.* metrics): byte-identical
    // across thread counts.
    if (first_cached.empty()) {
      first_cached = cached;
    } else {
      EXPECT_EQ(cached, first_cached) << "threads=" << threads;
    }
  }
  // 6 unique keys, 18 records: 12 hits, 12 fewer solves than records.
  EXPECT_EQ(summary_counter(first_cached, "cache.misses"), 6.0);
  EXPECT_EQ(summary_counter(first_cached, "cache.hits"), 12.0);
  EXPECT_EQ(summary_counter(first_cached, "cache.evictions"), 0.0);
}

TEST(BatchCache, EmitSchedulesStaysByteIdenticalUnderCaching) {
  // The hardest identity: embedded schedule text must survive the canonical
  // round trip (solve the reduced twin, multiply shares back per record).
  const std::vector<std::string> lines = collision_stream(4);
  BatchOptions off;
  off.emit_schedules = true;
  const std::string reference = run(lines, off).first;

  BatchOptions on = off;
  on.cache_capacity = 64;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    on.threads = threads;
    EXPECT_EQ(record_lines(run(lines, on).first), record_lines(reference))
        << "threads=" << threads;
  }
}

TEST(BatchCache, EvictionThrashAtCapacityTwoKeepsDeterminism) {
  // More unique keys than capacity, visited twice in a cycle long enough
  // that the second visit misses again: constant eviction churn. The
  // counters — and the whole output — must still be identical across
  // SHAREDRES_THREADS, because every eviction decision happens on the
  // reader. The cache is what --cache=2 builds: the default shard count
  // clamped to the capacity, so two one-entry shards.
  std::vector<std::string> lines;
  for (int round = 0; round < 2; ++round) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      const core::Instance inst =
          workloads::uniform_instance(config(500 + i, /*jobs=*/8));
      lines.push_back(format_instance_record(
          inst, "r" + std::to_string(round) + "-" + std::to_string(i)));
    }
  }

  BatchOptions off;
  const std::string reference = run(lines, off).first;

  BatchOptions on = off;
  on.cache_capacity = 2;
  std::string first_cached;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    on.threads = threads;
    const std::string cached = run(lines, on).first;
    EXPECT_EQ(record_lines(cached), record_lines(reference))
        << "threads=" << threads;
    if (first_cached.empty()) {
      first_cached = cached;
    } else {
      EXPECT_EQ(cached, first_cached) << "threads=" << threads;
    }
  }
  // 8 distinct keys over two one-entry shards, twice: both shards see
  // several keys, so every acquire misses and all but the 2 resident
  // entries were evicted.
  EXPECT_EQ(summary_counter(first_cached, "cache.misses"), 16.0);
  EXPECT_EQ(summary_counter(first_cached, "cache.hits"), 0.0);
  EXPECT_EQ(summary_counter(first_cached, "cache.evictions"), 14.0);
}

TEST(BatchCache, FailingRecordsMatchCacheOffIncludingDuplicates) {
  // A parse error (never reaches the cache), an invalid instance the solver
  // rejects (producer abandons), and a duplicate of the rejected record (hit
  // on the abandoned entry → local solve → identical error line).
  const core::Instance bad_m =
      make(1, 50, {{2, 10}, {1, 5}});  // window needs m >= 2
  std::vector<std::string> lines = {
      format_instance_record(make(3, 60, {{2, 30}, {1, 12}}), "good"),
      "{malformed",
      format_instance_record(bad_m, "bad-m"),
      format_instance_record(bad_m, "bad-m-again"),
      format_instance_record(make(3, 60, {{1, 12}, {2, 30}}), "good-perm"),
  };

  BatchOptions off;
  const auto [reference, off_summary] = run(lines, off);

  BatchOptions on = off;
  on.cache_capacity = 16;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    on.threads = threads;
    const auto [cached, summary] = run(lines, on);
    EXPECT_EQ(record_lines(cached), record_lines(reference))
        << "threads=" << threads;
    EXPECT_EQ(summary.failed, off_summary.failed);
    EXPECT_EQ(summary.ok, off_summary.ok);
    // bad-m missed (then abandoned); bad-m-again and good-perm hit.
    EXPECT_EQ(summary_counter(cached, "cache.misses"), 2.0);
    EXPECT_EQ(summary_counter(cached, "cache.hits"), 2.0);
    EXPECT_EQ(summary_counter(cached, "cache.abandoned"), 1.0);
  }
}

TEST(BatchCache, CacheLookupAgreesWithCanonicalizer) {
  // Sanity link between the two layers: records the canonicalizer maps to
  // one key are exactly the records the pipeline serves from cache.
  const core::Instance inst =
      workloads::uniform_instance(config(900, /*jobs=*/6));
  const std::string base = format_instance_record(inst, "a");
  const std::string twin = scaled_record(inst, 5, "b");
  const auto base_form = cache::canonicalize(
      parse_instance_record(base).instance);
  const auto twin_form = cache::canonicalize(
      parse_instance_record(twin).instance);
  ASSERT_EQ(base_form.key, twin_form.key);
  ASSERT_EQ(twin_form.scale, base_form.scale * 5);

  BatchOptions on;
  on.cache_capacity = 4;
  const std::string out = run({base, twin}, on).first;
  EXPECT_EQ(summary_counter(out, "cache.hits"), 1.0);
  EXPECT_EQ(summary_counter(out, "cache.misses"), 1.0);
}

// ---- output-failure containment (ordered emitter, dead sink) ---------------

/// A streambuf that accepts `limit` characters and then reports failure on
/// every overflow — the in-process stand-in for EPIPE / a full disk.
class FailAfterBuf : public std::streambuf {
 public:
  explicit FailAfterBuf(std::size_t limit) : limit_(limit) {}
  [[nodiscard]] const std::string& written() const { return written_; }

 protected:
  int overflow(int ch) override {
    if (written_.size() >= limit_) return traits_type::eof();
    if (ch != traits_type::eof()) {
      written_.push_back(static_cast<char>(ch));
    }
    return ch;
  }

 private:
  std::size_t limit_;
  std::string written_;
};

TEST(BatchOutputFailure, DeadSinkRaisesTypedIoInsteadOfSilentTruncation) {
  std::vector<std::string> lines;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    lines.push_back(format_instance_record(
        workloads::uniform_instance(config(seed)), "r"));
  }
  std::string input;
  for (const std::string& line : lines) input += line + "\n";

  // Reference: how large is the healthy output?
  BatchOptions options;
  options.threads = 1;
  const std::string healthy = run(lines, options).first;

  // Sink dies after ~3 result lines. The pipeline must stop scheduling,
  // drain, and throw a typed kIo — not return a quietly truncated batch.
  std::istringstream in(input);
  FailAfterBuf buf(healthy.size() / 6);
  std::ostream out(&buf);
  try {
    (void)run_batch(in, out, options);
    FAIL() << "expected util::Error(kIo) from the dead sink";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kIo);
    EXPECT_NE(std::string(e.what()).find("output stream failed"),
              std::string::npos);
  }
  // What WAS written is a clean prefix of the healthy run: whole lines only
  // up to the failure point, never interleaved or reordered garbage.
  const std::string& partial = buf.written();
  EXPECT_EQ(healthy.compare(0, partial.size(), partial), 0)
      << "partial output must be a byte prefix of the healthy output";
}

TEST(BatchOutputFailure, DeadSinkAtEveryThreadCountStaysTyped) {
  std::vector<std::string> lines;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    lines.push_back(format_instance_record(
        workloads::uniform_instance(config(seed)), ""));
  }
  std::string input;
  for (const std::string& line : lines) input += line + "\n";
  for (const std::size_t threads : {1u, 2u, 8u}) {
    BatchOptions options;
    options.threads = threads;
    std::istringstream in(input);
    FailAfterBuf buf(64);
    std::ostream out(&buf);
    EXPECT_THROW((void)run_batch(in, out, options), util::Error)
        << "threads=" << threads;
  }
}

// ---- per-record deadlines ---------------------------------------------------

TEST(BatchDeadline, RecordFieldCapsStepsAndYieldsTypedErrorLine) {
  const std::string big = format_instance_record(
      workloads::uniform_instance(config(3, /*jobs=*/200)), "slow");
  // A 1-step budget cannot finish a 200-job instance.
  util::Json doc = util::Json::parse(big);
  doc.emplace("deadline_steps", 1);
  const std::string capped = doc.dump();

  BatchOptions options;
  options.threads = 1;
  const auto [text, summary] = run({capped}, options);
  EXPECT_EQ(summary.failed, 1u);
  const std::vector<std::string> out = output_lines(text);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_NE(out[0].find("\"deadline_exceeded\""), std::string::npos);
  EXPECT_NE(out[0].find("\"id\":\"slow\""), std::string::npos)
      << "the caller's label must survive a deadline abort";
  EXPECT_NE(text.find("\"batch.deadline_exceeded\":1"), std::string::npos);
}

TEST(BatchDeadline, DefaultBudgetAppliesOnlyToRecordsWithoutTheirOwn) {
  const std::string small = format_instance_record(
      workloads::uniform_instance(config(1, /*jobs=*/6)), "small");
  util::Json generous = util::Json::parse(small);
  generous.emplace("deadline_steps", 1'000'000);
  BatchOptions options;
  options.threads = 1;
  options.default_deadline_steps = 1;  // absurdly tight default
  const auto [text, summary] = run({small, generous.dump()}, options);
  EXPECT_EQ(summary.failed, 1u) << "only the defaulted record may expire";
  EXPECT_EQ(summary.ok, 1u);
  const std::vector<std::string> out = output_lines(text);
  EXPECT_NE(out[0].find("deadline_exceeded"), std::string::npos);
  EXPECT_NE(out[1].find("\"ok\":true"), std::string::npos);
}

/// Step-loop iterations `solve` runs: the count a "deadline_steps" budget
/// is charged against.
std::uint64_t deadline_steps_of(const std::function<void()>& solve) {
  const util::deadline::Scope scope({});
  solve();
  return scope.steps();
}

TEST(BatchDeadline, ScratchSurvivesAnAbortedSolve) {
  // For every engine-backed row of the solver table: record 1 aborts
  // mid-run; record 2 (same worker, same scratch) must still produce output
  // byte-identical to a fresh single-record run — the engines' strong
  // guarantee + reset() rebind contract.
  struct AbortCase {
    std::string where;  ///< the step loop the budget must expire in
    core::Instance doomed;
    std::uint64_t budget;
    core::Instance healthy;
  };
  const core::Instance general =
      workloads::uniform_instance(config(5, /*jobs=*/150));
  const core::Instance general_after =
      workloads::uniform_instance(config(6, /*jobs=*/20));
  const core::Instance unit =
      workloads::uniform_instance(config(5, /*jobs=*/150, /*max_size=*/1));
  const core::Instance unit_after =
      workloads::uniform_instance(config(6, /*jobs=*/20, /*max_size=*/1));
  workloads::MultiResConfig multi_cfg;
  multi_cfg.machines = 4;
  multi_cfg.max_size = 3;
  multi_cfg.jobs = 150;
  multi_cfg.seed = 5;
  const core::Instance multi =
      workloads::correlated_multires_instance(multi_cfg);
  multi_cfg.jobs = 20;
  multi_cfg.seed = 6;
  const core::Instance multi_after =
      workloads::correlated_multires_instance(multi_cfg);

  // The improved portfolio runs the balanced engine, then the window
  // engine, under one budget: abort once in each.
  const std::uint64_t balanced_steps = deadline_steps_of([&] {
    core::ImprovedEngine engine(
        general, {.machine_cap = 4, .budget = general.capacity()});
    core::Schedule out;
    engine.run(out);
  });
  const std::uint64_t window_steps =
      deadline_steps_of([&] { (void)core::schedule_sos(general); });
  ASSERT_GE(balanced_steps, 2u);
  ASSERT_GE(window_steps, 2u);

  const std::map<std::string, std::vector<AbortCase>> cases = {
      {"window", {{"sos_engine.step", general, 2, general_after}}},
      {"unit", {{"unit_engine.step", unit, 2, unit_after}}},
      {"improved",
       {{"improved_engine.step", general, balanced_steps / 2, general_after},
        {"sos_engine.step", general, balanced_steps + window_steps / 2,
         general_after}}},
      {"multires",
       {{"sos_engine.step", general, 2, general_after},
        {"multires_engine.step", multi, 2, multi_after}}},
  };

  std::size_t covered = 0;
  for (const Solver& solver : solvers()) {
    const std::string name(solver.name);
    const auto row = cases.find(name);
    if (row == cases.end()) {
      // The baselines keep no engine state (batch/solver.cpp).
      EXPECT_TRUE(name == "gg" || name == "equalsplit" ||
                  name == "sequential")
          << "no aborted-solve case for engine-backed row '" << name << "'";
      continue;
    }
    for (const AbortCase& c : row->second) {
      SCOPED_TRACE(name + ", abort in " + c.where);
      util::Json doomed = util::Json::parse(
          format_instance_record(c.doomed, "doomed"));
      doomed.emplace("deadline_steps", c.budget);
      const std::string healthy = format_instance_record(c.healthy, "after");

      BatchOptions options;
      options.algorithm = name;
      options.threads = 1;
      options.emit_schedules = true;
      const std::vector<std::string> paired =
          output_lines(run({doomed.dump(), healthy}, options).first);
      const std::vector<std::string> alone =
          output_lines(run({healthy}, options).first);
      EXPECT_NE(paired.at(0).find("deadline exceeded at '" + c.where + "'"),
                std::string::npos)
          << paired.at(0);
      // The healthy record's line (index differs, so compare from the id on).
      const std::string& paired_line = paired.at(1);
      const std::string& alone_line = alone.at(0);
      EXPECT_NE(paired_line.find("\"ok\":true"), std::string::npos);
      EXPECT_EQ(paired_line.substr(paired_line.find("\"id\"")),
                alone_line.substr(alone_line.find("\"id\"")));
      ++covered;
    }
  }
  EXPECT_EQ(covered, 6u);
}

TEST(BatchDeadline, NegativeAndMalformedDeadlineFieldsAreTypedErrors) {
  const std::string base = format_instance_record(
      workloads::uniform_instance(config(2)), "x");
  util::Json neg = util::Json::parse(base);
  neg.emplace("deadline_steps", -3);
  util::Json frac = util::Json::parse(base);
  frac.emplace("deadline_steps", 1.5);
  for (const std::string& line : {neg.dump(), frac.dump()}) {
    try {
      (void)parse_instance_record(line);
      FAIL() << "accepted: " << line;
    } catch (const util::Error& e) {
      EXPECT_EQ(e.code(), util::ErrorCode::kParse) << line;
    }
  }
}

}  // namespace
}  // namespace sharedres::batch
