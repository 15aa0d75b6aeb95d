// Serialization round-trips and parse-error reporting.
#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/baselines.hpp"
#include "cache/canonical.hpp"
#include "core/improved_scheduler.hpp"
#include "core/multires_scheduler.hpp"
#include "core/sos_scheduler.hpp"
#include "core/validator.hpp"
#include "io/text_io.hpp"
#include "util/checked.hpp"
#include "workloads/binpack_generators.hpp"
#include "workloads/multires_generators.hpp"
#include "workloads/sas_generators.hpp"
#include "workloads/sos_generators.hpp"

namespace sharedres {
namespace {

TEST(TextIo, InstanceRoundTrip) {
  const core::Instance inst = workloads::uniform_instance(
      {.machines = 5, .capacity = 997, .jobs = 30, .max_size = 4, .seed = 9});
  std::stringstream buffer;
  io::write_instance(buffer, inst);
  const core::Instance back = io::read_instance(buffer);
  EXPECT_EQ(back.machines(), inst.machines());
  EXPECT_EQ(back.capacity(), inst.capacity());
  EXPECT_EQ(back.jobs(), inst.jobs());
}

TEST(TextIo, ScheduleRoundTripPreservesValidity) {
  const core::Instance inst = workloads::bimodal_instance(
      {.machines = 4, .capacity = 1'000, .jobs = 25, .max_size = 3,
       .seed = 11});
  const core::Schedule schedule = core::schedule_sos(inst);
  std::stringstream buffer;
  io::write_schedule(buffer, schedule);
  const core::Schedule back = io::read_schedule(buffer);
  EXPECT_EQ(back, schedule);
  EXPECT_TRUE(core::validate(inst, back).ok);
}

/// The reference for append_schedule: build the scaled copy, then write it.
/// nullopt when decanonicalize_schedule throws OverflowError.
std::optional<std::string> reference_scaled_text(const core::Schedule& s,
                                                 core::Res scale) {
  core::Schedule scaled;
  try {
    scaled = cache::decanonicalize_schedule(s, scale);
  } catch (const util::OverflowError&) {
    return std::nullopt;
  }
  std::ostringstream os;
  io::write_schedule(os, scaled);
  return os.str();
}

TEST(TextIo, AppendScheduleEqualsWriteOfDecanonicalizedSchedule) {
  const workloads::SosConfig cfg{
      .machines = 4, .capacity = 1'000, .jobs = 30, .max_size = 3, .seed = 23};
  const core::Instance general = workloads::bimodal_instance(cfg);
  const core::Instance unit =
      workloads::uniform_instance({.machines = 5, .capacity = 997, .jobs = 40,
                                   .max_size = 1, .seed = 29});
  const core::Instance two_axis = workloads::correlated_multires_instance(
      {.machines = 4, .resources = 2, .capacity = 500, .jobs = 20,
       .max_size = 2, .seed = 31});
  const std::vector<std::pair<std::string, core::Schedule>> engines = {
      {"window", core::schedule_sos(general)},
      {"unit", core::schedule_sos_unit(unit)},
      {"improved", core::schedule_improved(general)},
      {"multires", core::schedule_multires(two_axis)},
      {"gg", baselines::schedule_garey_graham(general)},
      {"equalsplit", baselines::schedule_equal_split(general)},
      {"sequential", baselines::schedule_sequential(general)},
      {"empty", core::Schedule{}},
  };
  for (const auto& [engine, schedule] : engines) {
    for (const core::Res scale : {core::Res{1}, core::Res{2}, core::Res{7},
                                  core::Res{1} << 31}) {
      const std::optional<std::string> want =
          reference_scaled_text(schedule, scale);
      ASSERT_TRUE(want.has_value()) << engine << " x" << scale;
      std::string got = "kept prefix\n";
      io::append_schedule(got, schedule, scale);
      EXPECT_EQ(got, "kept prefix\n" + *want) << engine << " x" << scale;
    }
  }
}

TEST(TextIo, AppendScheduleOverflowsExactlyWhenDecanonicalizeDoes) {
  constexpr core::Res kMax = std::numeric_limits<core::Res>::max();
  constexpr core::Res kMin = std::numeric_limits<core::Res>::min();
  for (const core::Res scale : {core::Res{1}, core::Res{2}, core::Res{7},
                                core::Res{1} << 31}) {
    // Shares on both sides of the 64-bit edge after scaling, in a later
    // block so that a partial write would show.
    std::vector<core::Res> shares = {kMax / scale, kMin / scale};
    if (scale > 1) {
      shares.push_back(kMax / scale + 1);
      shares.push_back(kMin / scale - 1);
    }
    for (const core::Res big : shares) {
      core::Schedule schedule;
      schedule.append(2, {{0, 5}, {1, 9}});
      schedule.append(1, {{1, big}});
      const std::optional<std::string> want =
          reference_scaled_text(schedule, scale);
      std::string got = "kept";
      bool threw = false;
      try {
        io::append_schedule(got, schedule, scale);
      } catch (const util::OverflowError&) {
        threw = true;
      }
      EXPECT_EQ(threw, !want.has_value()) << big << " x" << scale;
      const std::string expected = want && !threw ? "kept" + *want : "kept";
      EXPECT_EQ(got, expected) << big << " x" << scale;
    }
  }
}

TEST(TextIo, SasRoundTrip) {
  const sas::SasInstance inst = workloads::mixed_task_set(
      {.machines = 8, .capacity = 10'000, .tasks = 12, .min_jobs = 1,
       .max_jobs = 6, .seed = 13});
  std::stringstream buffer;
  io::write_sas(buffer, inst);
  const sas::SasInstance back = io::read_sas(buffer);
  ASSERT_EQ(back.tasks.size(), inst.tasks.size());
  for (std::size_t i = 0; i < inst.tasks.size(); ++i) {
    EXPECT_EQ(back.tasks[i].requirements, inst.tasks[i].requirements);
  }
}

TEST(TextIo, PackingRoundTrip) {
  const binpack::PackingInstance inst = workloads::router_tables(
      {.capacity = 1'000, .cardinality = 3, .items = 20, .seed = 15});
  std::stringstream buffer;
  io::write_packing_instance(buffer, inst);
  const binpack::PackingInstance back = io::read_packing_instance(buffer);
  EXPECT_EQ(back.capacity, inst.capacity);
  EXPECT_EQ(back.cardinality, inst.cardinality);
  EXPECT_EQ(back.items, inst.items);
}

TEST(TextIo, OnlineRoundTrip) {
  const online::OnlineInstance inst = workloads::online_arrivals(
      "uniform",
      {.machines = 4, .capacity = 2'000, .jobs = 20, .max_size = 3,
       .seed = 19},
      4, 2);
  std::stringstream buffer;
  io::write_online(buffer, inst);
  const online::OnlineInstance back = io::read_online(buffer);
  ASSERT_EQ(back.size(), inst.size());
  for (std::size_t j = 0; j < inst.size(); ++j) {
    EXPECT_EQ(back.jobs[j].release, inst.jobs[j].release);
    EXPECT_EQ(back.jobs[j].job, inst.jobs[j].job);
  }
}

TEST(TextIo, CommentsAndBlankLinesIgnored) {
  std::stringstream buffer(
      "# sharedres instance v1\n"
      "\n"
      "# a comment\n"
      "machines 2\n"
      "capacity 10\n"
      "jobs 1\n"
      "# another comment\n"
      "job 2 5\n");
  const core::Instance inst = io::read_instance(buffer);
  EXPECT_EQ(inst.size(), 1u);
  EXPECT_EQ(inst.job(0).size, 2);
}

TEST(TextIo, ErrorsCarryLineNumbers) {
  std::stringstream missing_header("machines 2\n");
  EXPECT_THROW((void)io::read_instance(missing_header), std::runtime_error);

  std::stringstream bad_number(
      "# sharedres instance v1\nmachines two\n");
  try {
    (void)io::read_instance(bad_number);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }

  std::stringstream truncated(
      "# sharedres instance v1\nmachines 2\ncapacity 10\njobs 2\njob 1 5\n");
  EXPECT_THROW((void)io::read_instance(truncated), std::runtime_error);

  std::stringstream bad_block(
      "# sharedres schedule v1\nblocks 1\nblock 1 2 0:5\n");
  EXPECT_THROW((void)io::read_schedule(bad_block), std::runtime_error);
}

TEST(TextIo, FileHelpers) {
  const core::Instance inst = workloads::uniform_instance(
      {.machines = 3, .capacity = 50, .jobs = 5, .max_size = 2, .seed = 17});
  const std::string path = ::testing::TempDir() + "/sharedres_io_test.txt";
  io::save_instance(path, inst);
  const core::Instance back = io::load_instance(path);
  EXPECT_EQ(back.jobs(), inst.jobs());
  EXPECT_THROW((void)io::load_instance("/nonexistent/nope.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace sharedres
