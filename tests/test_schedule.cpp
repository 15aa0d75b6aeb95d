// core::Schedule's contract, and the allocation guard on the solve path.
//
// Schedule stores its blocks in two flat arrays (schedule.hpp), so appending
// copies into their tails and reset()/rollback() only truncate. The cases
// below pin that contract: merging, a rollback across a merge, reset keeping
// capacity, copies, and the schedule.* counters.
//
// The guard: this executable replaces the global operator new and delete
// with versions that count calls while a flag is up, so a test can count
// what one call allocates and frees. On a warm batch::WorkerScratch a solve
// through batch::solve_into must allocate the same number of times for a
// ~20-block and a ~500-block record on the window, unit, improved and
// multires rows: no allocation or free may scale with the block count.
//
// Sanitizers that interpose the allocator (ASan, TSan, MSan) keep their own
// operator new; there the counting is compiled out and those cases skip.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <stdexcept>
#include <vector>

#include "batch/worker.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "obs/registry.hpp"
#include "workloads/multires_generators.hpp"
#include "workloads/sos_generators.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SHAREDRES_ALLOCATOR_INTERPOSED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define SHAREDRES_ALLOCATOR_INTERPOSED 1
#endif
#endif

namespace {

// Per thread, so nothing another thread does is counted.
thread_local bool t_counting = false;
thread_local std::size_t t_allocations = 0;
thread_local std::size_t t_frees = 0;

[[maybe_unused]] void* allocate(std::size_t size, std::size_t align) {
  if (t_counting) ++t_allocations;
  // aligned_alloc wants a positive multiple of the alignment.
  void* p = align == 0 ? std::malloc(size == 0 ? 1 : size)
                       : std::aligned_alloc(
                             align, size == 0 ? align
                                              : (size + align - 1) / align *
                                                    align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

[[maybe_unused]] void release(void* p) noexcept {
  if (p != nullptr && t_counting) ++t_frees;
  std::free(p);
}

}  // namespace

#ifndef SHAREDRES_ALLOCATOR_INTERPOSED

void* operator new(std::size_t size) { return allocate(size, 0); }
void* operator new[](std::size_t size) { return allocate(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

#endif  // SHAREDRES_ALLOCATOR_INTERPOSED

namespace sharedres {
namespace {

using core::Assignment;
using core::Instance;
using core::Schedule;

/// Allocations and frees made by one call.
struct HeapUse {
  std::size_t allocations = 0;
  std::size_t frees = 0;
};

template <class Fn>
HeapUse heap_use(Fn&& fn) {
  t_allocations = 0;
  t_frees = 0;
  t_counting = true;
  fn();
  t_counting = false;
  return {t_allocations, t_frees};
}

#ifdef SHAREDRES_ALLOCATOR_INTERPOSED
#define SKIP_WITHOUT_COUNTING() \
  GTEST_SKIP() << "a sanitizer interposes the allocator"
#else
#define SKIP_WITHOUT_COUNTING() (void)0
#endif

std::uint64_t global_count(const char* name) {
  return obs::Registry::global().counter(name).value();
}

// ---- the contract ----------------------------------------------------------

TEST(ScheduleContract, IdenticalNeighboursMergeIntoOneBlock) {
  Schedule s;
  s.append(2, {Assignment{0, 5}, Assignment{1, 3}});
  s.append(3, {Assignment{0, 5}, Assignment{1, 3}});
  s.append(1, {Assignment{0, 5}});
  s.append(4, {});
  s.append(2, {});
  EXPECT_EQ(s.makespan(), 12);
  const Schedule::BlockRange blocks = s.blocks();
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0].length, 5);
  EXPECT_EQ(blocks[0].assignments.size(), 2u);
  EXPECT_EQ(blocks[0].assignments[1], (Assignment{1, 3}));
  EXPECT_EQ(blocks[1].length, 1);
  EXPECT_EQ(blocks[2].length, 6);
  EXPECT_TRUE(blocks[2].assignments.empty());
  EXPECT_EQ(blocks.back().length, 6);

  // Iteration and indexing see the same blocks.
  std::size_t i = 0;
  for (const core::BlockView b : blocks) {
    EXPECT_EQ(b.length, blocks[i].length) << i;
    EXPECT_EQ(b.assignments.data(), blocks[i].assignments.data()) << i;
    ++i;
  }
  EXPECT_EQ(i, 3u);
  const std::vector<core::Block> copied = s.copy_blocks();
  ASSERT_EQ(copied.size(), 3u);
  EXPECT_EQ(copied[0], (core::Block{5, {Assignment{0, 5}, Assignment{1, 3}}}));
  EXPECT_EQ(copied[2], (core::Block{6, {}}));
}

TEST(ScheduleContract, RollbackAcrossAMergeRestoresLengthAndTail) {
  Schedule s;
  s.append(1, {Assignment{2, 1}});
  s.append(2, {Assignment{0, 5}});
  const Schedule before = s;
  const Schedule::Mark mark = s.mark();
  s.append(3, {Assignment{0, 5}});  // merges into the pre-mark block
  s.append(1, {Assignment{1, 2}, Assignment{0, 1}});
  s.append(1, {Assignment{1, 2}, Assignment{0, 1}});
  ASSERT_EQ(s.blocks().size(), 3u);
  ASSERT_EQ(s.makespan(), 8);

  s.rollback(mark);
  EXPECT_EQ(s, before);
  EXPECT_EQ(s.blocks().back().length, 2);
  EXPECT_EQ(s.makespan(), 3);
  // The tail is gone, not hidden: the next append lands right after it.
  s.append(4, {Assignment{3, 7}});
  ASSERT_EQ(s.blocks().size(), 3u);
  EXPECT_EQ(s.blocks()[2].assignments.size(), 1u);
  EXPECT_EQ(s.blocks()[2].assignments[0], (Assignment{3, 7}));
  EXPECT_EQ(s.makespan(), 7);

  // A mark past the end is an error, and changes nothing.
  Schedule empty;
  EXPECT_THROW(empty.rollback(mark), std::invalid_argument);
  EXPECT_TRUE(empty.empty());
}

TEST(ScheduleContract, CopiesCompareEqualAndAnyDifferenceShows) {
  Schedule s;
  for (int i = 0; i < 40; ++i) {
    s.append(1 + i % 3, {Assignment{static_cast<core::JobId>(i), 2},
                         Assignment{static_cast<core::JobId>(i + 1), 1}});
  }
  const Schedule copy = s;
  EXPECT_EQ(copy, s);
  EXPECT_EQ(copy.storage_bytes(), s.storage_bytes());

  // The same blocks, split at another step: not equal.
  Schedule one;
  one.append(2, {Assignment{0, 1}});
  one.append(1, {Assignment{1, 1}});
  Schedule other;
  other.append(1, {Assignment{0, 1}});
  other.append(2, {Assignment{1, 1}});
  EXPECT_NE(one, other);
  // Same lengths, one share apart: not equal.
  Schedule third;
  third.append(2, {Assignment{0, 1}});
  third.append(1, {Assignment{1, 2}});
  EXPECT_NE(one, third);
}

TEST(ScheduleContract, CopyCostsTwoAllocationsWhateverTheBlockCount) {
  SKIP_WITHOUT_COUNTING();
  for (const int blocks : {3, 300}) {
    Schedule s;
    for (int i = 0; i < blocks; ++i) {
      s.append(1, {Assignment{static_cast<core::JobId>(i), 1},
                   Assignment{static_cast<core::JobId>(i + 1), 1}});
    }
    std::optional<Schedule> copy;
    const HeapUse use = heap_use([&] { copy.emplace(s); });
    EXPECT_EQ(use.allocations, 2u) << blocks << " blocks";
    EXPECT_EQ(use.frees, 0u) << blocks << " blocks";
    EXPECT_EQ(*copy, s);
  }
}

TEST(ScheduleContract, ResetKeepsCapacitySoARefillAllocatesNothing) {
  SKIP_WITHOUT_COUNTING();
  Schedule s;
  const auto fill = [&] {
    for (int i = 0; i < 500; ++i) {
      s.append(1 + i % 2, {Assignment{static_cast<core::JobId>(i), 3},
                           Assignment{static_cast<core::JobId>(i + 1), 4}});
    }
  };
  fill();
  const Schedule first = s;
  const HeapUse reset_use = heap_use([&] { s.reset(); });
  EXPECT_EQ(reset_use.frees, 0u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.makespan(), 0);
  EXPECT_EQ(s.blocks().size(), 0u);
  const HeapUse refill = heap_use(fill);
  EXPECT_EQ(refill.allocations, 0u);
  EXPECT_EQ(refill.frees, 0u);
  EXPECT_EQ(s, first);

  // A rollback truncates in place as well. (The first rollback in the
  // process registers its counters, so one runs before the count.)
  s.reset();
  const Schedule::Mark mark = s.mark();
  s.rollback(mark);
  const HeapUse rolled = heap_use([&] {
    fill();
    s.rollback(mark);
    fill();
  });
  EXPECT_EQ(rolled.allocations, 0u);
  EXPECT_EQ(rolled.frees, 0u);
  EXPECT_EQ(s, first);
}

TEST(ScheduleContract, CountsEveryAppendAndEveryMerge) {
  if (!obs::enabled()) GTEST_SKIP() << "built without observability";
  const std::uint64_t appended = global_count("schedule.blocks_appended");
  const std::uint64_t merges = global_count("schedule.block_merges");
  const std::uint64_t rollbacks = global_count("schedule.rollbacks");
  const std::uint64_t discarded =
      global_count("schedule.rollback_blocks_discarded");
  Schedule s;
  s.append(1, {Assignment{0, 1}});
  const Schedule::Mark mark = s.mark();
  s.append(2, {Assignment{0, 1}});  // merge
  s.append(1, {Assignment{1, 1}});
  s.append(1, {Assignment{1, 1}});  // merge
  s.append(1, {});
  EXPECT_THROW(s.append(0, {}), std::invalid_argument);  // not counted
  s.rollback(mark);
  EXPECT_EQ(global_count("schedule.blocks_appended") - appended, 5u);
  EXPECT_EQ(global_count("schedule.block_merges") - merges, 2u);
  EXPECT_EQ(global_count("schedule.rollbacks") - rollbacks, 1u);
  EXPECT_EQ(global_count("schedule.rollback_blocks_discarded") - discarded,
            2u);
}

// ---- the allocation guard --------------------------------------------------

struct GuardCase {
  const char* algorithm;
  Instance small;  ///< ~20 blocks
  Instance large;  ///< ~500 blocks
};

Instance sos_instance(std::size_t jobs, std::uint64_t seed, bool unit) {
  workloads::SosConfig cfg;
  cfg.machines = 8;
  cfg.jobs = jobs;
  cfg.max_size = unit ? 1 : 40;
  cfg.seed = seed;
  return workloads::uniform_instance(cfg);
}

Instance multires_instance(std::size_t jobs, std::uint64_t seed) {
  workloads::MultiResConfig cfg;
  cfg.machines = 8;
  cfg.resources = 2;
  cfg.jobs = jobs;
  cfg.max_size = 40;
  cfg.seed = seed;
  return workloads::correlated_multires_instance(cfg);
}

std::vector<GuardCase> guard_cases() {
  std::vector<GuardCase> cases;
  cases.push_back({"window", sos_instance(18, 3, false),
                   sos_instance(480, 4, false)});
  cases.push_back({"unit", sos_instance(70, 5, true),
                   sos_instance(1800, 6, true)});
  cases.push_back({"improved", sos_instance(20, 7, false),
                   sos_instance(500, 8, false)});
  cases.push_back({"multires", multires_instance(20, 9),
                   multires_instance(540, 10)});
  return cases;
}

TEST(AllocationGuard, WarmSolvesAllocateTheSameForSmallAndLargeRecords) {
  SKIP_WITHOUT_COUNTING();
  for (const GuardCase& c : guard_cases()) {
    SCOPED_TRACE(c.algorithm);
    batch::WorkerScratch scratch;
    const auto solve = [&](const Instance& inst) {
      batch::solve_into(inst, c.algorithm, scratch);
    };
    // Warm up: the portfolio swaps its output with its runner-up, so each
    // of the two schedules has to grow to the larger record's size.
    for (int round = 0; round < 3; ++round) {
      solve(c.large);
      solve(c.small);
    }
    solve(c.small);
    const std::size_t small_blocks = scratch.schedule.blocks().size();
    solve(c.large);
    const std::size_t large_blocks = scratch.schedule.blocks().size();
    EXPECT_LE(small_blocks, 30u);
    EXPECT_GE(large_blocks, 400u);

    const HeapUse small = heap_use([&] { solve(c.small); });
    const HeapUse large = heap_use([&] { solve(c.large); });
    EXPECT_EQ(small.allocations, large.allocations)
        << small_blocks << " vs " << large_blocks << " blocks";
    EXPECT_EQ(small.frees, large.frees)
        << small_blocks << " vs " << large_blocks << " blocks";
    // The constant is zero: a warm scratch solves without the heap.
    EXPECT_EQ(large.allocations, 0u);
    EXPECT_EQ(large.frees, 0u);
  }
}

}  // namespace
}  // namespace sharedres
