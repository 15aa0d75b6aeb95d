// Metamorphic suite for the canonicalization layer (src/cache) — the
// properties the solve cache's correctness stands on:
//
//   * permutation invariance: any job reordering produces the same canonical
//     key, hash, and — because core::Instance sorts by a total order — the
//     same engine schedules bit-for-bit;
//   * scaling invariance: multiplying every r_j and the capacity by a common
//     factor c produces the same canonical key, with schedules that differ
//     exactly by share · c;
//   * idempotence: canon(canon(I)) == canon(I) with scale 1.
//
// Plus unit tests of SolveCache itself: coalescing, LRU eviction at tiny
// capacities, abandoned-producer fallback, and the stats counters the batch
// summary exposes.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <thread>
#include <vector>

#include "cache/canonical.hpp"
#include "cache/solve_cache.hpp"
#include "core/lower_bounds.hpp"
#include "core/multires_scheduler.hpp"
#include "core/sos_scheduler.hpp"
#include "workloads/sos_generators.hpp"

namespace sharedres {
namespace {

using cache::CanonicalForm;
using cache::canonicalize;
using cache::decanonicalize_schedule;
using cache::Hash128;
using cache::SolveCache;
using core::Instance;
using core::Job;
using core::Res;
using core::Schedule;

std::vector<Job> shuffled(const Instance& inst, std::uint64_t seed) {
  std::vector<Job> jobs(inst.jobs().begin(), inst.jobs().end());
  std::mt19937_64 rng(seed);
  std::shuffle(jobs.begin(), jobs.end(), rng);
  return jobs;
}

Instance scaled(const Instance& inst, Res c) {
  std::vector<Job> jobs;
  jobs.reserve(inst.size());
  for (const Job& j : inst.jobs()) {
    jobs.push_back(Job{j.size, j.requirement * c});
  }
  return Instance(inst.machines(), inst.capacity() * c, std::move(jobs));
}

/// Shares multiplied by c, block structure untouched — the expected image of
/// a schedule under the scaling metamorphosis.
Schedule share_scaled(const Schedule& s, Res c) {
  return decanonicalize_schedule(s, c);
}

TEST(Canonical, IdempotentAndScaleFree) {
  const Instance inst(4, 12, {Job{2, 6}, Job{1, 9}, Job{3, 3}});
  const CanonicalForm once = canonicalize(inst);
  // gcd(12, 6, 9, 3) = 3.
  EXPECT_EQ(once.scale, 3);
  EXPECT_EQ(once.instance().capacity(), 4);
  const CanonicalForm twice = canonicalize(once.instance());
  EXPECT_EQ(twice.scale, 1);
  EXPECT_EQ(twice.key, once.key);
  EXPECT_EQ(twice.hash, once.hash);
}

TEST(Canonical, EmptyInstanceNormalizesCapacityToOne) {
  const CanonicalForm a = canonicalize(Instance(3, 1000, {}));
  const CanonicalForm b = canonicalize(Instance(3, 7, {}));
  EXPECT_EQ(a.instance().capacity(), 1);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.scale, 1000);
  EXPECT_EQ(b.scale, 7);
  // Different machine counts are NOT equivalent.
  const CanonicalForm c = canonicalize(Instance(4, 1000, {}));
  EXPECT_NE(a.key, c.key);
}

TEST(Canonical, KeySeparatesNonEquivalentInstances) {
  const CanonicalForm base =
      canonicalize(Instance(3, 10, {Job{2, 4}, Job{1, 6}}));
  // Different size, different requirement, extra job, different m: all
  // distinct keys (and, in practice, distinct hashes).
  const std::vector<Instance> different = {
      Instance(3, 10, {Job{3, 4}, Job{1, 6}}),
      Instance(3, 10, {Job{2, 5}, Job{1, 6}}),
      Instance(3, 10, {Job{2, 4}, Job{1, 6}, Job{1, 1}}),
      Instance(4, 10, {Job{2, 4}, Job{1, 6}}),
  };
  for (const Instance& inst : different) {
    const CanonicalForm other = canonicalize(inst);
    EXPECT_NE(other.key, base.key);
    EXPECT_NE(other.hash, base.hash);
  }
}

TEST(Canonical, HashIsStableAcrossProcessRuns) {
  // Pinned values: the key layout and mixing constants are part of the
  // format (kKeyFormatVersion). If this test fails you changed the hash —
  // bump the version byte and regenerate these constants deliberately.
  // hash.hi also picks the cache shard, so a changed value changes which
  // entries evict each other and every cache.* counter.
  const CanonicalForm form =
      canonicalize(Instance(3, 10, {Job{2, 4}, Job{1, 6}}));
  const Hash128 again = cache::hash_bytes(form.key);
  EXPECT_EQ(form.hash, again);
  EXPECT_EQ(form.hash,
            (Hash128{0x0c1a59d18bd1cfcdULL, 0x54d55859d2eed3d9ULL}));
  const CanonicalForm empty = canonicalize(Instance(2, 5, {}));
  EXPECT_EQ(canonicalize(Instance(2, 35, {})).hash, empty.hash);
  EXPECT_EQ(empty.hash,
            (Hash128{0xc9518138e275d179ULL, 0x14017eec332d972dULL}));

  // 100 jobs with a common factor 3: the reduced d = 1 key path.
  std::vector<Job> hundred;
  for (Res j = 0; j < 100; ++j) {
    hundred.push_back(Job{1 + j % 5, 3 * (1 + (j * 7) % 11)});
  }
  const CanonicalForm reduced = canonicalize(Instance(4, 30, hundred));
  EXPECT_EQ(reduced.scale, 3);
  EXPECT_EQ(reduced.hash,
            (Hash128{0xe30c4e6728413c2dULL, 0x51756f070ad5f74aULL}));
  const CanonicalForm two_axis = canonicalize(
      Instance(3, std::vector<Res>{10, 6},
               {core::MultiJob{2, {4, 3}}, core::MultiJob{1, {6, 2}},
                core::MultiJob{3, {2, 4}}}));
  EXPECT_EQ(two_axis.hash,
            (Hash128{0x3c81b3008b41547cULL, 0x7d086d9f6497b730ULL}));
}

TEST(Canonical, HashBytesIsPinnedForEveryTailLength) {
  // Lengths 0–17 cover two full words and every tail length 0–7. Byte k of
  // each input is 29k + 7 (mod 256).
  const Hash128 pinned[] = {
      {0x3c058032217bb558ULL, 0xe143e5859dfa6f0dULL},
      {0xe619c1565772450bULL, 0xb85d18a7202c0198ULL},
      {0x3af3fd1c4073a2ffULL, 0xc2da591539a3f049ULL},
      {0x1449d1e042f27e0fULL, 0x108362fb9e702729ULL},
      {0x0e742dcdba43dba0ULL, 0xf24c3a8c53b70e54ULL},
      {0xcd929e5b1b72fe5cULL, 0x44575a11db982b4cULL},
      {0x38e94fdff46f541aULL, 0xd397a75452cd447aULL},
      {0xb11299064503ee0bULL, 0x623e918fa7d6e3a7ULL},
      {0x006f686c18bdb32bULL, 0x24f14673fbd8fa8dULL},
      {0x5f239e87aa196f18ULL, 0x73b74ec93482073eULL},
      {0xf12f7069dc673410ULL, 0x60edccfd7cd31045ULL},
      {0x79e68c32d27ecfcfULL, 0xcbfcc57a997bdc67ULL},
      {0xc68147fdaacf4e28ULL, 0xbbbd27a8288c4bccULL},
      {0x7adecddfc084d8c7ULL, 0xe6648ff2bc8a0a4fULL},
      {0x32bf81a5fab81239ULL, 0x41c408dd9fb7f81bULL},
      {0x48f8893ef4369443ULL, 0x3adf9cbef9cf3623ULL},
      {0x2443e5dd1ebe3a0aULL, 0x07b887ff1cadc741ULL},
      {0xcf6824db73540a71ULL, 0xf4935ecddcfde1bfULL},
  };
  std::vector<std::uint8_t> bytes;
  for (const Hash128& expected : pinned) {
    SCOPED_TRACE(::testing::Message() << "length " << bytes.size());
    EXPECT_EQ(cache::hash_bytes(bytes), expected);
    bytes.push_back(static_cast<std::uint8_t>(29 * bytes.size() + 7));
  }
}

TEST(Canonical, PermutationInvariance_SeededGrids) {
  for (const int m : {2, 3, 4}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const Instance inst =
          workloads::tiny_grid_instance(m, 12, 8, 4, seed);
      const CanonicalForm base = canonicalize(inst);
      for (std::uint64_t p = 0; p < 4; ++p) {
        const Instance perm(inst.machines(), inst.capacity(),
                            shuffled(inst, 100 * seed + p));
        const CanonicalForm other = canonicalize(perm);
        EXPECT_EQ(other.key, base.key);
        EXPECT_EQ(other.hash, base.hash);
        EXPECT_EQ(other.scale, base.scale);
        // The stronger engine-level fact the cache exploits: identical
        // schedules, not just identical makespans.
        EXPECT_EQ(core::schedule_sos(perm), core::schedule_sos(inst));
        if (inst.unit_size()) {
          EXPECT_EQ(core::schedule_sos_unit(perm),
                    core::schedule_sos_unit(inst));
        }
      }
    }
  }
}

TEST(Canonical, ScalingInvariance_SeededGrids) {
  for (const int m : {2, 3, 4}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const Instance inst =
          workloads::tiny_grid_instance(m, 10, 6, 3, seed);
      const CanonicalForm base = canonicalize(inst);
      for (const Res c : {2, 3, 7, 360}) {
        const Instance big = scaled(inst, c);
        const CanonicalForm other = canonicalize(big);
        EXPECT_EQ(other.key, base.key);
        EXPECT_EQ(other.hash, base.hash);
        EXPECT_EQ(other.scale, base.scale * c);
        // Schedules match exactly up to share · c.
        EXPECT_EQ(core::schedule_sos(big),
                  share_scaled(core::schedule_sos(inst), c));
        if (inst.unit_size()) {
          EXPECT_EQ(core::schedule_sos_unit(big),
                    share_scaled(core::schedule_sos_unit(inst), c));
        }
        // And the Eq. (1) lower bound is scale-free.
        EXPECT_EQ(core::lower_bounds(big).combined(),
                  core::lower_bounds(inst).combined());
      }
    }
  }
}

TEST(Canonical, CombinedMetamorphosis_WorkloadGenerators) {
  // Permute AND scale instances from the experiment generators; the
  // canonical key must collapse the whole orbit onto one representative and
  // the solved makespan must be invariant.
  workloads::SosConfig cfg;
  cfg.machines = 4;
  cfg.capacity = 1000;
  cfg.jobs = 40;
  cfg.max_size = 5;
  for (const std::string& family : workloads::instance_families()) {
    cfg.seed = 42;
    const Instance inst = workloads::make_instance(family, cfg);
    const CanonicalForm base = canonicalize(inst);
    const core::Time makespan = core::schedule_sos(inst).makespan();
    for (const Res c : {2, 5}) {
      const Instance big = scaled(inst, c);
      const Instance mixed(big.machines(), big.capacity(),
                           shuffled(big, static_cast<std::uint64_t>(7 * c)));
      const CanonicalForm other = canonicalize(mixed);
      EXPECT_EQ(other.key, base.key) << family;
      EXPECT_EQ(other.scale, base.scale * c) << family;
      EXPECT_EQ(core::schedule_sos(mixed).makespan(), makespan) << family;
    }
  }
}

TEST(Canonical, DecanonicalizeRoundTrip) {
  // Solving the canonical form and scaling shares back reproduces the
  // source schedule exactly — the identity the cached emit-schedules path
  // depends on for byte-identical output.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Instance inst = workloads::tiny_grid_instance(3, 9, 6, 4, seed);
    const CanonicalForm form = canonicalize(inst);
    EXPECT_EQ(
        decanonicalize_schedule(core::schedule_sos(form.instance()),
                                form.scale),
        core::schedule_sos(inst));
  }
}

// ---- d-resource canonicalization (DESIGN.md §16) ---------------------------

using core::MultiJob;

Instance axis_scaled(const Instance& inst, const std::vector<Res>& factors) {
  const std::size_t d = inst.resource_count();
  std::vector<Res> caps(d);
  for (std::size_t k = 0; k < d; ++k) caps[k] = inst.capacity(k) * factors[k];
  std::vector<MultiJob> jobs(inst.size());
  for (std::size_t j = 0; j < inst.size(); ++j) {
    jobs[j].size = inst.sizes()[j];
    jobs[j].requirements.resize(d);
    for (std::size_t k = 0; k < d; ++k) {
      jobs[j].requirements[k] = inst.requirement(j, k) * factors[k];
    }
  }
  return Instance(inst.machines(), std::move(caps), std::move(jobs));
}

Instance axes_permuted(const Instance& inst,
                       const std::vector<std::size_t>& perm) {
  // perm maps new axis position -> source axis; perm[0] must be 0.
  const std::size_t d = inst.resource_count();
  std::vector<Res> caps(d);
  for (std::size_t k = 0; k < d; ++k) caps[k] = inst.capacity(perm[k]);
  std::vector<MultiJob> jobs(inst.size());
  for (std::size_t j = 0; j < inst.size(); ++j) {
    jobs[j].size = inst.sizes()[j];
    jobs[j].requirements.resize(d);
    for (std::size_t k = 0; k < d; ++k) {
      jobs[j].requirements[k] = inst.requirement(j, perm[k]);
    }
  }
  return Instance(inst.machines(), std::move(caps), std::move(jobs));
}

TEST(CanonicalMultiRes, D1KeyIsByteIdenticalToClassicFormat) {
  // The multi-axis constructor at d = 1 and the classic constructor must
  // produce the same key bytes — old cache keys stay valid.
  const Instance classic(3, 12, {Job{2, 6}, Job{1, 9}});
  const Instance multi(3, {12}, {MultiJob{2, {6}}, MultiJob{1, {9}}});
  const CanonicalForm a = canonicalize(classic);
  const CanonicalForm b = canonicalize(multi);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.key[0], cache::kKeyFormatVersion);
  EXPECT_EQ(a.key[1], 1);  // dimension byte
  ASSERT_EQ(a.axis_scales.size(), 1u);
  EXPECT_EQ(a.axis_scales[0], a.scale);
}

TEST(CanonicalMultiRes, PerAxisScalingEquivariance) {
  const Instance inst(3, {12, 30},
                      {MultiJob{2, {6, 10}}, MultiJob{1, {9, 25}}});
  const CanonicalForm base = canonicalize(inst);
  // gcd(12,6,9) = 3 on axis 0; gcd(30,10,25) = 5 on axis 1.
  EXPECT_EQ(base.scale, 3);
  ASSERT_EQ(base.axis_scales.size(), 2u);
  const Instance big = axis_scaled(inst, {2, 7});
  const CanonicalForm other = canonicalize(big);
  EXPECT_EQ(other.key, base.key);
  EXPECT_EQ(other.hash, base.hash);
  EXPECT_EQ(other.scale, base.scale * 2);
  // Schedules of source and scaled twin differ exactly by primary · factor.
  EXPECT_EQ(core::schedule_multires(big),
            share_scaled(core::schedule_multires(inst), 2));
}

TEST(CanonicalMultiRes, ResourcePermutationInvarianceWhenTieFree) {
  // No two jobs tie on (r0, p), so secondary axes may be reordered freely:
  // all orderings of axes 1..d-1 share one key.
  const Instance inst(3, {20, 12, 8},
                      {MultiJob{1, {4, 6, 2}}, MultiJob{2, {7, 3, 5}},
                       MultiJob{1, {11, 9, 1}}});
  const CanonicalForm base = canonicalize(inst);
  const CanonicalForm swapped = canonicalize(axes_permuted(inst, {0, 2, 1}));
  EXPECT_EQ(swapped.key, base.key);
  EXPECT_EQ(swapped.hash, base.hash);
  // The primary axis is semantically distinguished: swapping it INTO a
  // secondary slot must change the key (progress is credited in axis-0
  // units). Note axis 0 and 1 here have different content.
  const CanonicalForm primary_moved =
      canonicalize(Instance(3, {12, 20, 8},
                            {MultiJob{1, {6, 4, 2}}, MultiJob{2, {3, 7, 5}},
                             MultiJob{1, {9, 11, 1}}}));
  EXPECT_NE(primary_moved.key, base.key);
}

TEST(CanonicalMultiRes, SecondaryTieFallsBackToSourceAxisOrder) {
  // Jobs 0 and 1 tie on (r0, p) but differ on axis 1, so the canonicalizer
  // must keep σ = identity (reordering axes would reorder the tied jobs and
  // break the schedule mapping) — even though the content sort would place
  // axis 2 (normalized capacity 1) before axis 1 (normalized capacity 4).
  // The canonical job order must equal the source sorted order in every
  // case — checked via instance().
  const Instance inst(2, {10, 8, 2},
                      {MultiJob{1, {5, 4, 2}}, MultiJob{1, {5, 2, 2}}});
  const CanonicalForm form = canonicalize(inst);
  ASSERT_EQ(form.axis_order.size(), 3u);
  EXPECT_EQ(form.axis_order[0], 0);
  EXPECT_EQ(form.axis_order[1], 1);
  EXPECT_EQ(form.axis_order[2], 2);
  const Instance canon = form.instance();
  ASSERT_EQ(canon.size(), inst.size());
  for (std::size_t j = 0; j < inst.size(); ++j) {
    EXPECT_EQ(canon.sizes()[j], inst.sizes()[j]);
    for (std::size_t k = 0; k < inst.resource_count(); ++k) {
      EXPECT_EQ(canon.requirement(j, k) * form.axis_scales[k],
                inst.requirement(j, k));
    }
  }
}

TEST(CanonicalMultiRes, IdempotenceAtHigherDimensions) {
  const Instance inst(4, {24, 18, 10},
                      {MultiJob{2, {8, 6, 5}}, MultiJob{1, {12, 9, 10}}});
  const CanonicalForm once = canonicalize(inst);
  const CanonicalForm twice = canonicalize(once.instance());
  EXPECT_EQ(twice.key, once.key);
  EXPECT_EQ(twice.hash, once.hash);
  EXPECT_EQ(twice.scale, 1);
  for (const Res s : twice.axis_scales) EXPECT_EQ(s, 1);
  for (std::size_t k = 0; k < twice.axis_order.size(); ++k) {
    EXPECT_EQ(twice.axis_order[k], k);  // already in canonical axis order
  }
}

TEST(CanonicalMultiRes, JobPermutationInvarianceAtD2) {
  const std::vector<MultiJob> jobs = {MultiJob{1, {4, 6}}, MultiJob{2, {7, 3}},
                                      MultiJob{1, {2, 9}}};
  std::vector<MultiJob> reversed(jobs.rbegin(), jobs.rend());
  const CanonicalForm a = canonicalize(Instance(3, {20, 12}, jobs));
  const CanonicalForm b =
      canonicalize(Instance(3, {20, 12}, std::move(reversed)));
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.hash, b.hash);
}

TEST(CanonicalMultiRes, DimensionSeparatesKeys) {
  // A d = 2 instance whose secondary axis is all-slack must still key
  // differently from its d = 1 projection: the validator semantics differ.
  const CanonicalForm one = canonicalize(Instance(3, 10, {Job{1, 5}}));
  const CanonicalForm two =
      canonicalize(Instance(3, {10, 1}, {MultiJob{1, {5, 1}}}));
  EXPECT_NE(one.key, two.key);
}

// ---- SolveCache ------------------------------------------------------------

TEST(SolveCacheTest, MissThenHitsCoalesceOnOneValue) {
  SolveCache cache(SolveCache::Config{8, 2});
  const CanonicalForm form =
      canonicalize(Instance(3, 10, {Job{2, 4}, Job{1, 6}}));

  SolveCache::Handle producer = cache.acquire(form);
  ASSERT_FALSE(producer.hit());
  SolveCache::Handle waiter = cache.acquire(form);
  ASSERT_TRUE(waiter.hit());

  producer.fill(cache::CacheValue{7, 5, 3, std::nullopt});
  const cache::CacheValue* value = waiter.wait();
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->makespan, 7);
  EXPECT_EQ(value->blocks, 3u);

  const SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.resident_entries, 1u);
  EXPECT_GT(stats.value_bytes, 0u);
}

TEST(SolveCacheTest, WaiterBlocksUntilProducerFills) {
  SolveCache cache(SolveCache::Config{4, 1});
  const CanonicalForm form = canonicalize(Instance(2, 6, {Job{1, 3}}));
  SolveCache::Handle producer = cache.acquire(form);
  SolveCache::Handle waiter = cache.acquire(form);
  ASSERT_TRUE(waiter.hit());

  std::thread filler([&] { producer.fill(cache::CacheValue{1, 1, 1, {}}); });
  const cache::CacheValue* value = waiter.wait();
  filler.join();
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->makespan, 1);
}

TEST(SolveCacheTest, AbandonedProducerWakesWaitersWithNull) {
  SolveCache cache(SolveCache::Config{4, 1});
  const CanonicalForm form = canonicalize(Instance(2, 6, {Job{1, 3}}));
  SolveCache::Handle waiter;
  {
    SolveCache::Handle producer = cache.acquire(form);
    waiter = cache.acquire(form);
    // producer destroyed without fill() — the solve threw.
  }
  EXPECT_EQ(waiter.wait(), nullptr);
  // The abandoned entry stays resident: a later acquire is still a hit (and
  // resolves to the local-solve fallback), keeping hit/miss counts
  // independent of when the failure happened.
  SolveCache::Handle again = cache.acquire(form);
  EXPECT_TRUE(again.hit());
  EXPECT_EQ(again.wait(), nullptr);
  EXPECT_EQ(cache.stats().abandoned, 1u);
}

TEST(SolveCacheTest, LruEvictsOldestAtCapacityTwo) {
  // Single shard so the LRU order is global and assertable.
  SolveCache cache(SolveCache::Config{2, 1});
  EXPECT_EQ(cache.shard_count(), 1u);
  std::vector<CanonicalForm> forms;
  for (int r = 1; r <= 3; ++r) {
    forms.push_back(canonicalize(Instance(2, 7, {Job{1, r}})));
  }

  { auto h = cache.acquire(forms[0]); h.fill({1, 1, 1, {}}); }
  { auto h = cache.acquire(forms[1]); h.fill({1, 1, 1, {}}); }
  // Touch 0 so 1 is now least-recently-used.
  { auto h = cache.acquire(forms[0]); EXPECT_TRUE(h.hit()); }
  // Inserting 2 must evict 1, not 0.
  { auto h = cache.acquire(forms[2]); EXPECT_FALSE(h.hit()); h.fill({1, 1, 1, {}}); }
  { auto h = cache.acquire(forms[0]); EXPECT_TRUE(h.hit()); }
  { auto h = cache.acquire(forms[1]); EXPECT_FALSE(h.hit()); h.fill({1, 1, 1, {}}); }

  const SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 2u);  // forms[1] once, then forms[2] or 0
  EXPECT_EQ(stats.resident_entries, 2u);
  EXPECT_GT(stats.resident_bytes, 0);
}

TEST(SolveCacheTest, LruRefreshAtColdMiddleAndHotEndsAtCapacityEight) {
  std::vector<CanonicalForm> forms;
  for (int r = 1; r <= 11; ++r) {
    forms.push_back(canonicalize(Instance(2, 13, {Job{1, r}})));
  }
  const auto hit = [&](SolveCache& cache, int k) {
    return cache.acquire(forms[static_cast<std::size_t>(k)]).hit();
  };
  // Every key has the same length, so every entry has the same footprint.
  SolveCache one(SolveCache::Config{1, 1});
  EXPECT_FALSE(hit(one, 0));
  const std::int64_t entry_bytes = one.stats().resident_bytes;
#if defined(__x86_64__) && defined(__GLIBCXX__)
  // sizeof(Entry) + a 42-byte key, with Entry holding a 48-byte
  // core::Schedule inside its CacheValue. The gauge is in every cache-on
  // summary line, so Entry must not grow by accident (an LRU position kept
  // in Entry would).
  static_assert(sizeof(core::Schedule) == 48);
  EXPECT_EQ(entry_bytes, 258);
#endif

  SolveCache cache(SolveCache::Config{8, 1});
  for (int k = 0; k < 8; ++k) EXPECT_FALSE(hit(cache, k));
  // Cold end, middle, hot end. LRU order becomes 1 2 3 5 6 0 4 7.
  EXPECT_TRUE(hit(cache, 0));
  EXPECT_TRUE(hit(cache, 4));
  EXPECT_TRUE(hit(cache, 7));
  // Three inserts evict exactly 1, 2, 3: order 5 6 0 4 7 8 9 10.
  for (int k = 8; k < 11; ++k) EXPECT_FALSE(hit(cache, k));
  SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 3u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 11u);
  EXPECT_EQ(stats.resident_entries, 8u);
  EXPECT_EQ(stats.resident_bytes, 8 * entry_bytes);

  // Walking the survivors cold to hot hits every one without evicting.
  for (const int k : {5, 6, 0, 4, 7, 8, 9, 10}) {
    EXPECT_TRUE(hit(cache, k)) << "key " << k << " was evicted";
  }
  EXPECT_EQ(cache.stats().evictions, 3u);
  // The evicted keys miss again; each re-insert evicts the coldest
  // survivor (5, 6, 0).
  for (const int k : {1, 2, 3}) {
    EXPECT_FALSE(hit(cache, k)) << "key " << k << " stayed resident";
  }
  EXPECT_FALSE(hit(cache, 5));  // evicted by key 1, now evicts 4
  EXPECT_TRUE(hit(cache, 7));
  stats = cache.stats();
  EXPECT_EQ(stats.evictions, 7u);
  EXPECT_EQ(stats.resident_entries, 8u);
  EXPECT_EQ(stats.resident_bytes, 8 * entry_bytes);
}

TEST(SolveCacheTest, ShardCountClampedToCapacity) {
  SolveCache tiny(SolveCache::Config{2, 8});
  EXPECT_EQ(tiny.shard_count(), 2u);
  SolveCache one(SolveCache::Config{0, 0});
  EXPECT_EQ(one.shard_count(), 1u);
}

TEST(SolveCacheTest, ScaledAndPermutedVariantsShareOneEntry) {
  SolveCache cache(SolveCache::Config{16, 4});
  const Instance inst = workloads::tiny_grid_instance(3, 8, 6, 3, 5);
  auto producer = cache.acquire(canonicalize(inst));
  ASSERT_FALSE(producer.hit());
  producer.fill({4, 3, 2, {}});
  for (const Res c : {2, 3, 6}) {
    const Instance big = scaled(inst, c);
    const Instance mixed(big.machines(), big.capacity(),
                         shuffled(big, static_cast<std::uint64_t>(c)));
    auto h = cache.acquire(canonicalize(mixed));
    EXPECT_TRUE(h.hit());
    const cache::CacheValue* value = h.wait();
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(value->makespan, 4);
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 3u);
}

}  // namespace
}  // namespace sharedres
