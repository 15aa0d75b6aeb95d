#include "core/parallel_unit.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "obs/registry.hpp"
#include "util/deadline.hpp"
#include "util/parallel.hpp"

namespace sharedres::core {

namespace {

void ensure(bool cond, const char* msg) {
  if (!cond) {
    throw std::logic_error(std::string("schedule_unit_parallel invariant: ") +
                           msg);
  }
}

/// One emitted block, fully determined by the skeleton pass. The assignment
/// vector it expands to is [ι with iota_share?] + [j with r_j for j in
/// [begin, end−1)] + [end−1 with last_share], repeated `reps` steps.
struct BlockDesc {
  std::size_t begin = 0;     ///< first suffix member (sorted index)
  std::size_t end = 0;       ///< one past the last suffix member; may == begin
  JobId iota = kNoJob;       ///< started job at the window front, if any
  Res iota_share = 0;        ///< ι's per-step share (its key q, or C solo)
  Res last_share = 0;        ///< share of member end−1 (unused if end == begin)
  Time reps = 1;             ///< block length (> 1 only for solo-job runs)
};

/// Deterministic skeleton statistics, published under engine.unit_par.*
/// once per successful run — all accumulated on the (sequential) skeleton
/// and assembly phases, so they are invariant across SHAREDRES_THREADS.
struct SkeletonStats {
  std::uint64_t blocks = 0;
  std::uint64_t steps = 0;
  std::uint64_t case1_steps = 0;
  std::uint64_t case2_steps = 0;
  std::uint64_t fast_forward_blocks = 0;
  std::uint64_t fractured_handoffs = 0;
};

/// The skeleton pass (file comment, phase 1). Emits one BlockDesc per block
/// in schedule order; returns false (bail) the moment the instance leaves
/// the heavy prefix-consumption regime.
bool build_descriptors(const Instance& inst, std::vector<BlockDesc>& descs,
                       SkeletonStats& st) {
  const std::size_t n = inst.size();
  const std::size_t m = static_cast<std::size_t>(inst.machines());
  const Res cap = inst.capacity();
  const std::vector<Res>& reqs = inst.requirements();
  const std::vector<Res>& prefix = inst.requirement_prefix();

  descs.reserve(64 + n / 16);  // heuristic; push_back growth covers the rest

  std::size_t c = 0;     // first alive sorted index
  Res q = 0;             // ι's key; 0 = no started job
  JobId iota = kNoJob;

  const auto emit = [&](const BlockDesc& d, bool heavy) {
    descs.push_back(d);
    if (obs::enabled()) {
      const auto ureps = static_cast<std::uint64_t>(d.reps);
      ++st.blocks;
      st.steps += ureps;
      (heavy ? st.case1_steps : st.case2_steps) += ureps;
      if (d.iota != kNoJob && d.iota_share != cap) ++st.fractured_handoffs;
      if (d.reps > 1 || d.iota_share == cap) ++st.fast_forward_blocks;
    }
  };

  while (c < n || q > 0) {
    // Same per-step cancellation placement as the scalar loops: the skeleton
    // replay is the sequential bottleneck of the parallel path.
    util::deadline::check("parallel_unit.skeleton");
    if (q >= cap) {
      // Solo started job absorbing the full capacity: the scalar engine's
      // fast-forward branch (q > C) or its one-step heavy window (q == C).
      // Either way one block of q / C full-capacity steps.
      const Time reps = q / cap;
      emit(BlockDesc{.begin = c, .end = c, .iota = iota, .iota_share = cap,
                     .last_share = 0, .reps = reps},
           /*heavy=*/true);
      q -= static_cast<Res>(reps) * cap;
      if (q == 0) iota = kNoJob;
      continue;
    }
    if (c >= n) {
      // Only ι remains with q < C: terminal light window, finishes it.
      emit(BlockDesc{.begin = c, .end = c, .iota = iota, .iota_share = q,
                     .last_share = 0, .reps = 1},
           /*heavy=*/false);
      q = 0;
      iota = kNoJob;
      continue;
    }

    // Window = [ι?] + suffix jobs from c; at most `slots` suffix members.
    const std::size_t slots = m - (q > 0 ? 1 : 0);
    const std::size_t hi = std::min(c + slots, n);  // exclusive suffix cap
    // Smallest window end x ∈ (c, hi] with q + Σ_{[c,x)} r_j ≥ C — a binary
    // search over the requirement prefix sums (O(1) range totals).
    const Res target = util::add_checked(prefix[c], cap - q);
    const auto first = prefix.begin() + static_cast<std::ptrdiff_t>(c + 1);
    const auto last = prefix.begin() + static_cast<std::ptrdiff_t>(hi + 1);
    const auto it = std::lower_bound(first, last, target);

    if (it == last) {
      // No heavy window within the member cap.
      if (q == 0 && hi < n) {
        // Light at cap with every member unstarted: MoveWindowRight slides —
        // the one transition (c, q) cannot express. Bail to the scalar path.
        return false;
      }
      // Either the whole remainder fits (terminal window) or ι fronts a
      // light window at the member cap: all members finish at full key.
      emit(BlockDesc{.begin = c, .end = hi, .iota = iota, .iota_share = q,
                     .last_share = reqs[hi - 1], .reps = 1},
           /*heavy=*/false);
      c = hi;
      q = 0;
      iota = kNoJob;
      continue;
    }

    const std::size_t x = static_cast<std::size_t>(it - prefix.begin());
    const std::size_t ridx = x - 1;  // window maximum (last suffix member)
    const Res wkey = util::add_checked(q, prefix[x] - prefix[c]);
    const Res others = wkey - reqs[ridx];
    ensure(others < cap, "Property (b) violated by the skeleton window");
    const Res max_share = cap - others;  // ≤ r_ridx by minimality of x

    if (q == 0 && ridx == c) {
      // Solo unstarted job with r_c ≥ C: one block of r_c / C steps (the
      // scalar fast-forward branch emits exactly this single append).
      const Time reps = reqs[c] / cap;
      emit(BlockDesc{.begin = c, .end = c + 1, .iota = kNoJob,
                     .iota_share = 0, .last_share = cap, .reps = reps},
           /*heavy=*/true);
      q = reqs[c] - static_cast<Res>(reps) * cap;
      iota = q > 0 ? c : kNoJob;
      ++c;
      continue;
    }

    // General heavy window: everyone but the maximum finishes; the maximum
    // takes max_share and carries q' = wkey − C to the front of the order.
    ensure(max_share > 0, "skeleton window assigns max W a zero share");
    emit(BlockDesc{.begin = c, .end = x, .iota = iota, .iota_share = q,
                   .last_share = max_share, .reps = 1},
         /*heavy=*/true);
    q = reqs[ridx] - max_share;
    iota = q > 0 ? ridx : kNoJob;
    c = x;
  }
  return true;
}

/// Phase 2: expand one descriptor to its assignment vector. Pure function of
/// the descriptor and the instance — no cross-descriptor state, so the
/// result is independent of which worker runs it.
std::vector<Assignment> materialize(const BlockDesc& d,
                                    const std::vector<Res>& reqs) {
  std::vector<Assignment> v;
  v.reserve((d.iota != kNoJob ? 1 : 0) + (d.end - d.begin));
  if (d.iota != kNoJob) v.push_back({d.iota, d.iota_share});
  for (std::size_t j = d.begin; j + 1 < d.end; ++j) {
    v.push_back({j, reqs[j]});
  }
  if (d.end > d.begin) v.push_back({d.end - 1, d.last_share});
  return v;
}

void publish_stats(const SkeletonStats& st) {
  if (!obs::enabled()) return;
  SHAREDRES_OBS_COUNT("engine.unit_par.runs");
  SHAREDRES_OBS_COUNT_N("engine.unit_par.blocks", st.blocks);
  SHAREDRES_OBS_COUNT_N("engine.unit_par.steps", st.steps);
  SHAREDRES_OBS_COUNT_N("engine.unit_par.case1_steps", st.case1_steps);
  SHAREDRES_OBS_COUNT_N("engine.unit_par.case2_steps", st.case2_steps);
  SHAREDRES_OBS_COUNT_N("engine.unit_par.fast_forward_blocks",
                        st.fast_forward_blocks);
  SHAREDRES_OBS_COUNT_N("engine.unit_par.fractured_handoffs",
                        st.fractured_handoffs);
}

}  // namespace

bool schedule_unit_parallel(const Instance& instance, Schedule& out,
                            std::size_t threads) {
  ensure(instance.unit_size(), "unit-size jobs required");
  ensure(instance.machines() >= 2, "m >= 2 required");
  if (instance.empty()) {
    SHAREDRES_OBS_COUNT("engine.unit_par.runs");
    return true;
  }

  SkeletonStats st;
  std::vector<BlockDesc> descs;
  if (!build_descriptors(instance, descs, st)) {
    SHAREDRES_OBS_COUNT("engine.unit_par.bailouts");
    return false;
  }

  // Phase 2: expand every descriptor's share vector on a deterministic
  // static partition. Serial below a small cutoff — spawning threads costs
  // more than a few hundred vectors. The cutoff tests descs.size() only
  // (never `threads`) so the deterministic parallel.invocations/items
  // counters stay invariant across SHAREDRES_THREADS;
  // parallel_for_ranges itself runs inline when threads <= 1.
  const std::vector<Res>& reqs = instance.requirements();
  std::vector<std::vector<Assignment>> shares(descs.size());
  const auto expand = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      shares[i] = materialize(descs[i], reqs);
    }
  };
  constexpr std::size_t kSerialCutoff = 256;
  if (descs.size() >= kSerialCutoff) {
    util::parallel_for_ranges(descs.size(), expand, threads);
  } else {
    expand(0, descs.size());
  }

  // Phase 3: sequential assembly. Same append sequence as the scalar run —
  // identical merge decisions, identical schedule.* counters. Strong
  // exception guarantee, mirroring UnitEngine::run.
  out.reserve_blocks(descs.size());
  const Schedule::Mark mark = out.mark();
  try {
    for (std::size_t i = 0; i < descs.size(); ++i) {
      out.append(descs[i].reps, shares[i]);
    }
  } catch (...) {
    out.rollback(mark);
    throw;
  }
  publish_stats(st);
  return true;
}

}  // namespace sharedres::core
