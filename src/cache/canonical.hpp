// Canonical normal form for SoS instances (the solve cache's key domain).
//
// Two instances are solve-equivalent when one can be obtained from the other
// by permuting jobs and/or multiplying every requirement AND the capacity of
// any resource axis by a common per-axis factor (the paper's rescaling
// remark; see core/rescale.hpp for the real-sizes direction), and — for the
// d-resource generalization — by permuting the SECONDARY axes 1..d-1 among
// themselves (axis 0 is semantically distinguished: progress is credited in
// its units). canonicalize() maps every member of such an equivalence class
// to the same representative:
//
//   * jobs in the canonical total order on (r_{j,0}, p_j, r_{j,1}, …) —
//     already enforced by core::Instance's constructor, so a permuted
//     multiset re-sorts to the identical sequence;
//   * every axis k divided by its g_k = gcd(C_k, r_{1,k}, …, r_{n,k}), the
//     scale-free representative (an empty instance normalizes to C'_k = 1);
//   * secondary axes reordered by content (normalized capacity, then the
//     normalized requirement column), so axis-permuted sources share a key.
//
// Secondary-axis reordering is applied only when no two jobs tie on
// (r_{j,0}, p_j) while differing on a secondary axis: reordering axes
// reorders such tied jobs (the sort key includes the secondary axes), which
// would break the "canonical job order IS the source's sorted order"
// identity the cache's schedule mapping relies on. Tied instances fall back
// to the source axis order — they may miss the cache across permuted twins
// (hit-rate, never correctness), and every other invariance still holds.
//
// The representative is paired with a serialized key (the exact byte string
// equality is decided on) and a 128-bit structural hash of that key. Key
// layout (d = 1 keys are byte-identical to the historical single-resource
// format, kKeyFormatVersion stays 1):
//
//   byte 0  key-format version (kKeyFormatVersion)
//   byte 1  resource dimension count d
//   u64 LE  machines m
//   d × u64 LE  canonical capacities C'_k (canonical axis order)
//   u64 LE  job count n
//   n × (u64 LE size p_j, d × u64 LE canonical requirements r'_{j,k})
//
// Everything here is deterministic: same instance → same key bytes → same
// hash, on every platform (explicit little-endian serialization, fixed
// mixing constants).
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/types.hpp"

namespace sharedres::cache {

inline constexpr std::uint8_t kKeyFormatVersion = 1;

/// 128-bit structural hash: two independently seeded 64-bit lanes over the
/// key bytes. Collisions across both lanes are astronomically unlikely, and
/// the cache still verifies full key bytes on every hit (a hash is a filter,
/// never the authority).
struct Hash128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const Hash128&, const Hash128&) = default;
};

/// Hash an arbitrary byte string (exposed for tests and the fuzz harness).
[[nodiscard]] Hash128 hash_bytes(const std::vector<std::uint8_t>& bytes);

/// The canonical representative of an instance's equivalence class.
///
/// Deliberately lazy: only the serialized key and its hash are materialized,
/// because the cache's hit path needs nothing else — building the reduced
/// Instance (allocation + re-sort + totals) on every lookup would cost more
/// than the lookup itself. instance() decodes the key on demand; only the
/// producer of a cache miss pays for it, once per unique instance.
struct CanonicalForm {
  /// Primary-axis scale g_0 ≥ 1: source capacity = canonical capacity · g_0
  /// and source r_{j,0} = canonical r'_{j,0} · g_0 (job-by-job in sorted
  /// order). Shares are primary-axis units, so this is the only scale
  /// decanonicalize_schedule needs at any d.
  core::Res scale = 1;
  /// Per CANONICAL axis k: the source-axis scale g_{axis_order[k]}. Size d;
  /// axis_scales[0] == scale.
  std::vector<core::Res> axis_scales;
  /// Canonical axis k was source axis axis_order[k]; axis_order[0] == 0
  /// always (the primary axis is never permuted). Size d.
  std::vector<std::uint8_t> axis_order;
  /// Serialized key (layout in the file comment). Byte equality of keys
  /// implies solve-equivalence of the sources.
  std::vector<std::uint8_t> key;
  /// hash_bytes(key).
  Hash128 hash;

  /// Materialize the representative: same machines and job sizes as the
  /// source, every axis divided by its scale (axes in canonical order).
  /// Solving it yields the source instance's makespan directly; shares scale
  /// back by multiplication.
  [[nodiscard]] core::Instance instance() const;
};

/// Reduce `instance` to its canonical form. Never throws for a validly
/// constructed Instance: the reduced values stay in range (g_k divides every
/// axis-k requirement and capacity) and totals only shrink.
[[nodiscard]] CanonicalForm canonicalize(const core::Instance& instance);

/// Map a schedule of the canonical instance back to the source scaling:
/// identical block structure with every share multiplied by `scale` (the
/// primary-axis scale). Job ids are untouched — the canonical job order IS
/// the source's sorted order at every d (see the axis-reordering caveat in
/// the file comment), so a canonical schedule indexes any instance of the
/// class directly. The batch worker never builds this copy: it writes the
/// scaled text directly with io::append_schedule, and the tests hold the two
/// to the same bytes with this function as the reference.
[[nodiscard]] core::Schedule decanonicalize_schedule(
    const core::Schedule& canonical, core::Res scale);

}  // namespace sharedres::cache
