#include "cache/canonical.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <utility>

#include "core/job.hpp"
#include "util/checked.hpp"

namespace sharedres::cache {

namespace {

/// Native word ↔ canonical little-endian bytes. memcpy keeps the loads and
/// stores single instructions; the byte swap on big-endian hosts keeps the
/// key (and therefore the hash) platform-independent.
std::uint64_t to_le(std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    return __builtin_bswap64(v);
  }
  return v;
}

void put_u64(std::uint8_t* out, std::uint64_t v) {
  const std::uint64_t le = to_le(v);
  std::memcpy(out, &le, 8);
}

std::uint64_t read_u64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  std::memcpy(&v, in, 8);
  return to_le(v);
}

/// splitmix64 finalizer — full avalanche, fixed constants.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One lane's step per 8-byte word: one multiply-fold. The hash is only a
/// filter — every hit verifies full key bytes — so one multiply of diffusion
/// per word is enough, and it keeps the per-lookup cost near memory
/// bandwidth. The rotate stops plain xor-cancellation between neighbouring
/// words.
constexpr std::uint64_t fold(std::uint64_t h, std::uint64_t word) {
  return std::rotl(h, 27) ^ ((word ^ h) * 0x9e3779b97f4a7c15ULL);
}

/// A lane's end: the zero-padded tail word, then the byte length, each
/// through a splitmix64 avalanche.
constexpr std::uint64_t finish(std::uint64_t h, std::uint64_t tail,
                               std::size_t size) {
  return mix64(mix64(h ^ tail) ^ static_cast<std::uint64_t>(size));
}

/// True iff two sorted jobs tie on (r_0, p) while differing on a secondary
/// axis anywhere in the instance. Sorted order makes (r_0, p) groups
/// contiguous, so adjacent comparison suffices.
bool has_secondary_ties(const core::Instance& instance) {
  const std::size_t n = instance.size();
  const std::size_t d = instance.resource_count();
  for (std::size_t j = 1; j < n; ++j) {
    const core::Job& a = instance.job(j - 1);
    const core::Job& b = instance.job(j);
    if (a.requirement != b.requirement || a.size != b.size) continue;
    for (std::size_t k = 1; k < d; ++k) {
      if (instance.requirement(j - 1, k) != instance.requirement(j, k)) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

Hash128 hash_bytes(const std::vector<std::uint8_t>& bytes) {
  // Both lanes in one pass over the bytes: the same values as hashing each
  // lane on its own, with the two multiply chains interleaved.
  std::uint64_t lo = mix64(0x5361526573436163ULL);
  std::uint64_t hi = mix64(0x436e6f6e6963616cULL);
  const std::size_t size = bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const std::uint64_t word = read_u64(bytes.data() + i);
    lo = fold(lo, word);
    hi = fold(hi, word);
  }
  std::uint64_t tail = 0;
  for (std::size_t b = 0; i < size; ++i, ++b) {
    tail |= static_cast<std::uint64_t>(bytes[i]) << (8 * b);
  }
  return Hash128{finish(lo, tail, size), finish(hi, tail, size)};
}

CanonicalForm canonicalize(const core::Instance& instance) {
  const std::size_t n = instance.size();
  const std::size_t d = instance.resource_count();

  // Per-axis g_k = gcd(C_k, r_{1,k}, …, r_{n,k}); with no jobs this is C_k
  // itself, so the empty instance normalizes to capacity 1 on every axis.
  // The scan stops once g reaches 1: gcd(1, x) = 1, so the rest cannot
  // change it.
  std::vector<core::Res> scales(d);
  for (std::size_t k = 0; k < d; ++k) {
    core::Res g = instance.capacity(k);
    const core::Res* reqs = instance.axis_requirements(k);
    for (std::size_t j = 0; j < n && g != 1; ++j) g = std::gcd(g, reqs[j]);
    scales[k] = g;
  }

  // Canonical secondary-axis order: content-sorted on the normalized
  // (capacity, requirement column) descriptor, so axis-permuted sources
  // serialize identically. Skipped when (r_0, p)-tied jobs differ on a
  // secondary axis — reordering axes would reorder those jobs (the instance
  // sort key includes the secondary axes) and the canonical job order would
  // no longer be the source's sorted order (file comment of the header).
  std::vector<std::uint8_t> order(d);
  std::iota(order.begin(), order.end(), std::uint8_t{0});
  if (d > 1 && !has_secondary_ties(instance)) {
    const auto axis_less = [&](std::uint8_t a, std::uint8_t b) {
      const core::Res ca = instance.capacity(a) / scales[a];
      const core::Res cb = instance.capacity(b) / scales[b];
      if (ca != cb) return ca < cb;
      const core::Res* ra = instance.axis_requirements(a);
      const core::Res* rb = instance.axis_requirements(b);
      for (std::size_t j = 0; j < n; ++j) {
        const core::Res va = ra[j] / scales[a];
        const core::Res vb = rb[j] / scales[b];
        if (va != vb) return va < vb;
      }
      return false;
    };
    std::stable_sort(order.begin() + 1, order.end(), axis_less);
  }

  // Serialize straight from the source's sorted jobs, dividing each axis by
  // its g on the fly. Dividing a whole axis by a common factor preserves the
  // canonical total order, so this byte sequence IS the reduced instance's
  // serialization: canonical job j is source (sorted) job j.
  CanonicalForm form;
  form.scale = scales[0];
  form.axis_order = order;
  form.axis_scales.resize(d);
  for (std::size_t k = 0; k < d; ++k) form.axis_scales[k] = scales[order[k]];
  form.key.resize(2 + 8 * (1 + d + 1 + n * (1 + d)));
  std::uint8_t* out = form.key.data();
  *out++ = kKeyFormatVersion;
  *out++ = static_cast<std::uint8_t>(d);
  put_u64(out, static_cast<std::uint64_t>(instance.machines()));
  out += 8;
  for (std::size_t k = 0; k < d; ++k) {
    put_u64(out, static_cast<std::uint64_t>(instance.capacity(order[k]) /
                                            scales[order[k]]));
    out += 8;
  }
  put_u64(out, static_cast<std::uint64_t>(n));
  out += 8;
  const core::Res* sizes = instance.sizes().data();
  if (d == 1) {
    // The common case, read straight from the SoA arrays; at scale 1 (every
    // already-reduced instance) there is nothing to divide.
    const core::Res* reqs = instance.requirements().data();
    const core::Res g = scales[0];
    if (g == 1) {
      for (std::size_t j = 0; j < n; ++j, out += 16) {
        put_u64(out, static_cast<std::uint64_t>(sizes[j]));
        put_u64(out + 8, static_cast<std::uint64_t>(reqs[j]));
      }
    } else {
      for (std::size_t j = 0; j < n; ++j, out += 16) {
        put_u64(out, static_cast<std::uint64_t>(sizes[j]));
        put_u64(out + 8, static_cast<std::uint64_t>(reqs[j] / g));
      }
    }
  } else {
    for (std::size_t j = 0; j < n; ++j) {
      put_u64(out, static_cast<std::uint64_t>(sizes[j]));
      out += 8;
      for (std::size_t k = 0; k < d; ++k) {
        put_u64(out, static_cast<std::uint64_t>(
                         instance.requirement(j, order[k]) / scales[order[k]]));
        out += 8;
      }
    }
  }
  form.hash = hash_bytes(form.key);
  return form;
}

core::Instance CanonicalForm::instance() const {
  // Inverse of the serializer above. The jobs were serialized in canonical
  // order, so the Instance constructor finds them sorted and skips its sort:
  // this is a straight O(n·d) rebuild plus validation.
  const std::uint8_t* in = key.data();
  const std::size_t d = key[1];
  const auto machines = static_cast<int>(read_u64(in + 2));
  in += 10;
  std::vector<core::Res> capacities(d);
  for (std::size_t k = 0; k < d; ++k) {
    capacities[k] = static_cast<core::Res>(read_u64(in));
    in += 8;
  }
  const auto count = static_cast<std::size_t>(read_u64(in));
  in += 8;
  if (d == 1) {
    std::vector<core::Job> jobs;
    jobs.reserve(count);
    for (std::size_t j = 0; j < count; ++j) {
      jobs.push_back(core::Job{static_cast<core::Res>(read_u64(in)),
                               static_cast<core::Res>(read_u64(in + 8))});
      in += 16;
    }
    return core::Instance(machines, capacities[0], std::move(jobs));
  }
  std::vector<core::MultiJob> jobs(count);
  for (std::size_t j = 0; j < count; ++j) {
    jobs[j].size = static_cast<core::Res>(read_u64(in));
    in += 8;
    jobs[j].requirements.resize(d);
    for (std::size_t k = 0; k < d; ++k) {
      jobs[j].requirements[k] = static_cast<core::Res>(read_u64(in));
      in += 8;
    }
  }
  return core::Instance(machines, std::move(capacities), std::move(jobs));
}

core::Schedule decanonicalize_schedule(const core::Schedule& canonical,
                                       core::Res scale) {
  core::Schedule out;
  out.reserve_blocks(canonical.blocks().size());
  std::vector<core::Assignment> assignments;
  for (const core::BlockView block : canonical.blocks()) {
    assignments.clear();
    for (const core::Assignment& a : block.assignments) {
      assignments.push_back(
          core::Assignment{a.job, util::mul_checked(a.share, scale)});
    }
    out.append(block.length, assignments);
  }
  return out;
}

}  // namespace sharedres::cache
