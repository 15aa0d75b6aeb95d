// Fuzz harness for the canonical-instance layer behind the solve cache.
//
// Bytes are decoded into a small, always-valid instance (the same grammar as
// fuzz_engine: m ∈ [2,5], C ∈ [1,64], n ≤ 12) plus a scale factor c ∈ [1,8]
// applied to every requirement and the capacity. The harness then checks the
// properties the cache's correctness rests on:
//
//   * idempotence: canonicalize(canonical.instance) reproduces the same key,
//     hash, and a scale of 1;
//   * scale-freeness: the scaled variant canonicalizes to the same key/hash
//     with scale multiplied by c;
//   * key/hash agreement: equal keys ⇔ equal hashes for the pair we built
//     (a hash mismatch on equal keys is a serialization bug);
//   * solve equality: schedule_sos on the canonical instance, de-canonicalized
//     with the recorded scale, is a feasible schedule for the source instance
//     with the same makespan as solving the source directly.
//
// A second instance of up to 512 jobs is decoded from the same bytes, with
// value widths taken from the last five: wide enough to reach the 64-bit
// key limit, narrow enough for many full (r, p) ties. Its canonical order
// must equal the comparator stable-sort reference
// (tests/canonical_order_reference.hpp), so the constructor's radix path and
// its wide-key fallback run too; and it must canonicalize idempotently.
//
// The input is valid by construction, so NO exception may escape: a throw or
// any property violation aborts — that is the crash libFuzzer (or a corpus
// replay) reports.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "../tests/canonical_order_reference.hpp"
#include "cache/canonical.hpp"
#include "core/instance.hpp"
#include "core/sos_scheduler.hpp"
#include "core/validator.hpp"

namespace {

namespace core = sharedres::core;
namespace cache = sharedres::cache;

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "fuzz_canonical: %s\n", what);
  std::abort();
}

/// Up to 512 jobs read cyclically from the input; the last five bytes set
/// the count and the widths. Most jobs get r and p of at most 8 bits; one
/// job's r reaches 2^60 and another's p 2^51, which keeps Σ p·r in range.
std::vector<core::Job> large_jobs(const std::uint8_t* data, std::size_t size) {
  const auto at = [&](std::size_t k) { return data[k % size]; };
  const std::size_t n = (data[size - 1] | data[size - 2] << 8) % 513u;
  const unsigned r_width = 1 + data[size - 3] % 61u;
  const unsigned p_width = 1 + data[size - 4] % 52u;
  const unsigned small_r = data[size - 5] % 9u;
  const unsigned small_p = data[size - 5] / 9u % 9u;
  std::vector<core::Job> jobs(n);
  for (std::size_t j = 0; j < n; ++j) {
    jobs[j].requirement = 1 + (at(2 * j) & ((1 << small_r) - 1));
    jobs[j].size = 1 + (at(2 * j + 1) & ((1 << small_p) - 1));
  }
  if (n >= 1) {
    const std::size_t a = data[size - 1] * 7u % n;
    jobs[a] = core::Job{1, jobs[a].requirement | core::Res{1} << (r_width - 1)};
    if (n >= 2) {
      const std::size_t b = (a + 1 + data[size - 2] % (n - 1)) % n;
      jobs[b] = core::Job{jobs[b].size | core::Res{1} << (p_width - 1), 1};
    }
  }
  return jobs;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 3) return 0;

  const int machines = 2 + data[0] % 4;
  const core::Res capacity = 1 + data[1] % 64;
  const core::Res factor = 1 + data[2] % 8;
  std::vector<core::Job> jobs;
  std::vector<core::Job> scaled_jobs;
  for (std::size_t i = 3; i + 1 < size && jobs.size() < 12; i += 2) {
    const core::Res job_size = 1 + data[i] % 4;
    const core::Res requirement = 1 + data[i + 1] % 96;
    jobs.push_back(core::Job{job_size, requirement});
    scaled_jobs.push_back(core::Job{job_size, requirement * factor});
  }
  const core::Instance inst(machines, capacity, std::move(jobs));
  const core::Instance scaled(machines, capacity * factor,
                              std::move(scaled_jobs));

  const cache::CanonicalForm form = cache::canonicalize(inst);
  const cache::CanonicalForm again = cache::canonicalize(form.instance());
  if (again.key != form.key) die("canonicalize is not idempotent (key)");
  if (again.hash != form.hash) die("canonicalize is not idempotent (hash)");
  if (again.scale != 1) die("canonical instance re-canonicalizes with scale != 1");
  if (cache::hash_bytes(form.key) != form.hash) {
    die("stored hash disagrees with hash_bytes(key)");
  }

  const cache::CanonicalForm scaled_form = cache::canonicalize(scaled);
  if (scaled_form.key != form.key) die("scaling changed the canonical key");
  if (scaled_form.hash != form.hash) die("scaling changed the canonical hash");
  if (scaled_form.scale != form.scale * factor) {
    die("scale does not compose multiplicatively");
  }

  // Solving the canonical instance and mapping shares back must yield a
  // feasible schedule for the source with the directly-solved makespan.
  const core::Schedule direct = core::schedule_sos(inst);
  const core::Schedule canonical_solve = core::schedule_sos(form.instance());
  const core::Schedule mapped =
      cache::decanonicalize_schedule(canonical_solve, form.scale);
  if (mapped.makespan() != direct.makespan()) {
    die("de-canonicalized makespan differs from the direct solve");
  }
  const auto check = sharedres::core::validate(inst, mapped);
  if (!check.ok) {
    std::fprintf(stderr, "fuzz_canonical: de-canonicalized schedule infeasible: %s\n",
                 check.error.c_str());
    std::abort();
  }

  if (size < 5) return 0;
  const std::vector<core::Job> jobs_large = large_jobs(data, size);
  const core::Instance large(machines, capacity, jobs_large);
  const std::vector<std::size_t> order =
      core::reference::canonical_order(jobs_large);
  for (std::size_t j = 0; j < order.size(); ++j) {
    if (large.original_id(j) != order[j]) {
      die("canonical order differs from the stable-sort reference");
    }
    if (large.job(j) != jobs_large[order[j]]) {
      die("sorted job differs from the reference order's job");
    }
  }
  const cache::CanonicalForm large_form = cache::canonicalize(large);
  if (cache::canonicalize(large_form.instance()).key != large_form.key) {
    die("canonicalize is not idempotent on the large instance");
  }
  return 0;
}
