// Deterministic fault injection for exception-safety tests and soak runs.
//
// A fail point is a named site in library code that can be armed to throw a
// typed util::Error (code kInjectedFault). Sites are compiled in only when
// SHAREDRES_FAILPOINTS_ENABLED is defined (the SHAREDRES_FAILPOINTS CMake
// option, ON by default except in Release builds); otherwise
// SHAREDRES_FAILPOINT expands to nothing and the hot paths carry zero
// overhead.
//
// Trigger modes:
//   * one-shot:   throw on the k-th hit from arming, then disarm — the
//                 exception-safety tests' mode (recovery paths re-execute
//                 sites freely).
//   * every:N     throw on every N-th hit, stay armed — sustained fault
//                 pressure for the service soak harness.
//   * prob:P,S    throw with probability P per hit, decided by a per-site
//                 deterministic PRNG seeded with S — the same (site, seed)
//                 pair fires on the same hit sequence in every run.
//
// Activation, either:
//   * test API:  util::failpoint::arm("sos_engine.step", 3);
//                util::failpoint::arm_every("pool.task", 10);
//                util::failpoint::arm_prob("io.next_line", 0.01, 42);
//   * env var:   SHAREDRES_FAILPOINTS="a=throw@3,b=throw@every:10,
//                c=throw@prob:0.01,seed:42" ("=throw" means "=throw@1").
//
// The site catalog lives in DESIGN.md §8 (service additions: §13) and is
// queryable at runtime — catalog() / `sharedres_cli failpoints --list` — so
// a soak run can verify what is armed and how often each site fired. Sites
// sit on untrusted-input and mid-run paths: text IO readers, util::parallel
// workers, every engine's block loop (core::run_blocks), the deadline check,
// and the service's admission/journal/emit path — the places where a throw
// must not corrupt observable state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#if defined(SHAREDRES_FAILPOINTS_ENABLED)
#define SHAREDRES_FAILPOINT(site) ::sharedres::util::failpoint::hit(site)
#else
#define SHAREDRES_FAILPOINT(site) ((void)0)
#endif

namespace sharedres::util::failpoint {

/// True when fail points are compiled into this build.
[[nodiscard]] bool compiled_in();

/// Arm `site` to throw once, on its `after`-th hit from now (after >= 1;
/// 1 means "the very next execution"), then disarm. Re-arming resets the
/// site's hit counter.
void arm(const std::string& site, std::uint64_t after = 1);

/// Arm `site` to throw on every `n`-th hit from now (n >= 1; n == 1 throws
/// on every execution). Stays armed until disarm()/reset().
void arm_every(const std::string& site, std::uint64_t n);

/// Arm `site` to throw on each hit with probability `p` (clamped to [0, 1]),
/// decided by a deterministic per-site PRNG seeded with `seed`: the fire
/// pattern is a pure function of (p, seed, hit index). Stays armed.
void arm_prob(const std::string& site, double p, std::uint64_t seed);

/// Disarm `site`; its hit counter keeps counting.
void disarm(const std::string& site);

/// Disarm everything and forget all counters (also forgets the env config,
/// which will NOT be re-read — tests own the registry after reset()).
void reset();

/// Executions of `site` observed since it was first armed/queried.
[[nodiscard]] std::uint64_t hit_count(const std::string& site);

/// Times `site` actually threw since it was first armed/queried.
[[nodiscard]] std::uint64_t fire_count(const std::string& site);

/// Currently armed site names (for diagnostics).
[[nodiscard]] std::vector<std::string> armed_sites();

/// One catalog row: a site the registry knows about — every compiled-in
/// site from the static catalog plus anything armed or queried at runtime.
struct SiteInfo {
  std::string site;
  bool armed = false;
  std::string mode;  ///< "throw@k" | "every:N" | "prob:P,seed:S" | "-"
  std::uint64_t hits = 0;
  std::uint64_t fires = 0;
};

/// Diagnostic snapshot, sorted by site name: the static site catalog merged
/// with the runtime registry (armed config, hit/fire counters). Drives
/// `sharedres_cli failpoints --list`.
[[nodiscard]] std::vector<SiteInfo> catalog();

/// Called by the SHAREDRES_FAILPOINT macro. Cheap when nothing is armed or
/// tracked (one relaxed atomic load). Throws util::Error(kInjectedFault)
/// when `site` is armed and its trigger mode fires on this hit.
void hit(const char* site);

}  // namespace sharedres::util::failpoint
