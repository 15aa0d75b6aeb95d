#include "util/failpoint.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>

#include "obs/registry.hpp"
#include "util/error.hpp"

namespace sharedres::util::failpoint {

namespace {

/// Every compiled-in SHAREDRES_FAILPOINT site, for the diagnostic catalog
/// (an armed typo in SHAREDRES_FAILPOINTS silently never fires; `failpoints
/// --list` makes the mismatch visible). Keep in sync with DESIGN.md §8;
/// scripts/check_failpoint_catalog.sh (a CI step) fails on a site in src/
/// that is missing here.
constexpr const char* kKnownSites[] = {
    "deadline.check",           // util/deadline.cpp — injected expiry
    "improved_engine.step",     // core/engine_driver.hpp — block loop
    "io.next_line",             // io/text_io.cpp — mid-file read fault
    "io.open_in",               // io/text_io.cpp — open fault
    "multires_engine.step",     // core/engine_driver.hpp — block loop
    "parallel.worker",          // util/parallel.cpp — sweep worker entry
    "pool.task",                // util/parallel.cpp — WorkerPool task entry
    "service.admit",            // service/service.cpp — admission path
    "service.emit",             // service/service.cpp — response emission
    "service.journal_append",   // service/journal.cpp — journal write
    "sos_engine.step",          // core/engine_driver.hpp — block loop
    "unit_engine.step",         // core/engine_driver.hpp — block loop
};

enum class Mode { kOneShot, kEvery, kProb };

struct Site {
  bool armed = false;
  Mode mode = Mode::kOneShot;
  std::uint64_t after = 0;    ///< one-shot: throw when hits reaches this
  std::uint64_t every = 0;    ///< every: throw when hits % every == 0
  double prob = 0.0;          ///< prob: per-hit fire probability
  std::uint64_t seed = 0;     ///< prob: PRNG seed as armed (for catalog())
  std::uint64_t rng = 0;      ///< prob: splitmix64 state
  std::uint64_t hits = 0;
  std::uint64_t fires = 0;
};

struct Registry {
  std::mutex mutex;
  std::map<std::string, Site> sites;
  std::once_flag env_once;
  // Fast-path gate: number of tracked sites. hit() bails on zero without
  // taking the lock, so disabled builds-with-failpoints stay cheap.
  std::atomic<std::uint64_t> tracked{0};
};

Registry& registry() {
  static Registry r;
  return r;
}

/// splitmix64: tiny, deterministic, and statistically fine for a fire/no-
/// fire coin. Kept local so the fail-point fire pattern can never drift
/// with changes to util::prng.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Uniform double in [0, 1) from the top 53 bits.
double next_unit(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

Site& track_locked(Registry& r, const std::string& site) {
  const auto [it, inserted] = r.sites.try_emplace(site);
  if (inserted) r.tracked.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

void arm_one_shot_locked(Site& s, std::uint64_t after) {
  s.armed = true;
  s.mode = Mode::kOneShot;
  s.after = after == 0 ? 1 : after;
  s.hits = 0;
}

void arm_every_locked(Site& s, std::uint64_t n) {
  s.armed = true;
  s.mode = Mode::kEvery;
  s.every = n == 0 ? 1 : n;
  s.hits = 0;
}

void arm_prob_locked(Site& s, double p, std::uint64_t seed) {
  s.armed = true;
  s.mode = Mode::kProb;
  s.prob = std::clamp(p, 0.0, 1.0);
  s.seed = seed;
  s.rng = seed;
  s.hits = 0;
}

/// Parse "site=throw@k,site2=throw@every:10,site3=throw@prob:0.1,seed:7"
/// into arm calls. A prob entry consumes the following ",seed:S" element
/// when present (the spec separator and the prob/seed separator are both
/// commas — kept for backward compatibility with the one-shot grammar).
/// Malformed entries are ignored (an env typo must never crash the host
/// process; `failpoints --list` surfaces what actually armed).
void load_env_locked(Registry& r) {
  const char* env = std::getenv("SHAREDRES_FAILPOINTS");
  if (env == nullptr) return;
  const std::string spec(env);
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    // A "...=throw@prob:P" entry may continue with ",seed:S".
    if (entry.find("=throw@prob:") != std::string::npos &&
        spec.compare(pos, 5, "seed:") == 0) {
      std::size_t next = spec.find(',', pos);
      if (next == std::string::npos) next = spec.size();
      entry += "," + spec.substr(pos, next - pos);
      pos = next + 1;
    }
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    const std::string site = entry.substr(0, eq);
    const std::string action = entry.substr(eq + 1);

    const auto parse_u64 = [](const std::string& text, std::uint64_t& out) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0') return false;
      out = v;
      return true;
    };

    if (action == "throw") {
      arm_one_shot_locked(track_locked(r, site), 1);
    } else if (action.rfind("throw@every:", 0) == 0) {
      std::uint64_t n = 0;
      if (!parse_u64(action.substr(12), n) || n == 0) continue;
      arm_every_locked(track_locked(r, site), n);
    } else if (action.rfind("throw@prob:", 0) == 0) {
      const std::string tail = action.substr(11);
      const std::size_t sep = tail.find(",seed:");
      const std::string p_text = tail.substr(0, sep);
      std::uint64_t seed = 1;
      if (sep != std::string::npos &&
          !parse_u64(tail.substr(sep + 6), seed)) {
        continue;
      }
      char* end = nullptr;
      const double p = std::strtod(p_text.c_str(), &end);
      if (end == p_text.c_str() || *end != '\0' || !(p >= 0.0) || p > 1.0) {
        continue;
      }
      arm_prob_locked(track_locked(r, site), p, seed);
    } else if (action.rfind("throw@", 0) == 0) {
      std::uint64_t k = 0;
      if (!parse_u64(action.substr(6), k) || k == 0) continue;
      arm_one_shot_locked(track_locked(r, site), k);
    }
  }
}

void ensure_env_loaded(Registry& r) {
  std::call_once(r.env_once, [&r] {
    const std::lock_guard<std::mutex> lock(r.mutex);
    load_env_locked(r);
  });
}

std::string mode_string(const Site& s) {
  if (!s.armed) return "-";
  switch (s.mode) {
    case Mode::kOneShot: return "throw@" + std::to_string(s.after);
    case Mode::kEvery: return "every:" + std::to_string(s.every);
    case Mode::kProb:
      return "prob:" + std::to_string(s.prob) +
             ",seed:" + std::to_string(s.seed);
  }
  return "?";
}

}  // namespace

bool compiled_in() {
#if defined(SHAREDRES_FAILPOINTS_ENABLED)
  return true;
#else
  return false;
#endif
}

void arm(const std::string& site, std::uint64_t after) {
  Registry& r = registry();
  ensure_env_loaded(r);
  const std::lock_guard<std::mutex> lock(r.mutex);
  arm_one_shot_locked(track_locked(r, site), after);
}

void arm_every(const std::string& site, std::uint64_t n) {
  Registry& r = registry();
  ensure_env_loaded(r);
  const std::lock_guard<std::mutex> lock(r.mutex);
  arm_every_locked(track_locked(r, site), n);
}

void arm_prob(const std::string& site, double p, std::uint64_t seed) {
  Registry& r = registry();
  ensure_env_loaded(r);
  const std::lock_guard<std::mutex> lock(r.mutex);
  arm_prob_locked(track_locked(r, site), p, seed);
}

void disarm(const std::string& site) {
  Registry& r = registry();
  ensure_env_loaded(r);
  const std::lock_guard<std::mutex> lock(r.mutex);
  track_locked(r, site).armed = false;
}

void reset() {
  Registry& r = registry();
  // Consume the env config so it cannot re-arm sites after an explicit reset.
  std::call_once(r.env_once, [] {});
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.sites.clear();
  r.tracked.store(0, std::memory_order_relaxed);
}

std::uint64_t hit_count(const std::string& site) {
  Registry& r = registry();
  ensure_env_loaded(r);
  const std::lock_guard<std::mutex> lock(r.mutex);
  return track_locked(r, site).hits;
}

std::uint64_t fire_count(const std::string& site) {
  Registry& r = registry();
  ensure_env_loaded(r);
  const std::lock_guard<std::mutex> lock(r.mutex);
  return track_locked(r, site).fires;
}

std::vector<std::string> armed_sites() {
  Registry& r = registry();
  ensure_env_loaded(r);
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<std::string> out;
  for (const auto& [name, site] : r.sites) {
    if (site.armed) out.push_back(name);
  }
  return out;
}

std::vector<SiteInfo> catalog() {
  Registry& r = registry();
  ensure_env_loaded(r);
  const std::lock_guard<std::mutex> lock(r.mutex);
  // std::map iteration + pre-inserted known sites = sorted, duplicate-free.
  std::map<std::string, SiteInfo> rows;
  for (const char* site : kKnownSites) {
    rows.emplace(site, SiteInfo{site, false, "-", 0, 0});
  }
  for (const auto& [name, site] : r.sites) {
    SiteInfo& row = rows[name];
    row.site = name;
    row.armed = site.armed;
    row.mode = mode_string(site);
    row.hits = site.hits;
    row.fires = site.fires;
  }
  std::vector<SiteInfo> out;
  out.reserve(rows.size());
  for (auto& [name, row] : rows) out.push_back(std::move(row));
  return out;
}

void hit(const char* site) {
  Registry& r = registry();
  ensure_env_loaded(r);
  if (r.tracked.load(std::memory_order_relaxed) == 0) return;
  // Volatile: the parallel.worker site makes the pass-the-gate count depend
  // on how many worker threads the run launched.
  SHAREDRES_OBS_COUNT_V("failpoint.site_hits");
  std::uint64_t fired_hit = 0;
  {
    const std::lock_guard<std::mutex> lock(r.mutex);
    const auto it = r.sites.find(site);
    if (it == r.sites.end()) return;
    Site& s = it->second;
    ++s.hits;
    if (!s.armed) return;
    switch (s.mode) {
      case Mode::kOneShot:
        if (s.hits < s.after) return;
        s.armed = false;  // one-shot: recovery paths re-execute sites freely
        break;
      case Mode::kEvery:
        if (s.hits % s.every != 0) return;
        break;  // stays armed: sustained fault pressure
      case Mode::kProb:
        if (next_unit(s.rng) >= s.prob) return;
        break;  // stays armed
    }
    ++s.fires;
    fired_hit = s.hits;
  }
  SHAREDRES_OBS_COUNT_V("failpoint.fires");
  throw Error::injected(site, fired_hit);
}

}  // namespace sharedres::util::failpoint
