// Seeded workload inputs. The benchmark owns its generators (they do not
// call the repo's workloads/ module), so a change to the program cannot
// change what the benchmark feeds it.
#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "probe.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kCapacity = 1'000'000;

struct Job {
  std::int64_t size;
  std::int64_t req;
};

struct Record {
  std::string id;
  int machines;
  std::int64_t capacity;
  std::vector<Job> jobs;
};

std::string format(const Record& r) {
  std::string out = "{\"id\":\"" + r.id +
                    "\",\"machines\":" + std::to_string(r.machines) +
                    ",\"capacity\":" + std::to_string(r.capacity) +
                    ",\"jobs\":[";
  for (std::size_t j = 0; j < r.jobs.size(); ++j) {
    if (j != 0) out += ',';
    out += '[';
    out += std::to_string(r.jobs[j].size);
    out += ',';
    out += std::to_string(r.jobs[j].req);
    out += ']';
  }
  return out + "]}";
}

/// Requirements for one job of the named family, as a share of capacity:
/// uniform up to half; bimodal 80% light (<= C/4m), 20% heavy (C/4..C);
/// pareto with a heavy tail above C/8m.
std::int64_t requirement(const std::string& family, int machines, Rng& rng) {
  const std::int64_t m = machines;
  if (family == "uniform") return rng.range(1, kCapacity / 2);
  if (family == "bimodal") {
    return rng.unit() <= 0.8 ? rng.range(1, kCapacity / (4 * m))
                             : rng.range(kCapacity / 4, kCapacity);
  }
  const double scale = static_cast<double>(kCapacity / (8 * m));
  const double r = std::ceil(scale * std::pow(rng.unit(), -1.0 / 1.2));
  return std::min<std::int64_t>(kCapacity, static_cast<std::int64_t>(r));
}

Record family_record(const std::string& id, const std::string& family,
                     int machines, std::size_t n, Rng& rng) {
  Record r{id, machines, kCapacity, {}};
  for (std::size_t j = 0; j < n; ++j) {
    const std::int64_t size = rng.range(1, 4);
    r.jobs.push_back({size, requirement(family, machines, rng)});
  }
  return r;
}

void shuffle(std::vector<Job>& jobs, Rng& rng) {
  for (std::size_t i = jobs.size(); i > 1; --i) {
    std::swap(jobs[i - 1], jobs[static_cast<std::size_t>(rng.next() % i)]);
  }
}

bool unit_size(const Record& r) {
  return std::all_of(r.jobs.begin(), r.jobs.end(),
                     [](const Job& j) { return j.size == 1; });
}

}  // namespace

// gen --workload=batch-solve|batch-dupes|serve-open --distinct=D --seed=S
//     --out=lines.ndjson --meta=meta.txt
// meta.txt has one "jobs unit_size" line per record line.
int cmd_gen(const Args& args) {
  const std::string workload = args.get("workload");
  const auto distinct = static_cast<std::size_t>(args.get_int("distinct", 0));
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  if (distinct == 0) throw std::invalid_argument("gen: --distinct required");

  std::vector<Record> records;
  if (workload == "batch-solve") {
    // A seeded interleave of the three families, ~600 jobs, m = 16.
    static const char* const kFamilies[] = {"uniform", "bimodal", "pareto"};
    for (std::size_t i = 0; i < distinct; ++i) {
      const std::string family = kFamilies[rng.range(0, 2)];
      const auto n = static_cast<std::size_t>(rng.range(570, 630));
      records.push_back(family_record("bs" + std::to_string(i) + "-" + family,
                                      family, 16, n, rng));
    }
  } else if (workload == "batch-dupes") {
    // Triples: an original (m = 128, n = 400, light requirements and sizes
    // up to 50, so blocks are wide), a job permutation of it, and a
    // permutation with capacity and requirements scaled by a common factor.
    if (distinct % 3 != 0) throw std::invalid_argument("gen: D % 3 != 0");
    for (std::size_t u = 0; u < distinct / 3; ++u) {
      Record base{"bd" + std::to_string(u) + "v0", 128, kCapacity, {}};
      for (std::size_t j = 0; j < 400; ++j) {
        base.jobs.push_back({rng.range(1, 50), rng.range(1000, 12000)});
      }
      Record permuted = base;
      permuted.id = "bd" + std::to_string(u) + "v1";
      shuffle(permuted.jobs, rng);
      Record scaled = base;
      scaled.id = "bd" + std::to_string(u) + "v2";
      shuffle(scaled.jobs, rng);
      const std::int64_t k = rng.range(2, 7);
      scaled.capacity *= k;
      for (Job& j : scaled.jobs) j.req *= k;
      records.push_back(std::move(base));
      records.push_back(std::move(permuted));
      records.push_back(std::move(scaled));
    }
  } else if (workload == "serve-open") {
    // Small bimodal requests of 24..64 jobs on m = 8; every fourth one is
    // unit-size, so the improved portfolio's unit member runs.
    for (std::size_t i = 0; i < distinct; ++i) {
      const auto n = static_cast<std::size_t>(rng.range(24, 64));
      Record r{"so" + std::to_string(i), 8, kCapacity, {}};
      for (std::size_t j = 0; j < n; ++j) {
        const std::int64_t size = i % 4 == 0 ? 1 : rng.range(1, 6);
        const std::int64_t req = rng.unit() <= 0.75
                                     ? rng.range(1, kCapacity / 16)
                                     : rng.range(kCapacity / 3, kCapacity);
        r.jobs.push_back({size, req});
      }
      records.push_back(std::move(r));
    }
  } else {
    throw std::invalid_argument("gen: unknown --workload=" + workload);
  }

  std::string lines;
  std::string meta;
  for (const Record& r : records) {
    lines += format(r) + "\n";
    meta += std::to_string(r.jobs.size()) + (unit_size(r) ? " 1\n" : " 0\n");
  }
  write_file(args.get("out"), lines);
  write_file(args.get("meta"), meta);
  return 0;
}

}  // namespace perfbench
