// perfbench_probe — the benchmark's compiled half (see perfbench/README.md).
//
// Subcommands, dispatched from main.cpp:
//   gen          seeded workload inputs: the distinct record lines and their
//                per-line properties (gen.cpp)
//   reference    one-shot in-process solve of every line (replay.cpp)
//   drive-batch  spawn `sharedres_cli batch`, stream records, time and check
//                every result line (drive.cpp)
//   drive-serve  spawn `sharedres_cli serve --socket`, closed-loop then
//                open-loop load over one connection (drive.cpp)
//   replay       re-run a saved stream in-process through the library's
//                public calls, with or without spans (replay.cpp)
//
// Every subcommand writes its measurements as one flat JSON object; run.py
// turns them into the benchmark's metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: small, seedable, identical on every platform.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  /// Uniform in (0, 1].
  double unit() {
    return static_cast<double>((next() >> 11) + 1) * 0x1.0p-53;
  }
};

/// The order in which a run sends the distinct lines. All three are pure
/// functions of the seed, so a replay or a second pass regenerates them.
///   random  uniform choice among the lines
///   cyclic  0, 1, ..., D-1, 0, 1, ...
///   dupes   lines come in triples (original, permuted, scaled permuted);
///           5% of positions introduce the next original round-robin, the
///           rest replay a twin of one of the 16 most recent originals
class Sequence {
 public:
  Sequence(std::string kind, std::size_t distinct, std::uint64_t seed);
  std::uint32_t next();

 private:
  std::string kind_;
  std::size_t distinct_;
  Rng rng_;
  std::uint64_t position_ = 0;
  std::uint64_t next_original_ = 0;
  std::vector<std::uint32_t> recent_;
  std::size_t recent_head_ = 0;
};

/// Flat `--key=value` arguments.
class Args {
 public:
  Args(int argc, char** argv, int first);
  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  /// Repeated `--key=value` occurrences, in order.
  [[nodiscard]] std::vector<std::string> all(const std::string& key) const;

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

/// One flat JSON object of numbers, number arrays and strings.
class Stats {
 public:
  void set(const std::string& key, double value);
  void set(const std::string& key, const std::string& value);
  void set(const std::string& key, const std::vector<double>& values);
  void write(const std::string& path) const;

 private:
  std::map<std::string, std::string> fields_;
};

[[nodiscard]] std::vector<std::string> read_lines(const std::string& path);
void write_file(const std::string& path, const std::string& bytes);

/// Expected result lines, keyed by distinct input line. A result for stream
/// position p of line id must read `{"index":p,` followed by the reference
/// line's text after its own index field.
class Expected {
 public:
  explicit Expected(const std::string& path);
  [[nodiscard]] bool matches(std::uint32_t id, std::uint64_t position,
                             const char* line, std::size_t size) const;

 private:
  std::vector<std::string> tails_;
};

/// Nearest-rank percentile of an ascending vector (0 when empty).
[[nodiscard]] double percentile(const std::vector<double>& sorted, double q);

int cmd_gen(const Args& args);
int cmd_reference(const Args& args);
int cmd_drive_batch(const Args& args);
int cmd_drive_serve(const Args& args);
int cmd_replay(const Args& args);

}  // namespace perfbench
