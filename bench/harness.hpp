// Shared bench-binary harness: consistent CLI flags, table/CSV printing, and
// machine-readable BENCH_<name>.json artifacts.
//
// Every bench binary builds one Harness, streams its tables (and optionally
// explicit timings) through it, and returns finish() from main. The harness
//   * owns the common flags: --csv (CSV instead of aligned tables),
//     --threads=N (worker count for parallel sweeps, overriding
//     SHAREDRES_THREADS / hardware concurrency), --json-dir=DIR (artifact
//     output directory, default "."),
//   * prints the human-readable report exactly as the pre-harness binaries
//     did (titles, aligned tables, CSV mode), and
//   * writes BENCH_<name>.json containing the same tables plus all recorded
//     timings — the input of scripts/check_bench_regression.py and of the
//     schema tests in tests/test_bench_json.cpp.
//
// JSON schema (schema_version 1):
//   {
//     "schema_version": 1,
//     "name":       "<binary name>",
//     "experiment": "<E-number + one-line description>",
//     "threads":    <worker count used for parallel sweeps>,
//     "tables":  [{"title": str, "columns": [str], "rows": [[str]]}],
//     "timings": [{"label": str, "reps": int,
//                  "seconds_min": x, "seconds_median": x,
//                  "seconds_mean": x, "seconds_max": x,
//                  "items_per_second": x}],  // 0 when not meaningful
//     "metrics":  <obs::to_json(Registry::global())>  // see obs/json_export
//   }
// Timings always include a final "total" entry (whole-binary wall time), so
// the artifact is usable for coarse regression tracking even for benches
// that record no explicit timings. All timings come from the monotonic
// clock and satisfy min <= median <= max and min <= mean <= max.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace sharedres::bench {

/// One timed workload, summarized over its repetitions.
struct Timing {
  std::string label;
  std::size_t reps = 1;
  double seconds_min = 0.0;
  double seconds_median = 0.0;
  double seconds_mean = 0.0;
  double seconds_max = 0.0;
  double items_per_second = 0.0;  ///< throughput; 0 when not meaningful

  /// Summarize a Measurement; `items` is the per-rep work count (e.g. jobs
  /// scheduled) used for the throughput figure, 0 to skip it.
  static Timing from(std::string label, const util::Measurement& m,
                     double items = 0.0);
};

class Harness {
 public:
  /// `name` is the binary name (used for the artifact file name),
  /// `experiment` the one-line E-number description.
  Harness(const util::Cli& cli, std::string name, std::string experiment);

  /// Worker count for parallel sweeps: --threads if positive, else
  /// util::default_threads() (which honors SHAREDRES_THREADS).
  [[nodiscard]] std::size_t threads() const { return threads_; }
  [[nodiscard]] bool csv() const { return csv_; }

  /// Print a section title; subsequent tables are recorded under it.
  void section(const std::string& title);

  /// Print the table (aligned or CSV per --csv) and record it for the JSON
  /// artifact under the current section title.
  void table(const util::Table& t);

  /// Record an explicit timing for the JSON artifact and print a one-line
  /// summary of it.
  void record(Timing t);

  /// Run fn() `reps` times, record the summary under `label`, and return it.
  /// `items` is per-rep work for the throughput column (0 = none).
  template <class Fn>
  Timing measure(const std::string& label, std::size_t reps, Fn&& fn,
                 double items = 0.0) {
    Timing t = Timing::from(label, util::measure_seconds(reps, fn), items);
    record(t);
    return t;
  }

  /// Append the "total" timing, write BENCH_<name>.json, return 0 (the exit
  /// status for main).
  int finish();

  /// Print "<name>: <what>" to stderr and exit 1, writing no artifact: for
  /// a result the bench cannot do without, such as an exact optimum.
  [[noreturn]] void fail(const std::string& what) const;

 private:
  struct RecordedTable {
    std::string title;
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;
  };

  std::string name_;
  std::string experiment_;
  std::string json_dir_;
  std::size_t threads_;
  bool csv_;
  bool any_output_ = false;
  std::string current_title_;
  util::Timer total_;
  std::vector<RecordedTable> tables_;
  std::vector<Timing> timings_;
};

}  // namespace sharedres::bench
