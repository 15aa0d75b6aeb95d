#include "harness.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "obs/json_export.hpp"
#include "obs/registry.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace sharedres::bench {

Timing Timing::from(std::string label, const util::Measurement& m,
                    double items) {
  Timing t;
  t.label = std::move(label);
  t.reps = m.reps();
  t.seconds_min = m.min();
  t.seconds_median = m.median();
  t.seconds_mean = m.mean();
  t.seconds_max = m.max();
  if (items > 0.0 && t.seconds_median > 0.0) {
    t.items_per_second = items / t.seconds_median;
  }
  return t;
}

Harness::Harness(const util::Cli& cli, std::string name, std::string experiment)
    : name_(std::move(name)),
      experiment_(std::move(experiment)),
      json_dir_(cli.get("json-dir", ".")),
      csv_(cli.has("csv")) {
  const std::int64_t requested = cli.get_int("threads", 0);
  threads_ = requested > 0 ? static_cast<std::size_t>(requested)
                           : util::default_threads();
}

void Harness::section(const std::string& title) {
  if (any_output_) std::cout << '\n';
  any_output_ = true;
  std::cout << title << "\n\n";
  current_title_ = title;
}

void Harness::table(const util::Table& t) {
  if (csv_) {
    t.write_csv(std::cout);
  } else {
    t.print(std::cout);
  }
  tables_.push_back(RecordedTable{current_title_, t.header(), t.row_data()});
}

void Harness::record(Timing t) {
  std::cout << "[time] " << t.label << ": min " << t.seconds_min * 1e3
            << " ms, median " << t.seconds_median * 1e3 << " ms over "
            << t.reps << " rep(s)";
  if (t.items_per_second > 0.0) {
    std::cout << ", " << t.items_per_second << " items/s";
  }
  std::cout << '\n';
  timings_.push_back(std::move(t));
}

void Harness::fail(const std::string& what) const {
  std::cerr << name_ << ": " << what << '\n';
  std::exit(1);
}

int Harness::finish() {
  {
    Timing total;
    total.label = "total";
    total.reps = 1;
    const double s = total_.seconds();
    total.seconds_min = total.seconds_median = total.seconds_mean =
        total.seconds_max = s;
    timings_.push_back(std::move(total));
  }

  util::Json doc{util::Json::Object{}};
  doc.emplace("schema_version", 1);
  doc.emplace("name", name_);
  doc.emplace("experiment", experiment_);
  doc.emplace("threads", threads_);

  util::Json tables{util::Json::Array{}};
  for (const RecordedTable& rt : tables_) {
    util::Json jt{util::Json::Object{}};
    jt.emplace("title", rt.title);
    util::Json columns{util::Json::Array{}};
    for (const std::string& c : rt.columns) columns.push_back(c);
    jt.emplace("columns", std::move(columns));
    util::Json rows{util::Json::Array{}};
    for (const auto& row : rt.rows) {
      util::Json jrow{util::Json::Array{}};
      for (const std::string& cell : row) jrow.push_back(cell);
      rows.push_back(std::move(jrow));
    }
    jt.emplace("rows", std::move(rows));
    tables.push_back(std::move(jt));
  }
  doc.emplace("tables", std::move(tables));

  util::Json timings{util::Json::Array{}};
  for (const Timing& t : timings_) {
    util::Json jt{util::Json::Object{}};
    jt.emplace("label", t.label);
    jt.emplace("reps", t.reps);
    jt.emplace("seconds_min", t.seconds_min);
    jt.emplace("seconds_median", t.seconds_median);
    jt.emplace("seconds_mean", t.seconds_mean);
    jt.emplace("seconds_max", t.seconds_max);
    jt.emplace("items_per_second", t.items_per_second);
    timings.push_back(std::move(jt));
  }
  doc.emplace("timings", std::move(timings));

  // The observability registry at exit. The "deterministic" sub-block is
  // byte-stable across --threads and reruns; check_bench_regression.py
  // treats any drift in it as a hard failure.
  doc.emplace("metrics", obs::to_json(obs::Registry::global()));

  const std::string path = json_dir_ + "/BENCH_" + name_ + ".json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot write " << path << '\n';
    return 1;
  }
  out << doc.dump(2) << '\n';
  out.close();
  std::cerr << "wrote " << path << '\n';
  return out ? 0 : 1;
}

}  // namespace sharedres::bench
