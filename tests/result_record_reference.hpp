// Reference formatter for batch result lines, shared by tests/test_batch.cpp
// and fuzz/fuzz_batch_stream.cpp.
//
// batch::format_result_record appends each line straight into a string; this
// builds the same line through the util::Json DOM, whose dumper defines the
// bytes (key order, string escapes, number text). The two must agree on
// every record.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "batch/stream.hpp"
#include "util/json.hpp"

namespace sharedres::batch::reference {

inline std::string dom_result_record(const ResultRecord& record) {
  util::Json doc{util::Json::Object{}};
  doc.emplace("index", static_cast<std::uint64_t>(record.index));
  if (!record.id.empty()) doc.emplace("id", record.id);
  doc.emplace("ok", record.ok);
  if (record.ok) {
    doc.emplace("algorithm", record.algorithm);
    doc.emplace("machines", record.machines);
    doc.emplace("jobs", static_cast<std::uint64_t>(record.jobs));
    doc.emplace("makespan", record.makespan);
    doc.emplace("lower_bound", record.lower_bound);
    doc.emplace("blocks", static_cast<std::uint64_t>(record.blocks));
    if (!record.schedule_text.empty()) {
      doc.emplace("schedule", record.schedule_text);
    }
  } else {
    util::Json error{util::Json::Object{}};
    error.emplace("code", record.error_code);
    error.emplace("message", record.error_message);
    doc.emplace("error", std::move(error));
  }
  return doc.dump();
}

}  // namespace sharedres::batch::reference
