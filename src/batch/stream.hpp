// NDJSON record formats for the batch pipeline.
//
// A batch input stream is newline-delimited JSON, one instance per line
// (blank lines are skipped):
//
//   {"id":"inst-0","machines":4,"capacity":100,"jobs":[[1,40],[2,25]]}
//
// `jobs` lists [size, requirement] pairs in the caller's order; `id` is an
// optional caller-chosen label echoed back in the matching result line; an
// optional `"deadline_steps":N` caps the solve's step budget (expiry yields
// a typed "deadline_exceeded" error line — see util/deadline.hpp). The
// output stream mirrors the input one result line per record, in input
// order, followed by a single summary line (see pipeline.hpp):
//
//   {"index":0,"id":"inst-0","ok":true,"algorithm":"window","machines":4,
//    "jobs":2,"makespan":7,"lower_bound":6,"blocks":3}
//   {"index":1,"ok":false,"error":{"code":"parse","message":"..."}}
//
// Parsers throw util::Error — kParse for malformed JSON or wrong shapes,
// kInvalidInstance/kOverflow propagated from Instance construction — and
// never anything untyped: the pipeline maps each typed error to a per-record
// error line without aborting the batch.
#pragma once

#include <string>

#include "core/instance.hpp"
#include "core/types.hpp"

namespace sharedres::batch {

/// One parsed input line.
struct InstanceRecord {
  std::string id;  ///< optional "id" field; empty when absent
  core::Instance instance;
  /// Optional "deadline_steps" field: per-record step budget for the solve
  /// (util/deadline.hpp). 0 = absent; the pipeline falls back to its
  /// default budget, if any.
  std::uint64_t deadline_steps = 0;
};

/// True for a line of only spaces, tabs and carriage returns: `batch` and
/// `serve` skip it without assigning an index or answering it.
[[nodiscard]] bool blank_line(const std::string& line);

/// Parse one NDJSON instance line. Throws util::Error (kParse) on malformed
/// JSON, missing/mis-typed fields, non-integral or out-of-range numbers;
/// Instance construction errors (kInvalidInstance, kOverflow) propagate.
[[nodiscard]] InstanceRecord parse_instance_record(const std::string& line);

/// Inverse of parse_instance_record: one compact NDJSON line (no trailing
/// newline), jobs in the caller's original order. parse(format(x)) yields an
/// instance equal to x.
[[nodiscard]] std::string format_instance_record(
    const core::Instance& instance, const std::string& id = "");

/// One output line of a batch run, formatted by format_result_record.
struct ResultRecord {
  std::size_t index = 0;  ///< 0-based position of the record in the stream
  std::string id;
  bool ok = false;

  // ok == true:
  std::string algorithm;
  int machines = 0;
  std::size_t jobs = 0;
  core::Time makespan = 0;
  core::Time lower_bound = 0;
  std::size_t blocks = 0;
  std::string schedule_text;  ///< io::write_schedule dump; emitted if set

  // ok == false:
  std::string error_code;  ///< util::to_string(ErrorCode) name
  std::string error_message;
};

/// One compact NDJSON line (no trailing newline).
[[nodiscard]] std::string format_result_record(const ResultRecord& record);

}  // namespace sharedres::batch
