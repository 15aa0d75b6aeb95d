// Fuzz harness for the batch NDJSON layer (src/batch/).
//
// The first input byte selects the batch algorithm (a batch::solvers() row,
// by index modulo the table size), whether schedules are embedded and
// whether the formatted record is an ok or an error line; the rest is fed
// three times:
//
//   1. line by line through parse_instance_record, asserting the record
//      contract: rejection is a typed exception (util::Error,
//      util::OverflowError, std::invalid_argument, std::length_error from
//      absurd advertised counts) and acceptance round-trips —
//      parse(format(parse(x))) must yield the same id and instance;
//   2. as the fields of a ResultRecord, asserting format_result_record
//      writes the bytes of the util::Json DOM reference formatter
//      (tests/result_record_reference.hpp);
//   3. as a whole stream through run_batch (threads=1, tiny queue),
//      asserting the pipeline contract: malformed records NEVER abort the
//      batch — run_batch returns a summary whose counts add up, and the
//      only exceptions that may escape are the typed ones above (a bad
//      stream is data, not a usage error). std::logic_error escaping —
//      including the pipeline's own "produced infeasible schedule" check —
//      is a finding and crashes the process.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>

#include "../tests/result_record_reference.hpp"
#include "batch/pipeline.hpp"
#include "batch/solver.hpp"
#include "batch/stream.hpp"
#include "util/error.hpp"

namespace {

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "fuzz_batch_stream: %s\n", what);
  std::abort();
}

void check(bool cond, const char* what) {
  if (!cond) die(what);
}

using sharedres::util::Error;
using sharedres::util::OverflowError;
namespace batch = sharedres::batch;

void fuzz_records(const std::string& doc) {
  std::istringstream is(doc);
  std::string line;
  while (std::getline(is, line)) {
    try {
      const batch::InstanceRecord rec = batch::parse_instance_record(line);
      const std::string out =
          batch::format_instance_record(rec.instance, rec.id);
      const batch::InstanceRecord again = batch::parse_instance_record(out);
      check(again.id == rec.id, "record round trip changed the id");
      check(again.instance.machines() == rec.instance.machines() &&
                again.instance.capacity() == rec.instance.capacity() &&
                again.instance.jobs() == rec.instance.jobs(),
            "record round trip changed the instance");
    } catch (const Error&) {
      // typed rejection — the documented contract for malformed records
    } catch (const OverflowError&) {
      // adversarial magnitudes surfacing through checked arithmetic
    } catch (const std::invalid_argument&) {
      // semantic validation in core::Instance
    } catch (const std::length_error&) {
      // absurd advertised counts hitting vector::reserve limits
    }
  }
}

void fuzz_result_record(std::uint8_t selector, const std::string& doc) {
  // The numbers come from the first 8 input bytes and every string field
  // holds the rest, so the formatter meets the input's own bytes to escape
  // and integers on both sides of 2^53.
  std::uint64_t bits = 0;
  std::memcpy(&bits, doc.data(), std::min(doc.size(), sizeof(bits)));
  const auto value = static_cast<std::int64_t>(bits);
  const std::string text =
      doc.size() > sizeof(bits) ? doc.substr(sizeof(bits)) : doc;
  batch::ResultRecord rec;
  rec.index = bits;
  rec.id = text;
  rec.ok = (selector & 0x40) != 0;
  rec.algorithm = text;
  rec.machines = static_cast<int>(value);
  rec.jobs = bits >> 11;
  rec.makespan = value;
  rec.lower_bound = value / 3;
  rec.blocks = bits >> 1;
  rec.schedule_text = text;
  rec.error_code = text;
  rec.error_message = text;
  check(batch::format_result_record(rec) ==
            batch::reference::dom_result_record(rec),
        "result line differs from the util::Json DOM reference");
}

void fuzz_pipeline(std::uint8_t selector, const std::string& doc) {
  const auto table = batch::solvers();
  batch::BatchOptions options;
  options.algorithm = table[selector % table.size()].name;
  options.emit_schedules = (selector & 0x80) != 0;
  options.threads = 1;
  options.queue_capacity = 4;

  std::istringstream in(doc);
  std::ostringstream out;
  const batch::BatchSummary summary = batch::run_batch(in, out, options);
  check(summary.records == summary.ok + summary.failed,
        "summary counts do not add up");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const std::string doc(reinterpret_cast<const char*>(data + 1), size - 1);
  fuzz_records(doc);
  fuzz_result_record(data[0], doc);
  try {
    fuzz_pipeline(data[0], doc);
  } catch (const Error&) {
    // only plausible as kIo from a failing stream; never for record content
  } catch (const OverflowError&) {
  } catch (const std::invalid_argument&) {
  } catch (const std::length_error&) {
  }
  return 0;
}
