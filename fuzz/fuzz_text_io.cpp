// Fuzz harness for the text IO readers.
//
// The first input byte selects a reader (byte % 5) and, for schedules, a
// share scale (byte / 5); the rest is fed to the reader as a document. The
// harness asserts the readers' adversarial-input contract:
//
//   * rejection is always a typed exception — util::Error (parse/io),
//     util::OverflowError (adversarial magnitudes), or std::invalid_argument
//     (the model types' semantic validation); anything else escaping
//     (std::logic_error, std::bad_alloc from absurd reserves, UB caught by a
//     sanitizer) is a finding and crashes the process;
//   * acceptance is always round-trippable: write(read(x)) must parse back
//     to an equal value — an accepted-but-mangled document is also a bug;
//   * an accepted schedule written through io::append_schedule at the
//     selected scale equals write_schedule(decanonicalize_schedule(...)),
//     and the two throw OverflowError on the same schedules.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "cache/canonical.hpp"
#include "io/text_io.hpp"
#include "util/error.hpp"

namespace {

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "fuzz_text_io: %s\n", what);
  std::abort();
}

void check(bool cond, const char* what) {
  if (!cond) die(what);
}

using sharedres::util::Error;
using sharedres::util::OverflowError;
namespace io = sharedres::io;

void fuzz_instance(const std::string& doc) {
  std::istringstream is(doc);
  const sharedres::core::Instance inst = io::read_instance(is);
  std::ostringstream os;
  io::write_instance(os, inst);
  std::istringstream back(os.str());
  const sharedres::core::Instance again = io::read_instance(back);
  check(again.machines() == inst.machines() &&
            again.capacity() == inst.capacity() && again.jobs() == inst.jobs(),
        "instance round trip changed the value");
}

void fuzz_schedule(std::uint8_t selector, const std::string& doc) {
  std::istringstream is(doc);
  const sharedres::core::Schedule sched = io::read_schedule(is);
  std::ostringstream os;
  io::write_schedule(os, sched);
  std::istringstream back(os.str());
  check(io::read_schedule(back) == sched,
        "schedule round trip changed the value");

  // The scaled writer against its reference, write_schedule of the
  // decanonicalized copy: the same bytes, or OverflowError from both.
  static constexpr sharedres::core::Res kScales[] = {
      1, 2, 7, 1000, std::int64_t{1} << 31, (std::int64_t{1} << 32) + 1,
      std::int64_t{1} << 62, std::numeric_limits<std::int64_t>::max()};
  const sharedres::core::Res scale =
      kScales[(selector / 5) % std::size(kScales)];
  std::optional<std::string> want;
  try {
    const sharedres::core::Schedule scaled =
        sharedres::cache::decanonicalize_schedule(sched, scale);
    std::ostringstream ws;
    io::write_schedule(ws, scaled);
    want = ws.str();
  } catch (const OverflowError&) {
  }
  std::string got = "kept";
  bool threw = false;
  try {
    io::append_schedule(got, sched, scale);
  } catch (const OverflowError&) {
    threw = true;
  }
  check(threw == !want.has_value(),
        "append_schedule and decanonicalize_schedule disagree on overflow");
  check(got == (threw ? "kept" : "kept" + *want),
        "append_schedule differs from write_schedule(decanonicalize_schedule)");
}

void fuzz_sas(const std::string& doc) {
  std::istringstream is(doc);
  const sharedres::sas::SasInstance inst = io::read_sas(is);
  std::ostringstream os;
  io::write_sas(os, inst);
  std::istringstream back(os.str());
  const sharedres::sas::SasInstance again = io::read_sas(back);
  check(again.tasks.size() == inst.tasks.size(),
        "sas round trip changed the task count");
}

void fuzz_packing(const std::string& doc) {
  std::istringstream is(doc);
  const sharedres::binpack::PackingInstance inst =
      io::read_packing_instance(is);
  std::ostringstream os;
  io::write_packing_instance(os, inst);
  std::istringstream back(os.str());
  const sharedres::binpack::PackingInstance again =
      io::read_packing_instance(back);
  check(again.items == inst.items, "packing round trip changed the items");
}

void fuzz_online(const std::string& doc) {
  std::istringstream is(doc);
  const sharedres::online::OnlineInstance inst = io::read_online(is);
  std::ostringstream os;
  io::write_online(os, inst);
  std::istringstream back(os.str());
  const sharedres::online::OnlineInstance again = io::read_online(back);
  check(again.size() == inst.size(), "online round trip changed the job count");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const std::string doc(reinterpret_cast<const char*>(data + 1), size - 1);
  try {
    switch (data[0] % 5) {
      case 0: fuzz_instance(doc); break;
      case 1: fuzz_schedule(data[0], doc); break;
      case 2: fuzz_sas(doc); break;
      case 3: fuzz_packing(doc); break;
      case 4: fuzz_online(doc); break;
    }
  } catch (const Error&) {
    // typed rejection — the documented contract for malformed input
  } catch (const OverflowError&) {
    // adversarial magnitudes surfacing through checked arithmetic
  } catch (const std::invalid_argument&) {
    // semantic validation in the model types (validate_input, Instance)
  } catch (const std::length_error&) {
    // absurd advertised counts hitting vector::reserve limits
  }
  return 0;
}
