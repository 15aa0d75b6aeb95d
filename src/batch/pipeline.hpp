// The batch scheduling pipeline: many instances through one process.
//
// run_batch() reads an NDJSON instance stream (see stream.hpp), schedules
// every record, and writes one result line per record — in input order —
// followed by exactly one summary line:
//
//   {"summary":true,"records":N,"ok":K,"failed":F,"makespan_sum":S,
//    "metrics":{"counters":{...},"gauges":{...},"histograms":{...}}}
//
// Architecture (DESIGN.md §10):
//
//   reader (caller thread) ──▶ bounded WorkerPool queue ──▶ workers
//                                                            │ parse,
//                                                            │ solve with
//                                                            │ reused scratch,
//                                                            ▼ format
//                              ordered emitter (reorder buffer, flushes the
//                              contiguous prefix) ──▶ output stream
//
// Determinism contract: the full output byte sequence is identical across
// `threads` values (including 1) for a given input and options. Three
// mechanisms carry it: results are reordered back to input order before
// writing; every per-record counter is a commutative sum merged across the
// per-worker registries (Registry::merge_from) so the summary's metrics
// block is thread-count-invariant; and nothing thread-dependent (worker ids,
// wait counts, timings) appears in the output.
//
// Fault containment: a malformed or semantically invalid record yields a
// typed per-record error line (`"ok":false`) and the batch continues;
// run_batch throws only when the stream itself is unusable — including the
// OUTPUT stream: a sink that fails mid-batch (EPIPE, disk full) stops the
// reader from scheduling further records and surfaces as a typed
// util::Error (kIo) once in-flight work drains — or when a library
// invariant breaks (std::logic_error — a bug, not bad input).
//
// Scratch reuse: each worker owns one core::EngineScratch (at most one
// engine of each kind, built on first use) and one Schedule. Every record
// goes through its batch::solvers() row (solver.hpp), whose facade rebinds
// those engines with reset(), so the steady-state allocations per record
// are the parsed Instance and the per-block share vectors the engines move
// into the schedule — engine-internal buffers are recycled across the whole
// batch.
//
// Solve cache (cache_capacity > 0): the reader additionally parses and
// canonicalizes each record and acquires a cache handle *in input order*, so
// every cache decision (hit/miss, eviction) is made before thread scheduling
// can vary — the cache.* counters in the summary metrics block are
// thread-count-invariant. Workers then either publish the canonical solve
// (first occurrence of a key) or wait for it (repeats), and each record
// writes its schedule text with its own scale factor folded into the shares,
// keeping per-record lines byte-identical to a cache-off run. DESIGN.md §11.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/types.hpp"
#include "util/json.hpp"

namespace sharedres::batch {

struct BatchOptions {
  /// A batch::solvers() name (batch/solver.hpp). Validated by run_batch
  /// (util::Error, kCliUsage).
  std::string algorithm = "window";
  /// Worker threads; <= 1 runs fully inline on the caller thread (no pool,
  /// no locks — the path the fuzz harness drives).
  std::size_t threads = 1;
  /// Bounded submit queue: the reader stalls once this many records are
  /// waiting, which caps memory no matter how large the stream is.
  std::size_t queue_capacity = 64;
  /// Embed each feasible schedule (io::write_schedule text) in its result
  /// line under "schedule".
  bool emit_schedules = false;
  /// Step budget applied to records that carry no "deadline_steps" field of
  /// their own; expiry yields a typed "deadline_exceeded" error line.
  /// 0 = unlimited. See util/deadline.hpp.
  std::uint64_t default_deadline_steps = 0;
  /// Per-record wall-clock budget in milliseconds (0 = none). Inherently
  /// nondeterministic — never use it in determinism comparisons.
  std::uint64_t deadline_ms = 0;
  /// > 0 enables the canonical-instance solve cache (src/cache) with this
  /// many resident entries. Records whose canonical key repeats — job
  /// permutations, common-factor rescalings — reuse the first solve; the
  /// per-record output lines stay byte-identical to a cache-off run, and the
  /// summary grows deterministic cache.* metrics. 0 = off.
  std::size_t cache_capacity = 0;
  /// Shard count for the solve cache (clamped to the capacity).
  std::size_t cache_shards = 8;
};

/// Aggregate outcome, mirrored by the emitted summary line.
struct BatchSummary {
  std::uint64_t records = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  /// Σ makespan over successful records (a commutative sum, so it is
  /// deterministic across thread counts).
  std::uint64_t makespan_sum = 0;
  /// The deterministic metrics section of the merged per-worker registries
  /// (obs::deterministic_json shape).
  util::Json metrics;
};

/// Run the whole stream; returns the summary that was also written as the
/// final output line. See the file comment for the contract.
[[nodiscard]] BatchSummary run_batch(std::istream& in, std::ostream& out,
                                     const BatchOptions& options);

}  // namespace sharedres::batch
