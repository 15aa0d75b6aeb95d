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
//   reader (caller thread) ──▶ Workers::submit ──▶ bounded WorkerPool queue
//                                                          │
//                                                          ▼
//                              workers: parse, solve with reused scratch,
//                              format
//                                                          │
//                                                          ▼
//                              ordered emitter (reorder buffer, flushes the
//                              contiguous prefix) ──▶ output stream
//
// Workers is the worker side, and service::Service (src/service) runs on the
// same one: run_batch adds only the reader loop, the dead-sink stop and the
// summary line.
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
// Solve cache (cache_capacity > 0): Workers::submit additionally parses and
// canonicalizes each record and acquires a cache handle on the caller's
// thread, which the caller serializes (the batch reader in input order), so
// every cache decision (hit/miss, eviction) is made before thread scheduling
// can vary — the cache.* counters in the summary metrics block are
// thread-count-invariant. Workers then either publish the canonical solve
// (first occurrence of a key) or wait for it (repeats), and each record
// writes its schedule text with its own scale factor folded into the shares,
// keeping per-record lines byte-identical to a cache-off run. DESIGN.md §11.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "batch/emitter.hpp"
#include "batch/worker.hpp"
#include "cache/solve_cache.hpp"
#include "obs/registry.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace sharedres::batch {

/// The worker side's settings: the per-record WorkOptions plus the pool and
/// the cache. service::ServiceOptions extends it with admission settings.
struct BatchOptions : WorkOptions {
  /// Worker threads; <= 1 runs fully inline on the caller thread (no pool,
  /// no locks — the path the fuzz harness drives).
  std::size_t threads = 1;
  /// Bounded submit queue: the reader stalls once this many records are
  /// waiting, which caps memory no matter how large the stream is.
  std::size_t queue_capacity = 64;
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

/// The worker side of run_batch and service::Service: one WorkerScratch per
/// worker, the solve cache when options.cache_capacity > 0, and, when
/// `pooled`, a WorkerPool of options.threads workers behind a queue of
/// options.queue_capacity. Without a pool every record runs inline on the
/// caller's thread.
class Workers {
 public:
  Workers(const BatchOptions& options, bool pooled);
  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;

  /// Process `line` as record `index` and hand its result line to `emitter`:
  /// inline, or as a pool task (blocking while the queue is full). With the
  /// cache on, the line is parsed, canonicalized and its handle acquired
  /// here, so the caller MUST serialize submit() calls in the order the
  /// cache's determinism contract is defined over (solve_cache.hpp): the
  /// batch reader in input order, the service under its admission mutex.
  /// FIFO submission then queues a key's producer before its waiters (the
  /// no-deadlock guarantee). A pooled uncached line is moved into its task;
  /// inline, `line` is left as it is, so a reader's buffer keeps its
  /// capacity. The task holds `emitter` until the line is emitted.
  void submit(std::string&& line, std::size_t index,
              std::shared_ptr<OrderedEmitter> emitter);

  /// Records queued but not yet picked up by a worker (0 without a pool): a
  /// snapshot for gauges and shedding, never for synchronization.
  [[nodiscard]] std::size_t pending() const;

  /// Join the pool — rethrowing the first worker std::logic_error, a library
  /// bug — then merge the per-worker registries into `merged` in worker
  /// order, plus the cache's metrics. The counters are commutative sums over
  /// the record set and cache decisions were serialized by the caller, so
  /// the totals do not depend on thread count or scheduling. The summary
  /// counters (batch.records, records_ok, records_failed, makespan_sum) are
  /// registered even when no record bumped them, so both front ends' metrics
  /// blocks carry the same keys on any stream.
  void finish(obs::Registry& merged);

 private:
  WorkOptions options_;
  /// Deque: WorkerScratch holds a Registry (neither movable nor copyable),
  /// and worker threads hold references across emplacement of later slots.
  std::deque<WorkerScratch> scratch_;
  std::optional<cache::SolveCache> cache_;
  /// Last, so it joins before the scratch and cache its tasks use go away.
  std::optional<util::WorkerPool> pool_;
};

/// Run the whole stream; returns the summary that was also written as the
/// final output line. See the file comment for the contract.
[[nodiscard]] BatchSummary run_batch(std::istream& in, std::ostream& out,
                                     const BatchOptions& options);

}  // namespace sharedres::batch
