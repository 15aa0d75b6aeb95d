// Per-record solve processing — the unit of work shared by the batch
// pipeline (src/batch/pipeline.cpp) and the persistent scheduling service
// (src/service). One input NDJSON line in, one formatted result line out,
// against per-worker reusable scratch.
//
// Extracted from pipeline.cpp when the service arrived (DESIGN.md §13): the
// service's determinism contract — a served request's response line is
// byte-identical to what `batch` would emit for the same record — holds by
// construction because both front ends submit through the same
// batch::Workers (pipeline.hpp), which calls these functions.
//
// Deadline contract: a record carrying "deadline_steps":N (or a nonzero
// WorkOptions::default_deadline_steps / deadline_ns) runs its solve under a
// util::deadline::Scope. Expiry surfaces as a typed "deadline_exceeded"
// error line; the engines' strong exception guarantee plus their reset()
// rebind keeps the scratch reusable for the next record (tested in
// tests/test_service.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "batch/stream.hpp"
#include "cache/canonical.hpp"
#include "cache/solve_cache.hpp"
#include "core/engine_scratch.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "obs/registry.hpp"
#include "util/align.hpp"

namespace sharedres::batch {

/// Per-worker reusable state. The facades build each engine on the worker's
/// first suitable record and rebind it with reset() afterwards
/// (core/engine_scratch.hpp); the metrics registry collects this worker's
/// batch.* counters for the worker-order merge after the pool drains.
/// Cache-line aligned: scratch blocks live contiguously in a deque and every
/// worker hammers its own block's counters, so an unaligned boundary would
/// put two workers' hot words on one line.
struct alignas(util::kCacheLineSize) WorkerScratch {
  core::EngineScratch engines;
  core::Schedule schedule;
  obs::Registry metrics{/*ring_capacity=*/1};
};

/// The per-record processing knobs. BatchOptions (pipeline.hpp) extends it
/// with the pool and the cache, and service::ServiceOptions extends that.
struct WorkOptions {
  /// A batch::solvers() name (batch/solver.hpp). run_batch and the Service
  /// constructor reject any other name up front.
  std::string algorithm = "window";
  /// Embed each feasible schedule (io::write_schedule text) in its result
  /// line under "schedule".
  bool emit_schedules = false;
  /// Step budget applied to records that carry no "deadline_steps" of
  /// their own. 0 = unlimited. Deterministic (counts step-loop iterations).
  std::uint64_t default_deadline_steps = 0;
  /// Per-record wall-clock budget from solve start, in milliseconds.
  /// 0 = none. Inherently nondeterministic — see util/deadline.hpp.
  std::uint64_t deadline_ms = 0;
};

/// Solve `inst` into scratch.schedule with the named batch::solvers() row:
/// look it up (util::Error kCliUsage when unknown), check its preconditions
/// (util::Error kInvalidInstance), run its solve.
void solve_into(const core::Instance& inst, const std::string& algorithm,
                WorkerScratch& scratch);

/// Shared tail of every successful solve path: the counters whose sums make
/// up the summary line. Values are per-record facts, so cached and uncached
/// paths bump them identically.
void bump_ok_counters(WorkerScratch& scratch, const ResultRecord& rec);

/// Solve `inst` locally (no cache) under the record's deadline and fill the
/// success fields of `rec` — the one definition of what an "ok" record
/// looks like, shared by the uncached path, the cache-producer path, and
/// the abandoned-entry fallback. `deadline_steps` is the record's own
/// budget (0 = fall back to options.default_deadline_steps). With
/// options.emit_schedules the schedule text is written once, every share
/// multiplied by `scale`: the cache producer solves the canonical twin and
/// passes the record's form.scale.
void solve_record_fields(const core::Instance& inst,
                         const WorkOptions& options,
                         std::uint64_t deadline_steps, WorkerScratch& scratch,
                         ResultRecord& rec, core::Res scale = 1);

/// Process one input line into its formatted result line. Record-level
/// problems (parse errors, invalid instances, overflow, deadline expiry,
/// injected faults) become "ok":false lines and processing continues; only
/// std::logic_error — a library bug — escapes.
[[nodiscard]] std::string process_record(const std::string& line,
                                         std::size_t index,
                                         const WorkOptions& options,
                                         WorkerScratch& scratch);

// ---- solve-cache path (shared by the batch pipeline and the service) ------

/// A record the front end already parsed, canonicalized, and registered with
/// the solve cache. Everything a worker needs travels in here; the handle
/// decides whether the worker produces the canonical solve or waits for it.
struct CachedWork {
  InstanceRecord record;
  cache::CanonicalForm form;
  cache::SolveCache::Handle handle;
};

/// Parse + canonicalize `line` and acquire its cache handle. MUST be called
/// on the stream's serialization point — Workers::submit (pipeline.hpp),
/// which the batch reader calls in input order and the service under its
/// admission mutex — because acquire() order is what the cache's
/// determinism contract is defined over (solve_cache.hpp).
/// nullopt means the line could not be prepared; the caller processes it
/// uncached and emits the identical error record.
[[nodiscard]] std::optional<CachedWork> prepare_cached(
    const std::string& line, cache::SolveCache& cache);

/// Cached counterpart of process_record for records the front end
/// successfully prepared. The output line is byte-identical to what
/// process_record would emit: makespan, lower bound, block structure, and
/// (de-canonicalized) schedule text are all invariant across the canonical
/// equivalence class.
[[nodiscard]] std::string process_cached(CachedWork& work, std::size_t index,
                                         const WorkOptions& options,
                                         WorkerScratch& scratch);

}  // namespace sharedres::batch
