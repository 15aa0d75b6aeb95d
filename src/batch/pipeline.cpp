#include "batch/pipeline.hpp"

#include <deque>
#include <istream>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "batch/emitter.hpp"
#include "batch/solver.hpp"
#include "batch/stream.hpp"
#include "batch/worker.hpp"
#include "cache/canonical.hpp"
#include "cache/solve_cache.hpp"
#include "io/text_io.hpp"
#include "obs/json_export.hpp"
#include "obs/registry.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace sharedres::batch {

namespace {

bool blank(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

}  // namespace

BatchSummary run_batch(std::istream& in, std::ostream& out,
                       const BatchOptions& options) {
  (void)require_solver(options.algorithm);

  WorkOptions work_options;
  work_options.algorithm = options.algorithm;
  work_options.emit_schedules = options.emit_schedules;
  work_options.default_deadline_steps = options.default_deadline_steps;
  work_options.deadline_ms = options.deadline_ms;

  // deque: WorkerScratch holds a Registry (neither movable nor copyable),
  // and worker threads hold references across emplacement of later slots.
  std::deque<WorkerScratch> scratch;
  OrderedEmitter emitter(out);
  std::string line;
  std::size_t index = 0;

  std::optional<cache::SolveCache> cache;
  if (options.cache_capacity > 0) {
    cache.emplace(cache::SolveCache::Config{options.cache_capacity,
                                            options.cache_shards});
  }
  // Parse + canonicalize + acquire on the reader thread, in input order —
  // the serialization point the cache's determinism contract needs (see
  // solve_cache.hpp and prepare_cached in worker.hpp).
  if (options.threads <= 1) {
    // Fully inline: no pool, no extra threads. Byte-identical to the pooled
    // path by construction (same process_record, same emitter).
    scratch.emplace_back();
    while (std::getline(in, line)) {
      if (blank(line)) continue;
      // A dead sink (EPIPE, disk full) stops the batch: solving records
      // whose results can never be delivered is wasted work.
      if (emitter.failed()) break;
      if (cache) {
        if (auto work = prepare_cached(line, *cache)) {
          emitter.emit(
              index, process_cached(*work, index, work_options, scratch[0]));
        } else {
          emitter.emit(
              index, process_record(line, index, work_options, scratch[0]));
        }
      } else {
        emitter.emit(index,
                     process_record(line, index, work_options, scratch[0]));
      }
      ++index;
    }
  } else {
    util::WorkerPool pool(options.threads, options.queue_capacity);
    for (std::size_t w = 0; w < pool.threads(); ++w) scratch.emplace_back();
    while (std::getline(in, line)) {
      if (blank(line)) continue;
      // Stop scheduling into a dead sink; records already queued still run
      // (their emits are dropped by the failed emitter).
      if (emitter.failed()) break;
      std::optional<CachedWork> work;
      if (cache && (work = prepare_cached(line, *cache))) {
        // shared_ptr because std::function requires a copyable callable and
        // CachedWork (the cache handle) is move-only. FIFO submission order
        // keeps the no-deadlock guarantee: a key's producer task is always
        // queued before its waiters.
        auto shared = std::make_shared<CachedWork>(std::move(*work));
        pool.submit([shared, index, &work_options, &scratch,
                     &emitter](std::size_t w) {
          emitter.emit(index, process_cached(*shared, index, work_options,
                                             scratch[w]));
        });
      } else {
        pool.submit([record = std::move(line), index, &work_options, &scratch,
                     &emitter](std::size_t w) {
          emitter.emit(index, process_record(record, index, work_options,
                                             scratch[w]));
        });
      }
      ++index;
    }
    pool.close();  // drain; rethrows the first worker logic_error, if any
  }
  if (emitter.failed()) {
    // Typed: callers (the CLI's exit-code contract) treat a broken output
    // stream as an IO failure, not as a silent short batch.
    throw util::Error::io(
        "batch: output stream failed (broken pipe or disk full); wrote " +
        std::to_string(emitter.written()) + " result lines before failing");
  }
  if (!emitter.drained()) {
    throw std::logic_error("batch: emitter left lines behind");
  }

  // Worker-order merge of the per-worker registries. The counters are
  // commutative sums over the record set, so the merged totals — and with
  // them the summary line — are invariant under thread count and schedule.
  obs::Registry merged(/*ring_capacity=*/1);
  for (const WorkerScratch& s : scratch) merged.merge_from(s.metrics);
  // Cache decisions were serialized on the reader, so these metrics are as
  // thread-count-invariant as the worker counter sums above.
  if (cache) cache->export_metrics(merged);

  BatchSummary summary;
  summary.records = merged.counter("batch.records").value();
  summary.ok = merged.counter("batch.records_ok").value();
  summary.failed = merged.counter("batch.records_failed").value();
  summary.makespan_sum = merged.counter("batch.makespan_sum").value();
  summary.metrics = obs::deterministic_json(merged);

  util::Json doc{util::Json::Object{}};
  doc.emplace("summary", true);
  doc.emplace("records", summary.records);
  doc.emplace("ok", summary.ok);
  doc.emplace("failed", summary.failed);
  doc.emplace("makespan_sum", summary.makespan_sum);
  doc.emplace("metrics", summary.metrics);
  out << doc.dump() << '\n';
  if (!out) {
    throw util::Error::io("batch: output stream failed writing the summary");
  }
  return summary;
}

}  // namespace sharedres::batch
