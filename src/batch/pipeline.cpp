#include "batch/pipeline.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "batch/solver.hpp"
#include "batch/stream.hpp"
#include "obs/json_export.hpp"
#include "obs/registry.hpp"
#include "util/error.hpp"

namespace sharedres::batch {

Workers::Workers(const BatchOptions& options, bool pooled)
    : options_(options) {
  if (options.cache_capacity > 0) {
    cache_.emplace(
        cache::SolveCache::Config{.capacity = options.cache_capacity});
  }
  if (pooled) pool_.emplace(options.threads, options.queue_capacity);
  const std::size_t workers = pool_ ? pool_->threads() : 1;
  for (std::size_t w = 0; w < workers; ++w) scratch_.emplace_back();
}

void Workers::submit(std::string&& line, std::size_t index,
                     std::shared_ptr<OrderedEmitter> emitter) {
  std::optional<CachedWork> work;
  if (cache_) work = prepare_cached(line, *cache_);
  if (!pool_) {
    emitter->emit(index,
                  work ? process_cached(*work, index, options_, scratch_[0])
                       : process_record(line, index, options_, scratch_[0]));
  } else if (work) {
    // shared_ptr because std::function requires a copyable callable and
    // CachedWork (the cache handle) is move-only.
    pool_->submit([this, emitter = std::move(emitter), index,
                   shared = std::make_shared<CachedWork>(std::move(*work))](
                      std::size_t w) {
      emitter->emit(index,
                    process_cached(*shared, index, options_, scratch_[w]));
    });
  } else {
    pool_->submit([this, emitter = std::move(emitter), index,
                   record = std::move(line)](std::size_t w) {
      emitter->emit(index,
                    process_record(record, index, options_, scratch_[w]));
    });
  }
}

std::size_t Workers::pending() const { return pool_ ? pool_->pending() : 0; }

void Workers::finish(obs::Registry& merged) {
  if (pool_) pool_->close();  // drain; rethrows the first worker logic_error
  for (const WorkerScratch& s : scratch_) merged.merge_from(s.metrics);
  for (const char* name : {"batch.records", "batch.records_ok",
                           "batch.records_failed", "batch.makespan_sum"}) {
    (void)merged.counter(name);
  }
  if (cache_) cache_->export_metrics(merged);
}

BatchSummary run_batch(std::istream& in, std::ostream& out,
                       const BatchOptions& options) {
  (void)require_solver(options.algorithm);
  const auto emitter = std::make_shared<OrderedEmitter>(out);
  Workers workers(options, /*pooled=*/options.threads > 1);
  std::string line;
  std::size_t index = 0;
  while (std::getline(in, line)) {
    if (blank_line(line)) continue;
    // A dead sink (EPIPE, disk full) stops the batch: solving records whose
    // results can never be delivered is wasted work. Records already queued
    // still run; the failed emitter drops their lines.
    if (emitter->failed()) break;
    workers.submit(std::move(line), index++, emitter);
  }
  obs::Registry merged(/*ring_capacity=*/1);
  workers.finish(merged);
  if (emitter->failed()) {
    // Typed: callers (the CLI's exit-code contract) treat a broken output
    // stream as an IO failure, not as a silent short batch.
    throw util::Error::io(
        "batch: output stream failed (broken pipe or disk full); wrote " +
        std::to_string(emitter->written()) + " result lines before failing");
  }
  if (!emitter->drained()) {
    throw std::logic_error("batch: emitter left lines behind");
  }

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
