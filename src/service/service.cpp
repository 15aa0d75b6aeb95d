#include "service/service.hpp"

#include <utility>

#include "batch/solver.hpp"
#include "batch/stream.hpp"
#include "obs/json_export.hpp"
#include "obs/registry.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace sharedres::service {

Service::Service(const ServiceOptions& options) : options_(options) {
  (void)batch::require_solver(options_.algorithm);
  // A high-water mark above the queue capacity could never trigger (the
  // queue cannot get that deep), turning shedding into silent backpressure
  // — clamp so "shedding on" always means "shed instead of block".
  if (options_.shed_high_water > options_.queue_capacity) {
    options_.shed_high_water = options_.queue_capacity;
  }
  if (!options_.journal_path.empty()) {
    journal_.emplace(options_.journal_path, options_.journal_fsync);
  }
  start_ns_ = util::deadline::now_ns();
  workers_.emplace(options_, /*pooled=*/true);
}

Service::~Service() {
  if (!finished_) {
    try {
      finish();
    } catch (...) {
      // Destructor swallows; callers that care call finish().
    }
  }
}

std::shared_ptr<Service::Client> Service::open_client(WriteLine write) {
  // Wrap the raw sink: count successful writes for the summary, and let the
  // "service.emit" fail point simulate a client whose connection dies on
  // write — the emitter latches failed() and the server carries on.
  auto wrapped = [this, sink = std::move(write)](const std::string& line) {
    try {
      SHAREDRES_FAILPOINT("service.emit");
    } catch (const util::Error&) {
      return false;  // injected: client write failure
    }
    if (!sink(line)) return false;
    responses_.fetch_add(1, std::memory_order_relaxed);
    return true;
  };
  return std::make_shared<Client>(std::move(wrapped));
}

void Service::reject(const std::shared_ptr<Client>& client, std::size_t index,
                     const std::string& code, const std::string& message) {
  // Rejections reuse the batch error-line shape so one client-side parser
  // handles every response. No id salvage: rejection must stay O(1) — the
  // whole point is not spending work on the request.
  batch::ResultRecord rec;
  rec.index = index;
  rec.ok = false;
  rec.error_code = code;
  rec.error_message = message;
  client->emitter.emit(index, batch::format_result_record(rec));
}

bool Service::answer_status(const std::shared_ptr<Client>& client,
                            std::size_t index, const std::string& line) {
  // Cheap pre-filter: instance records never carry a "status" key, so the
  // strict parse below runs only on candidate probes.
  if (line.find("\"status\"") == std::string::npos) return false;
  try {
    const util::Json doc = util::Json::parse(line);
    if (!doc.is_object() || !doc.contains("status") ||
        !doc.at("status").is_bool() || !doc.at("status").as_bool()) {
      return false;
    }
  } catch (const util::Error&) {
    return false;  // not valid JSON: the normal path owns the error line
  }
  status_requests_.fetch_add(1, std::memory_order_relaxed);
  util::Json doc{util::Json::Object{}};
  doc.emplace("index", static_cast<std::uint64_t>(index));
  doc.emplace("status", true);
  doc.emplace("ok", true);
  doc.emplace("draining", draining_.load(std::memory_order_relaxed));
  // Queue depth is the same live fact the service.queue_depth gauge in the
  // obs registry tracks; reading the pool directly avoids a registry lookup
  // and works when obs is compiled out.
  doc.emplace("queue_depth", static_cast<std::uint64_t>(workers_->pending()));
  doc.emplace("requests", requests_.load(std::memory_order_relaxed));
  doc.emplace("admitted", admitted_.load(std::memory_order_relaxed));
  doc.emplace("shed", shed_.load(std::memory_order_relaxed));
  doc.emplace("drain_rejected",
              drain_rejected_.load(std::memory_order_relaxed));
  doc.emplace("admit_errors", admit_errors_.load(std::memory_order_relaxed));
  doc.emplace("responses", responses_.load(std::memory_order_relaxed));
  doc.emplace("uptime_ms", static_cast<std::uint64_t>(
                               (util::deadline::now_ns() - start_ns_) /
                               1'000'000ull));
  client->emitter.emit(index, doc.dump());
  return true;
}

void Service::submit(const std::shared_ptr<Client>& client,
                     const std::string& line) {
  if (finished_) throw std::logic_error("Service::submit after finish");
  if (batch::blank_line(line)) return;
  requests_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t index = client->next_index++;
  // Health probes are answered in place — before the drain check, because a
  // probe is how an operator watches a drain complete — and never journaled,
  // cached, or queued.
  if (answer_status(client, index, line)) return;
  if (draining_.load(std::memory_order_relaxed)) {
    drain_rejected_.fetch_add(1, std::memory_order_relaxed);
    reject(client, index, "shed", "shed: service is draining");
    return;
  }
  // Admission critical section: the shed decision, the journal append, and
  // the enqueue are one atomic step across clients (each connection submits
  // from its own reader thread). Serializing them keeps the DESIGN.md §13
  // invariants exact instead of racy: shed stays before journal (a shed
  // request is never journaled), and the high-water check cannot go stale —
  // no other producer can fill the queue between the check and submit(),
  // and workers only drain it, so a request admitted below high water never
  // blocks on backpressure. Rejection lines are emitted AFTER unlocking:
  // a sink can be slow (bounded by the socket write timeout), and admission
  // must not stall behind one client's dead connection.
  std::unique_lock<std::mutex> admission(admission_mutex_);
  if (options_.shed_high_water != 0 &&
      workers_->pending() >= options_.shed_high_water) {
    admission.unlock();
    shed_.fetch_add(1, std::memory_order_relaxed);
    SHAREDRES_OBS_COUNT_V("service.shed");
    reject(client, index, "shed",
           "shed: worker queue at high water (" +
               std::to_string(options_.shed_high_water) + ")");
    return;
  }
  try {
    SHAREDRES_FAILPOINT("service.admit");
    if (journal_) journal_->append(line);
  } catch (const util::Error& e) {
    // Not admitted: running un-journaled work would silently break the
    // restart-replay contract, so the request fails with a typed line.
    admission.unlock();
    admit_errors_.fetch_add(1, std::memory_order_relaxed);
    reject(client, index, util::to_string(e.code()), e.what());
    return;
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  enqueue(client, index, line);
}

std::size_t Service::replay(const std::shared_ptr<Client>& client,
                            const std::vector<std::string>& lines) {
  if (finished_) throw std::logic_error("Service::replay after finish");
  // Replayed lines are already admitted and already on disk — no shedding,
  // no re-journaling — but they still serialize with live submits so a
  // replay interleaved with new connections cannot race the queue.
  const std::lock_guard<std::mutex> admission(admission_mutex_);
  std::size_t enqueued = 0;
  for (const std::string& line : lines) {
    if (batch::blank_line(line)) continue;
    requests_.fetch_add(1, std::memory_order_relaxed);
    replayed_.fetch_add(1, std::memory_order_relaxed);
    admitted_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t index = client->next_index++;
    enqueue(client, index, line);
    ++enqueued;
  }
  return enqueued;
}

void Service::enqueue(const std::shared_ptr<Client>& client, std::size_t index,
                      std::string line) {
  // Caller holds admission_mutex_: the serialization point Workers::submit
  // needs for the cache, and what keeps a shed check from going stale.
  // Blocking submit: when shedding is off, admission applies backpressure
  // exactly like the batch reader (later submitters then queue on the
  // admission mutex instead of inside the pool — same observable behavior).
  // With shedding on, the high-water check in submit() plus the
  // serialization guarantee mean this call never actually blocks (high
  // water is clamped to queue capacity). The task holds the client, through
  // its emitter, until the response is written.
  workers_->submit(std::move(line), index,
                   std::shared_ptr<batch::OrderedEmitter>(client,
                                                          &client->emitter));
  SHAREDRES_OBS_GAUGE_SET_V("service.queue_depth",
                            static_cast<std::int64_t>(workers_->pending()));
}

void Service::begin_drain() {
  draining_.store(true, std::memory_order_relaxed);
}

ServiceSummary Service::finish() {
  finished_ = true;
  obs::Registry merged(/*ring_capacity=*/1);
  workers_->finish(merged);  // rethrows a worker logic_error, if any
  ServiceSummary s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.replayed = replayed_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.drain_rejected = drain_rejected_.load(std::memory_order_relaxed);
  s.admit_errors = admit_errors_.load(std::memory_order_relaxed);
  s.status_requests = status_requests_.load(std::memory_order_relaxed);
  s.responses = responses_.load(std::memory_order_relaxed);
  s.drained = true;
  s.ok = merged.counter("batch.records_ok").value();
  s.failed = merged.counter("batch.records_failed").value();
  s.metrics = obs::deterministic_json(merged);
  return s;
}

std::string Service::summary_line(const ServiceSummary& s) {
  util::Json doc{util::Json::Object{}};
  doc.emplace("summary", true);
  doc.emplace("service", true);
  doc.emplace("requests", s.requests);
  doc.emplace("admitted", s.admitted);
  doc.emplace("replayed", s.replayed);
  doc.emplace("shed", s.shed);
  doc.emplace("drain_rejected", s.drain_rejected);
  doc.emplace("admit_errors", s.admit_errors);
  doc.emplace("status_requests", s.status_requests);
  doc.emplace("ok", s.ok);
  doc.emplace("failed", s.failed);
  doc.emplace("responses", s.responses);
  doc.emplace("drained", s.drained);
  doc.emplace("metrics", s.metrics);
  return doc.dump();
}

}  // namespace sharedres::service
