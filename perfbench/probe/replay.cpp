// In-process runs through the library's public calls.
//
// `reference` solves each line once through the one-shot facades
// (core::schedule_sos / core::schedule_improved) — the independent answer
// batch-solve's output is checked against.
//
// `replay` re-runs a stream the load generator saved, mirroring the path
// the real front end takes (batch::run_batch inline or pooled, or one
// client of service::Service) call for call, so its output bytes must equal
// the untraced run's. With --trace=1 each public call is wrapped in a span:
// name, record, start, end and parent, kept in per-thread memory and
// written out when the replay ends. A span's self time is its duration
// minus its children's.
#include <algorithm>
#include <atomic>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "batch/emitter.hpp"
#include "batch/stream.hpp"
#include "batch/worker.hpp"
#include "cache/canonical.hpp"
#include "cache/solve_cache.hpp"
#include "core/improved_scheduler.hpp"
#include "core/lower_bounds.hpp"
#include "core/sos_scheduler.hpp"
#include "core/validator.hpp"
#include "io/text_io.hpp"
#include "obs/json_export.hpp"
#include "obs/registry.hpp"
#include "probe.hpp"
#include "service/journal.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace sr = sharedres;

// reference --lines=PATH --algorithm=window|improved [--emit-schedules]
//   --out=PATH
int cmd_reference(const Args& args) {
  const std::string algorithm = args.get("algorithm", "window");
  const bool emit = args.has("emit-schedules");
  std::string out;
  std::size_t index = 0;
  for (const std::string& line : read_lines(args.get("lines"))) {
    const sr::batch::InstanceRecord input =
        sr::batch::parse_instance_record(line);
    const sr::core::Instance& inst = input.instance;
    const sr::core::Schedule schedule =
        algorithm == "improved" ? sr::core::schedule_improved(inst)
                                : sr::core::schedule_sos(inst);
    const auto check = sr::core::validate(inst, schedule);
    if (!check.ok) throw std::runtime_error("reference: " + check.error);
    sr::batch::ResultRecord rec;
    rec.index = index++;
    rec.id = input.id;
    rec.ok = true;
    rec.algorithm = algorithm;
    rec.machines = inst.machines();
    rec.jobs = inst.size();
    rec.makespan = schedule.makespan();
    rec.lower_bound = sr::core::lower_bounds(inst).combined();
    rec.blocks = schedule.blocks().size();
    if (emit) {
      std::ostringstream ss;
      sr::io::write_schedule(ss, schedule);
      rec.schedule_text = ss.str();
    }
    out += sr::batch::format_result_record(rec) + "\n";
  }
  write_file(args.get("out"), out);
  return 0;
}

namespace {

// ---- spans -----------------------------------------------------------------

enum Name : std::uint8_t {
  kParse,
  kCanonicalize,
  kAcquire,
  kSolve,
  kValidate,
  kLowerBounds,
  kWriteSchedule,
  kDecanonicalize,
  kFormat,
  kEmit,
  kWorker,
  kSubmit,
  kJournal,
  kCacheWait,
  kNameCount
};

const char* const kNames[kNameCount] = {
    "batch.parse",        "cache.canonicalize",  "cache.acquire",
    "core.solve",         "core.validate",       "core.lower_bounds",
    "io.write_schedule",  "cache.decanonicalize", "batch.format",
    "batch.emit",         "batch.worker",        "service.submit",
    "service.journal.append", "cache.wait"};

/// Spans that block rather than compute: reported as wait_s, and never
/// counted as busy time.
bool is_wait(Name n) { return n == kCacheWait; }

struct SpanRecord {
  std::int64_t start;
  std::int64_t end;
  std::int32_t parent;  // index into the same thread's spans, -1 for roots
  std::uint32_t record;
  Name name;
};

struct ThreadTrace {
  std::vector<SpanRecord> spans;
  std::vector<std::int32_t> open;         // stack of open span indices
  std::vector<std::int64_t> child_ns;     // per open span
  double self_ns[kNameCount] = {};
  double calls[kNameCount] = {};
  double bytes[kNameCount] = {};
};

bool g_tracing = false;
std::mutex g_traces_mutex;
std::deque<ThreadTrace> g_traces;  // deque: addresses stay put

ThreadTrace& thread_trace() {
  thread_local ThreadTrace* mine = nullptr;
  if (mine == nullptr) {
    const std::lock_guard<std::mutex> lock(g_traces_mutex);
    mine = &g_traces.emplace_back();
  }
  return *mine;
}

class Span {
 public:
  Span(Name name, std::size_t record) {
    if (!g_tracing) return;
    trace_ = &thread_trace();
    const auto parent =
        trace_->open.empty() ? -1 : trace_->open.back();
    trace_->spans.push_back({0, 0, parent, static_cast<std::uint32_t>(record),
                             name});
    trace_->open.push_back(static_cast<std::int32_t>(trace_->spans.size() - 1));
    trace_->child_ns.push_back(0);
    trace_->spans.back().start = now_ns();
  }
  ~Span() {
    if (trace_ == nullptr) return;
    const std::int64_t end = now_ns();
    SpanRecord& s = trace_->spans[static_cast<std::size_t>(trace_->open.back())];
    s.end = end;
    const std::int64_t duration = end - s.start;
    const std::int64_t children = trace_->child_ns.back();
    trace_->open.pop_back();
    trace_->child_ns.pop_back();
    if (!trace_->child_ns.empty()) trace_->child_ns.back() += duration;
    trace_->self_ns[s.name] += static_cast<double>(duration - children);
    trace_->calls[s.name] += 1;
  }
  void add_bytes(std::size_t n) {
    if (trace_ != nullptr) {
      trace_->bytes[trace_->spans[static_cast<std::size_t>(trace_->open.back())]
                        .name] += static_cast<double>(n);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadTrace* trace_ = nullptr;
};

// ---- the mirrored per-record path (batch/worker.cpp) -------------------------

// The workloads carry no deadlines and no record fails, so the mirror
// leaves out the worker's deadline scope and error lines: any exception
// ends the replay, and the run reports it.

void solve_fields(const sr::core::Instance& inst,
                  const sr::batch::WorkOptions& options,
                  sr::batch::WorkerScratch& scratch,
                  sr::batch::ResultRecord& rec, std::size_t index) {
  {
    Span span(kSolve, index);
    sr::batch::solve_into(inst, options.algorithm, scratch);
  }
  {
    Span span(kValidate, index);
    const auto check = sr::core::validate(inst, scratch.schedule);
    if (!check.ok) {
      throw std::logic_error("replay: infeasible schedule: " + check.error);
    }
  }
  rec.ok = true;
  rec.algorithm = options.algorithm;
  rec.machines = inst.machines();
  rec.jobs = inst.size();
  rec.makespan = scratch.schedule.makespan();
  {
    Span span(kLowerBounds, index);
    rec.lower_bound = sr::core::lower_bounds(inst).combined();
  }
  rec.blocks = scratch.schedule.blocks().size();
  if (options.emit_schedules) {
    Span span(kWriteSchedule, index);
    std::ostringstream ss;
    sr::io::write_schedule(ss, scratch.schedule);
    rec.schedule_text = ss.str();
    span.add_bytes(rec.schedule_text.size());
  }
  sr::batch::bump_ok_counters(scratch, rec);
}

std::string format(const sr::batch::ResultRecord& rec, std::size_t index) {
  Span span(kFormat, index);
  std::string line = sr::batch::format_result_record(rec);
  span.add_bytes(line.size());
  return line;
}

std::string traced_record(const std::string& line, std::size_t index,
                           const sr::batch::WorkOptions& options,
                           sr::batch::WorkerScratch& scratch) {
  Span worker(kWorker, index);
  sr::batch::ResultRecord rec;
  rec.index = index;
  scratch.metrics.counter("batch.records").inc();
  std::optional<sr::batch::InstanceRecord> input;
  {
    Span span(kParse, index);
    input.emplace(sr::batch::parse_instance_record(line));
  }
  rec.id = input->id;
  solve_fields(input->instance, options, scratch, rec, index);
  return format(rec, index);
}

sr::batch::CachedWork traced_prepare(const std::string& line,
                                     std::size_t index,
                                     sr::cache::SolveCache& cache) {
  std::optional<sr::batch::InstanceRecord> record;
  {
    Span span(kParse, index);
    record.emplace(sr::batch::parse_instance_record(line));
  }
  std::optional<sr::cache::CanonicalForm> form;
  {
    Span span(kCanonicalize, index);
    form.emplace(sr::cache::canonicalize(record->instance));
  }
  Span span(kAcquire, index);
  auto handle = cache.acquire(*form);
  return sr::batch::CachedWork{std::move(*record), std::move(*form),
                               std::move(handle)};
}

std::string decanonicalized_text(const sr::core::Schedule& schedule,
                                 sr::core::Res scale, std::size_t index) {
  std::optional<sr::core::Schedule> source;
  {
    Span span(kDecanonicalize, index);
    source.emplace(sr::cache::decanonicalize_schedule(schedule, scale));
  }
  Span span(kWriteSchedule, index);
  std::ostringstream ss;
  sr::io::write_schedule(ss, *source);
  span.add_bytes(ss.str().size());
  return ss.str();
}

std::string traced_cached(sr::batch::CachedWork& work, std::size_t index,
                           const sr::batch::WorkOptions& options,
                           sr::batch::WorkerScratch& scratch) {
  Span worker(kWorker, index);
  sr::batch::ResultRecord rec;
  rec.index = index;
  rec.id = work.record.id;
  scratch.metrics.counter("batch.records").inc();
  const sr::core::Instance& inst = work.record.instance;
  if (work.handle.hit()) {
    const sr::cache::CacheValue* value = nullptr;
    {
      Span span(kCacheWait, index);
      value = work.handle.wait();
    }
    if (value == nullptr) throw std::logic_error("replay: producer abandoned");
    rec.ok = true;
    rec.algorithm = options.algorithm;
    rec.machines = inst.machines();
    rec.jobs = inst.size();
    rec.makespan = value->makespan;
    rec.lower_bound = value->lower_bound;
    rec.blocks = value->blocks;
    if (options.emit_schedules && value->schedule) {
      rec.schedule_text =
          decanonicalized_text(*value->schedule, work.form.scale, index);
    }
    sr::batch::bump_ok_counters(scratch, rec);
  } else {
    // Like the worker: the canonical twin is solved (and, with schedules,
    // written) once, then its schedule is written again in the record's
    // own scaling.
    solve_fields(work.form.instance(), options, scratch, rec, index);
    if (options.emit_schedules) {
      rec.schedule_text =
          decanonicalized_text(scratch.schedule, work.form.scale, index);
    }
    sr::cache::CacheValue value;
    value.makespan = rec.makespan;
    value.lower_bound = rec.lower_bound;
    value.blocks = rec.blocks;
    if (options.emit_schedules) value.schedule = scratch.schedule;
    work.handle.fill(std::move(value));
  }
  return format(rec, index);
}

bool blank(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Mirror of batch::run_batch (pipeline.cpp).
std::string replay_batch(const std::vector<std::string>& lines,
                         const sr::batch::WorkOptions& options,
                         std::size_t threads, std::size_t cache_capacity) {
  std::ostringstream out;
  std::deque<sr::batch::WorkerScratch> scratch;
  sr::batch::OrderedEmitter emitter(out);
  std::optional<sr::cache::SolveCache> cache;
  if (cache_capacity > 0) {
    cache.emplace(sr::cache::SolveCache::Config{cache_capacity, 8});
  }
  const auto emit = [&emitter](std::size_t index, std::string line) {
    Span span(kEmit, index);
    emitter.emit(index, std::move(line));
  };
  std::size_t index = 0;
  if (threads <= 1) {
    scratch.emplace_back();
    for (const std::string& line : lines) {
      if (blank(line)) continue;
      if (cache) {
        auto work = traced_prepare(line, index, *cache);
        emit(index, traced_cached(work, index, options, scratch[0]));
      } else {
        emit(index, traced_record(line, index, options, scratch[0]));
      }
      ++index;
    }
  } else {
    sr::util::WorkerPool pool(threads, 64);
    for (std::size_t w = 0; w < pool.threads(); ++w) scratch.emplace_back();
    for (const std::string& line : lines) {
      if (blank(line)) continue;
      if (cache) {
        auto shared = std::make_shared<sr::batch::CachedWork>(
            traced_prepare(line, index, *cache));
        pool.submit([shared, index, &options, &scratch, &emit](std::size_t w) {
          emit(index, traced_cached(*shared, index, options, scratch[w]));
        });
      } else {
        pool.submit([record = line, index, &options, &scratch,
                     &emit](std::size_t w) {
          emit(index, traced_record(record, index, options, scratch[w]));
        });
      }
      ++index;
    }
    pool.close();
  }
  sr::obs::Registry merged(1);
  for (const sr::batch::WorkerScratch& s : scratch) merged.merge_from(s.metrics);
  if (cache) cache->export_metrics(merged);
  sr::util::Json doc{sr::util::Json::Object{}};
  doc.emplace("summary", true);
  doc.emplace("records", merged.counter("batch.records").value());
  doc.emplace("ok", merged.counter("batch.records_ok").value());
  doc.emplace("failed", merged.counter("batch.records_failed").value());
  doc.emplace("makespan_sum", merged.counter("batch.makespan_sum").value());
  doc.emplace("metrics", sr::obs::deterministic_json(merged));
  out << doc.dump() << '\n';
  return out.str();
}

/// Mirror of one client of service::Service (service.cpp) fed over a
/// connection whose index 0 was a status probe, keeping `window` requests
/// in flight like the closed-loop load generator. Returns the response lines;
/// `response_wait_ns` sums, per request, submit start to response written.
std::string replay_serve(const std::vector<std::string>& lines,
                         const sr::batch::WorkOptions& options,
                         std::size_t threads, std::size_t cache_capacity,
                         const std::string& journal_path, std::uint64_t window,
                         double& response_wait_ns) {
  std::string out;
  std::atomic<std::uint64_t> emitted{0};
  sr::batch::OrderedEmitter emitter([&](const std::string& line) {
    out += line;
    out += '\n';
    emitted.fetch_add(1);
    emitted.notify_one();
    return true;
  });
  sr::service::Journal journal(journal_path, false);
  std::optional<sr::cache::SolveCache> cache;
  if (cache_capacity > 0) {
    cache.emplace(sr::cache::SolveCache::Config{cache_capacity, 8});
  }
  std::deque<sr::batch::WorkerScratch> scratch;
  std::vector<std::int64_t> submitted_at(lines.size() + 2, 0);
  std::atomic<std::int64_t> wait_ns{0};
  std::mutex admission_mutex;
  const auto respond = [&](std::size_t index, std::string line) {
    {
      Span span(kEmit, index);
      emitter.emit(index, std::move(line));
    }
    wait_ns.fetch_add(now_ns() - submitted_at[index]);
  };
  {
    sr::util::WorkerPool pool(threads, 64);
    for (std::size_t w = 0; w < pool.threads(); ++w) scratch.emplace_back();
    // The status probe took index 0 on the recorded connection.
    emitter.emit(0, "");
    out.clear();
    std::size_t index = 1;
    std::uint64_t sent = 0;
    for (const std::string& line : lines) {
      if (blank(line)) continue;
      for (std::uint64_t got = emitted.load(); sent + 1 - got >= window;
           got = emitted.load()) {
        emitted.wait(got);
      }
      ++sent;
      submitted_at[index] = now_ns();
      Span submit(kSubmit, index);
      if (line.find("\"status\"") != std::string::npos) {
        throw std::runtime_error("replay: status probes are not replayed");
      }
      const std::lock_guard<std::mutex> admission(admission_mutex);
      {
        Span span(kJournal, index);
        journal.append(line);
      }
      if (cache) {
        auto shared = std::make_shared<sr::batch::CachedWork>(
            traced_prepare(line, index, *cache));
        pool.submit([shared, index, &options, &scratch,
                     &respond](std::size_t w) {
          respond(index, traced_cached(*shared, index, options, scratch[w]));
        });
      } else {
        pool.submit([record = line, index, &options, &scratch,
                     &respond](std::size_t w) {
          respond(index, traced_record(record, index, options, scratch[w]));
        });
      }
      ++index;
    }
    pool.close();
  }
  response_wait_ns = static_cast<double>(wait_ns.load());
  return out;
}

}  // namespace

// replay --mode=batch|serve --in=PATH --out=PATH --algorithm=A --threads=N
//   [--cache=N] [--emit-schedules] [--journal=PATH --window=W]
//   --trace=0|1 [--spans=PATH] --stats=PATH
int cmd_replay(const Args& args) {
  g_tracing = args.get("trace", "0") == "1";
  const std::vector<std::string> lines = split_lines(read_file(args.get("in")));
  sr::batch::WorkOptions options;
  options.algorithm = args.get("algorithm", "window");
  options.emit_schedules = args.has("emit-schedules");
  const auto threads = static_cast<std::size_t>(args.get_int("threads", 1));
  const auto cache_capacity =
      static_cast<std::size_t>(args.get_int("cache", 0));
  double response_wait_ns = 0;

  const std::int64_t t0 = now_ns();
  const std::string out =
      args.get("mode") == "serve"
          ? replay_serve(lines, options, threads, cache_capacity,
                         args.get("journal"),
                         static_cast<std::uint64_t>(args.get_int("window", 8)),
                         response_wait_ns)
          : replay_batch(lines, options, threads, cache_capacity);
  const std::int64_t t1 = now_ns();
  write_file(args.get("out"), out);

  Stats stats;
  stats.set("wall_s", static_cast<double>(t1 - t0) / 1e9);
  stats.set("records", static_cast<double>(lines.size()));
  stats.set("service.response.wait_s", response_wait_ns / 1e9);
  double busy_ns = 0;
  double self[kNameCount] = {};
  double calls[kNameCount] = {};
  double bytes[kNameCount] = {};
  std::string spans;
  std::size_t thread = 0;
  for (const ThreadTrace& t : g_traces) {
    for (int n = 0; n < kNameCount; ++n) {
      self[n] += t.self_ns[n];
      calls[n] += t.calls[n];
      bytes[n] += t.bytes[n];
      if (!is_wait(static_cast<Name>(n))) busy_ns += t.self_ns[n];
    }
    for (const SpanRecord& s : t.spans) {
      spans += std::to_string(thread) + '\t' + kNames[s.name] + '\t' +
               std::to_string(s.record) + '\t' + std::to_string(s.start - t0) +
               '\t' + std::to_string(s.end - t0) + '\t' +
               std::to_string(s.parent) + '\n';
    }
    ++thread;
  }
  for (int n = 0; n < kNameCount; ++n) {
    const std::string name = kNames[n];
    const bool wait = is_wait(static_cast<Name>(n));
    stats.set(name + (wait ? ".wait_s" : ".busy_s"), self[n] / 1e9);
    stats.set(name + ".calls", calls[n]);
    stats.set(name + ".bytes", bytes[n]);
  }
  stats.set("busy_s", busy_ns / 1e9);
  if (args.has("spans")) {
    write_file(args.get("spans"),
               "thread\tname\trecord\tstart_ns\tend_ns\tparent\n" + spans);
  }
  stats.write(args.get("stats"));
  return 0;
}

}  // namespace perfbench
