#include "batch/worker.hpp"

#include <stdexcept>
#include <utility>

#include "batch/solver.hpp"
#include "core/lower_bounds.hpp"
#include "core/validator.hpp"
#include "io/text_io.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace sharedres::batch {

void solve_into(const core::Instance& inst, const std::string& algorithm,
                WorkerScratch& scratch) {
  const Solver& solver = require_solver(algorithm);
  solver.check(inst);
  solver.solve(inst, scratch.schedule, scratch.engines);
}

namespace {

/// Run `fill` and turn the record-level failures it throws into `rec`'s
/// error fields: typed errors (parse, invalid instance, deadline expiry,
/// injected faults), overflow, and violated scheduler preconditions. Only
/// std::logic_error, a library bug, escapes.
template <class Fill>
void fill_or_fail(ResultRecord& rec, WorkerScratch& scratch, Fill&& fill) {
  try {
    fill();
    return;
  } catch (const util::Error& e) {
    rec.error_code = util::to_string(e.code());
    rec.error_message = e.what();
    if (e.code() == util::ErrorCode::kDeadlineExceeded) {
      scratch.metrics.counter("batch.deadline_exceeded").inc();
    }
  } catch (const util::OverflowError& e) {
    rec.error_code = util::to_string(util::ErrorCode::kOverflow);
    rec.error_message = e.what();
  } catch (const std::invalid_argument& e) {
    // Same classification as the CLI's input-error path.
    rec.error_code = util::to_string(util::ErrorCode::kInvalidInstance);
    rec.error_message = e.what();
  }
  rec.ok = false;
  scratch.metrics.counter("batch.records_failed").inc();
}

}  // namespace

void bump_ok_counters(WorkerScratch& scratch, const ResultRecord& rec) {
  scratch.metrics.counter("batch.records_ok").inc();
  scratch.metrics.counter("batch.jobs").add(rec.jobs);
  scratch.metrics.counter("batch.blocks").add(rec.blocks);
  scratch.metrics.counter("batch.makespan_sum").add(
      static_cast<std::uint64_t>(rec.makespan));
}

void solve_record_fields(const core::Instance& inst,
                         const WorkOptions& options,
                         std::uint64_t deadline_steps, WorkerScratch& scratch,
                         ResultRecord& rec, core::Res scale) {
  {
    util::deadline::Limits limits;
    limits.max_steps = deadline_steps != 0 ? deadline_steps
                                           : options.default_deadline_steps;
    if (options.deadline_ms != 0) {
      limits.deadline_ns =
          util::deadline::now_ns() + options.deadline_ms * 1'000'000ull;
    }
    if (limits.max_steps != 0 || limits.deadline_ns != 0) {
      const util::deadline::Scope scope(limits);
      solve_into(inst, options.algorithm, scratch);
    } else {
      solve_into(inst, options.algorithm, scratch);
    }
  }
  const auto check = core::validate(inst, scratch.schedule);
  if (!check.ok) {
    throw std::logic_error("batch: produced infeasible schedule: " +
                           check.error);
  }
  rec.ok = true;
  rec.algorithm = options.algorithm;
  rec.machines = inst.machines();
  rec.jobs = inst.size();
  rec.makespan = scratch.schedule.makespan();
  rec.lower_bound = core::lower_bounds(inst).combined();
  rec.blocks = scratch.schedule.blocks().size();
  if (options.emit_schedules) {
    io::append_schedule(rec.schedule_text, scratch.schedule, scale);
  }
  bump_ok_counters(scratch, rec);
}

std::optional<CachedWork> prepare_cached(const std::string& line,
                                         cache::SolveCache& cache) {
  try {
    InstanceRecord record = parse_instance_record(line);
    cache::CanonicalForm form = cache::canonicalize(record.instance);
    auto handle = cache.acquire(form);
    return CachedWork{std::move(record), std::move(form), std::move(handle)};
  } catch (const util::Error&) {
  } catch (const util::OverflowError&) {
  } catch (const std::invalid_argument&) {
  }
  return std::nullopt;
}

std::string process_cached(CachedWork& work, std::size_t index,
                           const WorkOptions& options,
                           WorkerScratch& scratch) {
  ResultRecord rec;
  rec.index = index;
  rec.id = work.record.id;
  scratch.metrics.counter("batch.records").inc();
  // No id salvage on failure: the front end parsed the line, so rec.id
  // already carries whatever label the record had.
  fill_or_fail(rec, scratch, [&] {
    const core::Instance& inst = work.record.instance;
    if (work.handle.hit()) {
      if (const cache::CacheValue* value = work.handle.wait()) {
        rec.ok = true;
        rec.algorithm = options.algorithm;
        rec.machines = inst.machines();
        rec.jobs = inst.size();
        rec.makespan = value->makespan;
        rec.lower_bound = value->lower_bound;
        rec.blocks = value->blocks;
        if (options.emit_schedules && value->schedule) {
          io::append_schedule(rec.schedule_text, *value->schedule,
                              work.form.scale);
        }
        bump_ok_counters(scratch, rec);
        return;
      }
      // The producer's solve failed and abandoned the entry. Solve locally
      // so this record fails (or succeeds) exactly as it would in a
      // cache-off run.
      solve_record_fields(inst, options, work.record.deadline_steps, scratch,
                          rec);
      return;
    }
    // Producer: solve the canonical twin once, publish it, and report
    // through this record's own scaling. The canonical schedule is the
    // source schedule with every share divided by form.scale (exactly — see
    // tests/test_canonical.cpp), so makespan and block structure carry over
    // unchanged, and the text is written once with the shares multiplied
    // back.
    solve_record_fields(work.form.instance(), options,
                        work.record.deadline_steps, scratch, rec,
                        work.form.scale);
    cache::CacheValue value;
    value.makespan = rec.makespan;
    value.lower_bound = rec.lower_bound;
    value.blocks = rec.blocks;
    if (options.emit_schedules) value.schedule = scratch.schedule;
    work.handle.fill(std::move(value));
  });
  return format_result_record(rec);
}

std::string process_record(const std::string& line, std::size_t index,
                           const WorkOptions& options,
                           WorkerScratch& scratch) {
  ResultRecord rec;
  rec.index = index;
  scratch.metrics.counter("batch.records").inc();
  fill_or_fail(rec, scratch, [&] {
    const InstanceRecord input = parse_instance_record(line);
    rec.id = input.id;
    solve_record_fields(input.instance, options, input.deadline_steps,
                        scratch, rec);
  });
  if (!rec.ok && rec.id.empty()) {
    // Salvage the caller's label for the error line when the JSON itself is
    // readable (e.g. the instance was semantically invalid).
    try {
      const util::Json doc = util::Json::parse(line);
      if (doc.is_object() && doc.contains("id") && doc.at("id").is_string()) {
        rec.id = doc.at("id").as_string();
      }
    } catch (const util::Error&) {
      // Unparseable line: no id to recover.
    }
  }
  return format_result_record(rec);
}

}  // namespace sharedres::batch
