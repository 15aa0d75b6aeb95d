#include "batch/worker.hpp"

#include <stdexcept>
#include <utility>

#include "baselines/baselines.hpp"
#include "core/lower_bounds.hpp"
#include "core/validator.hpp"
#include "io/text_io.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace sharedres::batch {

void solve_into(const core::Instance& inst, const std::string& algorithm,
                WorkerScratch& scratch) {
  scratch.schedule.reset();
  if (algorithm == "window") {
    if (inst.machines() < 2) {
      throw util::Error::invalid_instance(
          "algorithm 'window' requires machines >= 2");
    }
    if (inst.empty()) return;
    const core::SosEngine::Params params{
        .window_cap = static_cast<std::size_t>(inst.machines() - 1),
        .budget = inst.capacity(),
        .allow_extra_job = true,
    };
    if (scratch.sos) {
      scratch.sos->reset(inst, params);
    } else {
      scratch.sos.emplace(inst, params);
    }
    scratch.sos->run(scratch.schedule);
  } else if (algorithm == "unit") {
    if (inst.machines() < 2 || !inst.unit_size()) {
      throw util::Error::invalid_instance(
          "algorithm 'unit' requires machines >= 2 and unit-size jobs");
    }
    if (inst.empty()) return;
    if (scratch.unit) {
      scratch.unit->reset(inst);
    } else {
      scratch.unit.emplace(inst);
    }
    scratch.unit->run(scratch.schedule);
  } else if (algorithm == "improved") {
    if (inst.machines() < 2) {
      throw util::Error::invalid_instance(
          "algorithm 'improved' requires machines >= 2");
    }
    if (inst.empty()) return;
    // The improved portfolio (core/improved_scheduler.hpp) through the
    // worker's reusable engines: balanced engine first, then the window
    // scheduler — and the unit variant where it applies — as the floor.
    // Strict `<` keeps ties on the balanced schedule, matching
    // core::schedule_improved exactly.
    const core::ImprovedEngine::Params params{
        .machine_cap = static_cast<std::size_t>(inst.machines()),
        .budget = inst.capacity(),
    };
    if (scratch.improved) {
      scratch.improved->reset(inst, params);
    } else {
      scratch.improved.emplace(inst, params);
    }
    scratch.improved->run(scratch.schedule);
    scratch.alt_schedule.reset();
    const core::SosEngine::Params window_params{
        .window_cap = static_cast<std::size_t>(inst.machines() - 1),
        .budget = inst.capacity(),
        .allow_extra_job = true,
    };
    if (scratch.sos) {
      scratch.sos->reset(inst, window_params);
    } else {
      scratch.sos.emplace(inst, window_params);
    }
    scratch.sos->run(scratch.alt_schedule);
    if (scratch.alt_schedule.makespan() < scratch.schedule.makespan()) {
      std::swap(scratch.schedule, scratch.alt_schedule);
    }
    if (inst.unit_size()) {
      scratch.alt_schedule.reset();
      if (scratch.unit) {
        scratch.unit->reset(inst);
      } else {
        scratch.unit.emplace(inst);
      }
      scratch.unit->run(scratch.alt_schedule);
      if (scratch.alt_schedule.makespan() < scratch.schedule.makespan()) {
        std::swap(scratch.schedule, scratch.alt_schedule);
      }
    }
  } else if (algorithm == "multires") {
    if (inst.machines() < 2) {
      throw util::Error::invalid_instance(
          "algorithm 'multires' requires machines >= 2");
    }
    if (inst.empty()) return;
    if (inst.resource_count() == 1) {
      // Mirror core::schedule_multires exactly: at d = 1 it delegates to the
      // window scheduler, so the worker reuses the same engine and params.
      const core::SosEngine::Params params{
          .window_cap = static_cast<std::size_t>(inst.machines() - 1),
          .budget = inst.capacity(),
          .allow_extra_job = true,
      };
      if (scratch.sos) {
        scratch.sos->reset(inst, params);
      } else {
        scratch.sos.emplace(inst, params);
      }
      scratch.sos->run(scratch.schedule);
      return;
    }
    // Same fit precondition (and error text) as the facade: rigid
    // d-resource scheduling runs every job at full rate.
    for (std::size_t k = 0; k < inst.resource_count(); ++k) {
      const core::Res* reqs = inst.axis_requirements(k);
      for (std::size_t j = 0; j < inst.size(); ++j) {
        if (reqs[j] > inst.capacity(k)) {
          throw util::Error::invalid_instance(
              "job " + std::to_string(j) + ": requirement " +
              std::to_string(reqs[j]) + " for resource " + std::to_string(k) +
              " exceeds its capacity " + std::to_string(inst.capacity(k)) +
              " (rigid d-resource scheduling runs every job at full rate)");
        }
      }
    }
    const core::MultiResEngine::Params params{
        .machine_cap = static_cast<std::size_t>(inst.machines()),
    };
    if (scratch.multires) {
      scratch.multires->reset(inst, params);
    } else {
      scratch.multires.emplace(inst, params);
    }
    scratch.multires->run(scratch.schedule);
  } else if (algorithm == "gg") {
    scratch.schedule = baselines::schedule_garey_graham(inst);
  } else if (algorithm == "equalsplit") {
    scratch.schedule = baselines::schedule_equal_split(inst);
  } else {
    scratch.schedule = baselines::schedule_sequential(inst);
  }
}

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
  try {
    const core::Instance& inst = work.record.instance;
    bool served = false;
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
        served = true;
      }
      // else: the producer's solve failed and abandoned the entry. Fall
      // through to a local solve so this record fails (or succeeds) exactly
      // as it would in a cache-off run.
    }
    if (!served) {
      if (work.handle.hit()) {
        solve_record_fields(inst, options, work.record.deadline_steps,
                            scratch, rec);
      } else {
        // Producer: solve the canonical twin once, publish it, and report
        // through this record's own scaling. The canonical schedule is the
        // source schedule with every share divided by form.scale (exactly —
        // see tests/test_canonical.cpp), so makespan and block structure
        // carry over unchanged, and the text is written once with the shares
        // multiplied back.
        solve_record_fields(work.form.instance(), options,
                            work.record.deadline_steps, scratch, rec,
                            work.form.scale);
        cache::CacheValue value;
        value.makespan = rec.makespan;
        value.lower_bound = rec.lower_bound;
        value.blocks = rec.blocks;
        if (options.emit_schedules) value.schedule = scratch.schedule;
        work.handle.fill(std::move(value));
      }
    }
  } catch (const util::Error& e) {
    rec.ok = false;
    rec.error_code = util::to_string(e.code());
    rec.error_message = e.what();
    if (e.code() == util::ErrorCode::kDeadlineExceeded) {
      scratch.metrics.counter("batch.deadline_exceeded").inc();
    }
  } catch (const util::OverflowError& e) {
    rec.ok = false;
    rec.error_code = util::to_string(util::ErrorCode::kOverflow);
    rec.error_message = e.what();
  } catch (const std::invalid_argument& e) {
    rec.ok = false;
    rec.error_code = util::to_string(util::ErrorCode::kInvalidInstance);
    rec.error_message = e.what();
  }
  if (!rec.ok) {
    // No id salvage needed here: the front end parsed the line, so rec.id
    // already carries whatever label the record had.
    scratch.metrics.counter("batch.records_failed").inc();
  }
  return format_result_record(rec);
}

std::string process_record(const std::string& line, std::size_t index,
                           const WorkOptions& options,
                           WorkerScratch& scratch) {
  ResultRecord rec;
  rec.index = index;
  scratch.metrics.counter("batch.records").inc();
  try {
    const InstanceRecord input = parse_instance_record(line);
    rec.id = input.id;
    solve_record_fields(input.instance, options, input.deadline_steps,
                        scratch, rec);
  } catch (const util::Error& e) {
    rec.ok = false;
    rec.error_code = util::to_string(e.code());
    rec.error_message = e.what();
    if (e.code() == util::ErrorCode::kDeadlineExceeded) {
      scratch.metrics.counter("batch.deadline_exceeded").inc();
    }
  } catch (const util::OverflowError& e) {
    rec.ok = false;
    rec.error_code = util::to_string(util::ErrorCode::kOverflow);
    rec.error_message = e.what();
  } catch (const std::invalid_argument& e) {
    // Scheduler/generator preconditions violated by the record's content
    // (same classification as the CLI's input-error path).
    rec.ok = false;
    rec.error_code = util::to_string(util::ErrorCode::kInvalidInstance);
    rec.error_message = e.what();
  }
  if (!rec.ok) {
    scratch.metrics.counter("batch.records_failed").inc();
    if (rec.id.empty()) {
      // Salvage the caller's label for the error line when the JSON itself
      // is readable (e.g. the instance was semantically invalid).
      try {
        const util::Json doc = util::Json::parse(line);
        if (doc.is_object() && doc.contains("id") &&
            doc.at("id").is_string()) {
          rec.id = doc.at("id").as_string();
        }
      } catch (const util::Error&) {
        // Unparseable line: no id to recover.
      }
    }
  }
  return format_result_record(rec);
}

}  // namespace sharedres::batch
