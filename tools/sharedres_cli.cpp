// sharedres_cli — command-line front end for the library.
//
//   sharedres_cli gen      --family=uniform --machines=8 --jobs=100
//                          [--capacity=1000000] [--max-size=4] [--seed=1]
//                          [--resources=d] [--count=N --format=ndjson]
//                          [--out=inst.txt]
//   sharedres_cli solve    --instance=inst.txt
//                          [--algorithm=<a batch::solvers() name>]
//                          [--out=sched.txt] [--gantt]
//   sharedres_cli validate --instance=inst.txt --schedule=sched.txt [--json]
//   sharedres_cli bounds   --instance=inst.txt
//   sharedres_cli batch    --in=stream.ndjson | --dir=instances/
//                          [--algorithm=...] [--threads=N] [--queue=N]
//                          [--emit-schedules] [--cache[=N]]
//                          [--out=results.ndjson]
//   sharedres_cli serve    [--socket=path] [--cache[=N]] [...]
//   sharedres_cli loadgen  --socket=path --requests=N --rate=R
//                          [--process=poisson|bursty|diurnal] [...]
//
// `gen` writes a reproducible instance (or, with --count=N --format=ndjson,
// a stream of N instances with seeds seed..seed+N-1, each identical to the
// corresponding single `gen --seed=<s>` run); `solve` schedules one
// instance, reports the makespan against the Eq. (1) lower bound and
// optionally dumps the schedule and an ASCII Gantt chart; `validate`
// re-checks a schedule file (with --json it prints every violation as a
// structured record); `batch` runs a whole NDJSON stream (or a directory of
// text instances) through the pipeline in src/batch — one result line per
// record in input order, then a summary line.
//
// Exit-code contract (stable; scripts and CI depend on it):
//   0  success / feasible schedule / batch with zero failed records
//   1  infeasible schedule, invalid packing, internal failure, or a batch
//      in which at least one record failed (the batch still ran to the end)
//   2  usage error (unknown command, bad flag value, missing required flag)
//   3  input error (unreadable file, parse error, semantically invalid
//      instance, arithmetic overflow caused by input magnitudes)
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sstream>

#include "batch/pipeline.hpp"
#include "batch/solver.hpp"
#include "batch/stream.hpp"
#include "binpack/packers.hpp"
#include "core/lower_bounds.hpp"
#include "obs/json_export.hpp"
#include "core/sos_scheduler.hpp"
#include "core/validator.hpp"
#include "io/text_io.hpp"
#include "online/arrivals.hpp"
#include "sas/sas_bounds.hpp"
#include "sas/sas_scheduler.hpp"
#include "sas/weighted.hpp"
#include "service/journal.hpp"
#include "service/service.hpp"
#include "service/socket_server.hpp"
#include "sim/analysis.hpp"
#include "sim/svg.hpp"
#include "sim/assignment.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/parallel.hpp"
#include "workloads/multires_generators.hpp"
#include "workloads/sos_generators.hpp"
#include "workloads/traffic.hpp"

namespace {

using namespace sharedres;

// The documented exit-code contract (see header comment and README).
constexpr int kExitOk = 0;
constexpr int kExitInfeasible = 1;
constexpr int kExitUsage = 2;
constexpr int kExitInput = 3;

int usage() {
  std::string algorithms;
  for (const batch::Solver& solver : batch::solvers()) {
    if (!algorithms.empty()) algorithms += '|';
    algorithms += solver.name;
  }
  std::cerr
      << "usage: sharedres_cli "
         "<gen|solve|validate|bounds|pack|sas|batch|serve|loadgen|failpoints> "
         "[--flags]\n"
         "  gen      --family=... --machines=M --jobs=N [--resources=d] "
         "[--count=K --format=ndjson] [--out=f]\n"
         "  solve    --instance=f [--algorithm="
      << algorithms
      << "] [--gantt] [--stats] [--svg=f.svg] [--out=f]\n"
         "  validate --instance=f --schedule=f [--json] [--max-violations=N]\n"
         "  bounds   --instance=f\n"
         "  pack     --instance=<packing file> [--algorithm=window|nextfit|"
         "nfd|ffd|pairing] [--out=f]\n"
         "  sas      --instance=<sas file> [--weights=w1,w2,...]\n"
         "  batch    --in=stream.ndjson|- | --dir=d [--algorithm=...] "
         "[--threads=N] [--queue=N] [--emit-schedules] [--cache[=N]] "
         "[--deadline-steps=N] [--deadline-ms=N] [--out=f]\n"
         "  serve    [--socket=path] [--algorithm=...] [--threads=N] "
         "[--queue=N] [--shed-high-water=N] [--deadline-steps=N] "
         "[--deadline-ms=N] [--journal=path [--journal-fsync] [--replay]] "
         "[--emit-schedules] [--max-connections=N] [--cache[=N]]\n"
         "  loadgen  --socket=path [--requests=N] [--rate=R] "
         "[--process=poisson|bursty|diurnal] [--family=...] [--jobs=N] "
         "[--machines=M] [--capacity=C] [--max-size=S] [--seed=S] "
         "[--per-step=L] [--deadline-steps=N] [--window=W] "
         "[--status-every=N] [--id-prefix=P] [--emit-stream=f] [--out=f]\n"
         "  failpoints --list\n"
         "global: --metrics-json=<file> dumps the observability registry\n"
         "        (src/obs) after any command, successful or not\n"
         "exit codes: 0 ok | 1 infeasible | 2 usage | 3 input error\n";
  return kExitUsage;
}

// An integer flag read into T. A value T cannot hold (a negative count, a
// machine count past INT_MAX) is a usage error naming the flag (exit 2),
// thrown before any work starts instead of wrapping in a cast.
template <class T>
T get_checked(const util::Cli& cli, const char* key, T fallback) {
  const std::int64_t value =
      cli.get_int(key, static_cast<std::int64_t>(fallback));
  if (!std::in_range<T>(value)) {
    throw util::Error::cli(
        key, std::to_string(value) + " is outside [" +
                 std::to_string(std::numeric_limits<T>::min()) + ", " +
                 std::to_string(std::numeric_limits<T>::max()) + "]");
  }
  return static_cast<T>(value);
}

// The solver row named by --algorithm, or nullptr for an unknown name: a
// usage error (exit 2), reported before any input or output file is touched
// (run_batch and the Service constructor would only reject it later).
const batch::Solver* lookup_algorithm(const char* command,
                                      const std::string& algorithm) {
  const batch::Solver* solver = batch::find_solver(algorithm);
  if (solver == nullptr) {
    std::cerr << command << ": unknown --algorithm=" << algorithm << "\n";
  }
  return solver;
}

int cmd_gen(const util::Cli& cli) {
  workloads::SosConfig cfg;
  cfg.machines = get_checked<int>(cli, "machines", 8);
  cfg.capacity = cli.get_int("capacity", 1'000'000);
  cfg.jobs = get_checked<std::size_t>(cli, "jobs", 100);
  cfg.max_size = cli.get_int("max-size", 4);
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string family = cli.get("family", "uniform");
  const std::string format = cli.get("format", "text");
  const std::int64_t count = cli.get_int("count", 1);
  const std::int64_t resources = cli.get_int("resources", 1);
  if (resources < 1 ||
      resources > static_cast<std::int64_t>(core::kMaxResources)) {
    std::cerr << "gen: --resources must be in [1, " << core::kMaxResources
              << "]\n";
    return kExitUsage;
  }
  // --resources=d (d > 1) switches to the d-resource families
  // (workloads/multires_generators.hpp): correlated, anticorrelated, vmpack.
  workloads::MultiResConfig mcfg;
  mcfg.machines = cfg.machines;
  mcfg.resources = static_cast<std::size_t>(resources);
  mcfg.capacity = cfg.capacity;
  mcfg.jobs = cfg.jobs;
  mcfg.max_size = cfg.max_size;
  const auto make = [&]() {
    mcfg.seed = cfg.seed;
    return resources > 1 ? workloads::make_multires_instance(family, mcfg)
                         : workloads::make_instance(family, cfg);
  };
  if (format != "text" && format != "ndjson") {
    std::cerr << "gen: unknown --format=" << format << "\n";
    return kExitUsage;
  }
  if (count < 1) {
    std::cerr << "gen: --count must be >= 1\n";
    return kExitUsage;
  }
  if (count > 1 && format != "ndjson") {
    std::cerr << "gen: --count=" << count << " requires --format=ndjson\n";
    return kExitUsage;
  }
  const std::string out = cli.get("out", "");

  if (format == "ndjson") {
    // One record per line, seeds seed..seed+count-1. Record k is identical
    // to the instance a single `gen --seed=<seed+k>` run would emit — the
    // correspondence the batch-determinism script relies on.
    std::ofstream file;
    if (!out.empty()) {
      file.open(out);
      if (!file) {
        std::cerr << "cannot open " << out << "\n";
        return kExitInput;
      }
    }
    std::ostream& os = out.empty() ? std::cout : file;
    for (std::int64_t k = 0; k < count; ++k) {
      const core::Instance inst = make();
      os << batch::format_instance_record(
                inst, family + "-s" + std::to_string(cfg.seed))
         << "\n";
      ++cfg.seed;
    }
    if (!out.empty()) {
      std::cout << "wrote " << count << " instances to " << out << "\n";
    }
    return kExitOk;
  }

  const core::Instance inst = make();
  if (out.empty()) {
    io::write_instance(std::cout, inst);
  } else {
    io::save_instance(out, inst);
    std::cout << "wrote " << inst.size() << " jobs to " << out << "\n";
  }
  return kExitOk;
}

/// Convert a directory of text instances (sorted by filename, so the record
/// order is reproducible) into an in-memory NDJSON stream. A file that does
/// not parse as an instance is forwarded as a single raw line: the pipeline
/// turns it into a typed per-record parse error without aborting the batch,
/// which is exactly the mid-stream-malformed contract of the NDJSON path.
std::string slurp_instance_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::string ndjson;
  for (const fs::path& path : files) {
    try {
      const core::Instance inst = io::load_instance(path.string());
      ndjson += batch::format_instance_record(inst, path.filename().string());
    } catch (const util::Error&) {
      std::ifstream in(path);
      std::string content((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
      std::replace(content.begin(), content.end(), '\n', ' ');
      ndjson += content;
    }
    ndjson += '\n';
  }
  return ndjson;
}

// The seven flags batch and serve share, read into the worker side's
// options: --algorithm, --threads, --queue, --emit-schedules,
// --deadline-steps, --deadline-ms and --cache[=N]. False after printing a
// usage error (exit 2), before any input or output file is touched.
bool read_work_flags(const char* command, const util::Cli& cli,
                     batch::BatchOptions& options) {
  options.algorithm = cli.get("algorithm", "window");
  if (!lookup_algorithm(command, options.algorithm)) return false;
  const std::int64_t threads = cli.get_int(
      "threads", static_cast<std::int64_t>(util::default_threads()));
  const std::int64_t queue = cli.get_int("queue", 64);
  if (threads < 1 || queue < 1) {
    std::cerr << command << ": --threads and --queue must be >= 1\n";
    return false;
  }
  options.threads = static_cast<std::size_t>(threads);
  options.queue_capacity = static_cast<std::size_t>(queue);
  options.emit_schedules = cli.has("emit-schedules");
  const std::int64_t deadline_steps = cli.get_int("deadline-steps", 0);
  const std::int64_t deadline_ms = cli.get_int("deadline-ms", 0);
  if (deadline_steps < 0 || deadline_ms < 0) {
    std::cerr << command
              << ": --deadline-steps and --deadline-ms must be >= 0\n";
    return false;
  }
  options.default_deadline_steps = static_cast<std::uint64_t>(deadline_steps);
  options.deadline_ms = static_cast<std::uint64_t>(deadline_ms);
  if (cli.has("cache")) {
    // Bare --cache (stored as "true") selects the default capacity;
    // --cache=N pins it. --cache=0 is explicit off.
    const std::int64_t capacity =
        cli.get("cache", "") == "true" ? 1024 : cli.get_int("cache", 0);
    if (capacity < 0) {
      std::cerr << command << ": --cache must be >= 0\n";
      return false;
    }
    options.cache_capacity = static_cast<std::size_t>(capacity);
  }
  return true;
}

int cmd_batch(const util::Cli& cli) {
  const std::string in_path = cli.get("in", "");
  const std::string dir = cli.get("dir", "");
  if (in_path.empty() == dir.empty()) {
    std::cerr << "batch: exactly one of --in=<file|-> or --dir=<dir> "
                 "required\n";
    return kExitUsage;
  }

  batch::BatchOptions options;
  if (!read_work_flags("batch", cli, options)) return kExitUsage;

  const std::string out_path = cli.get("out", "");
  std::ofstream out_file;
  if (!out_path.empty()) {
    out_file.open(out_path);
    if (!out_file) {
      std::cerr << "cannot open " << out_path << "\n";
      return kExitInput;
    }
  }
  std::ostream& out = out_path.empty() ? std::cout : out_file;

  batch::BatchSummary summary;
  if (!dir.empty()) {
    if (!std::filesystem::is_directory(dir)) {
      std::cerr << "cannot open directory " << dir << "\n";
      return kExitInput;
    }
    std::istringstream in(slurp_instance_dir(dir));
    summary = batch::run_batch(in, out, options);
  } else if (in_path == "-") {
    // Synchronized with C stdio, std::cin takes one character per call and
    // a piped stream cost several times a file stream; unsynchronized it
    // reads through its own buffer. Untied, because the reader thread must
    // not flush std::cout, which the emitter writes from the workers.
    std::ios::sync_with_stdio(false);
    std::cin.tie(nullptr);
    summary = batch::run_batch(std::cin, out, options);
  } else {
    std::ifstream in(in_path);
    if (!in) {
      std::cerr << "cannot open " << in_path << "\n";
      return kExitInput;
    }
    summary = batch::run_batch(in, out, options);
  }
  if (!out_path.empty()) {
    std::cerr << "batch: " << summary.records << " records, " << summary.ok
              << " ok, " << summary.failed << " failed\n";
  }
  return summary.failed == 0 ? kExitOk : kExitInfeasible;
}

// ---- serve ----------------------------------------------------------------
//
// The persistent scheduling service (src/service, DESIGN.md §13). Stdio mode
// reads request lines from stdin and answers on stdout; --socket=PATH serves
// a unix domain socket instead. SIGTERM/SIGINT trigger a graceful drain:
// stop accepting, finish every admitted request, write the summary line,
// exit 0.
//
// Signal handlers may only touch async-signal-safe state, so they write one
// byte into this self-pipe; the serve loops poll it alongside their input.
int g_signal_pipe[2] = {-1, -1};

extern "C" void serve_signal_handler(int) {
  const char byte = 0;
  (void)!write(g_signal_pipe[1], &byte, 1);
}

// True once a drain signal has arrived (consumes the pipe byte).
bool signal_seen() {
  pollfd p{g_signal_pipe[0], POLLIN, 0};
  if (::poll(&p, 1, 0) <= 0) return false;
  char byte;
  (void)!::read(g_signal_pipe[0], &byte, 1);
  return true;
}

int cmd_serve(const util::Cli& cli) {
  service::ServiceOptions options;
  if (!read_work_flags("serve", cli, options)) return kExitUsage;
  const std::int64_t shed = cli.get_int("shed-high-water", 0);
  const std::int64_t max_conns = cli.get_int("max-connections", 64);
  if (shed < 0 || max_conns < 1) {
    std::cerr << "serve: --shed-high-water must be >= 0, "
                 "--max-connections >= 1\n";
    return kExitUsage;
  }
  options.shed_high_water = static_cast<std::size_t>(shed);
  options.journal_path = cli.get("journal", "");
  options.journal_fsync = cli.has("journal-fsync");
  const bool replay = cli.has("replay");
  const std::string socket_path = cli.get("socket", "");
  if (replay && options.journal_path.empty()) {
    std::cerr << "serve: --replay requires --journal=<path>\n";
    return kExitUsage;
  }

  // A client that disappears must surface as a write error on its own
  // connection, never as process death.
  ::signal(SIGPIPE, SIG_IGN);
  if (::pipe(g_signal_pipe) != 0) {
    throw util::Error::io("serve: cannot create signal pipe");
  }
  struct sigaction sa{};
  sa.sa_handler = serve_signal_handler;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  // Read the journal BEFORE the service reopens it for appending: replayed
  // lines must not be re-journaled (Service::replay never appends, but the
  // admitted set has to be snapshotted from the previous life).
  service::Journal::Replay journaled;
  if (replay) {
    journaled = service::Journal::read_admitted(options.journal_path);
    if (journaled.torn_tail) {
      std::cerr << "serve: journal has a torn final line (crash artifact); "
                   "ignoring it\n";
    }
  }

  service::Service service(options);  // throws kIo -> exit 3 via main

  if (!socket_path.empty()) {
    service::SocketServer server(service, socket_path,
                                 static_cast<std::size_t>(max_conns));
    // Replay answers on stdout: the restarted daemon's operator sees the
    // reproduced prefix even though the original connections are gone.
    if (!journaled.lines.empty()) {
      auto replay_client = service.open_client([](const std::string& line) {
        std::cout << line << '\n';
        std::cout.flush();
        return static_cast<bool>(std::cout);
      });
      service.replay(replay_client, journaled.lines);
    }
    std::cerr << "serve: listening on " << socket_path << "\n";
    // Watcher: turn the (async-signal-safe) pipe byte into a drain. run()
    // returns only after stop(), so the watcher is also what ends serving.
    std::thread watcher([&] {
      pollfd p{g_signal_pipe[0], POLLIN, 0};
      while (::poll(&p, 1, -1) < 0 && errno == EINTR) {
      }
      service.begin_drain();
      server.stop();
    });
    server.run();
    server.stop();  // idempotent; covers a run() exit not caused by stop()
    serve_signal_handler(0);  // unblock the watcher if no signal ever came
    watcher.join();
    const service::ServiceSummary summary = service.finish();
    std::cout << service::Service::summary_line(summary) << "\n";
    return kExitOk;
  }

  // Stdio mode: one client, stdin lines in, stdout lines out. Reading goes
  // through poll + read(2) so a drain signal wakes the loop immediately
  // instead of racing C++ stream internals.
  auto client = service.open_client([](const std::string& line) {
    std::cout << line << '\n';
    std::cout.flush();  // kill-mid-stream must leave a valid prefix
    return static_cast<bool>(std::cout);
  });
  if (!journaled.lines.empty()) service.replay(client, journaled.lines);

  std::string buf;
  char chunk[4096];
  bool eof = false;
  while (!eof && !service.draining()) {
    pollfd fds[2] = {{STDIN_FILENO, POLLIN, 0}, {g_signal_pipe[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) {
      service.begin_drain();  // stop accepting; unread stdin is abandoned
      break;
    }
    if (fds[0].revents == 0) continue;
    const ssize_t n = ::read(STDIN_FILENO, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      eof = true;
      break;
    }
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buf.find('\n', start); nl != std::string::npos;
         nl = buf.find('\n', start)) {
      service.submit(client, buf.substr(start, nl - start));
      start = nl + 1;
      if (signal_seen()) {
        service.begin_drain();
        break;
      }
    }
    buf.erase(0, start);
  }
  if (eof && !buf.empty()) service.submit(client, buf);

  const service::ServiceSummary summary = service.finish();
  std::cout << service::Service::summary_line(summary) << "\n";
  std::cout.flush();
  return kExitOk;
}

// ---- loadgen --------------------------------------------------------------
//
// Closed-loop load generator for the daemon (DESIGN.md §14): generates a
// seed-deterministic traffic stream (workloads/traffic.hpp), paces it onto
// the service's unix socket at a target request rate, and measures what the
// service actually delivered — one typed response per request, classified
// (ok / shed / deadline_exceeded / other error / status probe), with
// p50/p95/p99 response latency over the data requests.
//
// Closed loop: at most --window requests are in flight at once; the writer
// blocks until the reader frees a slot. That models clients that wait for
// answers, keeps an overloaded daemon from absorbing an unbounded backlog
// through socket buffers, and makes the measured latency a response time
// (send → matching response) rather than a queue-drain artifact. The
// per-connection ordering guarantee of the service makes response matching
// positional: the i-th response line answers the i-th line sent.

struct LoadgenOutcomes {
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline = 0;
  std::uint64_t errors = 0;  ///< other typed error lines
  std::uint64_t status = 0;  ///< status-probe responses
};

/// Nearest-rank percentile over ascending `sorted`: the smallest value with
/// at least q·n observations at or below it (EXPERIMENTS.md E16).
double percentile_ms(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const auto idx = static_cast<std::size_t>(
      std::max(1.0, std::min(rank, static_cast<double>(sorted.size()))));
  return sorted[idx - 1];
}

int cmd_loadgen(const util::Cli& cli) {
  const std::string socket_path = cli.get("socket", "");
  if (socket_path.empty()) {
    std::cerr << "loadgen: --socket=<path> required\n";
    return kExitUsage;
  }
  workloads::TrafficStreamConfig stream_cfg;
  stream_cfg.family = cli.get("family", "uniform");
  stream_cfg.sos.machines = get_checked<int>(cli, "machines", 8);
  stream_cfg.sos.capacity = cli.get_int("capacity", 1'000'000);
  stream_cfg.sos.jobs = get_checked<std::size_t>(cli, "jobs", 24);
  stream_cfg.sos.max_size = cli.get_int("max-size", 4);
  stream_cfg.sos.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  stream_cfg.requests = get_checked<std::size_t>(cli, "requests", 64);
  stream_cfg.id_prefix = cli.get("id-prefix", "req");
  const std::int64_t deadline_steps = cli.get_int("deadline-steps", 0);
  // Arrival process shape. arrivals.rate is the mean per STEP (shape knob);
  // --rate=R maps steps onto wall time so the long-run send rate is R
  // requests/second. --rate=0 sends as fast as the window allows.
  stream_cfg.arrivals.rate = cli.get_double("per-step", 1.0);
  stream_cfg.arrivals.seed = stream_cfg.sos.seed ^ 0xa5a5a5a5a5a5a5a5ULL;
  const double rate = cli.get_double("rate", 0.0);
  const std::int64_t window = cli.get_int("window", 64);
  const std::int64_t status_every = cli.get_int("status-every", 0);
  if (stream_cfg.requests < 1 || window < 1 || deadline_steps < 0 ||
      rate < 0.0 || status_every < 0) {
    std::cerr << "loadgen: --requests/--window must be >= 1, "
                 "--rate/--deadline-steps/--status-every >= 0\n";
    return kExitUsage;
  }
  stream_cfg.deadline_steps = static_cast<std::uint64_t>(deadline_steps);
  try {
    stream_cfg.arrivals.kind =
        online::parse_arrival_kind(cli.get("process", "poisson"));
  } catch (const std::invalid_argument& e) {
    std::cerr << "loadgen: " << e.what() << "\n";
    return kExitUsage;
  }

  const std::vector<std::string> lines =
      workloads::traffic_stream(stream_cfg);  // invalid_argument -> exit 3
  const std::string emit_stream = cli.get("emit-stream", "");
  if (!emit_stream.empty()) {
    std::ofstream f(emit_stream);
    if (!f) {
      std::cerr << "cannot open " << emit_stream << "\n";
      return kExitInput;
    }
    for (const std::string& line : lines) f << line << "\n";
  }

  // Arrival step of each request (re-derived: the stream embeds it, but the
  // config is authoritative and cheaper than re-parsing).
  const std::vector<core::Time> steps =
      online::arrival_times(stream_cfg.arrivals, stream_cfg.requests);
  // step → wall seconds: mean per-step arrivals / target rate.
  const double step_seconds =
      rate > 0.0 ? stream_cfg.arrivals.rate / rate : 0.0;

  ::signal(SIGPIPE, SIG_IGN);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw util::Error::io("loadgen: cannot create socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    std::cerr << "loadgen: socket path too long\n";
    return kExitUsage;
  }
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                socket_path.c_str());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw util::Error::io("loadgen: cannot connect to " + socket_path);
  }

  using Clock = std::chrono::steady_clock;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Clock::time_point> sent_at;  // guarded by mu
  std::vector<double> data_latency_ms;     // reader-only until join
  LoadgenOutcomes outcomes;                // reader-only until join
  std::size_t received = 0;                // guarded by mu
  bool peer_closed = false;                // guarded by mu

  std::thread reader([&] {
    std::string buf;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl = buf.find('\n', start); nl != std::string::npos;
           nl = buf.find('\n', start)) {
        const std::string line = buf.substr(start, nl - start);
        start = nl + 1;
        const Clock::time_point now = Clock::now();
        Clock::time_point sent;
        {
          const std::lock_guard<std::mutex> lock(mu);
          if (received >= sent_at.size()) {
            // More responses than requests: the one-response-per-request
            // contract is broken. Count it and let the caller's totals
            // expose the mismatch.
            ++received;
            cv.notify_all();
            ++outcomes.errors;
            continue;
          }
          sent = sent_at[received];
          ++received;
        }
        cv.notify_all();
        const double ms =
            std::chrono::duration<double, std::milli>(now - sent).count();
        bool is_status = false, is_ok = false;
        std::string code;
        try {
          const util::Json doc = util::Json::parse(line);
          is_status = doc.is_object() && doc.contains("status");
          is_ok = doc.is_object() && doc.contains("ok") &&
                  doc.at("ok").is_bool() && doc.at("ok").as_bool();
          if (doc.is_object() && doc.contains("error") &&
              doc.at("error").is_object() &&
              doc.at("error").contains("code")) {
            code = doc.at("error").at("code").as_string();
          }
        } catch (const util::Error&) {
          // Unparseable response line: counted as an error below.
        }
        if (is_status) {
          ++outcomes.status;
        } else if (is_ok) {
          ++outcomes.ok;
          data_latency_ms.push_back(ms);
        } else if (code == "shed") {
          ++outcomes.shed;
          data_latency_ms.push_back(ms);
        } else if (code == "deadline_exceeded") {
          ++outcomes.deadline;
          data_latency_ms.push_back(ms);
        } else {
          ++outcomes.errors;
          data_latency_ms.push_back(ms);
        }
      }
      buf.erase(0, start);
    }
    const std::lock_guard<std::mutex> lock(mu);
    peer_closed = true;
    cv.notify_all();
  });

  const auto send_line = [&](const std::string& line) -> bool {
    // Closed loop: wait for a window slot (or the peer dying).
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] {
      return peer_closed ||
             sent_at.size() - received < static_cast<std::size_t>(window);
    });
    if (peer_closed) return false;
    sent_at.push_back(Clock::now());
    lock.unlock();
    std::string framed = line;
    framed += '\n';
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n =
          ::write(fd, framed.data() + off, framed.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  };

  const Clock::time_point t0 = Clock::now();
  std::size_t sent_data = 0;
  std::size_t sent_probes = 0;
  bool send_failed = false;
  for (std::size_t k = 0; k < lines.size(); ++k) {
    if (step_seconds > 0.0) {
      const auto due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(
                       static_cast<double>(steps[k] - 1) * step_seconds));
      std::this_thread::sleep_until(due);
    }
    if (!send_line(lines[k])) {
      send_failed = true;
      break;
    }
    ++sent_data;
    if (status_every > 0 &&
        sent_data % static_cast<std::size_t>(status_every) == 0) {
      if (!send_line("{\"status\":true}")) {
        send_failed = true;
        break;
      }
      ++sent_probes;
    }
  }
  // No more requests: close the write side so the daemon sees EOF on this
  // connection once the in-flight tail drains.
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return peer_closed || received >= sent_at.size(); });
  }
  ::shutdown(fd, SHUT_RDWR);
  reader.join();
  ::close(fd);
  const double duration_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  std::sort(data_latency_ms.begin(), data_latency_ms.end());
  const std::size_t sent_total = sent_data + sent_probes;
  const std::uint64_t responses = outcomes.ok + outcomes.shed +
                                  outcomes.deadline + outcomes.errors +
                                  outcomes.status;
  double sum = 0.0;
  for (const double ms : data_latency_ms) sum += ms;

  util::Json doc{util::Json::Object{}};
  doc.emplace("loadgen", true);
  doc.emplace("process", online::to_string(stream_cfg.arrivals.kind));
  doc.emplace("family", stream_cfg.family);
  doc.emplace("requests", static_cast<std::uint64_t>(sent_data));
  doc.emplace("status_probes", static_cast<std::uint64_t>(sent_probes));
  doc.emplace("responses", responses);
  doc.emplace("ok", outcomes.ok);
  doc.emplace("shed", outcomes.shed);
  doc.emplace("deadline_exceeded", outcomes.deadline);
  doc.emplace("errors", outcomes.errors);
  doc.emplace("status_responses", outcomes.status);
  doc.emplace("p50_ms", percentile_ms(data_latency_ms, 0.50));
  doc.emplace("p95_ms", percentile_ms(data_latency_ms, 0.95));
  doc.emplace("p99_ms", percentile_ms(data_latency_ms, 0.99));
  doc.emplace("max_ms", data_latency_ms.empty() ? 0.0
                                                : data_latency_ms.back());
  doc.emplace("mean_ms", data_latency_ms.empty()
                             ? 0.0
                             : sum / static_cast<double>(
                                         data_latency_ms.size()));
  doc.emplace("duration_s", duration_s);
  doc.emplace("achieved_rps",
              duration_s > 0.0
                  ? static_cast<double>(sent_data) / duration_s
                  : 0.0);
  doc.emplace("send_failed", send_failed);
  // The acceptance criterion: every request got exactly one response.
  const bool complete = !send_failed && responses == sent_total;
  doc.emplace("complete", complete);

  const std::string out_path = cli.get("out", "");
  if (!out_path.empty()) {
    std::ofstream f(out_path);
    if (!f) {
      std::cerr << "cannot open " << out_path << "\n";
      return kExitInput;
    }
    f << doc.dump(2) << "\n";
  }
  std::cout << doc.dump() << "\n";
  return complete ? kExitOk : kExitInfeasible;
}

// ---- failpoints -----------------------------------------------------------

int cmd_failpoints(const util::Cli& cli) {
  (void)cli;  // --list is the only (default) action
  if (!util::failpoint::compiled_in()) {
    std::cout << "failpoints: compiled out "
                 "(configure with -DSHAREDRES_FAILPOINTS=ON)\n";
    return kExitOk;
  }
  std::cout << "# site mode hits fires  (armed via SHAREDRES_FAILPOINTS="
               "site=throw[@k|@every:N|@prob:P[,seed:S]];...)\n";
  for (const util::failpoint::SiteInfo& info : util::failpoint::catalog()) {
    std::cout << info.site << ' ' << (info.armed ? info.mode : "unarmed")
              << ' ' << info.hits << ' ' << info.fires << '\n';
  }
  return kExitOk;
}

int cmd_solve(const util::Cli& cli) {
  const std::string path = cli.get("instance", "");
  if (path.empty()) {
    std::cerr << "solve: --instance=<file> required\n";
    return kExitUsage;
  }
  // Validate flags before touching the filesystem: a typo in --algorithm is
  // a usage error (exit 2) even when the instance file is also bad.
  const std::string algorithm = cli.get("algorithm", "window");
  const batch::Solver* solver = lookup_algorithm("solve", algorithm);
  if (!solver) return kExitUsage;
  const core::Instance inst = io::load_instance(path);
  solver->check(inst);

  core::Schedule schedule;
  core::EngineScratch engines;
  solver->solve(inst, schedule, engines);

  const auto check = core::validate(inst, schedule);
  if (!check.ok) {
    std::cerr << "internal error: produced invalid schedule: " << check.error
              << "\n";
    return kExitInfeasible;
  }
  const core::LowerBounds lb = core::lower_bounds(inst);
  std::cout << "algorithm:    " << algorithm << "\n"
            << "jobs:         " << inst.size() << "\n"
            << "machines:     " << inst.machines() << "\n"
            << "makespan:     " << schedule.makespan() << "\n"
            << "lower bound:  " << lb.combined() << "\n"
            << "ratio vs LB:  "
            << static_cast<double>(schedule.makespan()) /
                   static_cast<double>(std::max<core::Time>(1, lb.combined()))
            << "\n";

  if (cli.has("gantt")) {
    std::cout << "\n" << sim::render_gantt(inst.size(), schedule);
    std::cout << "util "
              << sim::render_utilization(schedule, inst.capacity()) << "\n";
  }
  if (cli.has("stats")) {
    std::cout << "\n" << sim::to_string(sim::analyze(inst, schedule));
  }
  const std::string svg = cli.get("svg", "");
  if (!svg.empty()) {
    sim::save_svg(svg, inst, schedule);
    std::cout << "SVG written to " << svg << "\n";
  }
  const std::string out = cli.get("out", "");
  if (!out.empty()) {
    io::save_schedule(out, schedule);
    std::cout << "schedule written to " << out << "\n";
  }
  return kExitOk;
}

int cmd_validate(const util::Cli& cli) {
  const std::string inst_path = cli.get("instance", "");
  const std::string sched_path = cli.get("schedule", "");
  if (inst_path.empty() || sched_path.empty()) {
    std::cerr << "validate: --instance=<file> --schedule=<file> required\n";
    return kExitUsage;
  }
  const bool json = cli.has("json");
  const auto max_violations =
      get_checked<std::size_t>(cli, "max-violations", 1024);
  const core::Instance inst = io::load_instance(inst_path);
  const core::Schedule schedule = io::load_schedule(sched_path);
  if (json) {
    core::ValidationReport report =
        core::validate_all(inst, schedule, max_violations);
    util::Json doc = core::to_json(report);
    doc.emplace("makespan", schedule.makespan());
    std::cout << doc.dump(2) << "\n";
    return report.ok() ? kExitOk : kExitInfeasible;
  }
  const auto check = core::validate(inst, schedule);
  if (check.ok) {
    std::cout << "OK: feasible schedule, makespan " << schedule.makespan()
              << "\n";
    return kExitOk;
  }
  std::cout << "INVALID: " << check.error << "\n";
  return kExitInfeasible;
}

int cmd_bounds(const util::Cli& cli) {
  const std::string path = cli.get("instance", "");
  if (path.empty()) {
    std::cerr << "bounds: --instance=<file> required\n";
    return kExitUsage;
  }
  const core::Instance inst = io::load_instance(path);
  const core::LowerBounds lb = core::lower_bounds(inst);
  std::cout << "resource (⌈Σs/C⌉):      " << lb.resource << "\n"
            << "volume (⌈Σp/m⌉):        " << lb.volume << "\n"
            << "longest job:            " << lb.longest_job << "\n"
            << "combined lower bound:   " << lb.combined() << "\n";
  if (inst.machines() >= 3) {
    std::cout << "Theorem 3.3 ratio:      "
              << core::sos_ratio_bound(inst.machines()).to_double() << "\n";
  }
  return kExitOk;
}

int cmd_pack(const util::Cli& cli) {
  const std::string path = cli.get("instance", "");
  if (path.empty()) {
    std::cerr << "pack: --instance=<packing file> required\n";
    return kExitUsage;
  }
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return kExitInput;
  }
  const binpack::PackingInstance inst = io::read_packing_instance(in);
  const std::string algorithm = cli.get("algorithm", "window");

  binpack::Packing packing;
  if (algorithm == "window") {
    packing = binpack::sliding_window_packing(inst);
  } else if (algorithm == "nextfit") {
    packing = binpack::next_fit_packing(inst);
  } else if (algorithm == "nfd") {
    packing = binpack::next_fit_packing(inst, true);
  } else if (algorithm == "ffd") {
    packing = binpack::first_fit_decreasing_packing(inst);
  } else if (algorithm == "pairing") {
    packing = binpack::pairing_packing(inst);
  } else {
    std::cerr << "pack: unknown --algorithm=" << algorithm << "\n";
    return kExitUsage;
  }
  const auto check = binpack::validate(inst, packing);
  if (!check.ok) {
    std::cerr << "internal error: invalid packing: " << check.error << "\n";
    return kExitInfeasible;
  }
  const auto lb = binpack::packing_lower_bounds(inst);
  std::cout << "algorithm:    " << algorithm << "\n"
            << "items:        " << inst.items.size() << "\n"
            << "cardinality:  " << inst.cardinality << "\n"
            << "bins:         " << packing.bin_count() << "\n"
            << "lower bound:  " << lb.combined() << "\n"
            << "ratio vs LB:  "
            << static_cast<double>(packing.bin_count()) /
                   static_cast<double>(std::max<std::size_t>(1, lb.combined()))
            << "\n";
  const std::string out = cli.get("out", "");
  if (!out.empty()) {
    std::ofstream os(out);
    if (!os) {
      std::cerr << "cannot open " << out << "\n";
      return kExitInput;
    }
    io::write_packing(os, packing);
    std::cout << "packing written to " << out << "\n";
  }
  return kExitOk;
}

std::vector<core::Res> parse_weights(const std::string& spec) {
  std::vector<core::Res> weights;
  std::stringstream ss(spec);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (tok.empty()) continue;
    try {
      std::size_t pos = 0;
      const core::Res w = std::stoll(tok, &pos);
      if (pos != tok.size()) {
        throw util::Error::cli("weights", "bad weight '" + tok + "'");
      }
      weights.push_back(w);
    } catch (const std::logic_error&) {
      throw util::Error::cli("weights", "bad weight '" + tok + "'");
    }
  }
  return weights;
}

int cmd_sas(const util::Cli& cli) {
  const std::string path = cli.get("instance", "");
  if (path.empty()) {
    std::cerr << "sas: --instance=<sas file> required\n";
    return kExitUsage;
  }
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return kExitInput;
  }
  const sas::SasInstance inst = io::read_sas(in);
  const std::string weight_spec = cli.get("weights", "");

  sas::SasResult result;
  if (weight_spec.empty()) {
    result = sas::schedule_sas(inst);
  } else {
    result = sas::schedule_sas_weighted(inst, parse_weights(weight_spec));
  }
  const auto check = sas::validate(inst, result);
  if (!check.ok) {
    std::cerr << "internal error: invalid SAS schedule: " << check.error
              << "\n";
    return kExitInfeasible;
  }
  std::cout << "tasks:               " << inst.tasks.size() << "\n"
            << "machines:            " << inst.machines << "\n"
            << "sum of completions:  " << result.sum_completion << "\n"
            << "lower bound:         " << sas::sas_lower_bound(inst) << "\n";
  if (!weight_spec.empty()) {
    const auto weights = parse_weights(weight_spec);
    std::cout << "weighted objective:  "
              << sas::weighted_objective(result, weights) << "\n"
              << "weighted LB:         "
              << sas::weighted_lower_bound(inst, weights) << "\n";
  }
  for (std::size_t i = 0; i < inst.tasks.size(); ++i) {
    std::cout << "  task " << i << " (T" << result.task_class[i]
              << ", " << inst.tasks[i].size() << " jobs): finishes at "
              << result.completion[i] << "\n";
  }
  return kExitOk;
}

}  // namespace

/// --metrics-json is honored on every exit path (including errors, so a
/// failed run still leaves its counters behind for diagnosis); a metrics
/// write failure must not mask the command's own exit code.
void maybe_save_metrics(const util::Cli& cli) {
  const std::string path = cli.get("metrics-json", "");
  if (path.empty()) return;
  try {
    obs::save_metrics(path);
  } catch (const std::exception& e) {
    std::cerr << "warning: cannot write metrics: " << e.what() << "\n";
  }
}

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const util::Cli cli(argc - 1, argv + 1);
  try {
    int rc = -1;
    if (command == "gen") rc = cmd_gen(cli);
    if (command == "solve") rc = cmd_solve(cli);
    if (command == "validate") rc = cmd_validate(cli);
    if (command == "bounds") rc = cmd_bounds(cli);
    if (command == "pack") rc = cmd_pack(cli);
    if (command == "sas") rc = cmd_sas(cli);
    if (command == "batch") rc = cmd_batch(cli);
    if (command == "serve") rc = cmd_serve(cli);
    if (command == "loadgen") rc = cmd_loadgen(cli);
    if (command == "failpoints") rc = cmd_failpoints(cli);
    if (rc >= 0) {
      maybe_save_metrics(cli);
      return rc;
    }
  } catch (const util::Error& e) {
    // The typed code picks the exit bucket: bad flags are usage errors,
    // everything else a typed throw can signal here came from the input.
    std::cerr << "error: " << e.what() << "\n";
    maybe_save_metrics(cli);
    return e.code() == util::ErrorCode::kCliUsage ? kExitUsage : kExitInput;
  } catch (const util::OverflowError& e) {
    std::cerr << "error: " << e.what() << "\n";
    maybe_save_metrics(cli);
    return kExitInput;
  } catch (const std::invalid_argument& e) {
    // Scheduler/generator preconditions (m >= 2, unknown family, ...) are
    // violated by what the user fed in, not by library bugs.
    std::cerr << "error: " << e.what() << "\n";
    maybe_save_metrics(cli);
    return kExitInput;
  } catch (const std::exception& e) {
    std::cerr << "internal error: " << e.what() << "\n";
    maybe_save_metrics(cli);
    return kExitInfeasible;
  }
  return usage();
}
