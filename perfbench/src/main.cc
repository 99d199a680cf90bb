// perfbench: the end-to-end serving benchmark.
//
//   perfbench --workload <recalc_edit|read_mostly|durable_edit> --seed N
//             --seconds S --trace 0|1 --serve <taco_serve binary>
//             --work-dir DIR [--commit SHA]
//
// Starts taco_serve as a child on loopback, LOADs the workload's corpus
// over 4 connections and commits one warm-up edit per workbook (timed as
// setup_s, at least three times in an untraced run), then drives 4
// closed-loop clients for S seconds. Afterwards it checks every formula region
// against the recursive-evaluator oracle and, on durable_edit, restarts
// the server on the same WAL directory and checks every acked edit.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same
// workload and seed as an untraced half window followed by a traced half
// window (client spans kept in memory, the server's TRACE ring drained),
// then replays the traced commands in-process against the modules'
// public functions, and prints the per-layer metrics. The last line of
// standard output is always the JSON result; the exit status is 0 only
// when every command succeeded and every check passed.

#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check.h"
#include "layers.h"
#include "server.h"
#include "stats.h"
#include "traffic.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// An untraced run sets up at least kMinSetups times, and keeps going
/// (up to kMaxSetups) while the set-ups so far took under
/// kSetupBudgetSeconds, so short set-ups still yield a steady median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 9;
constexpr double kSetupBudgetSeconds = 2.0;
/// Window figures are medians over this many equal slices of the window.
constexpr int kWindowSlices = 3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string serve;
  std::string work_dir;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') args->seconds = 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (flag == "--serve") {
      args->serve = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && have_seed &&
         have_trace && args->seconds > 0 && !args->serve.empty() &&
         !args->work_dir.empty();
}

std::string FsType(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x65735546: return "fuse";
    default: {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buffer;
    }
  }
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with("model name")) {
      return line.substr(line.find(':') + 2);
    }
  }
  return "unknown";
}

void PrintHostStamp(const Args& args, const std::string& wal_dir) {
  utsname uts{};
  ::uname(&uts);
  std::printf(
      "# host nproc=%ld cpu=%s kernel=%s wal_fs=%s build=%s seed=%llu "
      "commit=%s\n",
      ::sysconf(_SC_NPROCESSORS_ONLN), JsonQuote(CpuModel()).c_str(),
      uts.release, FsType(wal_dir).c_str(), PERFBENCH_BUILD_TYPE,
      static_cast<unsigned long long>(args.seed), args.commit.c_str());
}

std::vector<std::string> ServerFlags(const WorkloadSpec& spec,
                                     const std::string& wal_dir) {
  std::vector<std::string> flags;
  if (spec.recalc_threads > 0) {
    flags.insert(flags.end(),
                 {"--recalc-threads", std::to_string(spec.recalc_threads)});
  }
  if (spec.wal) {
    flags.insert(flags.end(), {"--wal-dir", wal_dir, "--group-commit"});
  }
  return flags;
}

void ResetDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

/// Connects one client per role and LOADs the workbooks plus one warm-up
/// edit each, spread over the connections. Returns the elapsed seconds
/// (from before the server start), or an error.
taco::Result<double> Setup(const Workload& workload,
                           const std::vector<std::string>& flags,
                           const Args& args, const std::string& log_path,
                           std::unique_ptr<ServerProcess>* server,
                           Clients* clients) {
  Clock::time_point start = Clock::now();
  *server = std::make_unique<ServerProcess>(args.serve, flags, log_path);
  TACO_RETURN_IF_ERROR((*server)->Start());
  const size_t n = workload.spec->roles.size();
  clients->conns.clear();
  clients->conns.resize(n);
  for (taco::SocketClient& conn : clients->conns) {
    TACO_RETURN_IF_ERROR(conn.Connect("127.0.0.1", (*server)->port()));
  }
  std::vector<std::string> errors(n);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      for (size_t b = t; b < workload.books.size(); b += n) {
        const Book& book = workload.books[b];
        auto loaded =
            clients->conns[t].Call("LOAD " + book.name + " " + book.path);
        auto warmed = clients->conns[t].Call(
            EditCommand(workload, WarmupEdit(workload, static_cast<int>(b))));
        if (!loaded.ok() || !loaded->starts_with("OK loaded") ||
            !warmed.ok() || !warmed->starts_with("OK set")) {
          errors[t] = "setup of " + book.name + " failed: " +
                      (loaded.ok() ? *loaded : loaded.status().ToString()) +
                      " / " +
                      (warmed.ok() ? *warmed : warmed.status().ToString());
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& error : errors) {
    if (!error.empty()) return taco::Status::Internal(error);
  }
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Metric Figure(std::string name, double value, std::string unit,
              uint64_t samples, std::string note = "") {
  return Metric{std::move(name), value, std::move(unit), samples,
                std::move(note)};
}

/// What the traced window and the post-run scrapes hand to the
/// per-layer report.
struct TracedRun {
  WindowResult untraced;
  WindowResult traced;
  std::vector<ServerSpan> setup_spans;
  std::vector<ServerSpan> spans;  ///< Server spans of the traced window.
  uint64_t spans_in_window = 0;   ///< Recorded by the server meanwhile.
};

std::vector<Metric> LayerMetrics(const Workload& workload,
                                 const TracedRun& run,
                                 const std::string& exposition,
                                 uint64_t total_acked_edits,
                                 const ModuleLayers& modules,
                                 const ServiceLayers& service) {
  const WorkloadSpec& spec = *workload.spec;
  const std::string no_wal = "no WAL on this workload";
  const std::string serial = "serial recalc (no --recalc-threads)";
  std::vector<Metric> m;

  std::vector<double> rtt_get_us, dirty;
  for (const ClientSpan& span : run.traced.spans) {
    if (!span.ok) continue;
    if (span.kind == OpKind::kGet) {
      rtt_get_us.push_back((span.end_ns - span.start_ns) / 1e3);
    }
    if (IsWrite(span.kind)) dirty.push_back(static_cast<double>(span.dirty));
  }
  std::vector<double> lock_us, publish_us, fsync_us;
  double total_us = 0, respond_us = 0;
  for (const ServerSpan& span : run.spans) {
    lock_us.push_back(static_cast<double>(span.lock_us));
    publish_us.push_back(static_cast<double>(span.publish_us));
    fsync_us.push_back(static_cast<double>(span.fsync_us));
    total_us += static_cast<double>(span.total_us);
    respond_us += static_cast<double>(span.respond_us);
  }
  std::vector<double> first_publish_ms;
  for (const ServerSpan& span : run.setup_spans) {
    if (span.op == "SET") first_publish_ms.push_back(span.publish_us / 1e3);
  }

  double exec_get_p50 = Percentile(service.execute_get_us, 0.5);
  m.push_back(Figure(
      "net.transport_us",
      rtt_get_us.empty() ? 0 : Percentile(rtt_get_us, 0.5) - exec_get_p50,
      "us", rtt_get_us.size(),
      rtt_get_us.empty() ? "no GET commands" : ""));
  m.push_back(Figure("service.execute_p50_us",
                     Percentile(service.execute_us, 0.5), "us",
                     service.execute_us.size()));
  m.push_back(Figure("service.execute_p99_us",
                     Percentile(service.execute_us, 0.99), "us",
                     service.execute_us.size()));
  m.push_back(Figure("service.lock_wait_p99_us", Percentile(lock_us, 0.99),
                     "us", lock_us.size()));
  m.push_back(Figure("service.unattributed_frac",
                     total_us > 0 ? respond_us / total_us : 0, "frac",
                     run.spans.size()));
  m.push_back(Figure("service.spans_collected",
                     static_cast<double>(run.spans.size()), "count", 0));
  m.push_back(Figure(
      "service.spans_lost",
      static_cast<double>(run.spans_in_window > run.spans.size()
                              ? run.spans_in_window - run.spans.size()
                              : 0),
      "count", 0));

  const char* no_formula = "no FORMULA commands on this workload";
  m.push_back(Figure("formula.parse_us", Percentile(modules.parse_us, 0.5),
                     "us", modules.parse_us.size(),
                     modules.parse_us.empty() ? no_formula : ""));
  m.push_back(Figure("graph.find_dependents_p50_us",
                     Percentile(modules.find_us, 0.5), "us",
                     modules.find_us.size()));
  m.push_back(Figure("graph.find_dependents_p99_us",
                     Percentile(modules.find_us, 0.99), "us",
                     modules.find_us.size()));
  m.push_back(Figure("graph.maintain_us",
                     Percentile(modules.maintain_us, 0.5), "us",
                     modules.maintain_us.size(),
                     modules.maintain_us.empty() ? no_formula : ""));
  m.push_back(Figure("graph.build_ms", modules.build_ms, "ms",
                     workload.books.size()));
  m.push_back(Figure("graph.edges", static_cast<double>(modules.edges),
                     "count", workload.books.size()));
  m.push_back(Figure("graph.dirty_cells", Mean(dirty), "count",
                     dirty.size()));
  m.push_back(Figure("sheet.load_ms", modules.load_ms, "ms",
                     workload.books.size()));

  m.push_back(Figure("eval.invalidate_us",
                     Percentile(modules.invalidate_us, 0.5), "us",
                     modules.invalidate_us.size()));
  m.push_back(Figure("eval.evaluate_us", Mean(service.eval_us), "us",
                     service.eval_us.size()));
  m.push_back(Figure("eval.cells_evaluated", Mean(service.cells_evaluated),
                     "count", service.cells_evaluated.size()));
  m.push_back(Figure("eval.publish_p50_us", Percentile(publish_us, 0.5),
                     "us", publish_us.size()));
  m.push_back(Figure("eval.publish_p99_us", Percentile(publish_us, 0.99),
                     "us", publish_us.size()));
  m.push_back(Figure("eval.first_publish_ms",
                     Percentile(first_publish_ms, 0.5), "ms",
                     first_publish_ms.size()));
  m.push_back(Figure("eval.read_us", Percentile(service.read_us, 0.5), "us",
                     service.read_us.size(),
                     service.read_us.empty() ? "no GET commands" : ""));
  m.push_back(Figure("eval.read_range_us",
                     Percentile(service.read_range_us, 0.5), "us",
                     service.read_range_us.size(),
                     service.read_range_us.empty()
                         ? "no GETRANGE commands on this workload"
                         : ""));
  m.push_back(Figure(
      "eval.version_chain_depth",
      ExpositionValue(exposition, "taco_session_version_chain_depth", true),
      "count", 0));

  bool parallel = spec.recalc_threads > 0;
  m.push_back(Figure("sched.waves", Mean(service.waves), "count",
                     service.waves.size(), parallel ? "" : serial));
  m.push_back(Figure("sched.barrier_wait_us", Mean(service.barrier_us), "us",
                     service.barrier_us.size(), parallel ? "" : serial));

  double appends =
      ExpositionValue(exposition, "taco_wal_group_appends_total");
  double flushes =
      ExpositionValue(exposition, "taco_wal_group_flushes_total");
  double wal_bytes =
      ExpositionValue(exposition, "taco_storage_wal_bytes_total");
  m.push_back(Figure("store.fsync_wait_p50_us",
                     spec.wal ? Percentile(fsync_us, 0.5) : 0, "us",
                     spec.wal ? fsync_us.size() : 0, spec.wal ? "" : no_wal));
  m.push_back(Figure("store.fsync_wait_p99_us",
                     spec.wal ? Percentile(fsync_us, 0.99) : 0, "us",
                     spec.wal ? fsync_us.size() : 0, spec.wal ? "" : no_wal));
  m.push_back(Figure("store.appends_per_flush",
                     flushes > 0 ? appends / flushes : 0, "count",
                     static_cast<uint64_t>(flushes), spec.wal ? "" : no_wal));
  m.push_back(Figure("store.wal_bytes_per_edit",
                     total_acked_edits > 0 ? wal_bytes / total_acked_edits
                                           : 0,
                     "bytes", total_acked_edits, spec.wal ? "" : no_wal));

  m.push_back(Figure("trace.ops_per_s",
                     run.traced.completed / run.traced.seconds, "1/s",
                     run.traced.completed));
  m.push_back(Figure("trace.untraced_ops_per_s",
                     run.untraced.completed / run.untraced.seconds, "1/s",
                     run.untraced.completed));
  return m;
}

void PrintAccounting(const std::vector<ServerSpan>& spans) {
  uint64_t total = 0, lock = 0, find = 0, eval = 0, publish = 0, fsync = 0,
           respond = 0;
  for (const ServerSpan& s : spans) {
    total += s.total_us;
    lock += s.lock_us;
    find += s.find_us;
    eval += s.eval_us;
    publish += s.publish_us;
    fsync += s.fsync_us;
    respond += s.respond_us;
  }
  auto share = [&](uint64_t part) {
    return total > 0 ? static_cast<double>(part) / total : 0.0;
  };
  std::printf(
      "# accounting spans=%zu total_us=%llu lock=%.3f find=%.3f eval=%.3f "
      "publish=%.3f fsync=%.3f respond(unattributed)=%.3f\n",
      spans.size(), static_cast<unsigned long long>(total), share(lock),
      share(find), share(eval), share(publish), share(fsync),
      share(respond));
}

void WriteSpans(const std::string& path, const TracedRun& run) {
  std::ofstream out(path);
  for (const ClientSpan& s : run.traced.spans) {
    out << "{\"src\": \"client\", \"client\": " << s.client
        << ", \"op\": " << JsonQuote(OpName(s.kind))
        << ", \"start_us\": " << s.start_ns / 1000
        << ", \"end_us\": " << s.end_ns / 1000 << ", \"dirty\": " << s.dirty
        << ", \"ok\": " << (s.ok ? "true" : "false") << "}\n";
  }
  for (const ServerSpan& s : run.spans) {
    out << "{\"src\": \"server\", \"seq\": " << s.seq
        << ", \"op\": " << JsonQuote(s.op)
        << ", \"session\": " << JsonQuote(s.session)
        << ", \"total_us\": " << s.total_us << ", \"lock_us\": " << s.lock_us
        << ", \"find_us\": " << s.find_us << ", \"eval_us\": " << s.eval_us
        << ", \"publish_us\": " << s.publish_us
        << ", \"fsync_us\": " << s.fsync_us
        << ", \"respond_us\": " << s.respond_us << ", \"dirty\": " << s.dirty
        << ", \"waves\": " << s.waves << "}\n";
  }
}

uint64_t NewestSeq(taco::SocketClient& conn) {
  auto response = conn.Call("TRACE 1");
  if (!response.ok()) return 0;
  std::vector<ServerSpan> spans = ParseTrace(*response);
  return spans.empty() ? 0 : spans.front().seq;
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string work = std::filesystem::absolute(args.work_dir).string();
  const std::string book_dir = work + "/books";
  const std::string wal_dir = work + "/wal";
  const std::string log_path = work + "/taco_serve.log";
  ResetDir(work);
  ResetDir(book_dir);
  ResetDir(wal_dir);
  PrintHostStamp(args, wal_dir);

  auto prepared = PrepareWorkload(*spec, args.seed, book_dir);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare: %s\n",
                 prepared.status().ToString().c_str());
    return 1;
  }
  Workload workload = std::move(*prepared);
  uint64_t formulas = 0;
  for (const Book& book : workload.books) {
    formulas += book.formula_cells.size();
  }
  const std::vector<std::string> flags = ServerFlags(*spec, wal_dir);
  std::string flag_text;
  for (const std::string& flag : flags) flag_text += " " + flag;
  std::printf("# workload %s books=%zu formulas=%llu clients=%zu "
              "server_flags=\"--listen <port>%s\"\n",
              spec->name.c_str(), workload.books.size(),
              static_cast<unsigned long long>(formulas), spec->roles.size(),
              flag_text.c_str());
  for (const Book& book : workload.books) {
    std::printf("# book %s formulas=%llu anchor=%s anchor_dirty=%llu\n",
                book.name.c_str(),
                static_cast<unsigned long long>(book.formula_cells.size()),
                book.corpus.max_dependents_cell.ToString().c_str(),
                static_cast<unsigned long long>(book.anchor_dirty));
  }
  if (spec->wal) {
    std::printf("# flush policy: group commit, natural batching "
                "(--group-commit-max-delay-us 0), fsync before every ack\n");
  }

  std::vector<CellEdit> warmups;
  for (int b = 0; b < static_cast<int>(workload.books.size()); ++b) {
    warmups.push_back(WarmupEdit(workload, b));
  }

  // Set-up, repeated in untraced runs so setup_s is a median.
  std::unique_ptr<ServerProcess> server;
  Clients clients;
  std::vector<double> setup_s;
  double setup_total = 0;
  for (int rep = 0; rep < (args.trace ? 1 : kMaxSetups); ++rep) {
    if (rep >= kMinSetups && setup_total >= kSetupBudgetSeconds) break;
    if (server != nullptr) {
      clients.conns.clear();
      (void)server->Stop();
      ResetDir(wal_dir);
    }
    auto elapsed = Setup(workload, flags, args, log_path, &server, &clients);
    if (!elapsed.ok()) {
      std::fprintf(stderr, "setup: %s\n",
                   elapsed.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(*elapsed);
    setup_total += *elapsed;
  }
  for (size_t i = 0; i < spec->roles.size(); ++i) {
    clients.streams.emplace_back(&workload, static_cast<int>(i));
  }
  clients.acked.resize(spec->roles.size());
  const uint16_t port = server->port();
  taco::SocketClient& admin = clients.conns[0];

  TracedRun traced_run;
  WindowResult window;
  if (!args.trace) {
    window = RunWindow(clients, port, args.seconds, false, server.get());
  } else {
    auto setup_trace = admin.Call("TRACE 0");
    if (setup_trace.ok()) traced_run.setup_spans = ParseTrace(*setup_trace);
    traced_run.untraced =
        RunWindow(clients, port, args.seconds / 2, false, server.get());
    uint64_t seq0 = NewestSeq(admin);
    TraceCollector collector(port);
    taco::Status started = collector.Start(seq0);
    if (!started.ok()) {
      std::fprintf(stderr, "trace collector: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    traced_run.traced =
        RunWindow(clients, port, args.seconds / 2, true, server.get());
    collector.Stop();
    traced_run.spans = collector.spans();
    traced_run.spans_in_window = NewestSeq(admin) - seq0;
    window = traced_run.untraced;
    window.attempted += traced_run.traced.attempted;
    window.failed += traced_run.traced.failed;
    window.completed += traced_run.traced.completed;
    window.acked_edits += traced_run.traced.acked_edits;
    if (window.first_error.empty()) {
      window.first_error = traced_run.traced.first_error;
    }
  }

  std::string exposition;
  if (auto metrics = admin.Call("METRICS"); metrics.ok()) {
    exposition = *metrics;
  }
  if (window.failed > 0) {
    std::printf("# first failure: %s\n", window.first_error.c_str());
  }

  CheckResult gate = RunGate(workload, warmups, clients.acked, clients.conns);
  std::printf("# gate regions=%llu cells=%llu mismatches=%llu%s%s\n",
              static_cast<unsigned long long>(gate.ranges),
              static_cast<unsigned long long>(gate.cells),
              static_cast<unsigned long long>(gate.mismatches),
              gate.mismatches ? " first: " : "", gate.first_mismatch.c_str());
  clients.conns.clear();
  (void)server->Stop();
  server.reset();

  CheckResult recovery;
  if (spec->wal) {
    ServerProcess fresh(args.serve, flags, log_path);
    taco::SocketClient conn;
    taco::Status status = fresh.Start();
    if (status.ok()) status = conn.Connect("127.0.0.1", fresh.port());
    if (!status.ok()) {
      std::fprintf(stderr, "recovery server: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    recovery = CheckRecovery(workload, warmups, clients.acked, conn);
    conn.Close();
    (void)fresh.Stop();
    std::printf(
        "# recovery workbooks=%llu recovered_records=%llu cells=%llu "
        "mismatches=%llu%s%s\n",
        static_cast<unsigned long long>(recovery.ranges),
        static_cast<unsigned long long>(recovery.recovered_records),
        static_cast<unsigned long long>(recovery.cells),
        static_cast<unsigned long long>(recovery.mismatches),
        recovery.mismatches ? " first: " : "",
        recovery.first_mismatch.c_str());
  }

  const bool correct =
      window.failed == 0 && gate.mismatches == 0 && recovery.mismatches == 0;
  std::vector<Metric> metrics;
  if (!args.trace) {
    double ok_frac =
        window.attempted > 0
            ? 1.0 - static_cast<double>(window.failed) / window.attempted
            : 0.0;
    metrics.push_back(Figure("setup_s", Percentile(setup_s, 0.5), "s",
                             setup_s.size()));
    WindowFigures f = Summarize(window, kWindowSlices);
    metrics.push_back(Figure("ops_per_s", f.ops_per_s, "1/s",
                             window.completed));
    metrics.push_back(Figure("write_p50_ms", f.write_p50_ms, "ms", f.writes));
    metrics.push_back(Figure("write_p99_ms", f.write_p99_ms, "ms", f.writes));
    metrics.push_back(Figure("read_p50_ms", f.read_p50_ms, "ms", f.reads));
    metrics.push_back(Figure("read_p99_ms", f.read_p99_ms, "ms", f.reads));
    metrics.push_back(Figure("ok_frac", ok_frac, "frac", window.attempted));
    metrics.push_back(Figure(
        "rss_mb",
        ExpositionValue(exposition, "taco_process_resident_memory_bytes") /
            (1024.0 * 1024.0),
        "MiB", 0));
  } else {
    PrintAccounting(traced_run.spans);
    std::string spans_path = work + "/spans.jsonl";
    WriteSpans(spans_path, traced_run);
    std::printf("# spans written to %s (%zu client, %zu server)\n",
                spans_path.c_str(), traced_run.traced.spans.size(),
                traced_run.spans.size());
    const std::vector<Op>& ops = traced_run.traced.replay_ops;
    auto modules = ReplayModules(workload, ops);
    std::string replay_wal = work + "/replay_wal";
    ResetDir(replay_wal);
    auto service = ReplayService(workload, ops, replay_wal);
    if (!modules.ok() || !service.ok()) {
      std::fprintf(stderr, "in-process replay: %s %s\n",
                   modules.status().ToString().c_str(),
                   service.status().ToString().c_str());
      return 1;
    }
    uint64_t total_acked = warmups.size() + window.acked_edits;
    metrics = LayerMetrics(workload, traced_run, exposition, total_acked,
                           *modules, *service);
  }
  PrintResult(correct, window.attempted, window.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --serve TACO_SERVE --work-dir DIR "
                 "[--commit SHA]\n");
    return 2;
  }
  return perfbench::Run(args);
}
