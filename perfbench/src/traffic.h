// Closed-loop clients: each connection sends its next command only after
// the previous response arrived, for a fixed window. Optionally traced:
// every command's span is kept in memory, and a collector connection
// drains the server's TRACE ring while the window runs.

#ifndef PERFBENCH_TRAFFIC_H_
#define PERFBENCH_TRAFFIC_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "net/socket_client.h"
#include "server.h"
#include "workload.h"

namespace perfbench {

/// One command as the client saw it (traced windows only).
struct ClientSpan {
  OpKind kind = OpKind::kGet;
  int client = 0;
  uint64_t start_ns = 0;  ///< From the window start.
  uint64_t end_ns = 0;
  uint64_t dirty = 0;     ///< The response's dirty= field (edits).
  bool ok = true;
};

/// One TRACE span line from the server, in microseconds.
struct ServerSpan {
  uint64_t seq = 0;
  std::string op;
  std::string session;
  bool ok = true;
  uint64_t total_us = 0, lock_us = 0, find_us = 0, eval_us = 0,
           publish_us = 0, fsync_us = 0, respond_us = 0, dirty = 0,
           waves = 0;
};

/// Parses "span seq=..." lines of a TRACE response.
std::vector<ServerSpan> ParseTrace(const std::string& response);

/// One answered command: when it completed and how long it took.
struct Completion {
  double end_s = 0;  ///< From the window start.
  double ms = 0;
  bool write = false;
};

struct WindowResult {
  double seconds = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t completed = 0;
  uint64_t acked_edits = 0;  ///< Cell edits acknowledged (BATCH = 8).
  std::vector<Completion> completions;
  std::string first_error;
  // Traced windows only:
  std::vector<ClientSpan> spans;
  std::vector<Op> replay_ops;  ///< Leading commands, round-robin by client.
};

/// The clients of one run: connections plus each one's command stream
/// and log of acknowledged edits (kept across windows).
struct Clients {
  std::vector<taco::SocketClient> conns;
  std::vector<CommandStream> streams;
  std::vector<std::vector<CellEdit>> acked;
};

/// Runs every client for `seconds`. If a response is still missing a
/// minute after the window, `server` is killed so the run fails instead
/// of hanging.
WindowResult RunWindow(Clients& clients, uint16_t port, double seconds,
                       bool traced, ServerProcess* server);

/// The window's end-to-end figures. Each is the median of its value over
/// `slices` equal slices of the window, so a burst of outside load on the
/// host that hits one slice does not move it.
struct WindowFigures {
  double ops_per_s = 0;
  double write_p50_ms = 0, write_p99_ms = 0;
  double read_p50_ms = 0, read_p99_ms = 0;
  uint64_t writes = 0, reads = 0;
};
WindowFigures Summarize(const WindowResult& window, int slices);

/// Drains the server's TRACE ring from its own connection every 10 ms,
/// keeping each span once.
class TraceCollector {
 public:
  explicit TraceCollector(uint16_t port) : port_(port) {}
  ~TraceCollector() { Stop(); }
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Spans with seq <= `after_seq` are ignored.
  taco::Status Start(uint64_t after_seq);
  void Stop();
  const std::vector<ServerSpan>& spans() const { return spans_; }

 private:
  void Loop();

  const uint16_t port_;
  taco::SocketClient client_;
  std::atomic<bool> stop_{false};
  uint64_t last_seq_ = 0;
  std::vector<ServerSpan> spans_;  ///< Written by the thread until Stop.
  std::thread thread_;  ///< Declared last: uses the members above.
};

}  // namespace perfbench

#endif  // PERFBENCH_TRAFFIC_H_
