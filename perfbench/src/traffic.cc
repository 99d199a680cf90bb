#include "traffic.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>

#include "stats.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Leading commands per client kept for the in-process replays.
constexpr size_t kReplayOpsPerClient = 1500;

uint64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

bool ResponseOk(OpKind kind, const std::string& response) {
  switch (kind) {
    case OpKind::kSet:
    case OpKind::kFormula: return response.starts_with("OK set");
    case OpKind::kBatch: return response.starts_with("OK batch");
    case OpKind::kGet: return response.starts_with("VALUE ");
    case OpKind::kGetRange: return response.starts_with("OK range");
  }
  return false;
}

struct ClientResult {
  uint64_t attempted = 0, failed = 0, completed = 0, acked_edits = 0;
  std::vector<Completion> completions;
  std::vector<ClientSpan> spans;
  std::vector<Op> replay_ops;
  std::string first_error;
  Clock::time_point finished;
};

void DriveClient(int index, Clients& clients, uint16_t port,
                 Clock::time_point start, Clock::time_point deadline,
                 bool traced, ClientResult* out) {
  taco::SocketClient& conn = clients.conns[index];
  CommandStream& stream = clients.streams[index];
  std::vector<CellEdit>& acked = clients.acked[index];
  while (Clock::now() < deadline) {
    Op op = stream.Next();
    ++out->attempted;
    Clock::time_point sent = Clock::now();
    taco::Result<std::string> response = conn.Call(op.text);
    Clock::time_point received = Clock::now();
    bool ok = response.ok() && ResponseOk(op.kind, *response);
    if (!ok) {
      ++out->failed;
      if (out->first_error.empty()) {
        out->first_error = op.text.substr(0, op.text.find('\n')) + " -> " +
                           (response.ok() ? response->substr(0, 200)
                                          : response.status().ToString());
      }
      if (!response.ok()) {
        // Transport failure: the connection's framing is unknown, so
        // start a fresh one (or stop if the server is gone).
        conn.Close();
        if (!conn.Connect("127.0.0.1", port).ok()) break;
      }
    } else {
      ++out->completed;
      out->completions.push_back(
          Completion{NsBetween(start, received) / 1e9,
                     NsBetween(sent, received) / 1e6, IsWrite(op.kind)});
      if (IsWrite(op.kind)) {
        out->acked_edits += op.edits.size();
        acked.insert(acked.end(), op.edits.begin(), op.edits.end());
      }
    }
    if (traced) {
      ClientSpan span;
      span.kind = op.kind;
      span.client = index;
      span.start_ns = NsBetween(start, sent);
      span.end_ns = NsBetween(start, received);
      span.ok = ok;
      if (ok && IsWrite(op.kind)) {
        span.dirty = static_cast<uint64_t>(
            FieldValue(*response, "dirty").value_or(0));
      }
      out->spans.push_back(span);
      if (out->replay_ops.size() < kReplayOpsPerClient) {
        out->replay_ops.push_back(std::move(op));
      }
    }
  }
  out->finished = Clock::now();
}

uint64_t SpanField(std::string_view line, std::string_view key) {
  return static_cast<uint64_t>(FieldValue(line, key).value_or(0));
}

}  // namespace

std::vector<ServerSpan> ParseTrace(const std::string& response) {
  std::vector<ServerSpan> spans;
  size_t begin = 0;
  while (begin < response.size()) {
    size_t end = response.find('\n', begin);
    if (end == std::string::npos) end = response.size();
    std::string_view line(response.data() + begin, end - begin);
    begin = end + 1;
    if (!line.starts_with("span ")) continue;
    ServerSpan span;
    span.seq = SpanField(line, "seq");
    span.op = std::string(FieldText(line, "op"));
    span.session = std::string(FieldText(line, "session"));
    span.ok = FieldText(line, "ok") == "1";
    span.total_us = SpanField(line, "total_us");
    span.lock_us = SpanField(line, "lock_us");
    span.find_us = SpanField(line, "find_us");
    span.eval_us = SpanField(line, "eval_us");
    span.publish_us = SpanField(line, "publish_us");
    span.fsync_us = SpanField(line, "fsync_us");
    span.respond_us = SpanField(line, "respond_us");
    span.dirty = SpanField(line, "dirty");
    span.waves = SpanField(line, "waves");
    spans.push_back(std::move(span));
  }
  return spans;
}

WindowResult RunWindow(Clients& clients, uint16_t port, double seconds,
                       bool traced, ServerProcess* server) {
  const size_t n = clients.conns.size();
  std::vector<ClientResult> results(n);
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_until(lock, deadline + std::chrono::seconds(60),
                       [&] { return done; })) {
      server->Kill();
    }
  });
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < n; ++i) {
      threads.emplace_back(DriveClient, static_cast<int>(i),
                           std::ref(clients), port, start, deadline, traced,
                           &results[i]);
    }
    for (std::thread& t : threads) t.join();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  watchdog.join();

  WindowResult window;
  Clock::time_point finished = start;
  for (size_t i = 0; i < n; ++i) {
    ClientResult& r = results[i];
    window.attempted += r.attempted;
    window.failed += r.failed;
    window.completed += r.completed;
    window.acked_edits += r.acked_edits;
    window.completions.insert(window.completions.end(),
                              r.completions.begin(), r.completions.end());
    window.spans.insert(window.spans.end(), r.spans.begin(), r.spans.end());
    if (window.first_error.empty()) window.first_error = r.first_error;
    if (r.finished > finished) finished = r.finished;
  }
  // Round-robin across clients, so a replay prefix mixes every role.
  for (size_t k = 0; k < kReplayOpsPerClient; ++k) {
    for (size_t i = 0; i < n; ++i) {
      if (k < results[i].replay_ops.size()) {
        window.replay_ops.push_back(std::move(results[i].replay_ops[k]));
      }
    }
  }
  window.seconds = std::chrono::duration<double>(finished - start).count();
  return window;
}

WindowFigures Summarize(const WindowResult& window, int slices) {
  std::vector<std::vector<double>> writes(slices), reads(slices);
  std::vector<double> completed(slices, 0);
  const double slice_s = window.seconds / slices;
  WindowFigures figures;
  for (const Completion& c : window.completions) {
    int slice = std::min(slices - 1, static_cast<int>(c.end_s / slice_s));
    completed[slice] += 1;
    (c.write ? writes : reads)[slice].push_back(c.ms);
    ++(c.write ? figures.writes : figures.reads);
  }
  std::vector<double> rate, w50, w99, r50, r99;
  for (int i = 0; i < slices; ++i) {
    rate.push_back(completed[i] / slice_s);
    w50.push_back(Percentile(writes[i], 0.5));
    w99.push_back(Percentile(writes[i], 0.99));
    r50.push_back(Percentile(reads[i], 0.5));
    r99.push_back(Percentile(reads[i], 0.99));
  }
  figures.ops_per_s = Percentile(rate, 0.5);
  figures.write_p50_ms = Percentile(w50, 0.5);
  figures.write_p99_ms = Percentile(w99, 0.5);
  figures.read_p50_ms = Percentile(r50, 0.5);
  figures.read_p99_ms = Percentile(r99, 0.5);
  return figures;
}

taco::Status TraceCollector::Start(uint64_t after_seq) {
  last_seq_ = after_seq;
  TACO_RETURN_IF_ERROR(client_.Connect("127.0.0.1", port_));
  thread_ = std::thread([this] { Loop(); });
  return taco::Status::OK();
}

void TraceCollector::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  // One last drain for spans recorded after the final poll.
  if (client_.connected()) {
    auto response = client_.Call("TRACE 256");
    if (response.ok()) {
      std::vector<ServerSpan> batch = ParseTrace(*response);
      for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
        if (it->seq > last_seq_) {
          last_seq_ = it->seq;
          spans_.push_back(*it);
        }
      }
    }
    client_.Close();
  }
}

void TraceCollector::Loop() {
  // Ask for few spans while few arrive; the full ring after a gap.
  int want = 64;
  while (!stop_.load()) {
    auto response = client_.Call("TRACE " + std::to_string(want));
    if (!response.ok()) return;
    std::vector<ServerSpan> batch = ParseTrace(*response);  // Newest first.
    size_t fresh = 0;
    for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
      if (it->seq > last_seq_) {
        ++fresh;
        last_seq_ = it->seq;
        spans_.push_back(*it);
      }
    }
    if (fresh == batch.size() && want < 256) {
      want = 256;
    } else if (fresh * 4 < static_cast<size_t>(want) && want > 16) {
      want /= 2;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace perfbench
