// The served system as users run it: the built taco_serve binary as a
// child process listening on loopback, so its resident memory is its
// own and the transport is a real TCP socket.

#ifndef PERFBENCH_SERVER_H_
#define PERFBENCH_SERVER_H_

#include <sys/types.h>

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

class ServerProcess {
 public:
  /// `flags` follow --listen/--bind; stderr goes to `log_path`.
  ServerProcess(std::string binary, std::vector<std::string> flags,
                std::string log_path);
  /// Kills a still-running child and waits for it.
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Picks a free loopback port, starts the child and waits until it
  /// accepts connections.
  taco::Status Start();

  /// Graceful stop (SIGTERM, as an operator would), then waits for the
  /// child; escalates to SIGKILL after `timeout_ms`.
  taco::Status Stop(int timeout_ms = 20000);

  /// SIGKILL and wait. Safe from another thread (the hang watchdog).
  void Kill();

  uint16_t port() const { return port_; }

 private:
  taco::Status WaitReady();

  const std::string binary_;
  const std::vector<std::string> flags_;
  const std::string log_path_;
  std::mutex mu_;  ///< Guards pid_ against the watchdog.
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_H_
