#include "server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "net/socket_client.h"

namespace perfbench {
namespace {

/// A port the kernel just handed out for loopback; taco_serve binds it
/// right after (Start retries if another process took it meanwhile).
uint16_t PickFreePort() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  uint16_t port = 0;
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

/// Waits for `pid` up to `timeout_ms`; true when it was reaped.
bool WaitFor(pid_t pid, int timeout_ms) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    int status = 0;
    pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid || (done < 0 && errno == ECHILD)) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

ServerProcess::ServerProcess(std::string binary, std::vector<std::string> flags,
                             std::string log_path)
    : binary_(std::move(binary)),
      flags_(std::move(flags)),
      log_path_(std::move(log_path)) {}

ServerProcess::~ServerProcess() { Kill(); }

taco::Status ServerProcess::Start() {
  for (int attempt = 0; attempt < 5; ++attempt) {
    port_ = PickFreePort();
    if (port_ == 0) return taco::Status::IoError("no free loopback port");
    std::vector<std::string> args = {binary_, "--listen",
                                     std::to_string(port_), "--bind",
                                     "127.0.0.1"};
    args.insert(args.end(), flags_.begin(), flags_.end());
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);

    int log_fd = ::open(log_path_.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                        0644);
    if (log_fd < 0) return taco::Status::IoError("cannot open " + log_path_);
    pid_t pid = ::fork();
    if (pid < 0) {
      ::close(log_fd);
      return taco::Status::IoError("fork failed");
    }
    if (pid == 0) {
      // The server must not outlive the benchmark, even when the
      // benchmark itself is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(log_fd, STDERR_FILENO);
      int null_fd = ::open("/dev/null", O_RDWR);
      if (null_fd >= 0) {
        ::dup2(null_fd, STDIN_FILENO);
        ::dup2(null_fd, STDOUT_FILENO);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(log_fd);
    {
      std::lock_guard<std::mutex> lock(mu_);
      pid_ = pid;
    }
    taco::Status ready = WaitReady();
    if (ready.ok()) return ready;
    Kill();  // Lost the port race or failed to start; try again.
  }
  return taco::Status::Unavailable("taco_serve did not start; see " +
                                   log_path_);
}

taco::Status ServerProcess::WaitReady() {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      int status = 0;
      if (pid_ < 0 || ::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return taco::Status::Unavailable("taco_serve exited at start");
      }
    }
    taco::SocketClient probe;
    if (probe.Connect("127.0.0.1", port_).ok()) return taco::Status::OK();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return taco::Status::Unavailable("taco_serve did not listen in time");
}

taco::Status ServerProcess::Stop(int timeout_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pid_ < 0) return taco::Status::OK();
  ::kill(pid_, SIGTERM);
  bool exited = WaitFor(pid_, timeout_ms);
  if (!exited) {
    ::kill(pid_, SIGKILL);
    WaitFor(pid_, 60000);
  }
  pid_ = -1;
  return exited ? taco::Status::OK()
                : taco::Status::Unavailable("taco_serve ignored SIGTERM");
}

void ServerProcess::Kill() {
  std::lock_guard<std::mutex> lock(mu_);
  if (pid_ < 0) return;
  ::kill(pid_, SIGKILL);
  WaitFor(pid_, 60000);
  pid_ = -1;
}

}  // namespace perfbench
