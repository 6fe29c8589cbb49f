#include "daemon.hpp"

#include <cerrno>
#include <csignal>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "common.hpp"
#include "serve/client.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace rotsv_bench {
namespace {

constexpr double kStartTimeout = 30.0;
constexpr double kExitTimeout = 10.0;

/// Reads from `fd` until a full line arrives; empty on EOF or timeout.
std::string read_line(int fd, double timeout) {
  std::string line;
  const double deadline = now_s() + timeout;
  while (line.find('\n') == std::string::npos) {
    const double left = deadline - now_s();
    if (left <= 0.0) return {};
    pollfd p{fd, POLLIN, 0};
    const int rc = ::poll(&p, 1, static_cast<int>(left * 1000.0) + 1);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return {};
    char buf[256];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return {};
    line.append(buf, static_cast<size_t>(n));
  }
  return line.substr(0, line.find('\n'));
}

}  // namespace

Daemon::Daemon(const DaemonConfig& config) {
  std::vector<std::string> args = {
      config.serve_binary, "--listen", "127.0.0.1:0",
      "--workers", rotsv::format("%d", config.workers),
      "--shard", rotsv::format("%d", config.shard),
      "--worker", config.worker_binary, "--quiet"};
  if (!config.store.empty()) {
    args.push_back("--store");
    args.push_back(config.store);
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int out[2] = {-1, -1};
  if (::pipe(out) != 0) throw rotsv::IoError("daemon: pipe failed");
  const double start = now_s();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(out[0]);
    ::close(out[1]);
    throw rotsv::IoError("daemon: fork failed");
  }
  if (pid_ == 0) {
    // Own process group, so a forced stop also reaches the daemon's workers.
    ::setpgid(0, 0);
    ::dup2(out[1], STDOUT_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::setpgid(pid_, pid_);
  ::close(out[1]);
  const std::string line = read_line(out[0], kStartTimeout);
  startup_seconds_ = now_s() - start;
  ::close(out[0]);
  const std::string prefix = "listening on ";
  if (line.rfind(prefix, 0) != 0) {
    reap(true);
    throw rotsv::IoError("daemon: " + config.serve_binary + " did not come up");
  }
  address_ = line.substr(prefix.size());
}

Daemon::~Daemon() { reap(true); }

void Daemon::shutdown() {
  if (pid_ < 0) return;
  try {
    rotsv::ServeClient(address_).shutdown();
  } catch (const rotsv::Error&) {
    reap(true);
    throw;
  }
  wait();
}

void Daemon::wait() { reap(false); }

void Daemon::reap(bool force) {
  if (pid_ < 0) return;
  if (force) ::kill(-pid_, SIGTERM);
  const double deadline = now_s() + kExitTimeout;
  int status = 0;
  for (;;) {
    const pid_t rc = ::waitpid(pid_, &status, WNOHANG);
    if (rc == pid_ || (rc < 0 && errno != EINTR)) break;
    if (now_s() > deadline) {
      ::kill(-pid_, SIGKILL);
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      break;
    }
    ::usleep(2000);
  }
  if (force) {
    // Workers the daemon could not reap were re-parented to this process
    // (a child subreaper, see main); collect them so nothing outlives us.
    // Only one daemon runs at a time, so every remaining child is one of
    // its SIGKILLed workers; wait for each until none is left.
    ::kill(-pid_, SIGKILL);
    while (::waitpid(-1, &status, 0) > 0 || errno == EINTR) {
    }
  }
  pid_ = -1;
}

}  // namespace rotsv_bench
