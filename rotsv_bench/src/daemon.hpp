// A rotsv_serve daemon the benchmark execs as a child process, exactly as an
// operator would start it, and always stops and reaps before it returns.
#pragma once

#include <string>
#include <sys/types.h>

namespace rotsv_bench {

struct DaemonConfig {
  std::string serve_binary;   ///< rotsv_serve
  std::string worker_binary;  ///< rotsv_worker
  int workers = 1;
  int shard = 4;
  std::string store;  ///< colstore spool; empty = none
};

class Daemon {
 public:
  /// Execs the daemon on an OS-assigned loopback port and waits for its
  /// "listening on ADDR" line. Throws rotsv::IoError when it does not come
  /// up within 30 s.
  explicit Daemon(const DaemonConfig& config);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& address() const { return address_; }
  pid_t pid() const { return pid_; }
  /// Exec until the listening line was read.
  double startup_seconds() const { return startup_seconds_; }

  /// Asks the daemon to shut down over a fresh connection and reaps it;
  /// SIGKILLs it if it has not exited within 10 s.
  void shutdown();
  /// Reaps a daemon whose shutdown was requested over another connection.
  void wait();

 private:
  void reap(bool force);

  pid_t pid_ = -1;
  std::string address_;
  double startup_seconds_ = 0.0;
};

}  // namespace rotsv_bench
