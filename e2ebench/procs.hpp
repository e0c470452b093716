// Server processes and the /proc readings the benchmark takes of them.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// One timedc-server child. The child gets PR_SET_PDEATHSIG so it cannot
/// outlive the driver, and its stdout is a pipe the driver reads the
/// LISTENING line from. stop() is idempotent and always reaps the child.
class ServerProcess {
 public:
  /// Spawns `binary args...` with stderr appended to `stderr_path`, then
  /// blocks until the LISTENING line (or `timeout_ms`). Check ok().
  ServerProcess(const std::string& binary, const std::vector<std::string>& args,
                const std::string& stderr_path, int timeout_ms);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool ok() const { return port_ != 0; }
  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }
  /// SIGTERM, then SIGKILL after `grace_ms`; waits for the child to end.
  void stop(int grace_ms = 2000);

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// On-CPU time of every thread of `pid`, in ns (sum of the first field of
/// /proc/<pid>/task/*/schedstat: user + system time at ns resolution).
std::int64_t process_cpu_ns(pid_t pid);

/// Peak resident set (VmHWM) of `pid`, in KiB; 0 if unreadable.
std::int64_t process_peak_rss_kib(pid_t pid);

/// Machine-wide steal ticks (the eighth field of the cpu line in /proc/stat).
std::int64_t steal_ticks();

/// "nproc=4 cpu=<model> kernel=<release>" for the run header.
std::string machine_fingerprint();

/// CPU time of the calling thread, in ns.
std::int64_t thread_cpu_ns();

/// Monotonic clock in ns.
std::int64_t mono_ns();

/// A loopback TCP port that was free a moment ago (bound to 0, then closed).
std::uint16_t pick_free_port();

/// Size of `path` in bytes; 0 if absent.
std::int64_t file_size(const std::string& path);

}  // namespace e2e
