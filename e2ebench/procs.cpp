#include "procs.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace e2e {

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& args,
                             const std::string& stderr_path, int timeout_ms) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) return;
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(out[0]);
    ::close(out[1]);
    return;
  }
  if (pid_ == 0) {
    // Child: die with the driver, stdout -> pipe, stderr -> log file.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(out[1], STDOUT_FILENO);
    const int err = ::open(stderr_path.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (err >= 0) ::dup2(err, STDERR_FILENO);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  out_fd_ = out[0];
  // Read until "LISTENING <port>\n" or the deadline.
  std::string buf;
  const std::int64_t deadline = mono_ns() + std::int64_t{timeout_ms} * 1000000;
  while (buf.find('\n') == std::string::npos) {
    const std::int64_t left_ms = (deadline - mono_ns()) / 1000000;
    if (left_ms <= 0) return;
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left_ms)) <= 0) continue;
    char chunk[256];
    const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
    if (n <= 0) return;  // child exited before listening
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  unsigned port = 0;
  if (std::sscanf(buf.c_str(), "LISTENING %u", &port) == 1 && port > 0 &&
      port <= 65535) {
    port_ = static_cast<std::uint16_t>(port);
  }
}

ServerProcess::~ServerProcess() { stop(); }

void ServerProcess::stop(int grace_ms) {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    const std::int64_t deadline =
        mono_ns() + std::int64_t{grace_ms} * 1000000;
    pid_t done = 0;
    while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
           mono_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (done == 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

std::int64_t process_cpu_ns(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  std::int64_t total = 0;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + e->d_name + "/schedstat");
    long long run_ns = 0;
    if (in >> run_ns) total += run_ns;
  }
  ::closedir(d);
  return total;
}

std::int64_t process_peak_rss_kib(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return 0;
}

std::int64_t steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long f[8] = {};
  in >> cpu;
  for (long long& x : f) in >> x;
  return cpu == "cpu" ? f[7] : 0;
}

std::string machine_fingerprint() {
  std::string model = "unknown";
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  utsname u{};
  ::uname(&u);
  std::ostringstream os;
  os << "nproc=" << std::thread::hardware_concurrency() << " cpu=\"" << model
     << "\" kernel=" << u.release;
  return os.str();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

std::int64_t mono_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return std::int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

std::uint16_t pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  std::uint16_t port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

std::int64_t file_size(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::int64_t>(st.st_size)
                                        : 0;
}

}  // namespace e2e
