#include "wire.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <time.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <thread>

namespace perfbench {

// ---------------------------------------------------------------- Server --

std::optional<Server> Server::Start(const std::string& binary,
                                    const std::vector<std::string>& args) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) return std::nullopt;
  const pid_t pid = fork();
  if (pid < 0) {
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    // The server must not outlive the benchmark, even if it is killed.
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    dup2(pipe_fds[1], STDOUT_FILENO);
    const int null_fd = open("/dev/null", O_WRONLY);
    if (null_fd >= 0) dup2(null_fd, STDERR_FILENO);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const auto& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(pipe_fds[1]);
  Server server;
  server.pid_ = pid;
  server.stdout_fd_ = pipe_fds[0];
  // Wait (at most 30 s) for "listening on HOST:PORT\n".
  std::string out;
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (out.find('\n') == std::string::npos && Clock::now() < deadline) {
    pollfd p{server.stdout_fd_, POLLIN, 0};
    if (poll(&p, 1, 100) <= 0) continue;
    char buffer[256];
    const ssize_t got = read(server.stdout_fd_, buffer, sizeof(buffer));
    if (got <= 0) break;
    out.append(buffer, static_cast<size_t>(got));
  }
  const size_t colon = out.rfind(':', out.find('\n'));
  if (out.rfind("listening on ", 0) != 0 || colon == std::string::npos) {
    return std::nullopt;  // The destructor stops the child.
  }
  server.port_ = static_cast<uint16_t>(std::atoi(out.c_str() + colon + 1));
  if (server.port_ == 0) return std::nullopt;
  return server;
}

Server::Server(Server&& other) noexcept { *this = std::move(other); }

Server& Server::operator=(Server&& other) noexcept {
  if (this != &other) {
    Stop();
    pid_ = std::exchange(other.pid_, -1);
    stdout_fd_ = std::exchange(other.stdout_fd_, -1);
    port_ = other.port_;
  }
  return *this;
}

Server::~Server() { Stop(); }

void Server::Stop() {
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

double Server::CpuSeconds() const {
  // The process's CPU-time clock: user + system time of all its threads,
  // to the nanosecond (/proc/<pid>/stat counts 10 ms ticks).
  clockid_t clock;
  timespec now{};
  if (clock_getcpuclockid(pid_, &clock) != 0 || clock_gettime(clock, &now) != 0) return 0.0;
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

double Server::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

bool PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return sched_setaffinity(0, sizeof(one), &one) == 0;
    }
  }
  return false;
}

HostTicks ReadHostTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  HostTicks ticks;
  in >> cpu;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user and nice).
  for (int field = 0; field < 8; ++field) {
    double value = 0;
    if (!(in >> value)) return {};
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

std::unique_ptr<shapley::net::ShapleyClient> Connect(uint16_t port) {
  shapley::net::ClientOptions options;
  options.read_timeout_ms = 120'000;
  return std::make_unique<shapley::net::ShapleyClient>("127.0.0.1", port, options);
}

}  // namespace perfbench
