// The benchmark's own view of the served program: child processes of the
// shipped CLI, /proc readings of their CPU and memory, and clients of the
// served front.
#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "shapley/net/client.h"

namespace perfbench {

/// A serving process started from the CLI binary.
class Server {
 public:
  /// Starts `binary args...` and waits for its "listening on H:P" line.
  /// Returns nullopt (and stops the child) when it never comes. The child
  /// inherits this process's CPU affinity.
  static std::optional<Server> Start(const std::string& binary,
                                     const std::vector<std::string>& args);
  Server(Server&& other) noexcept;
  Server& operator=(Server&& other) noexcept;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server();

  /// SIGTERM, then SIGKILL after a grace period; waits for the exit.
  void Stop();

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

  /// User + system CPU seconds of the process so far.
  double CpuSeconds() const;
  /// Peak resident set (VmHWM) in MB.
  double PeakRssMb() const;

 private:
  Server() = default;
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

/// Pins this process, and so every process it starts later, to the last
/// CPU it may use. False when the affinity cannot be read or set.
bool PinToOneCpu();

/// The machine's CPU time so far, from the first line of /proc/stat, in
/// clock ticks: all of it, and the share the hypervisor gave to other
/// guests while this one had work (steal).
struct HostTicks {
  double total = 0.0;
  double steal = 0.0;
};
HostTicks ReadHostTicks();

/// A client of the served front: one keep-alive connection to `port` on
/// loopback, through the repository's own ShapleyClient. The read timeout
/// outlasts the slowest exact operation of any workload.
std::unique_ptr<shapley::net::ShapleyClient> Connect(uint16_t port);

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
