// Loopback HTTP client and the ned_serve child process of the wire
// workloads.

#ifndef NEDBENCH_WIRE_H_
#define NEDBENCH_WIRE_H_

#include <signal.h>
#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "net/http.h"

namespace nedbench {

/// Blocking keep-alive client on 127.0.0.1 (30 s receive timeout).
class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  bool Connect(int port);
  void Close();
  /// Sends `request` and reads one whole response.
  bool RoundTrip(std::string_view request, ned::net::HttpResponse* response);

 private:
  int fd_ = -1;
  std::string buffer_;
};

std::string HttpPost(const std::string& body);
std::string HttpGet(const std::string& target);

/// The benchmark's ned_serve, started on an ephemeral port. The child
/// inherits a pipe on fd 3 for allocation snapshots (alloc_signal.cpp).
class ServerProcess {
 public:
  ServerProcess() = default;
  /// Stops the server if it still runs.
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `binary --port 0 --scale 1 <extra_args>` and waits for its
  /// "listening on" line.
  bool Start(const std::string& binary, const std::vector<std::string>& extra_args,
             std::string* error);
  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// The server's operator new count so far.
  bool AllocSnapshot(uint64_t* allocs);
  /// Sends `sig` (SIGTERM: the drain path), then waits for exit (SIGKILL
  /// after 20 s). Returns the exit code.
  int Stop(int sig = SIGTERM);

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  int out_fd_ = -1;
  int alloc_fd_ = -1;
  int exit_code_ = -1;
  std::string out_buffer_, alloc_buffer_;
};

}  // namespace nedbench

#endif  // NEDBENCH_WIRE_H_
