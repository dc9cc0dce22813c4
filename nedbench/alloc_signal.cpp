// Linked into the benchmark's ned_serve: when NEDBENCH_ALLOC_FD names an
// inherited descriptor, every SIGUSR1 writes one line "<allocs> <live>\n"
// to it. The benchmark client reads the line to count the allocations the
// server made for a known number of answers. Only async-signal-safe calls
// are made in the handler.

#include <signal.h>
#include <unistd.h>

#include <cstdlib>

#include "alloc_hook.h"

namespace {

int g_fd = -1;

char* PutU64(char* out, uint64_t v) {
  char digits[24];
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) *out++ = digits[--n];
  return out;
}

void OnSnapshot(int) {
  const nedbench::AllocCounters c = nedbench::ReadAllocCounters();
  char line[64];
  char* p = PutU64(line, c.allocs);
  *p++ = ' ';
  p = PutU64(p, static_cast<uint64_t>(c.live < 0 ? 0 : c.live));
  *p++ = '\n';
  ssize_t ignored = ::write(g_fd, line, static_cast<size_t>(p - line));
  (void)ignored;
}

struct Installer {
  Installer() {
    const char* fd = std::getenv("NEDBENCH_ALLOC_FD");
    if (fd == nullptr) return;
    g_fd = std::atoi(fd);
    struct sigaction sa {};
    sa.sa_handler = OnSnapshot;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGUSR1, &sa, nullptr);
  }
} g_installer;

}  // namespace
