// nedbench: the end-to-end benchmark binary.
//
//   nedbench --workload paper-mix|wire-mix|wire-repeat --seed N
//            --seconds S --trace 0|1 [--inject FAULT]
//
// Prints one JSON result line last on stdout and exits 0 only when every
// answer passed its checks. See README.md.

#include <unistd.h>

#include <climits>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

bool ParseArgs(int argc, char** argv, nedbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--inject") {
      args->inject = value;
    } else {
      return false;
    }
  }
  const bool known_fault = args->inject.empty() || args->inject == "drop-condensed" ||
                           args->inject == "drop-detailed" || args->inject == "wrong-dir" ||
                           args->inject == "crossed-key";
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 && known_fault;
}

}  // namespace

int main(int argc, char** argv) {
  nedbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: nedbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--inject FAULT]\n";
    return 2;
  }
  char exe[PATH_MAX];
  const ssize_t len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) return 2;
  const std::string path(exe, static_cast<size_t>(len));
  const std::string dir = path.substr(0, path.rfind('/'));
  args.self_binary = path;
  args.serve_binary = dir + "/nedbench_serve";
  args.scratch_dir = dir + "/work";

  if (args.workload == "paper-mix-setup") return nedbench::RunPaperMixSetup();
  nedbench::Report report;
  int rc = 2;
  if (args.workload == "paper-mix") {
    rc = nedbench::RunPaperMix(args, &report);
  } else if (args.workload == "wire-mix" || args.workload == "wire-repeat") {
    rc = nedbench::RunWire(args, args.workload == "wire-repeat", &report);
  } else {
    std::cerr << "nedbench: unknown workload " << args.workload << "\n";
    return 2;
  }
  if (rc != 0) return rc;
  std::cout << report.Json() << std::endl;
  return report.correct() && report.attempted > 0 ? 0 : 1;
}
