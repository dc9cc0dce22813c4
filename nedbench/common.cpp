#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <thread>

#include "bench.h"
#include "core/answers.h"
#include "exec/evaluator.h"
#include "sql/binder.h"
#include "testing/oracle.h"

namespace nedbench {

const Clock::time_point kProcessStart = Clock::now();

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Fail(const std::string& what) {
  correct_ = false;
  if (failures_printed_++ < 10) std::cerr << "nedbench: CHECK FAILED: " << what << "\n";
}

void Report::OperationFailed(const std::string& what) {
  ++failed;
  if (failures_printed_++ < 10) std::cerr << "nedbench: OPERATION FAILED: " << what << "\n";
}

std::string Report::Json() const {
  std::ostringstream out;
  out.precision(12);
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
    out << (i == 0 ? "" : ", ") << "\"" << metrics_[i].name
        << "\": {\"value\": " << v << ", \"unit\": \"" << metrics_[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double ReferenceMs() {
  // Fill a 1 MiB table, then walk it in a data-dependent order with
  // integer mixing: cache- and memory-latency-bound like the engine's
  // pointer-heavy evaluation, and allocation-free after the first call.
  constexpr uint32_t kMask = (1u << 18) - 1;
  static std::vector<uint32_t> table(kMask + 1);
  static volatile uint64_t sink = 0;
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    uint32_t x = 2463534242u;
    for (uint32_t& v : table) v = x = x * 1664525u + 1013904223u;
    uint64_t acc = 0;
    uint32_t j = 0;
    for (uint32_t i = 0; i < (1u << 17); ++i) {
      const uint32_t v = table[j];
      acc += v ^ (acc >> 7);
      table[j] = v + static_cast<uint32_t>(acc);
      j = (v ^ static_cast<uint32_t>(acc)) & kMask;
    }
    sink = sink + acc;
    best = std::min(best, MsSince(t0));
  }
  return best;
}

double PingPongMs() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) return 0;
  std::thread echo([fd = fds[1]] {
    char c = 0;
    while (::read(fd, &c, 1) == 1 && ::write(fd, &c, 1) == 1) {
    }
  });
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 100; ++i) {
      char c = 'x';
      if (::write(fds[0], &c, 1) != 1 || ::read(fds[0], &c, 1) != 1) break;
    }
    best = std::min(best, MsSince(t0));
  }
  ::shutdown(fds[0], SHUT_RDWR);
  echo.join();
  ::close(fds[0]);
  ::close(fds[1]);
  return best;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double k = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(k);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (k - static_cast<double>(lo));
}

double Min(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

std::vector<Question> ListQuestions(const ned::UseCaseRegistry& registry,
                                    Report* report) {
  std::vector<Question> out;
  for (const ned::UseCase& uc : registry.use_cases()) {
    Question q;
    q.use_case = &uc;
    q.db = &registry.database(uc.db_name);
    out.push_back(std::move(q));
  }
  if (out.size() != 19) report->Fail("expected the 19 Table 4 use cases");
  return out;
}

void AddOracleAnswers(std::vector<Question>* questions, Report* report) {
  for (Question& q : *questions) {
    const ned::UseCase& uc = *q.use_case;
    auto tree = ned::CompileSql(uc.sql, *q.db);
    if (!tree.ok()) {
      report->Fail(uc.name + ": oracle compile: " + tree.status().ToString());
      continue;
    }
    auto oracle = ned::OracleExplain(*tree, *q.db, uc.question);
    auto input = ned::QueryInput::Build(*tree, *q.db);
    if (!oracle.ok() || !input.ok()) {
      report->Fail(uc.name + ": oracle failed");
      continue;
    }
    for (const auto& [id, node] : oracle->answer.detailed) {
      q.detailed.insert(
          ned::WhyNotAnswer::EntryToString(ned::DetailedEntry{id, node}, *input));
    }
    for (const ned::OperatorNode* node : oracle->answer.condensed) {
      q.condensed.insert(node->name);
    }
    for (const ned::OperatorNode* node : oracle->answer.secondary) {
      q.secondary.insert(node->name);
    }
    for (const ned::OracleCTupleResult& part : oracle->per_ctuple) {
      q.dir += part.dir.size();
      q.indir += part.indir.size();
    }
  }
}

namespace {

std::set<std::string> AsSet(const std::vector<std::string>& v,
                            bool* duplicates) {
  std::set<std::string> s(v.begin(), v.end());
  if (s.size() != v.size()) *duplicates = true;
  return s;
}

}  // namespace

std::string CheckAnswer(const ned::AnswerSummary& got, const Question& q) {
  const std::string& name = q.use_case->name;
  bool duplicates = false;
  const auto condensed = AsSet(got.condensed, &duplicates);
  const auto secondary = AsSet(got.secondary, &duplicates);
  const auto detailed = AsSet(got.detailed, &duplicates);
  if (duplicates) return name + ": duplicate answer entries";
  if (!got.complete) return name + ": incomplete answer: " + got.completeness;
  if (got.degradation_level != 0) return name + ": degraded answer";
  if (condensed != q.condensed) return name + ": condensed answer differs from the oracle";
  if (secondary != q.secondary) return name + ": secondary answer differs from the oracle";
  if (detailed != q.detailed) return name + ": detailed answer differs from the oracle";
  if (got.dir_total != q.dir) return name + ": |Dir| differs from the oracle";
  if (got.indir_total != q.indir) return name + ": |InDir| differs from the oracle";
  // Def. 2.13: condensed = the subqueries named in the detailed answer,
  // whose entries render as "(<tuple>, <subquery>)".
  std::set<std::string> named;
  for (const std::string& entry : got.detailed) {
    const size_t comma = entry.rfind(", ");
    if (comma == std::string::npos || entry.back() != ')') {
      return name + ": malformed detailed entry " + entry;
    }
    named.insert(entry.substr(comma + 2, entry.size() - comma - 3));
  }
  if (named != condensed) return name + ": condensed answer is not the detailed answer's subqueries";
  return "";
}

bool SameAnswer(const ned::AnswerSummary& a, const ned::AnswerSummary& b) {
  return a.detailed == b.detailed && a.condensed == b.condensed &&
         a.secondary == b.secondary && a.dir_total == b.dir_total &&
         a.indir_total == b.indir_total &&
         a.survivors_at_root == b.survivors_at_root &&
         a.complete == b.complete && a.completeness == b.completeness &&
         a.degradation_level == b.degradation_level;
}

bool InjectAnswerFault(const std::string& kind, ned::AnswerSummary* answer) {
  if (kind == "drop-condensed" && !answer->condensed.empty()) {
    answer->condensed.pop_back();
  } else if (kind == "drop-detailed" && !answer->detailed.empty()) {
    answer->detailed.pop_back();
  } else if (kind == "wrong-dir") {
    answer->dir_total += 1;
  } else {
    return false;
  }
  return true;
}

void PrintRawTimings(const std::vector<Question>& questions,
                     const std::vector<std::vector<double>>& ms) {
  std::vector<double> all;
  char line[160];
  for (size_t i = 0; i < questions.size() && i < ms.size(); ++i) {
    std::snprintf(line, sizeof(line),
                  "nedbench: raw %-8s n=%-6zu min=%.3f median=%.3f p99=%.3f\n",
                  questions[i].use_case->name.c_str(), ms[i].size(), Min(ms[i]),
                  Median(ms[i]), Quantile(ms[i], 0.99));
    std::cerr << line;
    all.insert(all.end(), ms[i].begin(), ms[i].end());
  }
  std::snprintf(line, sizeof(line),
                "nedbench: raw all      n=%-6zu min=%.3f median=%.3f p99=%.3f\n",
                all.size(), Min(all), Median(all), Quantile(all, 0.99));
  std::cerr << line;
}

double PeakRssMb(int pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace nedbench
