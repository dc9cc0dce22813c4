// Shared pieces of the end-to-end benchmark: arguments, the result line,
// the host-speed reference, the question set and the answer checks.

#ifndef NEDBENCH_BENCH_H_
#define NEDBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/report.h"
#include "datasets/use_cases.h"

namespace nedbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Corrupts one answer before it is checked ("" = none); see README.md.
  std::string inject;
  /// This binary, the benchmark's ned_serve build, and a scratch root for
  /// its --persist directories; all resolved by main().
  std::string self_binary;
  std::string serve_binary;
  std::string scratch_dir;
};

/// The result line: correctness, operation counts and named metrics.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Records a failed check; the run then reports correct=false.
  void Fail(const std::string& what);
  /// Records an operation that returned an error instead of an answer: it
  /// counts in `failed`, and `correct` speaks only of the others.
  void OperationFailed(const std::string& what);
  bool correct() const { return correct_; }
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// One JSON object on one line.
  std::string Json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  int failures_printed_ = 0;
};

using Clock = std::chrono::steady_clock;
/// Process start, as seen by the first static initializer that runs.
extern const Clock::time_point kProcessStart;

double MsSince(Clock::time_point t0);

/// Host-speed references, timed between rounds in the benchmark's own
/// process. A timed metric is reported as raw * nominal / reference: in ms
/// of a host on which the reference takes its nominal time (about what it
/// takes on the 4-core host the README's figures come from).
///
/// ReferenceMs: the fastest of three runs of a fixed, allocation-free
/// memory walk; corrects in-process work.
double ReferenceMs();
inline constexpr double kReferenceNominalMs = 1.5;
/// PingPongMs: the fastest of three times 100 one-byte round trips between
/// two threads over a socketpair; corrects loopback round trips, which
/// wake-ups on both sides dominate.
double PingPongMs();
inline constexpr double kPingPongNominalMs = 1.1;

double Median(std::vector<double> v);
/// Linear-interpolated quantile, p in [0, 1].
double Quantile(std::vector<double> v, double p);
double Min(const std::vector<double>& v);
double Mean(const std::vector<double>& v);

/// One use case with the answer the brute-force oracle derives for it.
struct Question {
  const ned::UseCase* use_case = nullptr;
  const ned::Database* db = nullptr;
  std::set<std::string> condensed, secondary, detailed;
  size_t dir = 0, indir = 0;
};

/// The 19 Table 4 use cases of `registry`, without their answers.
std::vector<Question> ListQuestions(const ned::UseCaseRegistry& registry,
                                    Report* report);
/// Fills in each question's answer as the brute-force oracle derives it
/// (ned::OracleExplain). Run outside any timed part, and after peak memory
/// has been read.
void AddOracleAnswers(std::vector<Question>* questions, Report* report);

/// "" when `got` is a correct, complete, undegraded answer to `q`, else a
/// description of the first mismatch: condensed/secondary/detailed sets and
/// Dir/InDir sizes against the oracle, and Def. 2.13 (the condensed answer
/// is the set of subqueries named in the detailed answer).
std::string CheckAnswer(const ned::AnswerSummary& got, const Question& q);

/// Answer content equality (computation counters excluded).
bool SameAnswer(const ned::AnswerSummary& a, const ned::AnswerSummary& b);

/// Applies the fault named by Args::inject to `answer`; false when it
/// does not apply to this answer (e.g. dropping from an empty set), or for
/// "crossed-key", which the wire client applies to response keys.
bool InjectAnswerFault(const std::string& kind, ned::AnswerSummary* answer);

/// Writes the raw (uncorrected) timings to stderr: per question the
/// sample count, fastest, median and p99 in ms, then the same over all
/// samples. The README's reference figures come from these lines.
void PrintRawTimings(const std::vector<Question>& questions,
                     const std::vector<std::vector<double>>& ms);

/// Peak resident set of process `pid` (0 = self), in MB, from VmHWM.
double PeakRssMb(int pid);

/// Total size of the regular files under `dir`, in bytes (0 if absent).
uint64_t DirBytes(const std::string& dir);

/// setup_s is the fastest of this many cold set-ups per run, each in a
/// fresh process, corrected by the fastest memory walk timed just before
/// each: one start alone spread 10-40% between runs.
inline constexpr int kSetupStarts = 21;

int RunPaperMix(const Args& args, Report* report);
/// The internal workload "paper-mix-setup": one cold paper-mix set-up,
/// whose time in ms from process start it prints on stdout. paper-mix runs
/// it in child processes for its further set-ups.
int RunPaperMixSetup();
int RunWire(const Args& args, bool repeat, Report* report);

}  // namespace nedbench

#endif  // NEDBENCH_BENCH_H_
