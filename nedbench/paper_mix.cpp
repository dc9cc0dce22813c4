// paper-mix: the 19 Table 4 use cases in-process, one thread, each answer
// CompileSql -> NedExplainEngine::Create -> Explain -> SummarizeResult
// with no subtree cache, in whole passes shuffled by the seed.
//
// Set-up is building the use-case registry (the three databases), timed
// from process start: once in this process and once in each of
// kSetupStarts - 1 child processes running "paper-mix-setup", so that
// every set-up timed is a cold one; setup_s is the fastest, corrected by
// the fastest memory walk timed before each child.

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <iostream>
#include <optional>
#include <random>

#include "alloc_hook.h"
#include "bench.h"
#include "core/nedexplain.h"
#include "exec/exec_context.h"
#include "layers.h"
#include "obs/trace.h"
#include "sql/binder.h"

extern char** environ;

namespace nedbench {

namespace {

struct Answered {
  bool ok = false;
  std::string error;
  ned::AnswerSummary summary;
};

Answered AnswerOnce(const Question& q, ned::obs::Trace* trace) {
  Answered out;
  auto tree = ned::CompileSql(q.use_case->sql, *q.db);
  if (!tree.ok()) {
    out.error = tree.status().ToString();
    return out;
  }
  auto engine = ned::NedExplainEngine::Create(&*tree, q.db);
  if (!engine.ok()) {
    out.error = engine.status().ToString();
    return out;
  }
  ned::ExecContext ctx;
  ctx.set_trace(trace);
  auto result = engine->Explain(q.use_case->question, &ctx);
  if (!result.ok()) {
    out.error = result.status().ToString();
    return out;
  }
  out.summary = ned::SummarizeResult(*engine, *result);
  out.ok = true;
  return out;
}

/// Runs "paper-mix-setup" in a child process and returns the set-up ms it
/// prints, or a negative value when it fails.
double ChildSetupMs(const Args& args) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) return -1;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], 1);
  std::vector<std::string> argv_s = {args.self_binary, "--workload", "paper-mix-setup",
                                     "--seed", "0", "--seconds", "1"};
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, args.self_binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  std::string text;
  char chunk[256];
  ssize_t n = 0;
  while (rc == 0 && (n = ::read(out[0], chunk, sizeof(chunk))) > 0) {
    text.append(chunk, static_cast<size_t>(n));
  }
  ::close(out[0]);
  if (rc != 0) return -1;
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || text.empty()) return -1;
  return std::strtod(text.c_str(), nullptr);
}

}  // namespace

int RunPaperMixSetup() {
  auto registry = ned::UseCaseRegistry::Build(1);
  if (!registry.ok()) return 1;
  std::cout << MsSince(kProcessStart) << std::endl;
  return 0;
}

int RunPaperMix(const Args& args, Report* report) {
  auto registry = ned::UseCaseRegistry::Build(1);
  if (!registry.ok()) {
    report->Fail("UseCaseRegistry::Build: " + registry.status().ToString());
    return 1;
  }
  std::vector<double> setups = {MsSince(kProcessStart)};
  std::vector<double> setup_refs;
  for (int k = 1; k < kSetupStarts; ++k) {
    setup_refs.push_back(ReferenceMs());
    setups.push_back(ChildSetupMs(args));
    if (setups.back() < 0) {
      report->Fail("paper-mix-setup child failed");
      return 1;
    }
  }
  const double setup_ms = Min(setups);
  const double setup_ref_ms = Min(setup_refs);

  std::vector<Question> questions = ListQuestions(*registry, report);
  if (questions.empty()) return 1;
  const size_t n = questions.size();

  std::mt19937_64 rng(args.seed);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;

  // Per question: fastest repeat untraced / traced, allocations per answer.
  std::vector<std::vector<double>> plain_ms(n), traced_ms(n);
  std::vector<std::vector<double>> allocs(n);
  std::vector<std::optional<ned::AnswerSummary>> first(n);
  std::vector<double> refs;
  bool injected = false;

  const Clock::time_point start = Clock::now();
  for (int pass = 0;; ++pass) {
    // In the traced run, passes alternate with and without a span trace,
    // so obs.trace_overhead compares like with like.
    const bool traced = args.trace && pass % 2 == 1;
    std::shuffle(order.begin(), order.end(), rng);
    for (size_t i : order) {
      const Question& q = questions[i];
      ned::obs::Trace trace;
      ++report->attempted;
      const uint64_t allocs0 = ReadAllocCounters().allocs;
      const Clock::time_point t0 = Clock::now();
      Answered a = AnswerOnce(q, traced ? &trace : nullptr);
      const double ms = MsSince(t0);
      const uint64_t allocs1 = ReadAllocCounters().allocs;
      if (!a.ok) {
        report->OperationFailed(q.use_case->name + ": " + a.error);
        continue;
      }
      (traced ? traced_ms : plain_ms)[i].push_back(ms);
      if (!traced) allocs[i].push_back(static_cast<double>(allocs1 - allocs0));
      if (!injected) injected = InjectAnswerFault(args.inject, &a.summary);
      if (!first[i]) {
        first[i] = a.summary;
      } else if (!SameAnswer(*first[i], a.summary)) {
        report->Fail(q.use_case->name + ": repeat differs from the first answer");
      }
    }
    refs.push_back(ReferenceMs());
    if (MsSince(start) >= args.seconds * 1000 && (!args.trace || pass % 2 == 1)) {
      break;
    }
  }
  const double rss_mb = PeakRssMb(0);
  AddOracleAnswers(&questions, report);

  for (size_t i = 0; i < n; ++i) {
    if (!first[i]) continue;
    const std::string bad = CheckAnswer(*first[i], questions[i]);
    if (!bad.empty()) report->Fail(bad);
  }

  // Each question is 1/19 of the stream; its time is its fastest repeat.
  const double ref_ms = Min(refs);
  auto corrected = [&](const std::vector<std::vector<double>>& ms) {
    std::vector<double> best;
    for (const auto& v : ms) best.push_back(Min(v));
    return Mean(best) * kReferenceNominalMs / ref_ms;
  };
  std::vector<double> allocs_per_question;
  for (const auto& v : allocs) allocs_per_question.push_back(Median(v));

  PrintRawTimings(questions, plain_ms);
  std::cerr << "nedbench: raw setup_ms=" << setup_ms << " (in start order:";
  for (double ms : setups) std::cerr << " " << ms;
  std::cerr << ") setup_ref_ms=" << setup_ref_ms << " ref_ms=" << ref_ms
            << " passes=" << refs.size() << " answer_ms_raw="
            << corrected(plain_ms) * ref_ms / kReferenceNominalMs << "\n";
  if (!args.trace) {
    report->Add("setup_s", setup_ms / 1000 * kReferenceNominalMs / setup_ref_ms, "s");
    report->Add("answer_ms", corrected(plain_ms), "ms");
    report->Add("heap_allocs_per_answer", Mean(allocs_per_question), "count");
    report->Add("peak_rss_mb", rss_mb, "MB");
    return 0;
  }
  report->Add("obs.trace_overhead", corrected(traced_ms) / corrected(plain_ms), "ratio");
  LayerProbe probe(*registry, questions, args, report);
  probe.Engine();
  probe.Service();
  probe.Codec(/*samples=*/nullptr);
  probe.Baseline();
  probe.Catalog();
  probe.AddHostReferences(ref_ms, PingPongMs());
  // paper-mix runs neither cache: the prediction for their ratios is 0.
  probe.Set("cache.subtree_hit_ratio", 0, "ratio");
  probe.Set("cache.answer_hit_ratio", 0, "ratio");
  probe.Finish();
  return 0;
}

}  // namespace nedbench
