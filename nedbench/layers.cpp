#include "layers.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>

#include "alloc_hook.h"
#include "baseline/whynot_baseline.h"
#include "canonical/canonicalizer.h"
#include "common/strings.h"
#include "core/nedexplain.h"
#include "exec/exec_context.h"
#include "net/http.h"
#include "net/server.h"
#include "obs/trace.h"
#include "relational/catalog.h"
#include "service/service.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "wire.h"

namespace nedbench {

namespace {

constexpr int kProbeReps = 5;
constexpr size_t kMaxSamples = 19 * 8;

double Us(Clock::time_point t0) { return MsSince(t0) * 1000; }

/// Per question medians, then the mean over the 19 (each 1/19 of a stream).
class PerQuestion {
 public:
  explicit PerQuestion(size_t n) : values_(n) {}
  void Add(size_t q, const std::string& name, double v) { values_[q][name].push_back(v); }
  double Mean(const std::string& name) const {
    std::vector<double> medians;
    for (const auto& per : values_) {
      auto it = per.find(name);
      if (it != per.end()) medians.push_back(Median(it->second));
    }
    return nedbench::Mean(medians);
  }

 private:
  std::vector<std::map<std::string, std::vector<double>>> values_;
};

/// Durations (us) of the spans named `name` in `trace`, summed, and how
/// many there were.
std::pair<double, int> SpanUs(const ned::obs::Trace& trace, const std::string& name) {
  double total = 0;
  int count = 0;
  for (const ned::obs::Span& span : trace.spans()) {
    if (span.name != name || span.end_ns < 0) continue;
    total += static_cast<double>(span.end_ns - span.start_ns) / 1000;
    ++count;
  }
  return {total, count};
}

}  // namespace

void WireLayerSamples::Add(const ned::WhyNotRequest& request,
                           const std::string& request_body,
                           const std::string& response_body,
                           const ned::net::WireResponse& response, double ms) {
  subtree_hits += response.answer.subtree_cache_hits;
  subtree_misses += response.answer.subtree_cache_misses;
  if (requests.size() >= kMaxSamples) return;
  requests.push_back(request);
  request_bodies.push_back(request_body);
  response_bodies.push_back(response_body);
  responses.push_back(response);
  client_ms.push_back(ms);
}

double WireLayerSamples::SubtreeHitRatio() const {
  const uint64_t total = subtree_hits + subtree_misses;
  return total == 0 ? 0 : static_cast<double>(subtree_hits) / static_cast<double>(total);
}

std::shared_ptr<ned::Catalog> LayerProbe::ServingCatalog() {
  auto catalog = std::make_shared<ned::Catalog>();
  for (const char* name : {"crime", "imdb", "gov"}) {
    if (!catalog->Register(name, registry_.database(name)).ok()) {
      report_->Fail("catalog register failed");
      return nullptr;
    }
  }
  return catalog;
}

void LayerProbe::Engine() {
  PerQuestion pq(questions_.size());
  double worst_peak_over_charged = 0;
  for (size_t i = 0; i < questions_.size(); ++i) {
    const Question& q = questions_[i];
    double peak_over_charged = 0;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      const Clock::time_point outer = Clock::now();
      Clock::time_point t0 = Clock::now();
      auto ast = ned::ParseSql(q.use_case->sql);
      const double parse = Us(t0);
      if (!ast.ok()) return report_->Fail(q.use_case->name + ": " + ast.status().ToString());
      t0 = Clock::now();
      auto spec = ned::BindSql(*ast, *q.db);
      const double bind = Us(t0);
      if (!spec.ok()) return report_->Fail(q.use_case->name + ": " + spec.status().ToString());
      t0 = Clock::now();
      auto tree = ned::Canonicalize(*spec, *q.db);
      const double canonicalize = Us(t0);
      if (!tree.ok()) return report_->Fail(q.use_case->name + ": " + tree.status().ToString());
      t0 = Clock::now();
      auto engine = ned::NedExplainEngine::Create(&*tree, q.db);
      const double create = Us(t0);
      if (!engine.ok()) return report_->Fail(q.use_case->name + ": " + engine.status().ToString());
      ned::ExecContext ctx;
      RearmAllocPeak();
      const int64_t live0 = ReadAllocCounters().live;
      t0 = Clock::now();
      auto result = engine->Explain(q.use_case->question, &ctx);
      const double explain = Us(t0);
      const double heap_peak = static_cast<double>(ReadAllocCounters().peak - live0);
      if (!result.ok()) return report_->Fail(q.use_case->name + ": " + result.status().ToString());
      t0 = Clock::now();
      ned::AnswerSummary summary = ned::SummarizeResult(*engine, *result);
      const double summarize = Us(t0);
      const double total = Us(outer);

      const ned::PhaseTimer& ph = result->phases;
      const double init = ph.Nanos(ned::phase::kInitialization) / 1000.0;
      pq.Add(i, "sql.parse_us", parse);
      pq.Add(i, "sql.bind_us", bind);
      pq.Add(i, "canonical.canonicalize_us", canonicalize);
      pq.Add(i, "core.engine_create_us", create);
      pq.Add(i, "core.explain_us", explain);
      pq.Add(i, "core.init_us", init);
      pq.Add(i, "core.compatible_finder_us", ph.Nanos(ned::phase::kCompatibleFinder) / 1000.0);
      pq.Add(i, "core.bottom_up_us", ph.Nanos(ned::phase::kBottomUp) / 1000.0);
      pq.Add(i, "core.successors_finder_us", ph.Nanos(ned::phase::kSuccessorsFinder) / 1000.0);
      pq.Add(i, "core.summarize_us", summarize);
      pq.Add(i, "covered_us", parse + bind + canonicalize + create +
                                  ph.TotalNanos() / 1000.0 + summarize);
      pq.Add(i, "outer_us", total);
      pq.Add(i, "whynot.dir_per_answer", static_cast<double>(summary.dir_total));
      pq.Add(i, "whynot.indir_per_answer", static_cast<double>(summary.indir_total));
      pq.Add(i, "exec.input_tuples_per_answer",
             static_cast<double>(engine->last_input().TotalTuples()));
      pq.Add(i, "exec.rows_charged_per_answer", static_cast<double>(ctx.rows_charged()));
      pq.Add(i, "exec.bytes_charged_per_answer", static_cast<double>(ctx.bytes_charged()));
      pq.Add(i, "exec.heap_peak_bytes_per_answer", heap_peak);
      if (ctx.bytes_charged() > 0) {
        peak_over_charged = heap_peak / static_cast<double>(ctx.bytes_charged());
      }
    }
    worst_peak_over_charged = std::max(worst_peak_over_charged, peak_over_charged);
  }
  for (const char* name :
       {"sql.parse_us", "sql.bind_us", "canonical.canonicalize_us",
        "core.engine_create_us", "core.init_us", "core.compatible_finder_us",
        "core.bottom_up_us", "core.successors_finder_us", "core.summarize_us"}) {
    Set(name, pq.Mean(name), "us");
  }
  for (const char* name :
       {"whynot.dir_per_answer", "whynot.indir_per_answer",
        "exec.input_tuples_per_answer", "exec.rows_charged_per_answer"}) {
    Set(name, pq.Mean(name), "count");
  }
  Set("exec.bytes_charged_per_answer", pq.Mean("exec.bytes_charged_per_answer"), "B");
  Set("exec.heap_peak_bytes_per_answer", pq.Mean("exec.heap_peak_bytes_per_answer"), "B");
  // The worst case over the 19: a budget is honest only if it holds for all.
  Set("exec.heap_peak_over_charged", worst_peak_over_charged, "ratio");
  Set("core.init_share", pq.Mean("core.init_us") / pq.Mean("core.explain_us"), "ratio");
  Set("e2e.unaccounted_share", 1 - pq.Mean("covered_us") / pq.Mean("outer_us"), "ratio");
}

void LayerProbe::Service() {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(args_.scratch_dir) / ("probe-" + std::to_string(::getpid()));
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  {
    auto catalog = ServingCatalog();
    if (catalog == nullptr) return;
    ned::ServiceOptions options;
    options.persist_dir = dir.string();
    ned::WhyNotService service(catalog, options);

    PerQuestion pq(questions_.size());
    for (size_t i = 0; i < questions_.size(); ++i) {
      const Question& q = questions_[i];
      for (int rep = 0; rep < kProbeReps; ++rep) {
        ned::WhyNotRequest request;
        request.db_name = q.use_case->db_name;
        request.sql = q.use_case->sql;
        request.question = q.use_case->question;
        request.row_budget = 1'000'000'000 + static_cast<size_t>(rep);
        request.collect_trace = true;
        // First seen (executes, journaled, stored), then a repeat (a hit).
        for (int kind = 0; kind < 2; ++kind) {
          request.key = ned::StrCat("probe-", i, "-", rep, "-", kind);
          const Clock::time_point t0 = Clock::now();
          ned::WhyNotService::Submission submission = service.Submit(request);
          if (!submission.status.ok()) {
            return report_->Fail(q.use_case->name + ": probe submit: " +
                                 submission.status.ToString());
          }
          const ned::WhyNotResponse response = submission.response.get();
          const double ms = MsSince(t0);
          if (!response.status.ok() || response.served_from_answer_cache != (kind == 1)) {
            return report_->Fail(q.use_case->name + ": probe response not as expected");
          }
          const std::string bad = CheckAnswer(response.answer, q);
          if (!bad.empty()) return report_->Fail("service probe: " + bad);
          const ned::obs::Trace* trace =
              response.trace != nullptr ? response.trace.get() : submission.trace.get();
          if (trace == nullptr) return report_->Fail("probe response carries no trace");
          const auto lookup = SpanUs(*trace, "answer_cache_lookup");
          if (lookup.second > 0) pq.Add(i, "cache.answer_lookup_us", lookup.first / lookup.second);
          if (kind == 1) {
            pq.Add(i, "cache.hit_answer_ms", ms);
            continue;
          }
          pq.Add(i, "cache.miss_answer_ms", ms);
          pq.Add(i, "service.queue_ms", response.queue_ms);
          pq.Add(i, "service.exec_ms", response.exec_ms);
          for (const char* span : {"admission", "compile", "engine", "render", "finalize"}) {
            pq.Add(i, ned::StrCat("service.", span, "_us"), SpanUs(*trace, span).first);
          }
          const auto append = SpanUs(*trace, "journal_append");
          if (append.second > 0) pq.Add(i, "persist.journal_append_us", append.first / append.second);
          pq.Add(i, "persist.store_put_us", SpanUs(*trace, "store_put").first);
          pq.Add(i, "persist.store_lookup_us", SpanUs(*trace, "store_lookup").first);
        }
      }
    }
    for (const char* name :
         {"service.admission_us", "service.compile_us", "service.engine_us",
          "service.render_us", "service.finalize_us", "cache.answer_lookup_us",
          "persist.journal_append_us", "persist.store_put_us",
          "persist.store_lookup_us"}) {
      Set(name, pq.Mean(name), "us");
    }
    for (const char* name : {"service.queue_ms", "service.exec_ms",
                             "cache.hit_answer_ms", "cache.miss_answer_ms"}) {
      Set(name, pq.Mean(name), "ms");
    }
    service.Shutdown(/*drain=*/true);
    const ned::JournalStats journal = service.journal_stats();
    const double answers = static_cast<double>(questions_.size() * kProbeReps * 2);
    Set("persist.journal_bytes_per_answer",
        static_cast<double>(journal.bytes_written) / answers, "B");
  }
  Set("persist.store_bytes_per_answer",
      static_cast<double>(DirBytes((dir / "store").string())) /
          static_cast<double>(questions_.size() * kProbeReps * 2),
      "B");
  fs::remove_all(dir, ec);
}

void LayerProbe::Codec(const WireLayerSamples* samples) {
  WireLayerSamples loopback;
  if (samples == nullptr) {
    // paper-mix has no wire: one in-process HttpServer over an in-process
    // service (answer cache bypassed), driven over loopback.
    auto catalog = ServingCatalog();
    if (catalog == nullptr) return;
    ned::WhyNotService service(catalog, ned::ServiceOptions{});
    ned::net::HttpServer server(&service, ned::net::ServerOptions{});
    HttpClient client;
    if (!server.Start().ok() || !client.Connect(server.port())) {
      return report_->Fail("loopback server did not start");
    }
    PerQuestion pq(questions_.size());
    for (int rep = 0; rep < kProbeReps; ++rep) {
      for (size_t i = 0; i < questions_.size(); ++i) {
        const Question& q = questions_[i];
        ned::WhyNotRequest request;
        request.key = ned::StrCat("loopback-", rep, "-", i);
        request.db_name = q.use_case->db_name;
        request.sql = q.use_case->sql;
        request.question = q.use_case->question;
        request.bypass_answer_cache = true;
        const std::string body = ned::net::RenderWhyNotRequestJson(request);
        ned::net::HttpResponse http;
        const Clock::time_point t0 = Clock::now();
        if (!client.RoundTrip(HttpPost(body), &http)) {
          return report_->Fail("loopback round trip failed");
        }
        const double ms = MsSince(t0);
        auto response = ned::net::ParseWhyNotResponseJson(http.body);
        if (!response.ok() || response->key != request.key) {
          return report_->Fail(q.use_case->name + ": loopback response not as expected");
        }
        if (rep > 0) pq.Add(i, "net.overhead_ms", ms - response->queue_ms - response->exec_ms);
        loopback.Add(request, body, http.body, *response, ms);
      }
    }
    Set("net.overhead_ms", pq.Mean("net.overhead_ms"), "ms");
    client.Close();
    server.BeginDrain();
    service.Shutdown(/*drain=*/true);
    server.Stop();
  }
  const WireLayerSamples& s = samples != nullptr ? *samples : loopback;
  std::vector<double> req_enc, req_dec, resp_enc, resp_dec, parse, req_bytes,
      resp_bytes, covered, outer;
  for (size_t k = 0; k < s.requests.size(); ++k) {
    double times[5] = {1e300, 1e300, 1e300, 1e300, 1e300};
    ned::WhyNotResponse rendered;
    rendered.key = s.responses[k].key;
    rendered.answer = s.responses[k].answer;
    rendered.snapshot_version = s.responses[k].snapshot_version;
    rendered.attempt = s.responses[k].attempt;
    rendered.queue_ms = s.responses[k].queue_ms;
    rendered.exec_ms = s.responses[k].exec_ms;
    rendered.served_from_answer_cache = s.responses[k].served_from_answer_cache;
    const std::string http_request = HttpPost(s.request_bodies[k]);
    for (int rep = 0; rep < 3; ++rep) {
      Clock::time_point t0 = Clock::now();
      std::string body = ned::net::RenderWhyNotRequestJson(s.requests[k]);
      times[0] = std::min(times[0], Us(t0));
      t0 = Clock::now();
      auto request = ned::net::ParseWhyNotRequestJson(body);
      times[1] = std::min(times[1], Us(t0));
      t0 = Clock::now();
      std::string response_body = ned::net::RenderWhyNotResponseJson(rendered, false);
      times[2] = std::min(times[2], Us(t0));
      t0 = Clock::now();
      auto response = ned::net::ParseWhyNotResponseJson(s.response_bodies[k]);
      times[3] = std::min(times[3], Us(t0));
      t0 = Clock::now();
      ned::net::HttpParser parser;
      parser.Feed(http_request);
      times[4] = std::min(times[4], Us(t0));
      if (!request.ok() || !response.ok() ||
          parser.state() != ned::net::HttpParser::State::kComplete) {
        return report_->Fail("codec probe: a recorded body does not parse");
      }
    }
    req_enc.push_back(times[0]);
    req_dec.push_back(times[1]);
    resp_enc.push_back(times[2]);
    resp_dec.push_back(times[3]);
    parse.push_back(times[4]);
    req_bytes.push_back(static_cast<double>(s.request_bodies[k].size()));
    resp_bytes.push_back(static_cast<double>(s.response_bodies[k].size()));
    outer.push_back(s.client_ms[k]);
    covered.push_back(s.responses[k].queue_ms + s.responses[k].exec_ms +
                      (times[0] + times[1] + times[2] + times[3] + times[4]) / 1000);
  }
  Set("net.request_encode_us", Mean(req_enc), "us");
  Set("net.request_decode_us", Mean(req_dec), "us");
  Set("net.response_encode_us", Mean(resp_enc), "us");
  Set("net.response_decode_us", Mean(resp_dec), "us");
  Set("net.http_parse_us", Mean(parse), "us");
  Set("net.request_bytes", Mean(req_bytes), "B");
  Set("net.response_bytes", Mean(resp_bytes), "B");
  if (samples != nullptr) {
    Set("e2e.unaccounted_share", 1 - Mean(covered) / Mean(outer), "ratio");
  }
}

void LayerProbe::Baseline() {
  std::vector<double> baseline_ms, ned_ms;
  for (const Question& q : questions_) {
    auto tree = ned::CompileSql(q.use_case->sql, *q.db);
    if (!tree.ok()) return report_->Fail(q.use_case->name + ": baseline compile");
    auto baseline = ned::WhyNotBaseline::Create(&*tree, q.db);
    auto engine = ned::NedExplainEngine::Create(&*tree, q.db);
    if (!baseline.ok() || !engine.ok()) return report_->Fail(q.use_case->name + ": baseline create");
    auto probe = baseline->Explain(q.use_case->question);
    if (!probe.ok() || !probe->supported) continue;  // outside the baseline's class
    std::vector<double> b, e;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      Clock::time_point t0 = Clock::now();
      auto r1 = baseline->Explain(q.use_case->question);
      b.push_back(MsSince(t0));
      t0 = Clock::now();
      auto r2 = engine->Explain(q.use_case->question);
      e.push_back(MsSince(t0));
      if (!r1.ok() || !r2.ok()) return report_->Fail(q.use_case->name + ": baseline run");
    }
    baseline_ms.push_back(Median(b));
    ned_ms.push_back(Median(e));
  }
  Set("baseline.explain_ms", Mean(baseline_ms), "ms");
  Set("baseline.speedup", Mean(baseline_ms) / Mean(ned_ms), "ratio");
}

void LayerProbe::Catalog() {
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    auto registry = ned::UseCaseRegistry::Build(1);
    ned::Catalog catalog;
    for (const char* name : {"crime", "imdb", "gov"}) {
      if (!registry.ok() || !catalog.Register(name, registry->database(name)).ok()) {
        return report_->Fail("catalog build failed");
      }
    }
    ms.push_back(MsSince(t0));
  }
  Set("relational.catalog_build_ms", Median(ms), "ms");
}

void LayerProbe::Finish() {
  for (const auto& [name, metric] : metrics_) {
    report_->Add(name, metric.first, metric.second);
  }
}

}  // namespace nedbench
