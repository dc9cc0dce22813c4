// Per-layer metrics of the traced run (--trace 1).
//
// The probe times calls into the program's public functions from the
// benchmark's own files and reads only what the program already exposes:
// NedExplainResult::phases, the ExecContext counters, the span trace of an
// in-process Submit with collect_trace, the response's queue_ms/exec_ms
// and /metrics. Every workload reports every per-layer metric: layers the
// workload's own stream does not pass through are measured by the probe
// on the same 19 questions, so the prediction for them is "no change".

#ifndef NEDBENCH_LAYERS_H_
#define NEDBENCH_LAYERS_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "net/wire.h"
#include "relational/catalog.h"
#include "service/request.h"

namespace nedbench {

/// Request/response pairs seen on the wire, for the codec timings.
struct WireLayerSamples {
  void Add(const ned::WhyNotRequest& request, const std::string& request_body,
           const std::string& response_body, const ned::net::WireResponse& response,
           double client_ms);
  double SubtreeHitRatio() const;

  std::vector<ned::WhyNotRequest> requests;
  std::vector<std::string> request_bodies, response_bodies;
  std::vector<ned::net::WireResponse> responses;
  std::vector<double> client_ms;
  uint64_t subtree_hits = 0, subtree_misses = 0;
};

class LayerProbe {
 public:
  LayerProbe(const ned::UseCaseRegistry& registry,
             const std::vector<Question>& questions, const Args& args,
             Report* report)
      : registry_(registry), questions_(questions), args_(args), report_(report) {}

  /// sql, canonical, core, whynot and exec layers, and the engine-level
  /// e2e.unaccounted_share.
  void Engine();
  /// service spans, the answer cache and the durability layer, from an
  /// in-process WhyNotService with persistence and collect_trace.
  void Service();
  /// net codec and HTTP parse timings and body sizes on `samples`. With
  /// nullptr, the samples come from a loopback pass against an in-process
  /// HttpServer (which also gives net.overhead_ms); otherwise the samples
  /// also replace e2e.unaccounted_share with its wire-level form.
  void Codec(const WireLayerSamples* samples);
  /// The unmodified baseline algorithm (Fig. 6's reference).
  void Baseline();
  /// relational.catalog_build_ms: the three databases, registered.
  void Catalog();
  /// The run's host-speed references (bench.h), raw.
  void AddHostReferences(double ref_ms, double ping_ms) {
    Set("host.reference_ms", ref_ms, "ms");
    Set("host.pingpong_ms", ping_ms, "ms");
  }

  /// Sets (or replaces) one metric.
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  /// Adds every metric to the report.
  void Finish();

 private:
  /// The three databases registered in a fresh catalog, as ned_serve
  /// serves them; nullptr (after a failed check) if one does not register.
  std::shared_ptr<ned::Catalog> ServingCatalog();

  const ned::UseCaseRegistry& registry_;
  const std::vector<Question>& questions_;
  const Args& args_;
  Report* report_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

}  // namespace nedbench

#endif  // NEDBENCH_LAYERS_H_
