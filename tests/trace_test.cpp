/// \file trace_test.cpp
/// \brief Trace semantics (ManualClock-exact durations, LIFO auto-close,
/// PhaseNanos) and the engine's Fig. 5 phase spans.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/timer.h"
#include "core/nedexplain.h"
#include "datasets/use_cases.h"
#include "exec/exec_context.h"
#include "obs/trace.h"

namespace ned {
namespace {

using obs::PhasedSpanScope;
using obs::Span;
using obs::SpanScope;
using obs::Trace;

// ---- core semantics under ManualClock -------------------------------------

TEST(Trace, ManualClockDurationsAreExact) {
  ManualClock clock;
  Trace trace(&clock);
  const int32_t root = trace.OpenSpan("root");
  clock.AdvanceMs(2);
  const int32_t child = trace.OpenSpan("child");
  clock.AdvanceMs(5);
  trace.CloseSpan(child);
  clock.AdvanceMs(1);
  trace.CloseSpan(root);

  ASSERT_EQ(trace.spans().size(), 2u);
  const Span& r = trace.spans()[0];
  const Span& c = trace.spans()[1];
  EXPECT_EQ(r.name, "root");
  EXPECT_EQ(r.parent, -1);
  EXPECT_EQ(r.start_ns, 0);
  EXPECT_EQ(r.end_ns, 8'000'000);
  EXPECT_EQ(c.name, "child");
  EXPECT_EQ(c.parent, root);
  EXPECT_EQ(c.start_ns, 2'000'000);
  EXPECT_EQ(c.end_ns, 7'000'000);
}

TEST(Trace, CloseSpanAutoClosesForgottenDescendants) {
  // Error paths may return out of a nested region without closing inner
  // spans; closing an ancestor must clean them up at the same instant.
  ManualClock clock;
  Trace trace(&clock);
  const int32_t outer = trace.OpenSpan("outer");
  trace.OpenSpan("inner");
  trace.OpenSpan("innermost");
  clock.AdvanceMs(3);
  trace.CloseSpan(outer);
  for (const Span& span : trace.spans()) {
    EXPECT_EQ(span.end_ns, 3'000'000) << span.name;
  }
}

TEST(Trace, RenderStructureShowsNamesAndNesting) {
  Trace trace;
  const int32_t a = trace.OpenSpan("a");
  const int32_t b = trace.OpenSpan("b");
  trace.CloseSpan(b);
  trace.CloseSpan(a);
  const int32_t c = trace.OpenSpan("c");
  trace.CloseSpan(c);
  EXPECT_EQ(trace.RenderStructure(), "a\n  b\nc\n");
}

TEST(Trace, RenderIncludesDurations) {
  ManualClock clock;
  Trace trace(&clock);
  const int32_t a = trace.OpenSpan("a");
  clock.AdvanceMs(2);
  trace.CloseSpan(a);
  trace.OpenSpan("open_one");
  const std::string rendered = trace.Render();
  EXPECT_NE(rendered.find("a 2000us"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("open_one (open)"), std::string::npos) << rendered;
}

TEST(Trace, PhaseNanosSkipsSameNamedNesting) {
  ManualClock clock;
  Trace trace(&clock);
  const int32_t outer = trace.OpenSpan("phase");
  clock.AdvanceMs(1);
  const int32_t inner = trace.OpenSpan("phase");  // recursive: not re-counted
  clock.AdvanceMs(2);
  trace.CloseSpan(inner);
  clock.AdvanceMs(1);
  trace.CloseSpan(outer);
  EXPECT_EQ(trace.PhaseNanos("phase"), 4'000'000);
  EXPECT_EQ(trace.PhaseNanos("absent"), 0);
}

TEST(Trace, SpanScopeOnNullTraceIsANoOp) {
  SpanScope scope(nullptr, "never");
  PhaseTimer timer;
  { PhasedSpanScope phased(&timer, "p", nullptr); }
  EXPECT_GE(timer.Nanos("p"), 0);
}

TEST(Trace, PhasedSpanScopeChargesTimerAndSpanIdentically) {
  // One pair of clock readings feeds both sinks: the trace-derived phase
  // number must equal the PhaseTimer charge exactly, which is what lets
  // bench_fig5 reproduce its breakdown from spans.
  ManualClock clock;
  Trace trace(&clock);
  PhaseTimer timer;
  {
    PhasedSpanScope scope(&timer, "Initialization", &trace);
    clock.AdvanceMs(7);
  }
  EXPECT_EQ(timer.Nanos("Initialization"), 7'000'000);
  EXPECT_EQ(trace.PhaseNanos("Initialization"), 7'000'000);
}

// ---- engine span emission -------------------------------------------------

const UseCaseRegistry& Registry() {
  static const UseCaseRegistry* registry = [] {
    auto r = UseCaseRegistry::Build();
    NED_CHECK(r.ok());
    return new UseCaseRegistry(std::move(r).value());
  }();
  return *registry;
}

std::string TraceStructureFor(const UseCase& uc, ExecContext* ctx) {
  auto tree = Registry().BuildTree(uc);
  NED_CHECK_MSG(tree.ok(), tree.status().ToString());
  const Database& db = Registry().database(uc.db_name);
  auto engine = NedExplainEngine::Create(&*tree, &db);
  NED_CHECK(engine.ok());
  Trace trace;
  ctx->set_trace(&trace);
  auto result = engine->Explain(uc.question, ctx);
  NED_CHECK_MSG(result.ok(), result.status().ToString());
  ctx->set_trace(nullptr);
  return trace.RenderStructure();
}

TEST(EngineTrace, EmitsTheFigFivePhases) {
  const UseCase& uc = Registry().use_cases()[0];
  ExecContext ctx;
  const std::string structure = TraceStructureFor(uc, &ctx);
  EXPECT_NE(structure.find("Initialization"), std::string::npos) << structure;
  EXPECT_NE(structure.find("ctuple_0"), std::string::npos) << structure;
  EXPECT_NE(structure.find("CompatibleFinder"), std::string::npos)
      << structure;
  EXPECT_NE(structure.find("tabq_level_"), std::string::npos) << structure;
  EXPECT_NE(structure.find("answer_construction"), std::string::npos)
      << structure;
}

TEST(EngineTrace, NoTraceAttachedEmitsNothing) {
  const UseCase& uc = Registry().use_cases()[0];
  auto tree = Registry().BuildTree(uc);
  ASSERT_TRUE(tree.ok());
  const Database& db = Registry().database(uc.db_name);
  auto engine = NedExplainEngine::Create(&*tree, &db);
  ASSERT_TRUE(engine.ok());
  ExecContext ctx;  // no trace
  auto result = engine->Explain(uc.question, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ctx.trace(), nullptr);
}

}  // namespace
}  // namespace ned
