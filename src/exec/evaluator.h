/// \file evaluator.h
/// \brief Lineage-tracking, node-at-a-time query evaluation.
///
/// QueryInput materialises the query input instance I_Q (Def. 2.3): one tuple
/// list per *alias*, with stable base TupleIds. A stored relation backing two
/// aliases (self-join) yields two disjoint id ranges -- the formal device that
/// lets NedExplain place compatible tuples in the correct relation instance.
///
/// Evaluator computes each node's output on demand (memoized), which lets
/// NedExplain drive evaluation bottom-up and stop early (Alg. 2) without ever
/// touching operators above the termination point. With a SubtreeCache
/// attached, memoization extends across evaluator instances: outputs are
/// keyed by subtree fingerprint + node ordinals + scanned-relation data
/// versions, and rids are deterministic per (node ordinal, row), so a hit is
/// bit-identical -- values, rids, preds, lineage -- to recomputation (the
/// property the differential cache sweep asserts; see docs/CACHING.md).

#ifndef NED_EXEC_EVALUATOR_H_
#define NED_EXEC_EVALUATOR_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/query_tree.h"
#include "exec/exec_context.h"
#include "exec/lineage.h"

namespace ned {

class SubtreeCache;

/// The materialised query input instance I_Q.
class QueryInput {
 public:
  /// Instantiates every scan alias of `tree` from `db`. When `ctx` is given,
  /// materialisation charges its budgets and honours its deadline/cancel.
  static Result<QueryInput> Build(const QueryTree& tree, const Database& db,
                                  ExecContext* ctx = nullptr);

  /// Tuples of one alias; ids are stable across evaluations.
  Result<const std::vector<TraceTuple>*> AliasTuples(
      const std::string& alias) const;
  Result<const Schema*> AliasSchema(const std::string& alias) const;

  /// Aliases in scan (bottom-up) order.
  const std::vector<std::string>& aliases() const { return alias_order_; }

  /// Data-version stamp of the relation backing alias ordinal `ordinal`
  /// (Relation::data_version at Build time). Cache keys pin these so a
  /// reloaded relation can never satisfy a lookup made against new data.
  uint64_t AliasDataVersion(size_t ordinal) const {
    return by_alias_.at(alias_order_.at(ordinal)).data_version;
  }

  /// The base tuple with id `id`, or nullptr.
  const TraceTuple* FindById(TupleId id) const;
  /// Alias that `id` belongs to ("" when unknown).
  std::string AliasOfId(TupleId id) const;

  /// Short human identifier, e.g. "C2.id:396" (uses the alias's first
  /// attribute, which our datasets make the key, per paper footnote 2).
  std::string DisplayTuple(TupleId id) const;

  size_t TotalTuples() const;

 private:
  struct AliasData {
    Schema schema;
    std::vector<TraceTuple> tuples;
    uint32_t ordinal = 0;
    uint64_t data_version = 0;
  };
  std::map<std::string, AliasData> by_alias_;
  std::vector<std::string> alias_order_;  // index = alias ordinal
};

/// Memoizing bottom-up evaluator over one (tree, input) pair. An optional
/// ExecContext makes every operator interruptible: limits are checked at
/// operator boundaries and every kCheckInterval rows inside the
/// join/aggregate inner loops, and a tripped limit surfaces as a
/// kDeadlineExceeded / kResourceExhausted / kCancelled status.
///
/// An optional SubtreeCache shares materialized non-leaf outputs across
/// evaluator instances (and threads; the cache carries its own lock).
/// Cache hits replay the exact row/byte charges recomputation would have
/// made -- tick-safe, so a governed evaluation can still trip mid-hit --
/// keeping budget accounting independent of cache luck.
class Evaluator {
 public:
  Evaluator(const QueryTree* tree, const QueryInput* input,
            ExecContext* ctx = nullptr, SubtreeCache* cache = nullptr)
      : tree_(tree), input_(input), ctx_(ctx), cache_(cache) {
    for (size_t i = 0; i < tree_->bottom_up().size(); ++i) {
      node_ordinal_.emplace(tree_->bottom_up()[i], i);
    }
  }

  /// Output of `node`, evaluating (and caching) descendants as needed.
  Result<const std::vector<TraceTuple>*> EvalNode(const OperatorNode* node);

  /// Evaluates the whole tree; returns the root output.
  Result<const std::vector<TraceTuple>*> EvalAll() {
    return EvalNode(tree_->root());
  }

  /// Cached output of `node`, or nullptr if not yet evaluated.
  const std::vector<TraceTuple>* TryGetOutput(const OperatorNode* node) const;

  /// Children outputs of `node` (its manipulation's input instance),
  /// evaluating them if necessary.
  Result<std::vector<const std::vector<TraceTuple>*>> InputsOf(
      const OperatorNode* node);

  /// Total intermediate tuples materialised so far (perf counters). Tuples
  /// served from the subtree cache count too: they are materialized state of
  /// this evaluation regardless of who computed them.
  size_t tuples_produced() const { return tuples_produced_; }

  /// Subtree-cache traffic of this evaluator (0/0 when no cache attached).
  size_t cache_hits() const { return cache_hits_; }
  size_t cache_misses() const { return cache_misses_; }

  const QueryTree& tree() const { return *tree_; }
  const QueryInput& input() const { return *input_; }
  /// The governing context (nullptr when evaluation is unlimited).
  ExecContext* exec_context() const { return ctx_; }

 private:
  using Rows = std::shared_ptr<const std::vector<TraceTuple>>;

  /// One Compute invocation's evaluation scope: the governing context and
  /// the rid counter of the node being computed.
  struct EvalScope {
    ExecContext* ctx = nullptr;
    Rid next_rid = 0;
    Rid NextRid() { return next_rid++; }
  };

  Result<std::vector<TraceTuple>> Compute(const OperatorNode* node,
                                          EvalScope& scope);
  Result<std::vector<TraceTuple>> ComputeSelect(const OperatorNode* node,
                                                EvalScope& scope);
  Result<std::vector<TraceTuple>> ComputeProject(const OperatorNode* node,
                                                 EvalScope& scope);
  Result<std::vector<TraceTuple>> ComputeJoin(const OperatorNode* node,
                                              EvalScope& scope);
  Result<std::vector<TraceTuple>> ComputeUnion(const OperatorNode* node,
                                               EvalScope& scope);
  Result<std::vector<TraceTuple>> ComputeDifference(const OperatorNode* node,
                                                    EvalScope& scope);
  Result<std::vector<TraceTuple>> ComputeAggregate(const OperatorNode* node,
                                                   EvalScope& scope);

  /// Replays a subtree-cache hit for `node` into outputs_ (charges + ticks
  /// as recomputation would make). Returns false on miss. Caller must have
  /// established cacheability.
  Result<bool> TryReplayCacheHit(const OperatorNode* node);

  /// First rid of `node`'s output: top bit | (node ordinal + 1) << 40. Every
  /// node owns a disjoint rid range and row i of its output always gets base
  /// + i, which is what makes cached outputs replayable verbatim.
  Rid RidBaseFor(const OperatorNode* node) const {
    return kIntermediateRidBase |
           ((static_cast<Rid>(node_ordinal_.at(node)) + 1) << 40);
  }

  /// Cache key of the subtree rooted at `node`: structural fingerprint +
  /// node ordinals + (for scans) alias ordinal and relation data version.
  /// Memoized per node; see docs/CACHING.md for the collision argument.
  const std::string& CacheKeyFor(const OperatorNode* node);

  /// Charges `t` against `ctx`'s budgets (no-op without a context).
  static void ChargeTuple(ExecContext* ctx, const TraceTuple& t) {
    if (ctx == nullptr) return;
    ctx->ChargeRows(1);
    ctx->ChargeBytes(sizeof(TraceTuple) + t.values.size() * sizeof(Value) +
                     t.lineage.size() * sizeof(TupleId) +
                     t.preds.size() * sizeof(Rid));
  }

  const QueryTree* tree_;
  const QueryInput* input_;
  ExecContext* ctx_ = nullptr;
  SubtreeCache* cache_ = nullptr;
  std::unordered_map<const OperatorNode*, Rows> outputs_;
  std::unordered_map<const OperatorNode*, size_t> node_ordinal_;
  std::unordered_map<const OperatorNode*, std::string> cache_keys_;
  size_t tuples_produced_ = 0;
  size_t cache_hits_ = 0;
  size_t cache_misses_ = 0;
};

/// Computes the aggregate output tuples for `node` over an arbitrary input
/// tuple list (used both by the evaluator and by NedExplain's cond-alpha
/// checks, which aggregate a subquery's *input*). `input_schema` types the
/// given tuples.
Result<std::vector<Tuple>> ComputeAggregateTuples(
    const std::vector<Attribute>& group_by, const std::vector<AggCall>& calls,
    const std::vector<const TraceTuple*>& input, const Schema& input_schema,
    const Schema& output_schema, ExecContext* ctx = nullptr);

}  // namespace ned

#endif  // NED_EXEC_EVALUATOR_H_
