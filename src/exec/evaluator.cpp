#include "exec/evaluator.h"

#include <algorithm>
#include <cmath>

#include "algebra/fingerprint.h"
#include "cache/subtree_cache.h"
#include "common/strings.h"

namespace ned {

// ---------------------------------------------------------------------------
// QueryInput
// ---------------------------------------------------------------------------

Result<QueryInput> QueryInput::Build(const QueryTree& tree, const Database& db,
                                     ExecContext* ctx) {
  QueryInput input;
  uint32_t ordinal = 0;
  for (const OperatorNode* scan : tree.scans()) {
    NED_RETURN_NOT_OK(CheckExec(ctx));
    NED_ASSIGN_OR_RETURN(const Relation* rel, db.GetRelation(scan->base_table));
    AliasData data;
    data.schema = scan->output_schema;
    data.ordinal = ordinal;
    data.data_version = rel->data_version();
    data.tuples.reserve(rel->size());
    for (size_t row = 0; row < rel->size(); ++row) {
      NED_EXEC_TICK(ctx);
      TraceTuple t;
      t.rid = MakeTupleId(ordinal, row);
      t.values = rel->row(row);
      t.lineage = {t.rid};
      if (ctx != nullptr) {
        ctx->ChargeRows(1);
        ctx->ChargeBytes(sizeof(TraceTuple) + t.values.size() * sizeof(Value));
      }
      data.tuples.push_back(std::move(t));
    }
    input.alias_order_.push_back(scan->alias);
    input.by_alias_.emplace(scan->alias, std::move(data));
    ++ordinal;
  }
  return input;
}

Result<const std::vector<TraceTuple>*> QueryInput::AliasTuples(
    const std::string& alias) const {
  auto it = by_alias_.find(alias);
  if (it == by_alias_.end()) return Status::NotFound("no such alias: " + alias);
  return &it->second.tuples;
}

Result<const Schema*> QueryInput::AliasSchema(const std::string& alias) const {
  auto it = by_alias_.find(alias);
  if (it == by_alias_.end()) return Status::NotFound("no such alias: " + alias);
  return &it->second.schema;
}

const TraceTuple* QueryInput::FindById(TupleId id) const {
  uint32_t ordinal = TupleIdAlias(id);
  if (ordinal >= alias_order_.size()) return nullptr;
  const AliasData& data = by_alias_.at(alias_order_[ordinal]);
  uint64_t row = TupleIdRow(id);
  if (row >= data.tuples.size()) return nullptr;
  return &data.tuples[row];
}

std::string QueryInput::AliasOfId(TupleId id) const {
  uint32_t ordinal = TupleIdAlias(id);
  if (ordinal >= alias_order_.size()) return "";
  return alias_order_[ordinal];
}

std::string QueryInput::DisplayTuple(TupleId id) const {
  const TraceTuple* t = FindById(id);
  std::string alias = AliasOfId(id);
  if (t == nullptr || alias.empty()) return StrCat("?#", id);
  const Schema& schema = by_alias_.at(alias).schema;
  if (schema.size() > 0 && t->values.size() > 0) {
    return alias + "." + schema.at(0).name + ":" + t->values.at(0).ToString();
  }
  return alias + "#" + std::to_string(TupleIdRow(id));
}

size_t QueryInput::TotalTuples() const {
  size_t total = 0;
  for (const auto& [_, data] : by_alias_) total += data.tuples.size();
  return total;
}

std::string HowProvenance(const TraceTuple& tuple, const QueryInput& input) {
  std::vector<std::string> parts;
  parts.reserve(tuple.lineage.size());
  for (TupleId id : tuple.lineage) parts.push_back(input.DisplayTuple(id));
  return Join(parts, " * ");
}

// ---------------------------------------------------------------------------
// Aggregate computation (shared with NedExplain's cond-alpha checks)
// ---------------------------------------------------------------------------

Result<std::vector<Tuple>> ComputeAggregateTuples(
    const std::vector<Attribute>& group_by, const std::vector<AggCall>& calls,
    const std::vector<const TraceTuple*>& input, const Schema& input_schema,
    const Schema& output_schema, ExecContext* ctx) {
  (void)output_schema;  // layout is group values then agg values, by contract

  std::vector<size_t> group_idx;
  for (const auto& g : group_by) {
    NED_ASSIGN_OR_RETURN(size_t idx, input_schema.Resolve(g));
    group_idx.push_back(idx);
  }
  std::vector<size_t> arg_idx;
  for (const auto& call : calls) {
    NED_ASSIGN_OR_RETURN(size_t idx, input_schema.Resolve(call.arg));
    arg_idx.push_back(idx);
  }

  // Group input tuples, preserving first-seen order for determinism.
  std::unordered_map<Tuple, size_t, TupleHash> group_of;
  std::vector<std::pair<Tuple, std::vector<const TraceTuple*>>> groups;
  for (const TraceTuple* t : input) {
    NED_EXEC_TICK(ctx);
    std::vector<Value> key_values;
    key_values.reserve(group_idx.size());
    for (size_t idx : group_idx) key_values.push_back(t->values.at(idx));
    Tuple key(std::move(key_values));
    auto [it, inserted] = group_of.emplace(key, groups.size());
    if (inserted) groups.emplace_back(std::move(key), std::vector<const TraceTuple*>{});
    groups[it->second].second.push_back(t);
  }

  std::vector<Tuple> out;
  out.reserve(groups.size());
  for (const auto& [key, members] : groups) {
    std::vector<Value> values = key.values();
    for (size_t c = 0; c < calls.size(); ++c) {
      const AggCall& call = calls[c];
      size_t idx = arg_idx[c];
      int64_t count = 0;
      double sum = 0;
      bool numeric_ok = true;
      std::optional<Value> min_v, max_v;
      for (const TraceTuple* t : members) {
        NED_EXEC_TICK(ctx);
        const Value& v = t->values.at(idx);
        if (v.is_null()) continue;
        ++count;
        if (v.is_numeric()) {
          sum += v.NumericValue();
        } else {
          numeric_ok = false;
        }
        if (!min_v.has_value() ||
            Value::Satisfies(v, CompareOp::kLt, *min_v)) {
          min_v = v;
        }
        if (!max_v.has_value() ||
            Value::Satisfies(v, CompareOp::kGt, *max_v)) {
          max_v = v;
        }
      }
      switch (call.fn) {
        case AggFn::kCount:
          values.push_back(Value::Int(count));
          break;
        case AggFn::kSum:
          if (count == 0) {
            values.push_back(Value::Null());
          } else if (!numeric_ok) {
            return Status::TypeError("sum over non-numeric attribute " +
                                     call.arg.FullName());
          } else {
            values.push_back(Value::Real(sum));
          }
          break;
        case AggFn::kAvg:
          if (count == 0) {
            values.push_back(Value::Null());
          } else if (!numeric_ok) {
            return Status::TypeError("avg over non-numeric attribute " +
                                     call.arg.FullName());
          } else {
            values.push_back(Value::Real(sum / static_cast<double>(count)));
          }
          break;
        case AggFn::kMin:
          values.push_back(min_v.value_or(Value::Null()));
          break;
        case AggFn::kMax:
          values.push_back(max_v.value_or(Value::Null()));
          break;
      }
    }
    out.emplace_back(std::move(values));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------------

const std::string& Evaluator::CacheKeyFor(const OperatorNode* node) {
  auto it = cache_keys_.find(node);
  if (it != cache_keys_.end()) return it->second;
  std::string key = StrCat("(", NodeFingerprint(*node), "#o",
                           node_ordinal_.at(node));
  if (node->is_leaf()) {
    // Pin the alias ordinal (it determines base rids) and the backing
    // relation's data version (it determines rows); together with the
    // schema inside NodeFingerprint, a scan key changes whenever anything
    // observable about the scan output can change.
    size_t alias_ordinal = 0;
    const auto& order = input_->aliases();
    for (size_t i = 0; i < order.size(); ++i) {
      if (order[i] == node->alias) {
        alias_ordinal = i;
        break;
      }
    }
    key += StrCat("#a", alias_ordinal, "#v",
                  input_->AliasDataVersion(alias_ordinal));
  }
  for (const auto& child : node->children) {
    key += ";";
    key += CacheKeyFor(child.get());
  }
  key += ")";
  auto [pos, _] = cache_keys_.emplace(node, std::move(key));
  return pos->second;
}

Result<bool> Evaluator::TryReplayCacheHit(const OperatorNode* node) {
  if (Rows hit = cache_->Lookup(CacheKeyFor(node))) {
    // Replay the exact charges recomputation would make, tick-checked so
    // a governed run can still trip its budgets mid-hit. On a trip the
    // node stays unevaluated (outputs_ untouched) -- same observable
    // state as a trip during Compute.
    for (const TraceTuple& t : *hit) {
      NED_EXEC_TICK(ctx_);
      ChargeTuple(ctx_, t);
    }
    // Post-replay boundary check, symmetric with the post-Compute one in
    // EvalNode: without it a pure-hit evaluation could blow its row
    // budget and return OK because no later checkpoint ever runs.
    NED_RETURN_NOT_OK(CheckExec(ctx_));
    tuples_produced_ += hit->size();
    ++cache_hits_;
    outputs_.emplace(node, std::move(hit));
    return true;
  }
  ++cache_misses_;
  return false;
}

Result<const std::vector<TraceTuple>*> Evaluator::EvalNode(
    const OperatorNode* node) {
  auto it = outputs_.find(node);
  if (it != outputs_.end()) return it->second.get();
  // Operator boundary: a governed evaluation re-checks its limits before
  // descending into (and after finishing) each operator.
  NED_RETURN_NOT_OK(CheckExec(ctx_));
  const bool cacheable =
      cache_ != nullptr && cache_->enabled() && !node->is_leaf();
  if (cacheable) {
    NED_ASSIGN_OR_RETURN(bool hit, TryReplayCacheHit(node));
    if (hit) return outputs_.at(node).get();
  }
  for (const auto& child : node->children) {
    auto child_result = EvalNode(child.get());
    if (!child_result.ok()) return child_result.status();
  }
  // Deterministic rid layout: each node's output rows take rids base+0,
  // base+1, ... regardless of evaluation order, so cached outputs replay
  // verbatim. Children have finished computing, so the scope's counter
  // cannot interleave with theirs.
  EvalScope scope{ctx_, RidBaseFor(node)};
  NED_ASSIGN_OR_RETURN(std::vector<TraceTuple> out, Compute(node, scope));
  tuples_produced_ += out.size();
  NED_RETURN_NOT_OK(CheckExec(ctx_));
  Rows rows = std::make_shared<const std::vector<TraceTuple>>(std::move(out));
  if (cacheable) cache_->Insert(CacheKeyFor(node), rows);
  auto [pos, _] = outputs_.emplace(node, std::move(rows));
  return pos->second.get();
}

const std::vector<TraceTuple>* Evaluator::TryGetOutput(
    const OperatorNode* node) const {
  auto it = outputs_.find(node);
  return it == outputs_.end() ? nullptr : it->second.get();
}

Result<std::vector<const std::vector<TraceTuple>*>> Evaluator::InputsOf(
    const OperatorNode* node) {
  std::vector<const std::vector<TraceTuple>*> inputs;
  if (node->is_leaf()) {
    NED_ASSIGN_OR_RETURN(const std::vector<TraceTuple>* tuples,
                         input_->AliasTuples(node->alias));
    inputs.push_back(tuples);
    return inputs;
  }
  for (const auto& child : node->children) {
    NED_ASSIGN_OR_RETURN(const std::vector<TraceTuple>* out,
                         EvalNode(child.get()));
    inputs.push_back(out);
  }
  return inputs;
}

Result<std::vector<TraceTuple>> Evaluator::Compute(const OperatorNode* node,
                                                   EvalScope& scope) {
  switch (node->kind) {
    case OpKind::kScan: {
      // Scan output is the alias's input instance verbatim (same base rids).
      NED_ASSIGN_OR_RETURN(const std::vector<TraceTuple>* tuples,
                           input_->AliasTuples(node->alias));
      return *tuples;
    }
    case OpKind::kSelect:
      return ComputeSelect(node, scope);
    case OpKind::kProject:
      return ComputeProject(node, scope);
    case OpKind::kJoin:
      return ComputeJoin(node, scope);
    case OpKind::kUnion:
      return ComputeUnion(node, scope);
    case OpKind::kDifference:
      return ComputeDifference(node, scope);
    case OpKind::kAggregate:
      return ComputeAggregate(node, scope);
  }
  return Status::Internal("unknown operator kind in Compute");
}

Result<std::vector<TraceTuple>> Evaluator::ComputeSelect(
    const OperatorNode* node, EvalScope& scope) {
  const std::vector<TraceTuple>& in = *TryGetOutput(node->children[0].get());
  const Schema& schema = node->children[0]->output_schema;
  std::vector<TraceTuple> out;
  for (const TraceTuple& t : in) {
    NED_EXEC_TICK(scope.ctx);
    NED_ASSIGN_OR_RETURN(bool keep, node->predicate->EvalBool(t.values, schema));
    if (!keep) continue;
    TraceTuple o;
    o.rid = scope.NextRid();
    o.values = t.values;
    o.preds = {t.rid};
    o.lineage = t.lineage;
    ChargeTuple(scope.ctx, o);
    out.push_back(std::move(o));
  }
  return out;
}

Result<std::vector<TraceTuple>> Evaluator::ComputeProject(
    const OperatorNode* node, EvalScope& scope) {
  const std::vector<TraceTuple>& in = *TryGetOutput(node->children[0].get());
  const Schema& child_schema = node->children[0]->output_schema;
  std::vector<size_t> indices;
  for (const auto& a : node->projection) {
    NED_ASSIGN_OR_RETURN(size_t idx, child_schema.Resolve(a));
    indices.push_back(idx);
  }
  // Set semantics: value-equal projections merge; lineage is the union of all
  // contributing tuples' lineages (Cui & Widom projection lineage).
  std::unordered_map<Tuple, size_t, TupleHash> seen;
  std::vector<TraceTuple> out;
  for (const TraceTuple& t : in) {
    NED_EXEC_TICK(scope.ctx);
    std::vector<Value> values;
    values.reserve(indices.size());
    for (size_t idx : indices) values.push_back(t.values.at(idx));
    Tuple projected(std::move(values));
    auto [it, inserted] = seen.emplace(projected, out.size());
    if (inserted) {
      TraceTuple o;
      o.rid = scope.NextRid();
      o.values = std::move(projected);
      o.preds = {t.rid};
      o.lineage = t.lineage;
      ChargeTuple(scope.ctx, o);
      out.push_back(std::move(o));
    } else {
      TraceTuple& o = out[it->second];
      o.preds.push_back(t.rid);
      o.lineage = BaseSetUnion(o.lineage, t.lineage);
    }
  }
  return out;
}

Result<std::vector<TraceTuple>> Evaluator::ComputeJoin(
    const OperatorNode* node, EvalScope& scope) {
  const std::vector<TraceTuple>& left = *TryGetOutput(node->children[0].get());
  const std::vector<TraceTuple>& right = *TryGetOutput(node->children[1].get());
  const Schema& ls = node->children[0]->output_schema;
  const Schema& rs = node->children[1]->output_schema;

  // Key columns from the renaming triples.
  std::vector<size_t> lkey, rkey;
  for (const auto& t : node->renaming.triples()) {
    NED_ASSIGN_OR_RETURN(size_t li, ls.Resolve(t.a1));
    NED_ASSIGN_OR_RETURN(size_t ri, rs.Resolve(t.a2));
    lkey.push_back(li);
    rkey.push_back(ri);
  }

  // Output column sources: (side, index). Renamed attributes read from the
  // left side (values agree by the join condition).
  struct Source {
    int side;
    size_t index;
  };
  std::vector<Source> sources;
  for (const auto& attr : node->output_schema.attributes()) {
    std::optional<Source> src;
    if (attr.qualified()) {
      if (auto idx = ls.IndexOf(attr); idx.has_value()) src = Source{0, *idx};
      else if (auto ridx = rs.IndexOf(attr); ridx.has_value()) src = Source{1, *ridx};
    } else {
      std::optional<RenameTriple> triple = node->renaming.FindByNewName(attr.name);
      if (triple.has_value()) {
        NED_ASSIGN_OR_RETURN(size_t idx, ls.Resolve(triple->a1));
        src = Source{0, idx};
      } else if (auto idx = ls.IndexOf(attr); idx.has_value()) {
        src = Source{0, *idx};  // pre-renamed unqualified attr from below
      } else if (auto ridx = rs.IndexOf(attr); ridx.has_value()) {
        src = Source{1, *ridx};
      }
    }
    if (!src.has_value()) {
      return Status::Internal("join output attribute has no source: " +
                              attr.FullName());
    }
    sources.push_back(*src);
  }

  auto key_of = [](const TraceTuple& t, const std::vector<size_t>& idx)
      -> std::optional<Tuple> {
    std::vector<Value> values;
    values.reserve(idx.size());
    for (size_t i : idx) {
      if (t.values.at(i).is_null()) return std::nullopt;  // NULL never joins
      values.push_back(t.values.at(i));
    }
    return Tuple(std::move(values));
  };

  // Build hash table on the right side (or all rows for a cross product).
  // Key equality must coerce numerics (int 10 joins double 10.0), matching
  // Value::Hash's coercion-consistent hashing; Tuple::operator== is exact.
  struct JoinKeyEq {
    bool operator()(const Tuple& a, const Tuple& b) const {
      if (a.size() != b.size()) return false;
      for (size_t i = 0; i < a.size(); ++i) {
        if (!Value::Satisfies(a.at(i), CompareOp::kEq, b.at(i))) return false;
      }
      return true;
    }
  };
  std::unordered_map<Tuple, std::vector<const TraceTuple*>, TupleHash,
                     JoinKeyEq>
      table;
  std::vector<const TraceTuple*> all_right;
  if (lkey.empty()) {
    for (const TraceTuple& r : right) all_right.push_back(&r);
  } else {
    for (const TraceTuple& r : right) {
      NED_EXEC_TICK(scope.ctx);
      std::optional<Tuple> key = key_of(r, rkey);
      if (key.has_value()) table[*key].push_back(&r);
    }
  }

  // Probes one left row against the hash table, appending matches in bucket
  // order.
  std::vector<TraceTuple> out;
  auto probe_row = [&](const TraceTuple& l) -> Status {
    const std::vector<const TraceTuple*>* matches = nullptr;
    if (lkey.empty()) {
      matches = &all_right;
    } else {
      std::optional<Tuple> key = key_of(l, lkey);
      if (!key.has_value()) return Status::OK();
      auto it = table.find(*key);
      if (it == table.end()) return Status::OK();
      matches = &it->second;
    }
    for (const TraceTuple* r : *matches) {
      // A cross join's inner loop must stay interruptible.
      NED_EXEC_TICK(scope.ctx);
      // Hash buckets can contain numeric-coerced collisions; verify equality.
      bool keys_equal = true;
      for (size_t k = 0; k < lkey.size(); ++k) {
        if (!Value::Satisfies(l.values.at(lkey[k]), CompareOp::kEq,
                              r->values.at(rkey[k]))) {
          keys_equal = false;
          break;
        }
      }
      if (!keys_equal) continue;
      std::vector<Value> values;
      values.reserve(sources.size());
      for (const Source& s : sources) {
        values.push_back(s.side == 0 ? l.values.at(s.index)
                                     : r->values.at(s.index));
      }
      Tuple joined(std::move(values));
      if (node->extra_predicate != nullptr) {
        NED_ASSIGN_OR_RETURN(
            bool keep, node->extra_predicate->EvalBool(joined, node->output_schema));
        if (!keep) continue;
      }
      TraceTuple o;
      o.rid = scope.NextRid();
      o.values = std::move(joined);
      o.preds = {l.rid, r->rid};
      o.lineage = BaseSetUnion(l.lineage, r->lineage);
      ChargeTuple(scope.ctx, o);
      out.push_back(std::move(o));
    }
    return Status::OK();
  };

  for (const TraceTuple& l : left) {
    NED_EXEC_TICK(scope.ctx);
    NED_RETURN_NOT_OK(probe_row(l));
  }
  return out;
}

Result<std::vector<TraceTuple>> Evaluator::ComputeUnion(
    const OperatorNode* node, EvalScope& scope) {
  const std::vector<TraceTuple>& left = *TryGetOutput(node->children[0].get());
  const std::vector<TraceTuple>& right = *TryGetOutput(node->children[1].get());
  const Schema& ls = node->children[0]->output_schema;
  const Schema& rs = node->children[1]->output_schema;

  // Column order of the output follows nu(left schema); map each side's
  // columns to output positions.
  auto mapping_for = [&](const Schema& side) -> Result<std::vector<size_t>> {
    std::vector<size_t> map(node->output_schema.size(), 0);
    for (size_t out_i = 0; out_i < node->output_schema.size(); ++out_i) {
      const Attribute& target = node->output_schema.at(out_i);
      bool found = false;
      for (size_t i = 0; i < side.size(); ++i) {
        if (node->renaming.Apply(side.at(i)) == target) {
          map[out_i] = i;
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::TypeError("union operand missing attribute " +
                                 target.FullName());
      }
    }
    return map;
  };
  NED_ASSIGN_OR_RETURN(std::vector<size_t> lmap, mapping_for(ls));
  NED_ASSIGN_OR_RETURN(std::vector<size_t> rmap, mapping_for(rs));

  std::unordered_map<Tuple, size_t, TupleHash> seen;
  std::vector<TraceTuple> out;
  auto add_side = [&](const std::vector<TraceTuple>& side,
                      const std::vector<size_t>& map) -> Status {
    for (const TraceTuple& t : side) {
      NED_EXEC_TICK(scope.ctx);
      std::vector<Value> values;
      values.reserve(map.size());
      for (size_t i : map) values.push_back(t.values.at(i));
      Tuple mapped(std::move(values));
      auto [it, inserted] = seen.emplace(mapped, out.size());
      if (inserted) {
        TraceTuple o;
        o.rid = scope.NextRid();
        o.values = std::move(mapped);
        o.preds = {t.rid};
        o.lineage = t.lineage;
        ChargeTuple(scope.ctx, o);
        out.push_back(std::move(o));
      } else {
        TraceTuple& o = out[it->second];
        o.preds.push_back(t.rid);
        o.lineage = BaseSetUnion(o.lineage, t.lineage);
      }
    }
    return Status::OK();
  };
  NED_RETURN_NOT_OK(add_side(left, lmap));
  NED_RETURN_NOT_OK(add_side(right, rmap));
  return out;
}

Result<std::vector<TraceTuple>> Evaluator::ComputeDifference(
    const OperatorNode* node, EvalScope& scope) {
  const std::vector<TraceTuple>& left = *TryGetOutput(node->children[0].get());
  const std::vector<TraceTuple>& right = *TryGetOutput(node->children[1].get());
  const Schema& ls = node->children[0]->output_schema;
  const Schema& rs = node->children[1]->output_schema;

  auto mapping_for = [&](const Schema& side) -> Result<std::vector<size_t>> {
    std::vector<size_t> map(node->output_schema.size(), 0);
    for (size_t out_i = 0; out_i < node->output_schema.size(); ++out_i) {
      const Attribute& target = node->output_schema.at(out_i);
      bool found = false;
      for (size_t i = 0; i < side.size(); ++i) {
        if (node->renaming.Apply(side.at(i)) == target) {
          map[out_i] = i;
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::TypeError("difference operand missing attribute " +
                                 target.FullName());
      }
    }
    return map;
  };
  NED_ASSIGN_OR_RETURN(std::vector<size_t> lmap, mapping_for(ls));
  NED_ASSIGN_OR_RETURN(std::vector<size_t> rmap, mapping_for(rs));

  // Value set of the right operand (aligned through the renaming).
  std::unordered_set<Tuple, TupleHash> right_values;
  for (const TraceTuple& t : right) {
    NED_EXEC_TICK(scope.ctx);
    std::vector<Value> values;
    values.reserve(rmap.size());
    for (size_t i : rmap) values.push_back(t.values.at(i));
    right_values.insert(Tuple(std::move(values)));
  }

  // Left tuples whose aligned value has no right counterpart survive; the
  // lineage of a survivor is its left lineage (Cui & Widom difference
  // lineage). Value-equal left tuples merge under set semantics.
  std::unordered_map<Tuple, size_t, TupleHash> seen;
  std::vector<TraceTuple> out;
  for (const TraceTuple& t : left) {
    NED_EXEC_TICK(scope.ctx);
    std::vector<Value> values;
    values.reserve(lmap.size());
    for (size_t i : lmap) values.push_back(t.values.at(i));
    Tuple mapped(std::move(values));
    if (right_values.count(mapped) > 0) continue;
    auto [it, inserted] = seen.emplace(mapped, out.size());
    if (inserted) {
      TraceTuple o;
      o.rid = scope.NextRid();
      o.values = std::move(mapped);
      o.preds = {t.rid};
      o.lineage = t.lineage;
      ChargeTuple(scope.ctx, o);
      out.push_back(std::move(o));
    } else {
      TraceTuple& o = out[it->second];
      o.preds.push_back(t.rid);
      o.lineage = BaseSetUnion(o.lineage, t.lineage);
    }
  }
  return out;
}

Result<std::vector<TraceTuple>> Evaluator::ComputeAggregate(
    const OperatorNode* node, EvalScope& scope) {
  const std::vector<TraceTuple>& in = *TryGetOutput(node->children[0].get());
  const Schema& child_schema = node->children[0]->output_schema;

  std::vector<size_t> group_idx;
  for (const auto& g : node->group_by) {
    NED_ASSIGN_OR_RETURN(size_t idx, child_schema.Resolve(g));
    group_idx.push_back(idx);
  }

  // Group, preserving first-seen order.
  std::unordered_map<Tuple, size_t, TupleHash> group_of;
  std::vector<std::vector<const TraceTuple*>> groups;
  std::vector<Tuple> keys;
  for (const TraceTuple& t : in) {
    NED_EXEC_TICK(scope.ctx);
    std::vector<Value> key_values;
    key_values.reserve(group_idx.size());
    for (size_t idx : group_idx) key_values.push_back(t.values.at(idx));
    Tuple key(std::move(key_values));
    auto [it, inserted] = group_of.emplace(key, groups.size());
    if (inserted) {
      groups.emplace_back();
      keys.push_back(key);
    }
    groups[it->second].push_back(&t);
  }

  std::vector<TraceTuple> out;
  out.reserve(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    NED_ASSIGN_OR_RETURN(
        std::vector<Tuple> agg_rows,
        ComputeAggregateTuples(node->group_by, node->aggregates, groups[g],
                               child_schema, node->output_schema, scope.ctx));
    NED_CHECK(agg_rows.size() == 1);
    TraceTuple o;
    o.rid = scope.NextRid();
    o.values = std::move(agg_rows[0]);
    for (const TraceTuple* member : groups[g]) {
      NED_EXEC_TICK(scope.ctx);
      o.preds.push_back(member->rid);
      o.lineage = BaseSetUnion(o.lineage, member->lineage);
    }
    ChargeTuple(scope.ctx, o);
    out.push_back(std::move(o));
  }
  return out;
}

}  // namespace ned
