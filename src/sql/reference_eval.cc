#include "sql/reference_eval.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "sql/aggregates.h"
#include "sql/analyzer.h"

namespace shark {

namespace {

Row KeyRow(const std::vector<ExprPtr>& keys, const Row& row,
           const UdfRegistry* udfs) {
  Row out;
  out.fields.reserve(keys.size());
  for (const ExprPtr& k : keys) out.fields.push_back(EvalExpr(*k, row, udfs));
  return out;
}

Row ConcatRows(const Row& left, const Row& right) {
  Row out = left;
  out.fields.insert(out.fields.end(), right.fields.begin(),
                    right.fields.end());
  return out;
}

Result<std::vector<Row>> EvalScan(const LogicalPlan& plan,
                                  const Catalog& catalog, const Dfs& dfs,
                                  const UdfRegistry* udfs) {
  SHARK_ASSIGN_OR_RETURN(const TableInfo* info, catalog.Get(plan.table));
  if (info->dfs_file.empty()) {
    return Status::InvalidArgument("reference eval: table has no DFS file: " +
                                   plan.table);
  }
  SHARK_ASSIGN_OR_RETURN(const DfsFile* file, dfs.GetFile(info->dfs_file));

  // Column-pruning mask: the engine's scan keeps full table arity but
  // decodes unneeded columns as NULL.
  const size_t arity = info->schema.fields().size();
  std::vector<bool> needed(arity, plan.needed_columns.empty());
  for (int c : plan.needed_columns) {
    if (c >= 0 && static_cast<size_t>(c) < arity) needed[c] = true;
  }
  const bool all_needed =
      std::all_of(needed.begin(), needed.end(), [](bool b) { return b; });

  std::vector<Row> out;
  for (const DfsBlock& block : file->blocks) {
    auto rows = std::static_pointer_cast<const std::vector<Row>>(block.data);
    if (rows == nullptr) continue;
    for (const Row& r : *rows) {
      Row copy = r;
      if (!all_needed) {
        for (size_t i = 0; i < copy.fields.size() && i < arity; ++i) {
          if (!needed[i]) copy.fields[i] = Value::Null();
        }
      }
      if (plan.scan_predicate != nullptr &&
          !EvalPredicate(*plan.scan_predicate, copy, udfs)) {
        continue;
      }
      out.push_back(std::move(copy));
    }
  }
  return out;
}

std::vector<Row> EvalJoin(const LogicalPlan& plan, std::vector<Row> left,
                          std::vector<Row> right, const UdfRegistry* udfs) {
  const int left_width =
      plan.children[0]->num_output_columns();
  const int right_width = plan.children[1]->num_output_columns();

  std::vector<Row> lkeys, rkeys;
  lkeys.reserve(left.size());
  rkeys.reserve(right.size());
  for (const Row& r : left) lkeys.push_back(KeyRow(plan.left_keys, r, udfs));
  for (const Row& r : right) rkeys.push_back(KeyRow(plan.right_keys, r, udfs));

  std::vector<Row> joined;
  std::vector<bool> right_matched(right.size(), false);
  for (size_t i = 0; i < left.size(); ++i) {
    bool matched = false;
    for (size_t j = 0; j < right.size(); ++j) {
      // Key-row equality, same as the engines' hash-table probe — NULL and
      // NaN keys match themselves here.
      if (lkeys[i] == rkeys[j]) {
        joined.push_back(ConcatRows(left[i], right[j]));
        matched = true;
        right_matched[j] = true;
      }
    }
    if (!matched && plan.join_type == JoinType::kLeftOuter) {
      Row nulls;
      nulls.fields.assign(static_cast<size_t>(right_width), Value::Null());
      joined.push_back(ConcatRows(left[i], nulls));
    }
  }
  if (plan.join_type == JoinType::kRightOuter) {
    for (size_t j = 0; j < right.size(); ++j) {
      if (!right_matched[j]) {
        Row nulls;
        nulls.fields.assign(static_cast<size_t>(left_width), Value::Null());
        joined.push_back(ConcatRows(nulls, right[j]));
      }
    }
  }
  // Residual predicate applies after null-extension, like the engines.
  if (plan.join_residual != nullptr) {
    std::vector<Row> filtered;
    for (Row& r : joined) {
      if (EvalPredicate(*plan.join_residual, r, udfs)) {
        filtered.push_back(std::move(r));
      }
    }
    return filtered;
  }
  return joined;
}

std::vector<Row> EvalAggregate(const LogicalPlan& plan,
                               const std::vector<Row>& input,
                               const UdfRegistry* udfs) {
  // Linear-scan grouping on Value equality only: deliberately avoids
  // Value::Hash so a ==/Hash inconsistency shows up as a divergence against
  // the hash-grouping engines instead of being masked.
  std::vector<std::pair<Row, AggState>> groups;
  for (const Row& r : input) {
    Row key = KeyRow(plan.group_exprs, r, udfs);
    AggState* state = nullptr;
    for (auto& [gk, gs] : groups) {
      if (gk == key) {
        state = &gs;
        break;
      }
    }
    if (state == nullptr) {
      groups.emplace_back(std::move(key), InitAggState(plan.agg_calls));
      state = &groups.back().second;
    }
    AccumulateArgs(
        plan.agg_calls,
        [&](size_t ci, size_t ai) {
          return EvalExpr(*plan.agg_calls[ci].args[ai], r, udfs);
        },
        state);
  }
  // A global aggregate over zero rows produces zero rows (house semantics,
  // matching the shuffle-based engines).
  std::vector<Row> out;
  out.reserve(groups.size());
  for (const auto& [key, state] : groups) {
    out.push_back(FinalizeAggRow(plan.agg_calls, key, state));
  }
  return out;
}

std::vector<Row> EvalSort(const LogicalPlan& plan, std::vector<Row> rows,
                          const UdfRegistry* udfs) {
  const auto& keys = plan.sort_exprs;
  const auto& asc = plan.sort_ascending;
  std::sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    for (size_t i = 0; i < keys.size(); ++i) {
      Value va = EvalExpr(*keys[i], a, udfs);
      Value vb = EvalExpr(*keys[i], b, udfs);
      int c = va.Compare(vb);
      if (c != 0) return asc[i] ? c < 0 : c > 0;
    }
    return false;
  });
  if (plan.limit >= 0 && static_cast<int64_t>(rows.size()) > plan.limit) {
    rows.resize(static_cast<size_t>(plan.limit));
  }
  return rows;
}

}  // namespace

Result<std::vector<Row>> ReferenceEvalPlan(const LogicalPlan& plan,
                                           const Catalog& catalog,
                                           const Dfs& dfs,
                                           const UdfRegistry* udfs) {
  std::vector<std::vector<Row>> child_rows;
  child_rows.reserve(plan.children.size());
  for (const PlanPtr& child : plan.children) {
    SHARK_ASSIGN_OR_RETURN(std::vector<Row> rows,
                           ReferenceEvalPlan(*child, catalog, dfs, udfs));
    child_rows.push_back(std::move(rows));
  }

  switch (plan.kind) {
    case PlanKind::kScan:
      return EvalScan(plan, catalog, dfs, udfs);
    case PlanKind::kIndexScan:
      // No index structures here: the residual predicate is the full scan
      // predicate, so a plain scan is semantically identical.
      return EvalScan(plan, catalog, dfs, udfs);
    case PlanKind::kFilter: {
      std::vector<Row> out;
      for (Row& r : child_rows[0]) {
        if (EvalPredicate(*plan.predicate, r, udfs)) {
          out.push_back(std::move(r));
        }
      }
      return out;
    }
    case PlanKind::kProject: {
      std::vector<Row> out;
      out.reserve(child_rows[0].size());
      for (const Row& r : child_rows[0]) {
        Row projected;
        projected.fields.reserve(plan.project_exprs.size());
        for (const ExprPtr& e : plan.project_exprs) {
          projected.fields.push_back(EvalExpr(*e, r, udfs));
        }
        out.push_back(std::move(projected));
      }
      return out;
    }
    case PlanKind::kAggregate:
      return EvalAggregate(plan, child_rows[0], udfs);
    case PlanKind::kJoin:
      return EvalJoin(plan, std::move(child_rows[0]), std::move(child_rows[1]),
                      udfs);
    case PlanKind::kSort:
      return EvalSort(plan, std::move(child_rows[0]), udfs);
    case PlanKind::kLimit: {
      std::vector<Row>& rows = child_rows[0];
      if (plan.limit >= 0 && static_cast<int64_t>(rows.size()) > plan.limit) {
        rows.resize(static_cast<size_t>(plan.limit));
      }
      return std::move(rows);
    }
    case PlanKind::kUnion: {
      std::vector<Row> out;
      for (std::vector<Row>& rows : child_rows) {
        for (Row& r : rows) out.push_back(std::move(r));
      }
      return out;
    }
  }
  return Status::InvalidArgument("reference eval: unknown plan kind");
}

Result<QueryResult> ReferenceExecute(const SelectStmt& stmt,
                                     const Catalog& catalog, const Dfs& dfs,
                                     const UdfRegistry* udfs) {
  Analyzer analyzer(&catalog, udfs);
  SHARK_ASSIGN_OR_RETURN(PlanPtr plan, analyzer.AnalyzeSelect(stmt));
  SHARK_ASSIGN_OR_RETURN(std::vector<Row> rows,
                         ReferenceEvalPlan(*plan, catalog, dfs, udfs));
  if (plan->limit >= 0 &&
      (plan->kind == PlanKind::kLimit || plan->kind == PlanKind::kSort) &&
      static_cast<int64_t>(rows.size()) > plan->limit) {
    rows.resize(static_cast<size_t>(plan->limit));
  }
  QueryResult result;
  result.schema = Schema(plan->output);
  result.rows = std::move(rows);
  return result;
}

}  // namespace shark
