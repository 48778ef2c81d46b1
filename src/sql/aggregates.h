#ifndef SHARK_SQL_AGGREGATES_H_
#define SHARK_SQL_AGGREGATES_H_

#include <unordered_set>
#include <vector>

#include "rdd/rdd.h"
#include "relation/row.h"
#include "sql/expr.h"
#include "sql/logical_plan.h"

namespace shark {

/// Running state of one aggregate call within one group. Shuffled between
/// the partial (map-side) and final (reduce-side) aggregation phases.
struct AggCell {
  bool inited = false;
  Value acc;           // SUM / MIN / MAX accumulator (also AVG numerator)
  int64_t count = 0;   // COUNT / AVG denominator
  std::unordered_set<Row, KeyHasher<Row>> distinct;  // COUNT(DISTINCT ...)
};

/// Per-group state: one cell per aggregate call.
struct AggState {
  std::vector<AggCell> cells;
};

uint64_t ApproxSizeOf(const AggCell& cell);
uint64_t ApproxSizeOf(const AggState& state);

/// Creates an empty state for the given calls.
AggState InitAggState(const std::vector<AggCall>& calls);

/// Folds a single already-evaluated argument value into one cell. Handles
/// every function except kCountDistinct (which needs the full arg tuple).
void AccumulateValue(const AggCall& call, const Value& v, AggCell* cell);

/// Folds one input row into the state (map side). `arg(ci, ai)` yields the
/// value of argument `ai` of call `ci` for that row; the caller decides where
/// it comes from (the tree interpreter in the reference oracle, compiled
/// programs on the row path, column views on the batch path), so every
/// engine accumulates with exactly the same arithmetic and double summation
/// order.
template <typename ArgFn>
void AccumulateArgs(const std::vector<AggCall>& calls, ArgFn&& arg,
                    AggState* state) {
  for (size_t ci = 0; ci < calls.size(); ++ci) {
    const AggCall& call = calls[ci];
    AggCell& cell = state->cells[ci];
    if (call.fn == AggCall::Fn::kCountStar) {
      cell.count += 1;
      continue;
    }
    if (call.fn == AggCall::Fn::kCountDistinct) {
      Row tuple;
      bool any_null = false;
      for (size_t ai = 0; ai < call.args.size(); ++ai) {
        Value v = arg(ci, ai);
        any_null = any_null || v.is_null();
        tuple.fields.push_back(std::move(v));
      }
      if (!any_null) cell.distinct.insert(std::move(tuple));
      continue;
    }
    Value v = call.args.empty() ? Value::Null() : arg(ci, size_t{0});
    AccumulateValue(call, v, &cell);
  }
}

/// Merges `from` into `into` (reduce side).
void MergeAggStates(const std::vector<AggCall>& calls, const AggState& from,
                    AggState* into);

/// Produces the output row: group key values followed by finalized
/// aggregates (AVG division, DISTINCT cardinality, SQL NULL semantics).
Row FinalizeAggRow(const std::vector<AggCall>& calls, const Row& group_key,
                   const AggState& state);

}  // namespace shark

#endif  // SHARK_SQL_AGGREGATES_H_
