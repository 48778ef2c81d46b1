#ifndef SHARK_SQL_SESSION_H_
#define SHARK_SQL_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "rdd/context.h"
#include "sql/catalog.h"
#include "sql/executor.h"
#include "sql/parser.h"

namespace shark {

/// A SQL query result that stayed distributed: the RDD plus its schema.
/// This is §4's sql2rdd — the bridge between SQL and the ML library; the
/// caller can keep transforming it with the RDD API and everything stays in
/// one lineage graph (end-to-end fault tolerance).
struct TableRdd {
  RddPtr<Row> rdd;
  Schema schema;
  QueryMetrics build_metrics;
};

/// The public facade of the engine: parse/analyze/optimize/execute SQL
/// against a cluster context, manage the metastore, load tables into the
/// columnar memory store, and hand query plans to the RDD/ML layer.
class SharkSession {
 public:
  explicit SharkSession(std::shared_ptr<ClusterContext> ctx);

  ClusterContext& context() { return *ctx_; }
  std::shared_ptr<ClusterContext> shared_context() { return ctx_; }
  Catalog& catalog() { return catalog_; }
  UdfRegistry& udfs() { return udfs_; }
  ExecOptions& options() { return options_; }

  /// Runs one SQL statement. SELECT returns rows; CREATE/DROP return an
  /// empty result (with load metrics for CTAS).
  Result<QueryResult> Sql(const std::string& query);

  /// Like Sql, but for profiled SELECTs also renders the EXPLAIN ANALYZE
  /// report (plan annotated with the recorded profile) into *analyzed_plan —
  /// the slow-query log attaches this without re-running the query.
  /// Left empty for non-SELECT statements and unprofiled runs.
  Result<QueryResult> Sql(const std::string& query, std::string* analyzed_plan);

  /// Runs a SELECT but returns the distributed result instead of collecting.
  Result<TableRdd> Sql2Rdd(const std::string& query);

  /// Renders an optimized logical plan (EXPLAIN).
  Result<std::string> Explain(const std::string& query);

  // -- table management ------------------------------------------------------

  /// Registers a table whose rows are written to the simulated DFS in
  /// `num_blocks` blocks (the loading path the generators use).
  Status CreateDfsTable(const std::string& name, const Schema& schema,
                        const std::vector<Row>& rows, int num_blocks,
                        DfsFormat format = DfsFormat::kText);

  /// Loads a table into the columnar memory store (§3.2/§3.3): scans the
  /// DFS file, optionally repartitions by `distribute_column` (§3.4),
  /// marshals to columnar partitions, caches them, and records per-partition
  /// statistics in the catalog for map pruning (§3.5).
  /// `copartition_with` requires the partner to already be cached with a
  /// matching partition count.
  Status CacheTable(const std::string& name,
                    const std::string& distribute_column = "",
                    const std::string& copartition_with = "");

  /// Drops the in-memory copy (keeps DFS storage).
  Status UncacheTable(const std::string& name);

  /// Metrics of the most recent memstore load.
  const QueryMetrics& last_load_metrics() const { return last_load_metrics_; }

 private:
  Result<QueryResult> ExecuteStatement(const Statement& stmt,
                                       std::string* analyzed_plan);
  Result<QueryResult> ExecuteAnalyzeTable(const AnalyzeTableStmt& stmt);

  /// Runs the full two-phase planner (rules + cost-based join reordering)
  /// under this session's options and cluster cost environment.
  PlanPtr PlanSelect(PlanPtr plan);
  Result<QueryResult> ExecuteSelect(const SelectStmt& stmt,
                                    std::string* analyzed_plan);
  Result<QueryResult> ExecuteCreateTable(const CreateTableStmt& stmt);
  Result<QueryResult> ExecuteExplain(const ExplainStmt& stmt);

  /// Builds a B+-tree over a cached table's column (a collect job over the
  /// columnar partitions, charged like a one-column scan) and registers it
  /// in the catalog with a MemoryManager reservation.
  Result<QueryResult> ExecuteCreateIndex(const CreateIndexStmt& stmt);
  Result<QueryResult> ExecuteDropIndex(const DropIndexStmt& stmt);

  /// Marshals a row RDD into cached columnar partitions; registers stats.
  /// If `align_with` is non-null, load tasks prefer the node holding the
  /// partner's corresponding cached partition (co-partitioned placement).
  Status LoadRowsIntoMemstore(TableInfo* info, RddPtr<Row> rows,
                              int distribute_key, int num_partitions,
                              const TableInfo* align_with = nullptr);

  std::shared_ptr<ClusterContext> ctx_;
  Catalog catalog_;
  UdfRegistry udfs_;
  ExecOptions options_;
  QueryMetrics last_load_metrics_;
};

}  // namespace shark

#endif  // SHARK_SQL_SESSION_H_
