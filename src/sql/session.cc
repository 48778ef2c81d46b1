#include "sql/session.h"

#include <algorithm>

#include "common/logging.h"
#include "index/btree.h"
#include "mem/memory_manager.h"
#include "rdd/pair_rdd.h"
#include "common/string_util.h"
#include "sql/analyzer.h"
#include "sql/planner/planner.h"
#include "sql/stats/analyze.h"
#include "sql/stats/table_stats.h"

namespace shark {

SharkSession::SharkSession(std::shared_ptr<ClusterContext> ctx)
    : ctx_(std::move(ctx)) {}

Result<QueryResult> SharkSession::Sql(const std::string& query) {
  return Sql(query, nullptr);
}

Result<QueryResult> SharkSession::Sql(const std::string& query,
                                      std::string* analyzed_plan) {
  if (analyzed_plan != nullptr) analyzed_plan->clear();
  SHARK_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(query));
  return ExecuteStatement(stmt, analyzed_plan);
}

Result<QueryResult> SharkSession::ExecuteStatement(const Statement& stmt,
                                                   std::string* analyzed_plan) {
  switch (stmt.kind) {
    case StatementKind::kSelect:
      return ExecuteSelect(*stmt.select, analyzed_plan);
    case StatementKind::kCreateTable:
      return ExecuteCreateTable(*stmt.create_table);
    case StatementKind::kDropTable: {
      std::string dfs_file;
      if (auto info = catalog_.Get(stmt.drop_table->name); info.ok()) {
        dfs_file = (*info)->dfs_file;
      }
      SHARK_RETURN_NOT_OK(
          catalog_.DropTable(stmt.drop_table->name, stmt.drop_table->if_exists));
      // Managed-table semantics: dropping the table drops its DFS storage,
      // so a later CREATE TABLE under the same name starts from scratch
      // instead of colliding with the orphaned file.
      if (!dfs_file.empty()) {
        Status removed = ctx_->dfs().DeleteFile(dfs_file);
        if (!removed.ok()) {
          SHARK_LOG(kWarn) << "DROP TABLE could not delete DFS storage '"
                           << dfs_file << "': " << removed.ToString();
        }
      }
      return QueryResult{};
    }
    case StatementKind::kUncacheTable: {
      SHARK_RETURN_NOT_OK(UncacheTable(stmt.uncache_table->name));
      return QueryResult{};
    }
    case StatementKind::kExplain:
      return ExecuteExplain(*stmt.explain);
    case StatementKind::kAnalyzeTable:
      return ExecuteAnalyzeTable(*stmt.analyze_table);
    case StatementKind::kCreateIndex:
      return ExecuteCreateIndex(*stmt.create_index);
    case StatementKind::kDropIndex:
      return ExecuteDropIndex(*stmt.drop_index);
  }
  return Status::Internal("unknown statement kind");
}

PlanPtr SharkSession::PlanSelect(PlanPtr plan) {
  PlanCostEnv env;
  env.catalog = &catalog_;
  env.hardware = ctx_->cost_model().hardware();
  env.profile = ctx_->profile();
  env.virtual_scale = ctx_->virtual_scale();
  env.total_cores = ctx_->cluster().total_cores();
  env.broadcast_threshold_bytes = options_.broadcast_threshold_bytes;
  PlannerOptions popts;
  popts.cbo = options_.cbo;
  popts.force_left_deep = options_.force_left_deep;
  popts.dp_max_relations = options_.dp_max_relations;
  popts.use_indexes = options_.use_indexes;
  return PlanQuery(std::move(plan), &udfs_, env, popts);
}

Result<QueryResult> SharkSession::ExecuteAnalyzeTable(
    const AnalyzeTableStmt& stmt) {
  SHARK_ASSIGN_OR_RETURN(TableInfo * info, catalog_.Get(stmt.name));
  QueryMetrics metrics;
  SHARK_ASSIGN_OR_RETURN(auto stats,
                         RunAnalyzeTable(ctx_.get(), info, &metrics));

  QueryResult result;
  result.metrics = metrics;
  Schema schema;
  SHARK_RETURN_NOT_OK(schema.AddField(Field{"table", TypeKind::kString}));
  SHARK_RETURN_NOT_OK(schema.AddField(Field{"rows", TypeKind::kInt64}));
  SHARK_RETURN_NOT_OK(schema.AddField(Field{"columns", TypeKind::kInt64}));
  result.schema = schema;
  Row row;
  row.fields.push_back(Value::String(info->name));
  row.fields.push_back(Value::Int64(static_cast<int64_t>(stats->row_count)));
  row.fields.push_back(
      Value::Int64(static_cast<int64_t>(stats->columns.size())));
  result.rows.push_back(std::move(row));
  return result;
}

Result<QueryResult> SharkSession::ExecuteExplain(const ExplainStmt& stmt) {
  Analyzer analyzer(&catalog_, &udfs_);
  SHARK_ASSIGN_OR_RETURN(PlanPtr plan, analyzer.AnalyzeSelect(*stmt.select));
  plan = PlanSelect(plan);

  std::string rendered;
  QueryResult result;
  if (stmt.analyze) {
    // EXPLAIN ANALYZE runs the query and annotates the plan with the
    // recorded profile; the data rows are discarded, the metrics and the
    // profile itself are carried on the result.
    Executor executor(ctx_.get(), &catalog_, &udfs_, options_);
    // Snapshot the cluster counters around execution: the difference is
    // exactly this query's contribution, appended below the plan.
    std::vector<std::pair<std::string, uint64_t>> before =
        ctx_->metrics().registry().CounterSnapshot();
    SHARK_ASSIGN_OR_RETURN(QueryResult run, executor.Execute(plan));
    SHARK_CHECK(run.profile != nullptr);
    rendered = RenderAnalyzedPlan(*plan, *run.profile);
    std::vector<std::pair<std::string, uint64_t>> after =
        ctx_->metrics().registry().CounterSnapshot();
    std::string delta;
    for (size_t i = 0; i < after.size() && i < before.size(); ++i) {
      uint64_t d = after[i].second - before[i].second;
      if (d == 0) continue;
      delta += "  " + after[i].first + " +" + std::to_string(d) + "\n";
    }
    if (!delta.empty()) {
      rendered += "cluster metrics delta:\n" + delta;
    }
    result.metrics = run.metrics;
    result.profile = run.profile;
  } else {
    rendered = plan->ToString();
  }

  // One STRING column, one row per output line.
  Schema schema;
  SHARK_RETURN_NOT_OK(schema.AddField(Field{"plan", TypeKind::kString}));
  result.schema = schema;
  size_t start = 0;
  while (start < rendered.size()) {
    size_t end = rendered.find('\n', start);
    if (end == std::string::npos) end = rendered.size();
    Row row;
    row.fields.push_back(Value::String(rendered.substr(start, end - start)));
    result.rows.push_back(std::move(row));
    start = end + 1;
  }
  return result;
}

Result<QueryResult> SharkSession::ExecuteSelect(const SelectStmt& stmt,
                                                std::string* analyzed_plan) {
  Analyzer analyzer(&catalog_, &udfs_);
  SHARK_ASSIGN_OR_RETURN(PlanPtr plan, analyzer.AnalyzeSelect(stmt));
  plan = PlanSelect(plan);
  Executor executor(ctx_.get(), &catalog_, &udfs_, options_);
  Result<QueryResult> result = executor.Execute(plan);
  if (result.ok() && analyzed_plan != nullptr && result->profile != nullptr) {
    *analyzed_plan = RenderAnalyzedPlan(*plan, *result->profile);
  }
  return result;
}

Result<TableRdd> SharkSession::Sql2Rdd(const std::string& query) {
  SHARK_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(query));
  if (stmt.kind != StatementKind::kSelect) {
    return Status::InvalidArgument("sql2rdd expects a SELECT");
  }
  Analyzer analyzer(&catalog_, &udfs_);
  SHARK_ASSIGN_OR_RETURN(PlanPtr plan, analyzer.AnalyzeSelect(*stmt.select));
  PlanPtr optimized = PlanSelect(plan);
  Executor executor(ctx_.get(), &catalog_, &udfs_, options_);
  // The distributed result stays live: its shuffles and cached blocks are
  // released when the caller drops the last reference to the TableRdd.
  SHARK_ASSIGN_OR_RETURN(RddPtr<Row> rdd, executor.BuildRdd(optimized));
  TableRdd out;
  out.rdd = std::move(rdd);
  out.schema = Schema(optimized->output);
  out.build_metrics = executor.metrics();
  return out;
}

Result<std::string> SharkSession::Explain(const std::string& query) {
  SHARK_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(query));
  if (stmt.kind != StatementKind::kSelect) {
    return Status::InvalidArgument("EXPLAIN expects a SELECT");
  }
  Analyzer analyzer(&catalog_, &udfs_);
  SHARK_ASSIGN_OR_RETURN(PlanPtr plan, analyzer.AnalyzeSelect(*stmt.select));
  plan = PlanSelect(plan);
  return plan->ToString();
}

Status SharkSession::CreateDfsTable(const std::string& name,
                                    const Schema& schema,
                                    const std::vector<Row>& rows,
                                    int num_blocks, DfsFormat format) {
  if (catalog_.Exists(name)) {
    return Status::AlreadyExists("table exists: " + name);
  }
  SHARK_CHECK(num_blocks > 0);
  std::string file_name = "warehouse/" + ToLower(name);
  std::vector<DfsBlock> blocks(static_cast<size_t>(num_blocks));
  std::vector<std::shared_ptr<std::vector<Row>>> payloads;
  payloads.reserve(static_cast<size_t>(num_blocks));
  for (int b = 0; b < num_blocks; ++b) {
    payloads.push_back(std::make_shared<std::vector<Row>>());
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    size_t b = i * static_cast<size_t>(num_blocks) / std::max<size_t>(rows.size(), 1);
    payloads[b]->push_back(rows[i]);
  }
  uint64_t total_bytes = 0;
  for (int b = 0; b < num_blocks; ++b) {
    DfsBlock& blk = blocks[static_cast<size_t>(b)];
    blk.rows = payloads[static_cast<size_t>(b)]->size();
    for (const Row& r : *payloads[static_cast<size_t>(b)]) {
      blk.bytes += SerializedSizeOf(r, format);
    }
    total_bytes += blk.bytes;
    blk.data = payloads[static_cast<size_t>(b)];
  }
  SHARK_RETURN_NOT_OK(ctx_->dfs().CreateFile(file_name, format, std::move(blocks)));
  TableInfo info;
  info.name = name;
  info.schema = schema;
  info.dfs_file = file_name;
  info.format = format;
  info.approx_rows = rows.size();
  info.approx_bytes = total_bytes;
  return catalog_.CreateTable(std::move(info));
}

Status SharkSession::LoadRowsIntoMemstore(TableInfo* info, RddPtr<Row> rows,
                                          int distribute_key,
                                          int num_partitions,
                                          const TableInfo* align_with) {
  Schema schema = info->schema;
  RddPtr<Row> partitioned = rows;
  if (distribute_key >= 0) {
    SHARK_CHECK(num_partitions > 0);
    auto dep = std::make_shared<PlainShuffleDep<Row>>(
        rows, num_partitions, [distribute_key, num_partitions](const Row& r) {
          return static_cast<int>(KeyHash(r.Get(distribute_key)) %
                                  static_cast<uint64_t>(num_partitions));
        });
    partitioned = std::make_shared<RepartitionedRdd<Row>>(
        ctx_.get(), dep, IdentityAssignment(num_partitions),
        "distributeBy:" + info->name);
  }
  // Marshal rows into columnar partitions (§3.3): each loading task picks
  // its own compression schemes; no coordination.
  auto marshal = partitioned->MapPartitions(
      [schema](int, const std::vector<Row>& in, TaskContext* tctx) {
        tctx->work().rows_processed += 2 * in.size();  // field extraction+encode
        std::vector<TablePartitionPtr> out;
        out.push_back(TablePartition::FromRows(schema, in));
        return out;
      },
      "memstoreLoad:" + info->name);
  marshal->Cache();
  marshal->set_free_cache_reads(true);  // scans charge per decoded column
  if (align_with != nullptr && align_with->cached_rdd != nullptr) {
    // Place each partition where the co-partitioned partner's partition
    // lives so their join is node-local (§3.4).
    BlockManager* bm = &ctx_->block_manager();
    int partner_id = align_with->cached_rdd->id();
    marshal->set_preferred_hint([bm, partner_id](int p) {
      int loc = bm->Location(partner_id, p);
      return loc >= 0 ? std::vector<int>{loc} : std::vector<int>{};
    });
  }

  // Materialize the cache and pull per-partition statistics to the master.
  double start = ctx_->now();
  auto blocks = ctx_->scheduler().RunJob(marshal);
  SHARK_RETURN_NOT_OK(blocks.status());
  last_load_metrics_ = QueryMetrics();
  last_load_metrics_.AddJob(ctx_->scheduler().last_job());
  last_load_metrics_.virtual_seconds = ctx_->now() - start;

  info->cached_rdd = marshal;
  info->partition_stats.clear();
  info->num_partitions = marshal->num_partitions();
  info->distribute_key = distribute_key;
  uint64_t rows_total = 0;
  for (const BlockData& b : *blocks) {
    auto vec = std::static_pointer_cast<const std::vector<TablePartitionPtr>>(b);
    std::vector<ColumnStats> stats;
    if (!vec->empty() && (*vec)[0] != nullptr) {
      const TablePartition& part = *(*vec)[0];
      rows_total += part.num_rows();
      for (int c = 0; c < part.num_columns(); ++c) {
        stats.push_back(part.stats(c));
      }
    } else {
      stats.resize(static_cast<size_t>(schema.num_fields()));
    }
    info->partition_stats.push_back(std::move(stats));
  }
  if (info->approx_rows == 0) info->approx_rows = rows_total;
  return Status::OK();
}

Status SharkSession::CacheTable(const std::string& name,
                                const std::string& distribute_column,
                                const std::string& copartition_with) {
  SHARK_ASSIGN_OR_RETURN(TableInfo * info, catalog_.Get(name));
  if (info->is_cached()) return Status::OK();
  if (info->dfs_file.empty()) {
    return Status::ExecutionError("table has no DFS storage to load: " + name);
  }
  SHARK_ASSIGN_OR_RETURN(RddPtr<Row> rows, ctx_->FromDfs<Row>(info->dfs_file));

  int distribute_key = -1;
  int num_partitions = rows->num_partitions();
  if (!distribute_column.empty()) {
    distribute_key = info->schema.FieldIndex(distribute_column);
    if (distribute_key < 0) {
      return Status::AnalysisError("unknown DISTRIBUTE BY column: " +
                                   distribute_column);
    }
  }
  if (!copartition_with.empty()) {
    SHARK_ASSIGN_OR_RETURN(TableInfo * partner, catalog_.Get(copartition_with));
    if (!partner->is_cached() || partner->distribute_key < 0) {
      return Status::ExecutionError(
          "copartition partner must be cached with DISTRIBUTE BY: " +
          copartition_with);
    }
    if (distribute_key < 0) {
      return Status::AnalysisError(
          "copartitioned table needs its own DISTRIBUTE BY column");
    }
    num_partitions = partner->num_partitions;
    info->copartitioned_with = partner->name;
    return LoadRowsIntoMemstore(info, rows, distribute_key, num_partitions,
                                partner);
  }
  if (distribute_key >= 0) {
    num_partitions = ctx_->cluster().total_cores();
  }
  return LoadRowsIntoMemstore(info, rows, distribute_key, num_partitions);
}

Status SharkSession::UncacheTable(const std::string& name) {
  SHARK_ASSIGN_OR_RETURN(TableInfo * info, catalog_.Get(name));
  if (info->cached_rdd != nullptr) {
    info->cached_rdd->Uncache();
    info->cached_rdd = nullptr;
    info->partition_stats.clear();
    // Index postings point into the dropped columnar partitions; clearing
    // the map releases each tree's memory reservation via its RAII handle.
    info->indexes.clear();
  }
  return Status::OK();
}

Result<QueryResult> SharkSession::ExecuteCreateTable(
    const CreateTableStmt& stmt) {
  if (catalog_.Exists(stmt.name)) {
    return Status::AlreadyExists("table exists: " + stmt.name);
  }

  bool cache = false;
  auto cache_it = stmt.properties.find("shark.cache");
  if (cache_it != stmt.properties.end()) {
    cache = EqualsIgnoreCase(cache_it->second, "true");
  }
  std::string copartition;
  auto copart_it = stmt.properties.find("copartition");
  if (copart_it != stmt.properties.end()) copartition = copart_it->second;

  // Explicit-schema form: register an empty DFS table.
  if (stmt.select == nullptr) {
    Schema schema;
    for (const Field& f : stmt.columns) SHARK_RETURN_NOT_OK(schema.AddField(f));
    SHARK_RETURN_NOT_OK(
        CreateDfsTable(stmt.name, schema, {}, 1, DfsFormat::kText));
    return QueryResult{};
  }

  // CTAS: build the select's RDD, then either cache it or write it to DFS.
  Analyzer analyzer(&catalog_, &udfs_);
  SHARK_ASSIGN_OR_RETURN(PlanPtr plan, analyzer.AnalyzeSelect(*stmt.select));
  plan = PlanSelect(plan);
  Executor executor(ctx_.get(), &catalog_, &udfs_, options_);
  SHARK_ASSIGN_OR_RETURN(RddPtr<Row> rows, executor.BuildRdd(plan));

  TableInfo info;
  info.name = stmt.name;
  info.schema = Schema(plan->output);
  double start = ctx_->now();

  if (cache) {
    SHARK_RETURN_NOT_OK(catalog_.CreateTable(info));
    Status load = [&]() -> Status {
      SHARK_ASSIGN_OR_RETURN(TableInfo * stored, catalog_.Get(stmt.name));
      int distribute_key = -1;
      int num_partitions = rows->num_partitions();
      if (!stmt.select->distribute_by.empty()) {
        distribute_key = stored->schema.FieldIndex(stmt.select->distribute_by);
        if (distribute_key < 0) {
          return Status::AnalysisError("unknown DISTRIBUTE BY column: " +
                                       stmt.select->distribute_by);
        }
        num_partitions = ctx_->cluster().total_cores();
      }
      const TableInfo* align_with = nullptr;
      if (!copartition.empty()) {
        SHARK_ASSIGN_OR_RETURN(TableInfo * partner, catalog_.Get(copartition));
        if (!partner->is_cached() || partner->distribute_key < 0) {
          return Status::ExecutionError(
              "copartition partner must be cached with DISTRIBUTE BY: " +
              copartition);
        }
        if (distribute_key < 0) {
          return Status::AnalysisError(
              "copartitioned table needs DISTRIBUTE BY");
        }
        num_partitions = partner->num_partitions;
        stored->copartitioned_with = partner->name;
        align_with = partner;
      }
      return LoadRowsIntoMemstore(stored, rows, distribute_key,
                                  num_partitions, align_with);
    }();
    if (!load.ok()) {
      // A failed CTAS must not leave a phantom, half-loaded table behind —
      // including any index someone declared on it in the meantime (DropTable
      // clears dependent indexes). The cleanup status is advisory, but an
      // unexpected failure here would leak catalog state, so surface it.
      Status cleanup = catalog_.DropTable(stmt.name, /*if_exists=*/true);
      if (!cleanup.ok()) {
        SHARK_LOG(kWarn) << "failed-CTAS cleanup could not drop table '"
                        << stmt.name << "': " << cleanup.ToString();
      }
      return load;
    }
  } else {
    std::string file_name = "warehouse/" + ToLower(stmt.name);
    auto saved = ctx_->SaveToDfs(rows, file_name, DfsFormat::kText);
    SHARK_RETURN_NOT_OK(saved.status());
    info.dfs_file = file_name;
    info.approx_bytes = (*saved)->TotalBytes();
    info.approx_rows = (*saved)->TotalRows();
    SHARK_RETURN_NOT_OK(catalog_.CreateTable(info));
    last_load_metrics_ = QueryMetrics();
    last_load_metrics_.AddJob(ctx_->scheduler().last_job());
    last_load_metrics_.virtual_seconds = ctx_->now() - start;
  }

  QueryResult result;
  result.metrics = last_load_metrics_;
  return result;
}

Result<QueryResult> SharkSession::ExecuteCreateIndex(
    const CreateIndexStmt& stmt) {
  SHARK_ASSIGN_OR_RETURN(TableInfo * info, catalog_.Get(stmt.table));
  if (!info->is_cached()) {
    return Status::ExecutionError(
        "CREATE INDEX requires a cached table (postings reference columnar "
        "partitions): " + stmt.table);
  }
  int column = info->schema.FieldIndex(stmt.column);
  if (column < 0) {
    return Status::AnalysisError("unknown column in CREATE INDEX: " +
                                 stmt.column);
  }
  std::string key = ToLower(stmt.index_name);
  if (info->indexes.count(key) > 0) {
    return Status::AlreadyExists("index exists: " + stmt.index_name);
  }
  if (catalog_.FindTableOfIndex(stmt.index_name) != nullptr) {
    return Status::AlreadyExists("index exists on another table: " +
                                 stmt.index_name);
  }

  // Build job: each partition ships its key column to the master, charged
  // like a one-column scan of that partition.
  using BlockPtr = std::shared_ptr<IndexBuildBlock>;
  RddPtr<BlockPtr> blocks = info->cached_rdd->MapPartitions(
      [column](int partition, const std::vector<TablePartitionPtr>& in,
               TaskContext* tctx) {
        auto block = std::make_shared<IndexBuildBlock>();
        block->partition = partition;
        for (const TablePartitionPtr& part : in) {
          if (part == nullptr) continue;
          tctx->work().mem_read_bytes +=
              part->ColumnBytes(static_cast<size_t>(column));
          tctx->work().rows_processed += part->num_rows();
          for (size_t r = 0; r < part->num_rows(); ++r) {
            Row row = part->GetRow(r);
            block->keys.push_back(row.fields[static_cast<size_t>(column)]);
          }
        }
        return std::vector<BlockPtr>{block};
      },
      "indexBuild:" + info->name);

  double start = ctx_->now();
  SHARK_ASSIGN_OR_RETURN(std::vector<BlockPtr> parts, ctx_->Collect(blocks));
  QueryMetrics metrics;
  metrics.AddJob(ctx_->scheduler().last_job());
  metrics.virtual_seconds += ctx_->now() - start;

  // Master-side assembly in (partition, row) order — deterministic for a
  // given cached layout regardless of which task finished first.
  std::sort(parts.begin(), parts.end(),
            [](const BlockPtr& a, const BlockPtr& b) {
              return a->partition < b->partition;
            });
  auto tree = std::make_shared<BTreeIndex>();
  for (const BlockPtr& block : parts) {
    for (size_t r = 0; r < block->keys.size(); ++r) {
      tree->Insert(block->keys[r],
                   IndexPosting{block->partition, static_cast<uint32_t>(r)});
    }
  }

  IndexInfo index;
  index.name = stmt.index_name;
  index.column = column;
  index.memory_bytes = tree->MemoryBytes();
  index.tree = tree;
  MemoryManager* mm = &ctx_->memory_manager();
  mm->AddIndexBytes(index.memory_bytes);
  uint64_t charged = index.memory_bytes;
  index.reservation = std::shared_ptr<void>(
      nullptr, [mm, charged](void*) { mm->ReleaseIndexBytes(charged); });
  info->indexes.emplace(std::move(key), std::move(index));

  QueryResult result;
  result.metrics = metrics;
  Schema schema;
  SHARK_RETURN_NOT_OK(schema.AddField(Field{"index", TypeKind::kString}));
  SHARK_RETURN_NOT_OK(schema.AddField(Field{"keys", TypeKind::kInt64}));
  result.schema = schema;
  Row row;
  row.fields.push_back(Value::String(stmt.index_name));
  row.fields.push_back(Value::Int64(static_cast<int64_t>(tree->size())));
  result.rows.push_back(std::move(row));
  return result;
}

Result<QueryResult> SharkSession::ExecuteDropIndex(const DropIndexStmt& stmt) {
  TableInfo* info = nullptr;
  if (!stmt.table.empty()) {
    SHARK_ASSIGN_OR_RETURN(info, catalog_.Get(stmt.table));
    if (info->indexes.count(ToLower(stmt.index_name)) == 0) info = nullptr;
  } else {
    info = catalog_.FindTableOfIndex(stmt.index_name);
  }
  if (info == nullptr) {
    if (stmt.if_exists) return QueryResult{};
    return Status::NotFound("index not found: " + stmt.index_name);
  }
  // Erasing the IndexInfo releases its memory reservation (RAII handle).
  info->indexes.erase(ToLower(stmt.index_name));
  return QueryResult{};
}

}  // namespace shark
