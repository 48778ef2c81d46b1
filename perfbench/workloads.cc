#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/random.h"
#include "server/client.h"
#include "server/demo_dataset.h"
#include "server/http.h"
#include "server/server.h"
#include "sql/parser.h"
#include "sql/reference_eval.h"
#include "sql/session.h"
#include "workloads/pavlo.h"

namespace shark {
namespace perfbench {

namespace {

// Set-up is repeated on fresh sessions and run.py reports the median: a
// single short set-up is bimodal on a shared VM. The last session is kept.
constexpr int kSetupReps = 5;

// ---------------------------------------------------------------------------
// Process measurements and the memory guard.

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double CurrentRssMb() {
  std::ifstream in("/proc/self/statm");
  uint64_t pages = 0, resident = 0;
  in >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double MemTotalMb() {
  std::ifstream in("/proc/meminfo");
  std::string key;
  uint64_t kb = 0;
  while (in >> key >> kb) {
    if (key == "MemTotal:") return static_cast<double>(kb) / 1024.0;
    in.ignore(256, '\n');
  }
  return 0.0;
}

// The engine's per-query memory growth is a known defect; a run whose op
// sequence would push the process toward the machine's limit stops with an
// error instead of swapping or getting killed.
double RssLimitMb() {
  static const double limit = MemTotalMb() * 0.5;
  return limit;
}

void CheckMemory() {
  double rss = CurrentRssMb();
  if (rss > RssLimitMb()) {
    throw std::runtime_error("resident set " + std::to_string(rss) +
                             " MB exceeds the guard of " +
                             std::to_string(RssLimitMb()) +
                             " MB (half of MemTotal)");
  }
}

// ---------------------------------------------------------------------------
// Op sequence hashing (FNV-1a).

class SeqHash {
 public:
  void Add(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 1099511628211ULL;
    }
    h_ ^= 0xff;
    h_ *= 1099511628211ULL;
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  uint64_t h_ = 14695981039346656037ULL;
};

// ---------------------------------------------------------------------------
// Answer checks: order-insensitive multiset comparison with a relative
// tolerance on doubles (aggregates sum in a different order than the
// oracle).

bool ValuesClose(const Value& a, const Value& b) {
  if (a == b) return true;
  if (a.is_null() || b.is_null()) return false;
  bool num_a = a.kind() == TypeKind::kDouble || a.kind() == TypeKind::kInt64;
  bool num_b = b.kind() == TypeKind::kDouble || b.kind() == TypeKind::kInt64;
  if (!num_a || !num_b) return false;
  double x = a.AsDouble();
  double y = b.AsDouble();
  return std::fabs(x - y) <= 1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
}

std::string CompareAnswer(std::vector<Row> want, std::vector<Row> got) {
  if (want.size() != got.size()) {
    return "row count " + std::to_string(got.size()) + " != expected " +
           std::to_string(want.size());
  }
  auto less = [](const Row& x, const Row& y) {
    size_t n = std::min(x.fields.size(), y.fields.size());
    for (size_t i = 0; i < n; ++i) {
      int c = x.fields[i].Compare(y.fields[i]);
      if (c != 0) return c < 0;
    }
    return x.fields.size() < y.fields.size();
  };
  std::sort(want.begin(), want.end(), less);
  std::sort(got.begin(), got.end(), less);
  for (size_t i = 0; i < want.size(); ++i) {
    const Row& a = want[i];
    const Row& b = got[i];
    bool same = a.fields.size() == b.fields.size();
    for (size_t c = 0; same && c < a.fields.size(); ++c) {
      same = ValuesClose(a.fields[c], b.fields[c]);
    }
    if (!same) {
      return "row [" + b.ToString() + "] != expected [" + a.ToString() + "]";
    }
  }
  return "";
}

Result<std::vector<Row>> OracleRows(SharkSession* session,
                                    const std::string& sql) {
  SHARK_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  if (stmt.kind != StatementKind::kSelect) {
    return Status::InvalidArgument("oracle needs a SELECT: " + sql);
  }
  SHARK_ASSIGN_OR_RETURN(QueryResult r,
                         ReferenceExecute(*stmt.select, session->catalog(),
                                          session->context().dfs(),
                                          &session->udfs()));
  return std::move(r.rows);
}

// ---------------------------------------------------------------------------
// Engine counters, read through the public metrics registry.

std::map<std::string, double> Counters(SharkSession* session) {
  std::map<std::string, double> out;
  for (const auto& [name, value] :
       session->context().metrics().registry().CounterSnapshot()) {
    out[name] = static_cast<double>(value);
  }
  return out;
}

std::map<std::string, double> Delta(const std::map<std::string, double>& a,
                                    const std::map<std::string, double>& b) {
  std::map<std::string, double> d;
  for (const auto& [name, v] : b) {
    auto it = a.find(name);
    d[name] = v - (it == a.end() ? 0.0 : it->second);
  }
  return d;
}

double Get(const std::map<std::string, double>& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

/// Value of an unlabelled gauge from a Prometheus text exposition.
double GaugeFromText(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, name.size() + 1, name + " ") == 0) {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  return 0.0;
}

double Gauge(SharkSession* session, const std::string& name) {
  return GaugeFromText(
      session->context().metrics().registry().TextExposition(), name);
}

// ---------------------------------------------------------------------------
// Loading path with per-phase timing (the columnar/dfs/stats/index write
// layers).

struct LoadStats {
  double dfs_write_ms = 0.0;
  double dfs_mb = 0.0;
  double cache_ms = 0.0;
  double cache_in_mb = 0.0;   // DFS bytes the load read
  double cache_out_mb = 0.0;  // columnar bytes it inserted into the cache
  double analyze_ms = 0.0;
  int analyzes = 0;
  double index_ms = 0.0;
  int indexes = 0;
  double virtual_s = 0.0;

  void Reset() { *this = LoadStats(); }
};

double DfsMb(SharkSession* session, const std::string& table) {
  auto info = session->catalog().Get(table);
  if (!info.ok()) return 0.0;
  auto file = session->context().dfs().GetFile((*info)->dfs_file);
  if (!file.ok()) return 0.0;
  return static_cast<double>((*file)->TotalBytes()) / 1e6;
}

/// Passes on a failed statement's status; adds a successful one's virtual
/// seconds to *virtual_s.
Status AddVirtual(Result<QueryResult> r, double* virtual_s) {
  SHARK_RETURN_NOT_OK(r.status());
  *virtual_s += r->metrics.virtual_seconds;
  return Status::OK();
}

/// CacheTable + ANALYZE TABLE + CREATE INDEX for every name in
/// `index_columns` on a table already written to the DFS.
Status CacheAnalyzeIndex(SharkSession* session, const std::string& table,
                         const std::vector<std::string>& index_columns,
                         SpanLog* spans, int64_t op_id, int parent,
                         LoadStats* st) {
  {
    ScopedSpan span(spans, "load.cache", op_id, parent);
    double before = Gauge(session, "shark_cache_resident_bytes") +
                    Get(Counters(session), "shark_cache_evicted_bytes_total");
    Clock::time_point t0 = Clock::now();
    SHARK_RETURN_NOT_OK(session->CacheTable(table));
    st->cache_ms += MsBetween(t0, Clock::now());
    double after = Gauge(session, "shark_cache_resident_bytes") +
                   Get(Counters(session), "shark_cache_evicted_bytes_total");
    st->cache_in_mb += DfsMb(session, table);
    st->cache_out_mb += (after - before) / 1e6;
    st->virtual_s += session->last_load_metrics().virtual_seconds;
  }
  {
    ScopedSpan span(spans, "load.analyze", op_id, parent);
    Clock::time_point t0 = Clock::now();
    SHARK_RETURN_NOT_OK(
        AddVirtual(session->Sql("ANALYZE TABLE " + table), &st->virtual_s));
    st->analyze_ms += MsBetween(t0, Clock::now());
    st->analyzes++;
  }
  for (const std::string& col : index_columns) {
    ScopedSpan span(spans, "load.index", op_id, parent);
    Clock::time_point t0 = Clock::now();
    SHARK_RETURN_NOT_OK(AddVirtual(session->Sql("CREATE INDEX idx_" + table +
                                                "_" + col + " ON " + table +
                                                "(" + col + ")"),
                                   &st->virtual_s));
    st->index_ms += MsBetween(t0, Clock::now());
    st->indexes++;
  }
  return Status::OK();
}

Status WriteDfs(SharkSession* session, const std::string& table,
                const Schema& schema, const std::vector<Row>& rows, int blocks,
                SpanLog* spans, int64_t op_id, int parent, LoadStats* st) {
  ScopedSpan span(spans, "load.dfs_write", op_id, parent);
  Clock::time_point t0 = Clock::now();
  SHARK_RETURN_NOT_OK(session->CreateDfsTable(table, schema, rows, blocks));
  st->dfs_write_ms += MsBetween(t0, Clock::now());
  st->dfs_mb += DfsMb(session, table);
  return Status::OK();
}

void AddLoadLayers(const LoadStats& st, RunResult* out) {
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  out->layer["dfs.write_ms_per_mb"] = ratio(st.dfs_write_ms, st.dfs_mb);
  out->layer["columnar.load_ms_per_mb"] = ratio(st.cache_ms, st.cache_in_mb);
  out->layer["columnar.bytes_per_user_byte"] =
      ratio(st.cache_out_mb, st.cache_in_mb);
  out->layer["stats.analyze_ms"] = ratio(st.analyze_ms, st.analyzes);
  out->layer["index.build_ms"] = ratio(st.index_ms, st.indexes);
}

/// Runs a workload's set-up kSetupReps times, each on a fresh session built
/// by `make`, and returns the last session for the timed ops; `load` holds
/// the last set-up's loading figures.
std::shared_ptr<SharkSession> RepeatedSetup(
    const std::function<std::shared_ptr<SharkSession>()>& make,
    const std::function<Status(SharkSession*)>& setup, LoadStats* load,
    RunResult* out) {
  std::shared_ptr<SharkSession> session;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    session.reset();
    load->Reset();
    session = make();
    Clock::time_point t0 = Clock::now();
    Status s = setup(session.get());
    if (!s.ok()) throw std::runtime_error("set-up failed: " + s.ToString());
    out->setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  return session;
}

// ---------------------------------------------------------------------------
// One in-process SQL op. Untraced: a single Sql() call. Traced: the same
// statement through ParseStatement, Explain and Sql, each in its own span,
// so parse, plan (Explain minus parse) and execution (Sql minus Explain)
// can be told apart from outside.

/// The span log for one op: the run's log when the op is traced, otherwise
/// a disabled one.
SpanLog* SpansFor(SpanLog* spans, bool traced) {
  static SpanLog off(false);
  return traced ? spans : &off;
}

struct SqlOp {
  Result<QueryResult> result = Status::Internal("not run");
  double ms = 0.0;
  bool index_plan = false;  // traced only: Explain shows IndexRangeScan
};

SqlOp RunSql(SharkSession* session, const std::string& sql, SpanLog* spans,
             bool traced, int64_t op_id, const char* root_name) {
  SqlOp op;
  Clock::time_point t0 = Clock::now();
  if (!traced) {
    op.result = session->Sql(sql);
    op.ms = MsBetween(t0, Clock::now());
    return op;
  }
  ScopedSpan root(spans, root_name, op_id);
  {
    ScopedSpan s(spans, "sql.parse", op_id, root.id());
    Result<Statement> parsed = ParseStatement(sql);
    if (!parsed.ok()) {
      op.result = parsed.status();
      return op;
    }
  }
  {
    ScopedSpan s(spans, "sql.explain", op_id, root.id());
    Result<std::string> plan = session->Explain(sql);
    op.index_plan =
        plan.ok() && plan->find("IndexRangeScan") != std::string::npos;
  }
  {
    ScopedSpan s(spans, "sql.exec", op_id, root.id());
    op.result = session->Sql(sql);
  }
  op.ms = MsBetween(t0, Clock::now());
  return op;
}

// Checks one op's answer against the expected rows and records it.
void Record(RunResult* out, const std::string& type, const SqlOp& op,
            const std::vector<Row>& want, bool traced, SpanLog* spans,
            int64_t op_id) {
  OpRecord rec;
  rec.type = type;
  rec.ms = op.ms;
  rec.traced = traced;
  std::string err;
  if (!op.result.ok()) {
    err = op.result.status().ToString();
  } else {
    ScopedSpan s(SpansFor(spans, traced), "check", op_id);
    err = CompareAnswer(want, op.result->rows);
  }
  rec.ok = err.empty();
  if (!rec.ok && out->errors.size() < 10) {
    out->errors.push_back(type + " op " + std::to_string(op_id) + ": " + err);
  }
  out->ops.push_back(rec);
}

/// In a traced run every second op of each type is left untraced, so the
/// run measures its own tracing overhead on interleaved, equal op mixes.
std::vector<bool> TraceFlags(const RunSpec& spec,
                             const std::vector<std::string>& types) {
  std::map<std::string, size_t> seen;
  std::vector<bool> flags;
  for (const std::string& t : types) {
    flags.push_back(spec.trace && seen[t]++ % 2 == 0);
  }
  return flags;
}

/// The same type mix, shuffled by the seed.
std::vector<std::string> ShuffledTypes(
    const std::vector<std::pair<std::string, int>>& counts, Random* rng) {
  std::vector<std::string> types;
  for (const auto& [type, n] : counts) {
    for (int i = 0; i < n; ++i) types.push_back(type);
  }
  for (size_t i = types.size(); i > 1; --i) {
    std::swap(types[i - 1], types[rng->Uniform(i)]);
  }
  return types;
}

void AddCounterLayers(const std::map<std::string, double>& d, double ops,
                      RunResult* out) {
  auto per_op = [&](double v) { return ops > 0 ? v / ops : 0.0; };
  out->layer["rdd.tasks_per_op"] = per_op(Get(d, "shark_tasks_launched_total"));
  out->layer["rdd.stages_per_op"] = per_op(Get(d, "shark_stages_total"));
  out->layer["rdd.shuffle_net_mb_per_op"] =
      per_op(Get(d, "shark_net_read_bytes_total")) / 1e6;
  double hits = Get(d, "shark_cache_hit_blocks_total");
  double misses = Get(d, "shark_cache_miss_blocks_total");
  out->layer["rdd.cache_hit_frac"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  out->layer["rdd.cache_evicted_mb"] =
      Get(d, "shark_cache_evicted_bytes_total") / 1e6;
  out->layer["mem.spill_mb"] = Get(d, "shark_mem_spill_bytes_total") / 1e6;
  out->layer["mem.reservations_denied"] =
      Get(d, "shark_mem_reservations_denied_total");
}

/// Query-plan layers summed over the ops' QueryMetrics.
struct PlanTally {
  double scanned = 0, pruned = 0, replans = 0, index_ops = 0, point_ops = 0;

  void Add(const QueryMetrics& m) {
    scanned += m.partitions_scanned;
    pruned += m.partitions_pruned;
    replans += m.replans;
  }
  void Emit(RunResult* out) const {
    out->layer["sql.pruned_frac"] =
        scanned + pruned > 0 ? pruned / (scanned + pruned) : 0.0;
    out->layer["sql.replans"] = replans;
    out->layer["index.plan_hit_frac"] =
        point_ops > 0 ? index_ops / point_ops : 0.0;
  }
};

// ---------------------------------------------------------------------------
// olap_cached: the Pavlo selection, coarse and fine aggregations and join
// on the paper's 100-node cluster, closed loop, one session, cached tables.

constexpr int kOlapNodes = 100;
constexpr int64_t kOlapRankings = 3000;
constexpr int kOlapVisitsBlocks = 400;
constexpr int kOlapRankingsBlocks = 200;
constexpr int64_t kOlapVisits = 25000;

PavloConfig OlapData(uint64_t seed) {
  PavloConfig data;
  data.rankings_rows = kOlapRankings;
  data.uservisits_rows = kOlapVisits;
  data.rankings_blocks = kOlapRankingsBlocks;
  data.uservisits_blocks = kOlapVisitsBlocks;
  data.seed = seed;
  return data;
}

std::shared_ptr<SharkSession> OlapSession(const ResourceConfig& res) {
  ClusterConfig cfg;
  cfg.num_nodes = kOlapNodes;
  cfg.virtual_data_scale = OlapData(0).VirtualScale();
  cfg.host_threads = res.host_threads;
  return std::make_shared<SharkSession>(std::make_shared<ClusterContext>(cfg));
}

Status OlapSetup(SharkSession* session, uint64_t seed, SpanLog* spans,
                 LoadStats* st) {
  {
    // GeneratePavloTables generates the rows and writes them in one call,
    // so this phase includes row generation.
    ScopedSpan span(spans, "load.dfs_write", -1);
    Clock::time_point t0 = Clock::now();
    SHARK_RETURN_NOT_OK(GeneratePavloTables(session, OlapData(seed)));
    st->dfs_write_ms += MsBetween(t0, Clock::now());
    st->dfs_mb += DfsMb(session, "rankings") + DfsMb(session, "uservisits");
  }
  for (const char* table : {"rankings", "uservisits"}) {
    SHARK_RETURN_NOT_OK(
        CacheAnalyzeIndex(session, table, {}, spans, -1, -1, st));
  }
  return Status::OK();
}

void RunOlap(const RunSpec& spec, const ResourceConfig& res, SpanLog* spans,
             RunResult* out) {
  LoadStats load;
  std::shared_ptr<SharkSession> session = RepeatedSetup(
      [&] { return OlapSession(res); },
      [&](SharkSession* s) { return OlapSetup(s, spec.seed, spans, &load); },
      &load, out);
  AddLoadLayers(load, out);

  // Op counts are a function of --seconds only, so RSS and counters are a
  // function of the seed, never of how fast this machine happens to be.
  // Every successful shuffle query leaves its map outputs registered (a
  // known leak of about 40 MB per aggregate and 380 MB per join here), so
  // the budget stops growing at 4 joins, about 3 GB of resident memory.
  const int joins = std::clamp(spec.seconds / 5, 1, 4);
  Random rng(spec.seed * 7919 + 1);
  std::vector<std::string> types = ShuffledTypes(
      {{"selection", 25 * joins},
       {"agg_coarse", 2 * joins},
       {"agg_fine", 2 * joins},
       {"join", joins}},
      &rng);
  const int64_t thresholds[] = {rng.UniformInt(50, 150),
                                rng.UniformInt(150, 400),
                                rng.UniformInt(400, 1200)};
  std::vector<std::string> sqls;
  SeqHash hash;
  for (const std::string& type : types) {
    std::string sql;
    if (type == "selection") {
      sql = PavloSelectionQuery(thresholds[rng.Uniform(3)]);
    } else if (type == "agg_coarse") {
      sql = PavloAggregationCoarseQuery();
    } else if (type == "agg_fine") {
      sql = PavloAggregationFineQuery();
    } else {
      sql = PavloJoinQuery();
    }
    hash.Add(type);
    hash.Add(sql);
    sqls.push_back(std::move(sql));
  }
  out->op_seq_hash = hash.Hex();

  // Expected answers for every distinct statement, from the reference
  // oracle, before anything is timed; one untimed warm-up run of each.
  std::map<std::string, std::vector<Row>> expected;
  for (const std::string& sql : sqls) {
    if (expected.count(sql) != 0) continue;
    auto rows = OracleRows(session.get(), sql);
    if (!rows.ok()) {
      throw std::runtime_error("oracle failed: " + rows.status().ToString());
    }
    expected[sql] = std::move(*rows);
    auto warm = session->Sql(sql);
    std::string err = warm.ok() ? CompareAnswer(expected[sql], warm->rows)
                                : warm.status().ToString();
    if (!err.empty()) throw std::runtime_error("warm-up: " + err);
  }

  const std::vector<bool> traced_ops = TraceFlags(spec, types);
  auto before = Counters(session.get());
  PlanTally plan;
  double cpu0 = CpuSeconds();
  Clock::time_point w0 = Clock::now();
  for (size_t i = 0; i < sqls.size(); ++i) {
    const bool traced = traced_ops[i];
    SqlOp op = RunSql(session.get(), sqls[i], spans, traced,
                      static_cast<int64_t>(i), "op");
    if (op.result.ok()) {
      out->virtual_s_total += op.result->metrics.virtual_seconds;
      plan.Add(op.result->metrics);
    }
    Record(out, types[i], op, expected[sqls[i]], traced, spans,
           static_cast<int64_t>(i));
    CheckMemory();
  }
  out->window_s = MsBetween(w0, Clock::now()) / 1e3;
  out->cpu_s = CpuSeconds() - cpu0;
  out->virtual_deterministic = true;
  out->counters = Delta(before, Counters(session.get()));
  AddCounterLayers(out->counters, static_cast<double>(sqls.size()), out);
  plan.Emit(out);
  out->layer["rdd.shuffle_resident_mb"] =
      Gauge(session.get(), "shark_shuffle_resident_bytes") / 1e6;
  out->info["cluster"] = std::to_string(kOlapNodes) + " nodes x 8 cores";
  out->info["rows"] = "rankings " + std::to_string(kOlapRankings) +
                      ", uservisits " + std::to_string(kOlapVisits);
}

// ---------------------------------------------------------------------------
// serving_point: an in-process SharkServer over indexed demo tables, driven
// open loop by a fixed Poisson schedule from several SharkClient
// connections.

constexpr int kServingNodes = 4;
constexpr int kServingCores = 2;
constexpr int kServingRankings = 20000;
constexpr int kServingVisits = 2000;
constexpr double kServingRate = 200.0;  // offered ops/s, well below the knee
constexpr int kRangeWidth = 20;
constexpr size_t kWarmupOps = 90;

std::shared_ptr<SharkSession> ServingSession(const ResourceConfig& res) {
  ClusterConfig cfg;
  cfg.num_nodes = kServingNodes;
  cfg.hardware.cores_per_node = kServingCores;
  cfg.host_threads = res.host_threads;
  return std::make_shared<SharkSession>(std::make_shared<ClusterContext>(cfg));
}

Status ServingSetup(SharkSession* session, SpanLog* spans, LoadStats* st) {
  {
    ScopedSpan span(spans, "load.dfs_write", -1);
    Clock::time_point t0 = Clock::now();
    SHARK_RETURN_NOT_OK(
        LoadDemoDataset(session, kServingRankings, kServingVisits));
    st->dfs_write_ms += MsBetween(t0, Clock::now());
    st->dfs_mb += DfsMb(session, "rankings") + DfsMb(session, "visits");
  }
  return CacheAnalyzeIndex(session, "rankings", {"pageURL", "pageRank"},
                           spans, -1, -1, st);
}

struct ServingOp {
  std::string type;
  std::string sql;
  std::vector<Row> want;  // derived from the demo generator
  double due_ms = 0.0;
};

std::vector<ServingOp> ServingSchedule(const RunSpec& spec, SeqHash* hash) {
  const int n = static_cast<int>(kServingRate * spec.seconds);
  const int ranges = n * 3 / 10;
  Random rng(spec.seed * 104729 + 3);
  std::vector<std::string> types =
      ShuffledTypes({{"point", n - ranges}, {"range", ranges}}, &rng);
  // A Poisson process conditioned on n arrivals in the window: n uniform
  // due times, sorted. The window length, and so the offered rate, is then
  // the same for every seed.
  std::vector<double> due(types.size());
  for (double& d : due) d = rng.NextDouble() * spec.seconds * 1e3;
  std::sort(due.begin(), due.end());
  std::vector<ServingOp> ops;
  ops.reserve(types.size());
  for (size_t i = 0; i < types.size(); ++i) {
    ServingOp op;
    op.type = types[i];
    op.due_ms = due[i];
    if (op.type == "point") {
      int64_t k = rng.UniformInt(0, kServingRankings - 1);
      op.sql = "SELECT pageURL, pageRank, avgDuration FROM rankings WHERE "
               "pageURL = 'url" + std::to_string(k) + "'";
      op.want.push_back(Row({Value::String("url" + std::to_string(k)),
                             Value::Int64(k), Value::Int64(k % 10)}));
    } else {
      int64_t lo = rng.UniformInt(0, kServingRankings - kRangeWidth);
      op.sql = "SELECT COUNT(*) FROM rankings WHERE pageRank BETWEEN " +
               std::to_string(lo) + " AND " +
               std::to_string(lo + kRangeWidth - 1);
      op.want.push_back(Row({Value::Int64(kRangeWidth)}));
    }
    hash->Add(op.type);
    hash->Add(op.sql);
    ops.push_back(std::move(op));
  }
  return ops;
}

/// Parses the text cells of a wire reply back into Values of the expected
/// row's types, so the same multiset comparison applies. A cell that does
/// not parse stays a string and so fails the comparison.
std::vector<Row> WireRows(const ClientResult& r, const std::vector<Row>& want) {
  std::vector<Row> rows;
  for (const auto& cells : r.rows) {
    Row row;
    for (size_t c = 0; c < cells.size(); ++c) {
      const std::string& cell = cells[c];
      const bool int_col = !want.empty() && c < want[0].fields.size() &&
                           want[0].fields[c].kind() == TypeKind::kInt64;
      char* end = nullptr;
      long long v = int_col ? std::strtoll(cell.c_str(), &end, 10) : 0;
      if (int_col && !cell.empty() && *end == '\0') {
        row.fields.push_back(Value::Int64(v));
      } else {
        row.fields.push_back(Value::String(cell));
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void RunServing(const RunSpec& spec, const ResourceConfig& res, SpanLog* spans,
                RunResult* out) {
  LoadStats load;
  std::shared_ptr<SharkSession> session = RepeatedSetup(
      [&] { return ServingSession(res); },
      [&](SharkSession* s) { return ServingSetup(s, spans, &load); }, &load,
      out);
  AddLoadLayers(load, out);

  SeqHash hash;
  std::vector<ServingOp> ops = ServingSchedule(spec, &hash);
  out->op_seq_hash = hash.Hex();
  std::vector<std::string> types;
  for (const ServingOp& op : ops) types.push_back(op.type);
  const std::vector<bool> traced_ops = TraceFlags(spec, types);

  SharkServer::Options opts;
  opts.port = 0;
  opts.obs_port = 0;
  opts.slow_query_virtual_seconds = -1.0;
  if (spec.trace) opts.query_log_path = spec.out_dir + "/query_log.jsonl";
  auto before = Counters(session.get());
  auto server = std::make_unique<SharkServer>(session, opts);
  Status started = server->Start();
  if (!started.ok()) {
    throw std::runtime_error("server start: " + started.ToString());
  }

  const size_t n = ops.size();
  out->ops.assign(n, OpRecord());
  out->query_ids.assign(n, "");
  out->late_ms.assign(n, 0.0);
  std::vector<double> virtual_s(n, 0.0);
  std::vector<std::vector<std::string>> conn_errors(
      static_cast<size_t>(res.connections));
  std::vector<std::unique_ptr<SharkClient>> clients;
  for (int c = 0; c < res.connections; ++c) {
    clients.push_back(std::make_unique<SharkClient>());
    Status s = clients.back()->Connect("127.0.0.1", server->port());
    if (!s.ok()) throw std::runtime_error("connect: " + s.ToString());
  }

  // Untimed, checked warm-up over every connection, so lazily created
  // server and engine state does not land in the first timed ops.
  std::vector<std::thread> threads;
  std::vector<std::string> warm_errors(static_cast<size_t>(res.connections));
  for (int c = 0; c < res.connections; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); i < kWarmupOps && i < n;
           i += static_cast<size_t>(res.connections)) {
        auto r = clients[static_cast<size_t>(c)]->QueryWithId(
            "w" + std::to_string(i), ops[i].sql);
        std::string err = r.ok() ? CompareAnswer(ops[i].want,
                                                 WireRows(*r, ops[i].want))
                                 : r.status().ToString();
        if (!err.empty()) warm_errors[static_cast<size_t>(c)] = err;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  threads.clear();
  for (const std::string& err : warm_errors) {
    if (!err.empty()) throw std::runtime_error("warm-up: " + err);
  }

  double cpu0 = CpuSeconds();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  for (int c = 0; c < res.connections; ++c) {
    threads.emplace_back([&, c] {
      SharkClient* client = clients[static_cast<size_t>(c)].get();
      for (size_t i = static_cast<size_t>(c); i < n;
           i += static_cast<size_t>(res.connections)) {
        const ServingOp& op = ops[i];
        Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(op.due_ms));
        std::this_thread::sleep_until(due);
        Clock::time_point sent = Clock::now();
        const bool traced = traced_ops[i];
        const std::string qid = "p" + std::to_string(i);
        Result<ClientResult> r = Status::Internal("not run");
        {
          SpanLog* sl = SpansFor(spans, traced);
          ScopedSpan root(sl, "op", static_cast<int64_t>(i));
          ScopedSpan rt(sl, "server.roundtrip", static_cast<int64_t>(i),
                        root.id());
          r = client->QueryWithId(qid, op.sql);
        }
        Clock::time_point done = Clock::now();
        OpRecord& rec = out->ops[i];
        rec.type = op.type;
        rec.traced = traced;
        rec.ms = MsBetween(due, done);
        out->late_ms[i] = MsBetween(due, sent);
        out->query_ids[i] = qid;
        std::string err = r.ok() ? CompareAnswer(op.want, WireRows(*r, op.want))
                                 : r.status().ToString();
        if (r.ok()) virtual_s[i] = r->virtual_seconds;
        rec.ok = err.empty();
        auto& errs = conn_errors[static_cast<size_t>(c)];
        if (!rec.ok && errs.size() < 10) {
          errs.push_back(op.type + " op " + std::to_string(i) + ": " + err);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out->window_s = MsBetween(start, Clock::now()) / 1e3;
  out->cpu_s = CpuSeconds() - cpu0;
  CheckMemory();
  for (const auto& errs : conn_errors) {
    for (const std::string& e : errs) {
      if (out->errors.size() < 10) out->errors.push_back(e);
    }
  }
  for (double v : virtual_s) out->virtual_s_total += v;

  if (spec.trace) {
    auto metrics = HttpGet(server->obs_port(), "/metrics");
    if (metrics.ok()) {
      double queued = GaugeFromText(*metrics, "shark_jobs_queued_total");
      double admitted = GaugeFromText(*metrics, "shark_jobs_admitted_total");
      out->layer["job_manager.queued_frac"] =
          admitted > 0 ? queued / admitted : 0.0;
    }
  }
  for (auto& client : clients) client->Close();
  server->Stop();
  server.reset();
  // The counters are read only while the server is stopped, so the delta
  // also covers the warm-up ops.
  out->counters = Delta(before, Counters(session.get()));
  AddCounterLayers(out->counters,
                   static_cast<double>(n + std::min(n, kWarmupOps)), out);
  out->layer["rdd.shuffle_resident_mb"] =
      Gauge(session.get(), "shark_shuffle_resident_bytes") / 1e6;

  if (spec.trace) {
    // In-process replay of the traced ops, serially and under the same op
    // ids, to split the server-reported latency into engine time and
    // JobManager hand-off.
    PlanTally plan;
    for (size_t i = 0; i < n; ++i) {
      if (!traced_ops[i]) continue;
      SqlOp op = RunSql(session.get(), ops[i].sql, spans, true,
                        static_cast<int64_t>(i), "replay");
      if (op.result.ok()) plan.Add(op.result->metrics);
      if (ops[i].type == "point") {
        plan.point_ops++;
        if (op.index_plan) plan.index_ops++;
      }
    }
    plan.Emit(out);
  }
  out->info["cluster"] = std::to_string(kServingNodes) + " nodes x " +
                         std::to_string(kServingCores) + " cores";
  out->info["offered_rate"] = std::to_string(kServingRate) + " ops/s";
  out->info["rows"] = "rankings " + std::to_string(kServingRankings);
}

// ---------------------------------------------------------------------------
// load_refresh: every cycle drops the batch from k cycles ago and loads a
// fresh one (DFS write, columnar cache, ANALYZE, CREATE INDEX), then runs a
// point query and an aggregate on the new batch and the same aggregate on
// the oldest live batch. The block cache holds fewer batches than are
// live, so loads evict and the oldest batch is read back from the DFS.

constexpr int kLoadNodes = 10;
constexpr int kLoadBatchRows = 50000;
constexpr int kLoadBlocks = 40;
constexpr int kLiveBatches = 4;
constexpr double kLoadScale = 1000.0;
// Per-node memory budget, divided by kLoadScale like the cache: 5.4 MB of
// real cache over the cluster against about 1.9 MB of columnar data per
// batch, so fewer than three of the four live batches stay cached.
constexpr uint64_t kLoadMemPerNode = 512ULL * 1024 * 1024;

Schema BatchSchema() {
  return Schema({{"sourceIP", TypeKind::kString},
                 {"destURL", TypeKind::kString},
                 {"visitDate", TypeKind::kDate},
                 {"adRevenue", TypeKind::kDouble},
                 {"countryCode", TypeKind::kString},
                 {"duration", TypeKind::kInt64}});
}

std::vector<Row> BatchRows(Random* rng) {
  static const char* kCountries[] = {"USA", "GBR", "DEU", "FRA",
                                     "JPN", "BRA", "IND", "CHN"};
  std::vector<Row> rows;
  rows.reserve(kLoadBatchRows);
  for (int i = 0; i < kLoadBatchRows; ++i) {
    rows.push_back(Row(
        {Value::String("10." + std::to_string(rng->Uniform(250)) + "." +
                       std::to_string(rng->Uniform(250)) + "." +
                       std::to_string(rng->Uniform(250))),
         Value::String("url" + std::to_string(rng->Uniform(5000))),
         Value::Date(10957 + static_cast<int64_t>(rng->Uniform(365))),
         Value::Double(static_cast<double>(rng->UniformInt(1, 1000)) / 100.0),
         Value::String(kCountries[rng->Uniform(8)]),
         Value::Int64(rng->UniformInt(1, 600))}));
  }
  return rows;
}

std::shared_ptr<SharkSession> LoadSession(const ResourceConfig& res) {
  ClusterConfig cfg;
  cfg.num_nodes = kLoadNodes;
  cfg.virtual_data_scale = kLoadScale;
  cfg.hardware.mem_bytes_per_node = kLoadMemPerNode;
  cfg.host_threads = res.host_threads;
  return std::make_shared<SharkSession>(std::make_shared<ClusterContext>(cfg));
}

std::string BatchName(int b) { return "batch_" + std::to_string(b); }

std::string AggSql(int b) {
  return "SELECT countryCode, COUNT(*), SUM(duration) FROM " + BatchName(b) +
         " GROUP BY countryCode";
}

/// Writes batch `b` to the DFS, caches, analyzes and indexes it.
Status LoadBatch(SharkSession* session, int b, const std::vector<Row>& rows,
                 SpanLog* spans, int64_t op_id, int parent, LoadStats* st) {
  SHARK_RETURN_NOT_OK(WriteDfs(session, BatchName(b), BatchSchema(), rows,
                               kLoadBlocks, spans, op_id, parent, st));
  return CacheAnalyzeIndex(session, BatchName(b), {"destURL"}, spans, op_id,
                           parent, st);
}

void RunLoad(const RunSpec& spec, const ResourceConfig& res, SpanLog* spans,
             RunResult* out) {
  // Set-up loads the first k live batches. Batch contents depend only on
  // the seed and the batch number.
  auto batch_rng = [&](int b) {
    return Random(spec.seed * 1000003 + static_cast<uint64_t>(b));
  };
  LoadStats load;
  std::shared_ptr<SharkSession> session = RepeatedSetup(
      [&] { return LoadSession(res); },
      [&](SharkSession* s) {
        for (int b = 0; b < kLiveBatches; ++b) {
          Random rng = batch_rng(b);
          SHARK_RETURN_NOT_OK(
              LoadBatch(s, b, BatchRows(&rng), spans, -1, -1, &load));
        }
        return Status::OK();
      },
      &load, out);

  std::map<int, std::vector<Row>> agg_expected;
  for (int b = 0; b < kLiveBatches; ++b) {
    auto rows = OracleRows(session.get(), AggSql(b));
    if (!rows.ok()) throw std::runtime_error(rows.status().ToString());
    agg_expected[b] = std::move(*rows);
  }

  const int cycles = std::max(2, spec.seconds * 6);
  Random rng(spec.seed * 15485863 + 5);
  SeqHash hash;
  load.Reset();
  PlanTally plan;
  auto before = Counters(session.get());
  double cpu0 = CpuSeconds();
  // Batch generation and oracle answers run inside the window but are the
  // benchmark's own work, so their wall and CPU time are taken out.
  double untimed_ms = 0.0;
  double untimed_cpu = 0.0;
  Clock::time_point w0 = Clock::now();
  int64_t op_id = 0;
  // Each cycle runs one op of every type, so tracing alternates by cycle.
  bool traced = false;
  auto query_op = [&](const char* type, const std::string& sql,
                      const std::vector<Row>& want) {
    SqlOp op = RunSql(session.get(), sql, spans, traced, op_id, "op");
    if (op.result.ok()) {
      out->virtual_s_total += op.result->metrics.virtual_seconds;
      plan.Add(op.result->metrics);
    }
    if (traced && std::string(type) == "point") {
      plan.point_ops++;
      if (op.index_plan) plan.index_ops++;
    }
    Record(out, type, op, want, traced, spans, op_id);
    ++op_id;
  };
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const int b = kLiveBatches + cycle;
    traced = spec.trace && cycle % 2 == 0;
    // The oldest live batch: the cache holds fewer batches than are live,
    // so this aggregate reads evicted blocks back from the DFS.
    const int old_batch = b - kLiveBatches + 1;
    Clock::time_point g0 = Clock::now();
    double gcpu0 = CpuSeconds();
    Random brng = batch_rng(b);
    std::vector<Row> rows = BatchRows(&brng);
    const std::string point_key =
        rows[rng.Uniform(rows.size())].fields[1].ToString();
    untimed_ms += MsBetween(g0, Clock::now());
    untimed_cpu += CpuSeconds() - gcpu0;
    const std::string point_sql =
        "SELECT sourceIP, adRevenue, duration FROM " + BatchName(b) +
        " WHERE destURL = '" + point_key + "'";
    hash.Add(BatchName(b));
    hash.Add(point_sql);
    hash.Add(AggSql(old_batch));

    // refresh: drop the batch from k cycles ago, load the new one.
    {
      OpRecord rec;
      rec.type = "refresh";
      rec.traced = traced;
      Clock::time_point t0 = Clock::now();
      Status s;
      {
        SpanLog* sl = SpansFor(spans, traced);
        ScopedSpan root(sl, "op", op_id);
        {
          ScopedSpan drop(sl, "load.drop", op_id, root.id());
          s = session->Sql("DROP TABLE " + BatchName(b - kLiveBatches))
                  .status();
        }
        if (s.ok()) {
          s = LoadBatch(session.get(), b, rows, sl, op_id, root.id(), &load);
        }
      }
      rec.ms = MsBetween(t0, Clock::now());
      rec.ok = s.ok();
      if (!s.ok() && out->errors.size() < 10) {
        out->errors.push_back("refresh " + std::to_string(b) + ": " +
                              s.ToString());
      }
      out->ops.push_back(rec);
      agg_expected.erase(b - kLiveBatches);
      ++op_id;
    }
    Clock::time_point o0 = Clock::now();
    double ocpu0 = CpuSeconds();
    auto point_want = OracleRows(session.get(), point_sql);
    auto agg_want = OracleRows(session.get(), AggSql(b));
    untimed_ms += MsBetween(o0, Clock::now());
    untimed_cpu += CpuSeconds() - ocpu0;
    if (!point_want.ok() || !agg_want.ok()) {
      throw std::runtime_error("oracle failed on batch " + std::to_string(b));
    }
    agg_expected[b] = std::move(*agg_want);

    query_op("point", point_sql, *point_want);
    query_op("agg", AggSql(b), agg_expected[b]);
    query_op("agg_old", AggSql(old_batch), agg_expected[old_batch]);
    CheckMemory();
  }
  out->window_s = (MsBetween(w0, Clock::now()) - untimed_ms) / 1e3;
  out->cpu_s = CpuSeconds() - cpu0 - untimed_cpu;
  out->virtual_s_total += load.virtual_s;
  out->virtual_deterministic = true;
  out->op_seq_hash = hash.Hex();
  out->counters = Delta(before, Counters(session.get()));
  AddCounterLayers(out->counters, static_cast<double>(op_id), out);
  AddLoadLayers(load, out);
  plan.Emit(out);
  out->layer["rdd.shuffle_resident_mb"] =
      Gauge(session.get(), "shark_shuffle_resident_bytes") / 1e6;
  out->info["cluster"] = std::to_string(kLoadNodes) + " nodes x 8 cores";
  out->info["batches"] = std::to_string(kLiveBatches) + " live x " +
                         std::to_string(kLoadBatchRows) + " rows";
  out->info["cache_mb"] = std::to_string(
      static_cast<double>(kLoadMemPerNode) / kLoadScale * kLoadNodes / 1e6);
  out->info["cached_mb_per_batch"] = std::to_string(load.cache_out_mb / cycles);
}

}  // namespace

ResourceConfig ResourcesFor(const std::string& workload) {
  ResourceConfig r;
  if (workload == "serving_point") {
    r.host_threads = 1;
    r.connections = 3;
  } else {
    r.host_threads = 3;
  }
  return r;
}

bool RunWorkload(const RunSpec& spec, const ResourceConfig& res,
                 SpanLog* spans, RunResult* out) {
  out->info["rss_limit_mb"] = std::to_string(RssLimitMb());
  if (spec.workload == "olap_cached") {
    RunOlap(spec, res, spans, out);
  } else if (spec.workload == "serving_point") {
    RunServing(spec, res, spans, out);
  } else if (spec.workload == "load_refresh") {
    RunLoad(spec, res, spans, out);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
}  // namespace shark
