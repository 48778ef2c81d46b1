// Host-parallelism determinism regression: every virtual-time observable —
// result rows, QueryMetrics (virtual seconds, task/stage counts, chosen
// reducer counts), ML weights, fault-recovery outcomes — must be bit-for-bit
// identical whether task bodies run on the serial reference path
// (host_threads=1) or on a heavily oversubscribed work-stealing pool
// (host_threads=8). Host threading may only change wall-clock.
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "ml/logistic_regression.h"
#include "rdd/job_manager.h"
#include "rdd/pair_rdd.h"
#include "sql/session.h"
#include "workloads/pavlo.h"

namespace shark {
namespace {

struct Dataset {
  Schema schema;
  std::vector<Row> rows;
};

Dataset MakeSales(int n, uint64_t seed) {
  Random rng(seed);
  Dataset d;
  d.schema = Schema({{"region", TypeKind::kString},
                     {"product", TypeKind::kString},
                     {"units", TypeKind::kInt64},
                     {"price", TypeKind::kDouble}});
  const char* regions[] = {"north", "south", "east", "west"};
  const char* products[] = {"anchor", "bolt", "clamp", "drill", "easel"};
  for (int i = 0; i < n; ++i) {
    d.rows.push_back(Row(
        {Value::String(regions[rng.Uniform(4)]),
         Value::String(products[rng.Uniform(5)]),
         Value::Int64(rng.UniformInt(1, 40)),
         Value::Double(static_cast<double>(rng.UniformInt(100, 9999)) /
                       100.0)}));
  }
  return d;
}

struct QueryTrace {
  std::multiset<std::string> rows;
  double virtual_seconds = 0.0;
  int jobs = 0;
  int stages = 0;
  int tasks = 0;
  int chosen_reducers = 0;
};

bool operator==(const QueryTrace& a, const QueryTrace& b) {
  return a.rows == b.rows && a.virtual_seconds == b.virtual_seconds &&
         a.jobs == b.jobs && a.stages == b.stages && a.tasks == b.tasks &&
         a.chosen_reducers == b.chosen_reducers;
}

/// Runs the query suite (disk, then cached) under one host-thread setting
/// and records everything virtual-time-visible.
std::vector<QueryTrace> RunSqlSuite(int host_threads) {
  ClusterConfig cfg;
  cfg.num_nodes = 5;
  cfg.hardware.cores_per_node = 2;
  cfg.host_threads = host_threads;
  auto session =
      std::make_unique<SharkSession>(std::make_shared<ClusterContext>(cfg));
  Dataset data = MakeSales(3000, 77);
  EXPECT_TRUE(
      session->CreateDfsTable("sales", data.schema, data.rows, 8).ok());

  const std::string queries[] = {
      "SELECT region, units FROM sales WHERE units > 35",
      "SELECT region, product, COUNT(*), SUM(units), MIN(price), MAX(price) "
      "FROM sales GROUP BY region, product",
      "SELECT product, COUNT(DISTINCT region) FROM sales GROUP BY product",
      "SELECT s.region, COUNT(*) FROM sales s "
      "JOIN (SELECT region, MAX(units) AS mu FROM sales GROUP BY region) m "
      "ON s.region = m.region WHERE s.units = m.mu GROUP BY s.region",
      "SELECT * FROM sales WHERE price > 90.0 ORDER BY price DESC LIMIT 13",
  };

  std::vector<QueryTrace> traces;
  auto run = [&](const std::string& sql) {
    auto r = session->Sql(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << sql;
    QueryTrace t;
    if (r.ok()) {
      for (const Row& row : r->rows) t.rows.insert(row.ToString());
      t.virtual_seconds = r->metrics.virtual_seconds;
      t.jobs = r->metrics.jobs;
      t.stages = r->metrics.stages;
      t.tasks = r->metrics.tasks;
      t.chosen_reducers = r->metrics.chosen_reducers;
    }
    traces.push_back(std::move(t));
  };
  for (const auto& q : queries) run(q);
  EXPECT_TRUE(session->CacheTable("sales").ok());
  for (const auto& q : queries) run(q);
  return traces;
}

TEST(DeterminismTest, SqlSuiteIdenticalAcrossHostThreadCounts) {
  std::vector<QueryTrace> serial = RunSqlSuite(1);
  std::vector<QueryTrace> parallel = RunSqlSuite(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i] == parallel[i])
        << "query " << i << " diverged: virtual " << serial[i].virtual_seconds
        << " vs " << parallel[i].virtual_seconds << ", tasks "
        << serial[i].tasks << " vs " << parallel[i].tasks << ", reducers "
        << serial[i].chosen_reducers << " vs " << parallel[i].chosen_reducers;
  }
}

/// The indexed suite: CREATE INDEX runs a build job, then selective queries
/// execute through IndexRangeScan gathers. Both the build and the gather
/// charge virtual time, so everything must stay bit-identical across host
/// thread counts — and across the scalar/vectorized gather paths, which are
/// host-side variants of the same charges.
std::vector<QueryTrace> RunIndexedSuite(int host_threads, bool vectorized) {
  ClusterConfig cfg;
  cfg.num_nodes = 5;
  cfg.hardware.cores_per_node = 2;
  cfg.host_threads = host_threads;
  auto session =
      std::make_unique<SharkSession>(std::make_shared<ClusterContext>(cfg));
  session->options().vectorized = vectorized;
  Dataset data = MakeSales(3000, 77);
  EXPECT_TRUE(
      session->CreateDfsTable("sales", data.schema, data.rows, 8).ok());
  EXPECT_TRUE(session->CacheTable("sales").ok());

  std::vector<QueryTrace> traces;
  auto run = [&](const std::string& sql) {
    auto r = session->Sql(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << sql;
    QueryTrace t;
    if (r.ok()) {
      for (const Row& row : r->rows) t.rows.insert(row.ToString());
      t.virtual_seconds = r->metrics.virtual_seconds;
      t.jobs = r->metrics.jobs;
      t.stages = r->metrics.stages;
      t.tasks = r->metrics.tasks;
      t.chosen_reducers = r->metrics.chosen_reducers;
    }
    traces.push_back(std::move(t));
  };
  run("ANALYZE TABLE sales");
  run("CREATE INDEX idx_units ON sales(units)");
  run("CREATE INDEX idx_region ON sales(region)");
  const std::string queries[] = {
      "SELECT region, units FROM sales WHERE units = 7",
      "SELECT COUNT(*), SUM(price) FROM sales WHERE units BETWEEN 38 AND 40",
      "SELECT product, COUNT(*) FROM sales WHERE region = 'east' "
      "GROUP BY product",
      "SELECT s.region, COUNT(*) FROM sales s "
      "JOIN (SELECT region, MAX(units) AS mu FROM sales GROUP BY region) m "
      "ON s.region = m.region WHERE s.units = m.mu GROUP BY s.region",
  };
  for (const auto& q : queries) run(q);
  run("DROP INDEX idx_units");
  for (const auto& q : queries) run(q);
  return traces;
}

TEST(DeterminismTest, IndexedSuiteIdenticalAcrossHostThreadCounts) {
  std::vector<QueryTrace> serial = RunIndexedSuite(1, /*vectorized=*/true);
  std::vector<QueryTrace> parallel = RunIndexedSuite(8, /*vectorized=*/true);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i] == parallel[i])
        << "indexed query " << i << " diverged: virtual "
        << serial[i].virtual_seconds << " vs " << parallel[i].virtual_seconds
        << ", tasks " << serial[i].tasks << " vs " << parallel[i].tasks;
  }
}

TEST(DeterminismTest, IndexedGatherChargesIdenticalScalarVsVectorized) {
  std::vector<QueryTrace> vec = RunIndexedSuite(4, /*vectorized=*/true);
  std::vector<QueryTrace> scalar = RunIndexedSuite(4, /*vectorized=*/false);
  ASSERT_EQ(vec.size(), scalar.size());
  for (size_t i = 0; i < vec.size(); ++i) {
    EXPECT_TRUE(vec[i] == scalar[i])
        << "indexed query " << i << " diverged: virtual "
        << vec[i].virtual_seconds << " vs " << scalar[i].virtual_seconds
        << ", tasks " << vec[i].tasks << " vs " << scalar[i].tasks;
  }
}

/// One ML pipeline: cached logistic regression. Weight vectors and the
/// per-iteration virtual times must match exactly — gradients are summed in
/// the scheduler's deterministic commit order, not host completion order.
struct MlTrace {
  MlVector weights;
  std::vector<double> iteration_seconds;
  double now = 0.0;
};

MlTrace RunLogReg(int host_threads) {
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.hardware.cores_per_node = 2;
  cfg.host_threads = host_threads;
  ClusterContext ctx(cfg);
  Random rng(123);
  std::vector<LabeledPoint> points;
  for (int i = 0; i < 2000; ++i) {
    LabeledPoint p;
    double bias = (i % 2 == 0) ? 0.8 : -0.8;
    for (int d = 0; d < 5; ++d) {
      p.x.push_back(bias + static_cast<double>(rng.UniformInt(-100, 100)) /
                               200.0);
    }
    p.y = (i % 2 == 0) ? 1.0 : -1.0;
    points.push_back(std::move(p));
  }
  auto rdd = ctx.Parallelize(points, 8);
  rdd->Cache();
  LogisticRegression::Options opts;
  opts.iterations = 5;
  opts.learning_rate = 0.1;
  auto model = LogisticRegression::Train(&ctx, rdd, 5, opts);
  EXPECT_TRUE(model.ok());
  MlTrace t;
  if (model.ok()) {
    t.weights = model->weights;
    t.iteration_seconds = model->iteration_seconds;
  }
  t.now = ctx.now();
  return t;
}

TEST(DeterminismTest, LogRegIdenticalAcrossHostThreadCounts) {
  MlTrace serial = RunLogReg(1);
  MlTrace parallel = RunLogReg(8);
  EXPECT_EQ(serial.weights, parallel.weights);
  EXPECT_EQ(serial.iteration_seconds, parallel.iteration_seconds);
  EXPECT_EQ(serial.now, parallel.now);
  ASSERT_EQ(serial.iteration_seconds.size(), 5u);
}

/// Fault injection plus lineage recovery is the hairiest scheduler path:
/// node death mid-job, shuffle outputs lost, recursive recomputation. The
/// whole trajectory must replay identically under host parallelism.
struct FaultTrace {
  int64_t total = 0;
  size_t result_size = 0;
  double now = 0.0;
  int tasks_launched = 0;
  int tasks_failed = 0;
  int map_tasks_recovered = 0;
};

FaultTrace RunFaultyJob(int host_threads) {
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.hardware.cores_per_node = 2;
  cfg.virtual_data_scale = 1e7;
  cfg.host_threads = host_threads;
  ClusterContext ctx(cfg);
  std::vector<std::pair<int64_t, int64_t>> data;
  for (int64_t i = 0; i < 4000; ++i) data.emplace_back(i % 100, 1);
  auto rdd = ctx.Parallelize(data, 8);
  auto first = ReduceByKey(rdd, [](int64_t a, int64_t b) { return a + b; }, 6);
  RddPtr<std::pair<int64_t, int64_t>> rekeyed =
      first->Map([](const std::pair<int64_t, int64_t>& kv) {
        return std::make_pair(kv.first % 10, kv.second);
      });
  auto second =
      ReduceByKey(rekeyed, [](int64_t a, int64_t b) { return a + b; }, 4);
  ctx.InjectFault(FaultEvent{FaultEvent::Kind::kKill, 0.3, 2, 1.0});
  auto result = ctx.Collect(second);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  FaultTrace t;
  if (result.ok()) {
    t.result_size = result->size();
    for (const auto& [k, v] : *result) t.total += v;
  }
  t.now = ctx.now();
  const JobMetrics& job = ctx.scheduler().last_job();
  t.tasks_launched = job.tasks_launched;
  t.tasks_failed = job.tasks_failed;
  t.map_tasks_recovered = job.map_tasks_recovered;
  return t;
}

TEST(DeterminismTest, FaultRecoveryIdenticalAcrossHostThreadCounts) {
  FaultTrace serial = RunFaultyJob(1);
  FaultTrace parallel = RunFaultyJob(8);
  EXPECT_EQ(serial.total, 4000);
  EXPECT_EQ(serial.result_size, 10u);
  EXPECT_EQ(serial.total, parallel.total);
  EXPECT_EQ(serial.result_size, parallel.result_size);
  EXPECT_EQ(serial.now, parallel.now);
  EXPECT_EQ(serial.tasks_launched, parallel.tasks_launched);
  EXPECT_EQ(serial.tasks_failed, parallel.tasks_failed);
  EXPECT_EQ(serial.map_tasks_recovered, parallel.map_tasks_recovered);
}

/// Tentpole regression: the recorded QueryProfile — every stage span, task
/// lifecycle, event line and both renderings — must be byte-for-byte
/// identical between the serial reference path and the work-stealing pool
/// (host_threads=0, one worker per hardware thread).
std::string RunProfiledSuite(int host_threads) {
  ClusterConfig cfg;
  cfg.num_nodes = 5;
  cfg.hardware.cores_per_node = 2;
  cfg.host_threads = host_threads;
  auto ctx = std::make_shared<ClusterContext>(cfg);
  auto session = std::make_unique<SharkSession>(ctx);
  Dataset data = MakeSales(3000, 77);
  EXPECT_TRUE(
      session->CreateDfsTable("sales", data.schema, data.rows, 8).ok());

  const std::string queries[] = {
      "SELECT region, product, COUNT(*), SUM(units) FROM sales "
      "GROUP BY region, product",
      "SELECT s.region, COUNT(*) FROM sales s "
      "JOIN (SELECT region, MAX(units) AS mu FROM sales GROUP BY region) m "
      "ON s.region = m.region WHERE s.units = m.mu GROUP BY s.region",
  };

  std::string rendered;
  auto run = [&](const std::string& sql) {
    auto r = session->Sql(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << sql;
    if (r.ok()) {
      EXPECT_NE(r->profile, nullptr) << sql;
      if (r->profile != nullptr) {
        rendered += r->profile->ToString();
        rendered += r->profile->ToChromeTrace();
      }
    }
  };
  for (const auto& q : queries) run(q);
  EXPECT_TRUE(session->CacheTable("sales").ok());
  for (const auto& q : queries) run(q);
  // The hairiest profile: node death mid-query, aborted tasks, lineage
  // recovery — its trace must also replay identically.
  ctx->InjectFault(
      FaultEvent{FaultEvent::Kind::kKill, ctx->now() + 0.05, 2, 1.0});
  run(queries[0]);
  return rendered;
}

TEST(DeterminismTest, QueryProfileByteIdenticalAcrossHostThreadCounts) {
  std::string serial = RunProfiledSuite(1);
  std::string pool = RunProfiledSuite(0);
  ASSERT_FALSE(serial.empty());
  EXPECT_TRUE(serial == pool)
      << "profiles diverged (lengths " << serial.size() << " vs "
      << pool.size() << ")";
}

/// Memory-pressure determinism: a huge virtual_data_scale shrinks the real
/// per-node budgets until operator working sets spill and map outputs flip
/// to disk serving. Reservation decisions, spill events and the flip all
/// happen against budgets latched in the event loop, so the profile must
/// still be byte-identical across host-thread settings — and must actually
/// contain spill events (otherwise this test exercises nothing).
std::string RunSpillingSuite(int host_threads) {
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.hardware.cores_per_node = 2;
  cfg.virtual_data_scale = 1e6;  // ~68 KB real capacity per node
  cfg.host_threads = host_threads;
  auto session =
      std::make_unique<SharkSession>(std::make_shared<ClusterContext>(cfg));
  Dataset data = MakeSales(4000, 99);
  EXPECT_TRUE(
      session->CreateDfsTable("sales", data.schema, data.rows, 8).ok());
  EXPECT_TRUE(session->CacheTable("sales").ok());

  const std::string queries[] = {
      // Join + aggregation: hash build, shuffle, grouped aggregation — the
      // full spill surface of the acceptance scenario.
      "SELECT s.region, COUNT(*), SUM(s.units) FROM sales s "
      "JOIN (SELECT region, MAX(units) AS mu FROM sales GROUP BY region) m "
      "ON s.region = m.region GROUP BY s.region",
      // External sort path.
      "SELECT * FROM sales ORDER BY price DESC LIMIT 11",
  };

  std::string rendered;
  for (const std::string& sql : queries) {
    auto r = session->Sql(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << sql;
    if (r.ok() && r->profile != nullptr) {
      rendered += r->profile->ToString();
      rendered += r->profile->ToChromeTrace();
    }
  }
  return rendered;
}

TEST(DeterminismTest, SpillEventsByteIdenticalAcrossHostThreadCounts) {
  std::string serial = RunSpillingSuite(1);
  std::string pool = RunSpillingSuite(4);
  ASSERT_FALSE(serial.empty());
  // The suite must actually degrade: spill events recorded and rendered.
  EXPECT_NE(serial.find("spilled"), std::string::npos)
      << "no spill events under memory pressure — suite lost its bite";
  EXPECT_TRUE(serial == pool)
      << "spilling profiles diverged (lengths " << serial.size() << " vs "
      << pool.size() << ")";
}

/// Metrics determinism: the Prometheus exposition and the timeline JSON are
/// built from counters mutated only in event-loop order and from virtual-time
/// samples, so both documents must be byte-identical across host-thread
/// settings — including under faults, speculation and memory pressure.
std::string RunMetricsSuite(int host_threads) {
  ClusterConfig cfg;
  cfg.num_nodes = 5;
  cfg.hardware.cores_per_node = 2;
  cfg.virtual_data_scale = 1e7;  // tight enough to exercise spill counters
  cfg.host_threads = host_threads;
  auto ctx = std::make_shared<ClusterContext>(cfg);
  auto session = std::make_unique<SharkSession>(ctx);
  Dataset data = MakeSales(3000, 77);
  EXPECT_TRUE(
      session->CreateDfsTable("sales", data.schema, data.rows, 8).ok());

  const std::string queries[] = {
      "SELECT region, product, COUNT(*), SUM(units) FROM sales "
      "GROUP BY region, product",
      "SELECT s.region, COUNT(*) FROM sales s "
      "JOIN (SELECT region, MAX(units) AS mu FROM sales GROUP BY region) m "
      "ON s.region = m.region WHERE s.units = m.mu GROUP BY s.region",
  };
  auto run = [&](const std::string& sql) {
    auto r = session->Sql(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << sql;
  };
  for (const auto& q : queries) run(q);
  EXPECT_TRUE(session->CacheTable("sales").ok());
  for (const auto& q : queries) run(q);
  ctx->InjectFault(
      FaultEvent{FaultEvent::Kind::kKill, ctx->now() + 0.05, 2, 1.0});
  run(queries[0]);

  return ctx->metrics().PrometheusText(ctx->now(), ctx->cluster()) + "\n" +
         ctx->metrics().TimelineJson();
}

TEST(DeterminismTest, MetricsByteIdenticalAcrossHostThreadCounts) {
  std::string serial = RunMetricsSuite(1);
  std::string pool = RunMetricsSuite(4);
  ASSERT_FALSE(serial.empty());
  // The suite must actually move the interesting counters.
  EXPECT_NE(serial.find("shark_tasks_failed_total"), std::string::npos);
  EXPECT_NE(serial.find("\"stages\":["), std::string::npos);
  EXPECT_TRUE(serial == pool)
      << "metrics diverged (lengths " << serial.size() << " vs "
      << pool.size() << ")";
}

/// Concurrent-jobs determinism: interleaving N jobs through the JobManager's
/// batch event loop — including admission queueing — is itself a virtual-time
/// observable. Per-job arrival/admit/finish stamps and both metrics exports
/// must be byte-identical across host-thread settings. The observability
/// plane (per-query SLO series, query-id stamping) rides this path, so the
/// suite runs with it on by default; `collect_query_metrics=false` re-runs
/// the identical schedule with the plane dark to prove it never perturbs
/// virtual time.
std::string RunConcurrentJobsSuite(int host_threads,
                                   bool collect_query_metrics = true,
                                   bool include_metrics_text = true) {
  ClusterConfig cfg;
  cfg.num_nodes = 5;
  cfg.hardware.cores_per_node = 2;
  cfg.host_threads = host_threads;
  auto ctx = std::make_shared<ClusterContext>(cfg);
  auto session = std::make_unique<SharkSession>(ctx);
  Dataset data = MakeSales(3000, 77);
  EXPECT_TRUE(
      session->CreateDfsTable("sales", data.schema, data.rows, 8).ok());

  const std::string queries[] = {
      "SELECT region, product, COUNT(*), SUM(units) FROM sales "
      "GROUP BY region, product",
      "SELECT product, COUNT(DISTINCT region) FROM sales GROUP BY product",
      "SELECT region, units FROM sales WHERE units > 35",
      "SELECT s.region, COUNT(*) FROM sales s "
      "JOIN (SELECT region, MAX(units) AS mu FROM sales GROUP BY region) m "
      "ON s.region = m.region WHERE s.units = m.mu GROUP BY s.region",
  };
  uint64_t headroom = ctx->memory_manager().AdmissionHeadroomBytes();

  std::vector<JobSpec> specs(6);
  std::multiset<std::string> row_sets[6];
  for (int i = 0; i < 6; ++i) {
    specs[static_cast<size_t>(i)].label = "job" + std::to_string(i);
    specs[static_cast<size_t>(i)].query_id = "jid" + std::to_string(i);
    specs[static_cast<size_t>(i)].session = "sess" + std::to_string(i % 2);
    specs[static_cast<size_t>(i)].arrival_vtime = 0.01 * i;
    specs[static_cast<size_t>(i)].weight = 1.0 + (i % 3);
    if (i % 3 == 2) {
      specs[static_cast<size_t>(i)].mem_demand_bytes = headroom / 2;
    }
    std::string sql = queries[i % 4];
    SharkSession* sp = session.get();
    auto* sink = &row_sets[i];
    specs[static_cast<size_t>(i)].body = [sp, sql, sink]() -> Status {
      auto r = sp->Sql(sql);
      SHARK_RETURN_NOT_OK(r.status());
      for (const Row& row : r->rows) sink->insert(row.ToString());
      return Status::OK();
    };
  }

  JobManager::Options jopts;
  jopts.collect_query_metrics = collect_query_metrics;
  JobManager jm(ctx.get(), jopts);
  std::vector<JobOutcome> outcomes = jm.RunJobs(std::move(specs));

  std::string out;
  char buf[256];
  for (const JobOutcome& o : outcomes) {
    EXPECT_TRUE(o.status.ok()) << o.label << ": " << o.status.ToString();
    std::snprintf(buf, sizeof(buf),
                  "%s id=%s sess=%s queued=%d arr=%.9f adm=%.9f fin=%.9f\n",
                  o.label.c_str(), o.query_id.c_str(), o.session.c_str(),
                  o.queued ? 1 : 0, o.arrival_vtime, o.admit_vtime,
                  o.finish_vtime);
    out += buf;
  }
  for (const auto& rows : row_sets) {
    for (const std::string& r : rows) out += r + "\n";
  }
  if (!include_metrics_text) return out;
  return out + ctx->metrics().PrometheusText(ctx->now(), ctx->cluster()) +
         "\n" + ctx->metrics().TimelineJson();
}

TEST(DeterminismTest, ConcurrentJobsIdenticalAcrossHostThreadCounts) {
  std::string serial = RunConcurrentJobsSuite(1);
  std::string pool = RunConcurrentJobsSuite(4);
  ASSERT_FALSE(serial.empty());
  // The suite must actually interleave and queue jobs, and the plane's
  // lazily registered per-session SLO series must land identically (they
  // register in event-loop completion order).
  EXPECT_NE(serial.find("shark_jobs_admitted_total"), std::string::npos);
  EXPECT_NE(serial.find("session=\"sess0\""), std::string::npos);
  EXPECT_TRUE(serial == pool)
      << "concurrent-job schedule diverged (lengths " << serial.size()
      << " vs " << pool.size() << ")";
}

/// The observability plane is strictly additive: running the exact same
/// schedule with query-metric collection disabled produces bit-identical
/// job outcomes, rows and virtual-time stamps.
TEST(DeterminismTest, ObservabilityPlaneDoesNotPerturbVirtualTime) {
  std::string plane_on =
      RunConcurrentJobsSuite(4, /*collect_query_metrics=*/true,
                             /*include_metrics_text=*/false);
  std::string plane_off =
      RunConcurrentJobsSuite(4, /*collect_query_metrics=*/false,
                             /*include_metrics_text=*/false);
  ASSERT_FALSE(plane_on.empty());
  EXPECT_TRUE(plane_on == plane_off)
      << "observability plane perturbed the schedule (lengths "
      << plane_on.size() << " vs " << plane_off.size() << ")";
}

/// Sparse shuffles: the Pavlo aggregations and join with 1,600 fine buckets
/// on an 8-core cluster, so almost every bucket of every map output is
/// empty. Answers, virtual seconds and both profile renders must replay
/// byte for byte across host-thread settings, with and without a node
/// killed while a query's map stage runs.
struct SparseRun {
  std::string rendered;
  std::vector<std::multiset<std::string>> answers;
  int tasks_failed = 0;
};

SparseRun RunSparseShuffleSuite(int host_threads, bool kill) {
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.hardware.cores_per_node = 2;
  cfg.host_threads = host_threads;
  PavloConfig data;
  data.rankings_rows = 400;
  data.uservisits_rows = 2400;
  data.rankings_blocks = 8;
  data.uservisits_blocks = 16;
  data.seed = 5;
  // Small enough that map outputs stay memory-served and nothing spills.
  cfg.virtual_data_scale = 2e4;
  auto ctx = std::make_shared<ClusterContext>(cfg);
  SharkSession session(ctx);
  session.options().fine_buckets = 1600;
  EXPECT_TRUE(GeneratePavloTables(&session, data).ok());
  EXPECT_TRUE(session.CacheTable("rankings").ok());
  EXPECT_TRUE(session.CacheTable("uservisits").ok());

  SparseRun run;
  for (const std::string& sql :
       {PavloAggregationCoarseQuery(), PavloAggregationFineQuery(),
        PavloJoinQuery()}) {
    if (kill) {
      ctx->InjectFault(
          FaultEvent{FaultEvent::Kind::kKill, ctx->now() + 1.0, 1, 1.0});
    }
    auto r = session.Sql(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << sql;
    if (kill) {
      ctx->InjectFault(FaultEvent{FaultEvent::Kind::kRecover, ctx->now(), 1});
    }
    if (!r.ok()) continue;
    std::multiset<std::string> rows;
    for (const Row& row : r->rows) rows.insert(row.ToString());
    run.answers.push_back(std::move(rows));
    run.rendered += std::to_string(r->metrics.virtual_seconds) + "\n";
    run.tasks_failed += r->metrics.tasks_failed;
    EXPECT_NE(r->profile, nullptr) << sql;
    if (r->profile != nullptr) {
      run.rendered += r->profile->ToString();
      run.rendered += r->profile->ToChromeTrace();
    }
  }
  return run;
}

void ExpectSparseRunsIdentical(const SparseRun& serial, const SparseRun& pool) {
  ASSERT_EQ(serial.answers.size(), 3u);
  EXPECT_EQ(serial.answers, pool.answers);
  EXPECT_EQ(serial.tasks_failed, pool.tasks_failed);
  EXPECT_TRUE(serial.rendered == pool.rendered)
      << "sparse-shuffle profiles diverged (lengths " << serial.rendered.size()
      << " vs " << pool.rendered.size() << ")";
}

TEST(DeterminismTest, SparseShuffleIdenticalAcrossHostThreadCounts) {
  SparseRun serial = RunSparseShuffleSuite(1, /*kill=*/false);
  SparseRun pool = RunSparseShuffleSuite(4, /*kill=*/false);
  ExpectSparseRunsIdentical(serial, pool);
  EXPECT_EQ(serial.tasks_failed, 0);
}

TEST(DeterminismTest, SparseShuffleNodeKillIdenticalAcrossHostThreadCounts) {
  SparseRun serial = RunSparseShuffleSuite(1, /*kill=*/true);
  SparseRun pool = RunSparseShuffleSuite(4, /*kill=*/true);
  ExpectSparseRunsIdentical(serial, pool);
  // The kill must land inside a map stage, failing its running tasks and
  // dropping the outputs already committed on that node; the answers must
  // still be the fault-free ones.
  EXPECT_NE(serial.rendered.find("node 1 died"), std::string::npos);
  EXPECT_GT(serial.tasks_failed, 0);
  EXPECT_EQ(serial.answers, RunSparseShuffleSuite(1, /*kill=*/false).answers);
}

}  // namespace
}  // namespace shark
