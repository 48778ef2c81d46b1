// Concurrent-job regression tests: the multi-set event loop, JobManager
// admission control, cross-job isolation (the "one-job-at-a-time" bugs the
// serving front-end flushed out), and failing-query cleanup.

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mem/memory_manager.h"
#include "rdd/context.h"
#include "rdd/job_manager.h"
#include "rdd/pair_rdd.h"
#include "sql/session.h"

namespace shark {
namespace {

ClusterConfig SmallConfig() {
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.hardware.cores_per_node = 2;
  return cfg;
}

uint64_t CounterValue(const ClusterContext& ctx, const std::string& name) {
  for (const auto& [n, v] : ctx.metrics().registry().CounterSnapshot()) {
    if (n == name) return v;
  }
  ADD_FAILURE() << "counter not registered: " << name;
  return 0;
}

std::vector<std::pair<std::string, int64_t>> Words(const std::string& prefix,
                                                   int n) {
  std::vector<std::pair<std::string, int64_t>> out;
  for (int i = 0; i < n; ++i) {
    out.emplace_back(prefix + std::to_string(i % 7), 1);
  }
  return out;
}

// Two concurrent shuffle jobs over disjoint keyspaces: each must see exactly
// its own shuffle outputs. Before per-set state isolation, interleaved jobs
// could read one another's map outputs through shared scheduler state.
TEST(ConcurrentJobsTest, ShuffleIsolationAcrossInterleavedJobs) {
  ClusterContext ctx(SmallConfig());
  JobManager jm(&ctx);

  std::map<std::string, int64_t> got_a;
  std::map<std::string, int64_t> got_b;
  std::vector<JobSpec> specs(2);
  specs[0].label = "job-a";
  specs[0].body = [&]() -> Status {
    auto rdd = ctx.Parallelize(Words("a", 140), 6);
    auto counts =
        ReduceByKey(rdd, [](int64_t x, int64_t y) { return x + y; }, 4);
    auto rows = ctx.Collect(counts);
    SHARK_RETURN_NOT_OK(rows.status());
    got_a.insert(rows->begin(), rows->end());
    return Status::OK();
  };
  specs[1].label = "job-b";
  specs[1].body = [&]() -> Status {
    auto rdd = ctx.Parallelize(Words("b", 70), 6);
    auto counts =
        ReduceByKey(rdd, [](int64_t x, int64_t y) { return x + y; }, 4);
    auto rows = ctx.Collect(counts);
    SHARK_RETURN_NOT_OK(rows.status());
    got_b.insert(rows->begin(), rows->end());
    return Status::OK();
  };

  std::vector<JobOutcome> outcomes = jm.RunJobs(std::move(specs));
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].status.ok()) << outcomes[0].status.ToString();
  EXPECT_TRUE(outcomes[1].status.ok()) << outcomes[1].status.ToString();

  // Both jobs ran concurrently (neither waited for the other to finish).
  EXPECT_FALSE(outcomes[0].queued);
  EXPECT_FALSE(outcomes[1].queued);
  EXPECT_LT(outcomes[0].admit_vtime, outcomes[1].finish_vtime);
  EXPECT_LT(outcomes[1].admit_vtime, outcomes[0].finish_vtime);

  ASSERT_EQ(got_a.size(), 7u);
  ASSERT_EQ(got_b.size(), 7u);
  for (const auto& [k, v] : got_a) {
    EXPECT_EQ(k.substr(0, 1), "a");
    EXPECT_EQ(v, 20) << k;
  }
  for (const auto& [k, v] : got_b) {
    EXPECT_EQ(k.substr(0, 1), "b");
    EXPECT_EQ(v, 10) << k;
  }
}

// The same query batch must produce identical rows whether executed
// serially on one session or concurrently through the JobManager.
TEST(ConcurrentJobsTest, ConcurrentSqlMatchesSerial) {
  const std::vector<std::string> queries = {
      "SELECT pageURL, pageRank FROM rankings WHERE pageRank > 50",
      "SELECT avgDuration, COUNT(*) FROM rankings GROUP BY avgDuration",
      "SELECT SUM(pageRank) FROM rankings",
  };
  auto make_session = [] {
    auto session = std::make_unique<SharkSession>(
        std::make_shared<ClusterContext>(SmallConfig()));
    Schema rankings({{"pageURL", TypeKind::kString},
                     {"pageRank", TypeKind::kInt64},
                     {"avgDuration", TypeKind::kInt64}});
    std::vector<Row> rows;
    for (int i = 0; i < 100; ++i) {
      rows.push_back(Row({Value::String("url" + std::to_string(i)),
                          Value::Int64(i), Value::Int64(i % 10)}));
    }
    EXPECT_TRUE(session->CreateDfsTable("rankings", rankings, rows, 4).ok());
    return session;
  };
  auto render = [](const QueryResult& r) {
    std::vector<std::string> lines;
    for (const Row& row : r.rows) lines.push_back(row.ToString());
    std::sort(lines.begin(), lines.end());
    return lines;
  };

  // Serial baseline.
  std::vector<std::vector<std::string>> serial;
  {
    auto session = make_session();
    for (const std::string& q : queries) {
      auto r = session->Sql(q);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      serial.push_back(render(*r));
    }
  }

  // Concurrent run: all queries admitted at once on a fresh session.
  auto session = make_session();
  JobManager jm(&session->context());
  std::vector<std::vector<std::string>> concurrent(queries.size());
  std::vector<JobSpec> specs(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    specs[i].label = "q" + std::to_string(i);
    specs[i].body = [&, i]() -> Status {
      auto r = session->Sql(queries[i]);
      SHARK_RETURN_NOT_OK(r.status());
      concurrent[i] = render(*r);
      return Status::OK();
    };
  }
  std::vector<JobOutcome> outcomes = jm.RunJobs(std::move(specs));
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].status.ok()) << outcomes[i].status.ToString();
    EXPECT_EQ(concurrent[i], serial[i]) << queries[i];
  }
}

// A job whose declared memory demand exceeds the cluster headroom queues
// (with a metrics-visible reason) while a lighter concurrent job runs, and
// is admitted once the cluster drains.
TEST(ConcurrentJobsTest, AdmissionMemoryGateQueuesHeavyJob) {
  ClusterContext ctx(SmallConfig());
  JobManager jm(&ctx);
  const uint64_t headroom = ctx.memory_manager().AdmissionHeadroomBytes();
  ASSERT_GT(headroom, 0u);

  auto work = [&]() -> Status {
    auto rdd = ctx.Parallelize(Words("w", 70), 6);
    auto counts =
        ReduceByKey(rdd, [](int64_t x, int64_t y) { return x + y; }, 4);
    return ctx.Collect(counts).status();
  };
  std::vector<JobSpec> specs(2);
  specs[0].label = "light";
  specs[0].mem_demand_bytes = headroom / 2;
  specs[0].body = work;
  specs[1].label = "heavy";
  specs[1].mem_demand_bytes = headroom;  // no longer fits next to "light"
  specs[1].body = work;

  std::vector<JobOutcome> outcomes = jm.RunJobs(std::move(specs));
  EXPECT_TRUE(outcomes[0].status.ok());
  EXPECT_TRUE(outcomes[1].status.ok());
  EXPECT_FALSE(outcomes[0].queued);
  EXPECT_TRUE(outcomes[1].queued);
  EXPECT_GT(outcomes[1].queue_delay(), 0.0);
  // The heavy job started only after the light one finished.
  EXPECT_GE(outcomes[1].admit_vtime, outcomes[0].finish_vtime);

  EXPECT_EQ(CounterValue(ctx, "shark_jobs_queued_total"), 1u);
  EXPECT_EQ(CounterValue(ctx, "shark_jobs_queued_reason_total{reason=\"memory\"}"),
            1u);
  EXPECT_EQ(CounterValue(ctx, "shark_jobs_admitted_total"), 2u);
  EXPECT_EQ(CounterValue(ctx, "shark_jobs_completed_total"), 2u);
  // All admission reservations were released at completion.
  EXPECT_EQ(ctx.memory_manager().admitted_bytes(), 0u);
}

// max_concurrent serializes jobs even when memory would allow them.
TEST(ConcurrentJobsTest, AdmissionConcurrencyGate) {
  ClusterContext ctx(SmallConfig());
  JobManager::Options opts;
  opts.max_concurrent = 1;
  JobManager jm(&ctx, opts);

  auto work = [&]() -> Status {
    auto rdd = ctx.Parallelize(Words("w", 70), 4);
    return ctx.Collect(rdd).status();
  };
  std::vector<JobSpec> specs(2);
  specs[0].label = "first";
  specs[0].body = work;
  specs[1].label = "second";
  specs[1].body = work;
  std::vector<JobOutcome> outcomes = jm.RunJobs(std::move(specs));
  EXPECT_TRUE(outcomes[0].status.ok());
  EXPECT_TRUE(outcomes[1].status.ok());
  EXPECT_FALSE(outcomes[0].queued);
  EXPECT_TRUE(outcomes[1].queued);
  EXPECT_GE(outcomes[1].admit_vtime, outcomes[0].finish_vtime);
  EXPECT_EQ(
      CounterValue(ctx, "shark_jobs_queued_reason_total{reason=\"concurrency\"}"),
      1u);
}

// A job demanding more than the whole cluster is force-admitted when
// nothing else runs — admission never deadlocks.
TEST(ConcurrentJobsTest, OversizedJobIsForceAdmittedWhenIdle) {
  ClusterContext ctx(SmallConfig());
  JobManager jm(&ctx);
  std::vector<JobSpec> specs(1);
  specs[0].label = "oversized";
  specs[0].mem_demand_bytes =
      ctx.memory_manager().AdmissionHeadroomBytes() * 10;
  specs[0].body = [&]() -> Status {
    auto rdd = ctx.Parallelize(Words("w", 30), 4);
    return ctx.Collect(rdd).status();
  };
  std::vector<JobOutcome> outcomes = jm.RunJobs(std::move(specs));
  EXPECT_TRUE(outcomes[0].status.ok()) << outcomes[0].status.ToString();
  EXPECT_EQ(ctx.memory_manager().admitted_bytes(), 0u);
}

// One job's task-body failure kills only that job; a concurrent job
// finishes normally with correct results.
TEST(ConcurrentJobsTest, PerJobErrorIsolation) {
  ClusterContext ctx(SmallConfig());
  JobManager jm(&ctx);

  std::map<std::string, int64_t> got;
  std::vector<JobSpec> specs(2);
  specs[0].label = "doomed";
  specs[0].body = [&]() -> Status {
    auto rdd = ctx.Parallelize(Words("x", 70), 6);
    auto boom = rdd->Map([](const std::pair<std::string, int64_t>& p)
                             -> std::pair<std::string, int64_t> {
      if (p.second == 1) throw std::runtime_error("injected task failure");
      return p;
    });
    return ctx.Collect(boom).status();
  };
  specs[1].label = "survivor";
  specs[1].body = [&]() -> Status {
    auto rdd = ctx.Parallelize(Words("s", 140), 6);
    auto counts =
        ReduceByKey(rdd, [](int64_t x, int64_t y) { return x + y; }, 4);
    auto rows = ctx.Collect(counts);
    SHARK_RETURN_NOT_OK(rows.status());
    got.insert(rows->begin(), rows->end());
    return Status::OK();
  };

  std::vector<JobOutcome> outcomes = jm.RunJobs(std::move(specs));
  EXPECT_FALSE(outcomes[0].status.ok());
  EXPECT_NE(outcomes[0].status.ToString().find("task body threw"),
            std::string::npos)
      << outcomes[0].status.ToString();
  ASSERT_TRUE(outcomes[1].status.ok()) << outcomes[1].status.ToString();
  ASSERT_EQ(got.size(), 7u);
  for (const auto& [k, v] : got) EXPECT_EQ(v, 20) << k;
  EXPECT_EQ(CounterValue(ctx, "shark_jobs_failed_total"), 1u);
  EXPECT_EQ(CounterValue(ctx, "shark_jobs_completed_total"), 1u);
  EXPECT_EQ(ctx.memory_manager().admitted_bytes(), 0u);

  // The engine stays usable after the failure.
  auto again = ctx.Collect(ctx.Parallelize(Words("y", 14), 2));
  EXPECT_TRUE(again.ok());
}

// ---------------------------------------------------------------------------
// Failing-query cleanup (SqlSession error path)
// ---------------------------------------------------------------------------

class FailingQueryCleanupTest : public ::testing::Test {
 protected:
  void SetUp() override {
    session_ = std::make_unique<SharkSession>(
        std::make_shared<ClusterContext>(SmallConfig()));
    Schema schema({{"k", TypeKind::kInt64}, {"v", TypeKind::kInt64}});
    std::vector<Row> rows;
    for (int i = 0; i < 200; ++i) {
      rows.push_back(Row({Value::Int64(i % 16), Value::Int64(i)}));
    }
    ASSERT_TRUE(session_->CreateDfsTable("t", schema, rows, 8).ok());
    // A UDF that fails only for one group, so earlier tasks commit real
    // shuffle outputs / cache entries before the query dies.
    UdfRegistry::UdfInfo boom;
    boom.return_type = TypeKind::kInt64;
    boom.fn = [](const std::vector<Value>& args) -> Value {
      if (!args[0].is_null() && args[0].int64_v() == 13) {
        throw std::runtime_error("boom");
      }
      return args[0];
    };
    ASSERT_TRUE(session_->udfs().Register("BOOM", boom).ok());
  }

  std::vector<uint64_t> UsedBytesPerNode() {
    MemoryManager& mm = session_->context().memory_manager();
    std::vector<uint64_t> used;
    for (int n = 0; n < mm.num_nodes(); ++n) used.push_back(mm.UsedBytes(n));
    return used;
  }

  std::unique_ptr<SharkSession> session_;
};

TEST_F(FailingQueryCleanupTest, FailedSelectReleasesShuffleLedger) {
  std::vector<uint64_t> baseline = UsedBytesPerNode();

  auto r = session_->Sql(
      "SELECT BOOM(k), COUNT(*) FROM t GROUP BY k");
  ASSERT_FALSE(r.ok());

  // Every byte the failed query pinned — shuffle map outputs, cache
  // insertions — must be released; the next query sees a clean cluster.
  EXPECT_EQ(UsedBytesPerNode(), baseline);
  EXPECT_EQ(session_->context().memory_manager().admitted_bytes(), 0u);

  auto ok = session_->Sql("SELECT k, COUNT(*) FROM t GROUP BY k");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->rows.size(), 16u);
}

// A CTAS that fails AFTER an index was declared on the phantom table: the
// cleanup's DropTable must release the index's MemoryManager reservation
// along with the table, never leaving a charge against a table that no
// longer exists.
TEST_F(FailingQueryCleanupTest, FailedCtasReleasesIndexOnPhantomTable) {
  // Serial host execution so the planting UDF touches the catalog without
  // racing task bodies.
  session_->options().host_threads = 1;
  MemoryManager* mm = &session_->context().memory_manager();
  SharkSession* session = session_.get();
  auto planted = std::make_shared<bool>(false);
  UdfRegistry::UdfInfo plant;
  plant.return_type = TypeKind::kInt64;
  plant.fn = [session, mm, planted](const std::vector<Value>& args) -> Value {
    if (!*planted) {
      // First task body: the phantom table already exists in the catalog —
      // declare an index on it, reserving index memory like CREATE INDEX.
      *planted = true;
      auto info = session->catalog().Get("broken");
      if (info.ok()) {
        const uint64_t bytes = 1 << 20;
        mm->AddIndexBytes(bytes);
        IndexInfo idx;
        idx.name = "idx_phantom";
        idx.column = 0;
        idx.memory_bytes = bytes;
        idx.reservation = std::shared_ptr<void>(
            nullptr, [mm, bytes](void*) { mm->ReleaseIndexBytes(bytes); });
        (*info)->indexes.emplace("idx_phantom", std::move(idx));
      }
    }
    if (!args[0].is_null() && args[0].int64_v() == 13) {
      throw std::runtime_error("boom");
    }
    return args[0];
  };
  ASSERT_TRUE(session_->udfs().Register("PLANT_BOOM", plant).ok());

  std::vector<uint64_t> baseline = UsedBytesPerNode();
  auto r = session_->Sql(
      "CREATE TABLE broken TBLPROPERTIES ('shark.cache'='true') AS "
      "SELECT k, PLANT_BOOM(v) AS bv FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(*planted);

  // The phantom table AND its index reservation are gone.
  EXPECT_EQ(mm->total_index_bytes(), 0u);
  EXPECT_EQ(UsedBytesPerNode(), baseline);
  EXPECT_FALSE(session_->Sql("SELECT COUNT(*) FROM broken").ok());
  EXPECT_FALSE(session_->Sql("DROP INDEX idx_phantom").ok());
}

TEST_F(FailingQueryCleanupTest, FailedCtasDropsPhantomTableAndCache) {
  std::vector<uint64_t> baseline = UsedBytesPerNode();

  auto r = session_->Sql(
      "CREATE TABLE broken TBLPROPERTIES ('shark.cache'='true') AS "
      "SELECT k, BOOM(v) AS bv FROM t");
  ASSERT_FALSE(r.ok());

  // No phantom half-loaded table, no stranded cache blocks.
  EXPECT_EQ(UsedBytesPerNode(), baseline);
  auto phantom = session_->Sql("SELECT COUNT(*) FROM broken");
  EXPECT_FALSE(phantom.ok());

  // The same CTAS without the failing UDF succeeds afterwards.
  auto ok = session_->Sql(
      "CREATE TABLE fixed TBLPROPERTIES ('shark.cache'='true') AS "
      "SELECT k, v FROM t");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  auto count = session_->Sql("SELECT COUNT(*) FROM fixed");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0].fields[0].int64_v(), 200);
}

// ---------------------------------------------------------------------------
// Reference-based release (success path): a shuffle's map outputs live as
// long as its ShuffleDependency, a cached RDD's blocks as long as its RDD.
// ---------------------------------------------------------------------------

/// Value of an unlabelled gauge in the Prometheus exposition.
double GaugeValue(const ClusterContext& ctx, const std::string& name) {
  std::istringstream text(ctx.metrics().registry().TextExposition());
  std::string line;
  while (std::getline(text, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  ADD_FAILURE() << "gauge not exposed: " << name;
  return -1.0;
}

/// Everything a finished query could leave pinned on the cluster.
struct Footprint {
  std::vector<uint64_t> used_bytes_per_node;  // cache + shuffle ledger
  double shuffle_resident_bytes = 0.0;        // gauge
  double shuffles_live = 0.0;                 // gauge
  size_t registered_shuffles = 0;             // scheduler registry
  uint64_t admitted_bytes = 0;

  bool operator==(const Footprint&) const = default;
};

Footprint TakeFootprint(ClusterContext& ctx) {
  Footprint f;
  MemoryManager& mm = ctx.memory_manager();
  for (int n = 0; n < mm.num_nodes(); ++n) {
    f.used_bytes_per_node.push_back(mm.UsedBytes(n));
  }
  f.shuffle_resident_bytes = GaugeValue(ctx, "shark_shuffle_resident_bytes");
  f.shuffles_live = GaugeValue(ctx, "shark_shuffles_live");
  f.registered_shuffles = ctx.scheduler().num_registered_shuffles();
  f.admitted_bytes = mm.admitted_bytes();
  return f;
}

std::ostream& operator<<(std::ostream& os, const Footprint& f) {
  uint64_t used = 0;
  for (uint64_t b : f.used_bytes_per_node) used += b;
  return os << "{used=" << used << " resident=" << f.shuffle_resident_bytes
            << " live=" << f.shuffles_live
            << " registered=" << f.registered_shuffles
            << " admitted=" << f.admitted_bytes << "}";
}

class QueryReleaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    session_ = std::make_unique<SharkSession>(
        std::make_shared<ClusterContext>(SmallConfig()));
    std::vector<Row> t_rows;
    std::vector<Row> u_rows;
    for (int i = 0; i < 200; ++i) {
      t_rows.push_back(Row({Value::Int64(i % 16), Value::Int64(i)}));
      u_rows.push_back(Row({Value::Int64(i % 32), Value::Int64(2 * i)}));
    }
    ASSERT_TRUE(session_
                    ->CreateDfsTable(
                        "t",
                        Schema({{"k", TypeKind::kInt64},
                                {"v", TypeKind::kInt64}}),
                        t_rows, 8)
                    .ok());
    ASSERT_TRUE(session_
                    ->CreateDfsTable(
                        "u",
                        Schema({{"k", TypeKind::kInt64},
                                {"w", TypeKind::kInt64}}),
                        u_rows, 8)
                    .ok());
  }

  ClusterContext& ctx() { return session_->context(); }

  std::unique_ptr<SharkSession> session_;
};

constexpr const char* kGroupBy = "SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k";
constexpr const char* kJoin =
    "SELECT t.k, t.v, u.w FROM t JOIN u ON t.k = u.k WHERE t.v < 50";
// 50 rows of t, each matching the 7 (k < 8) or 6 (k >= 8) rows of u.
constexpr size_t kJoinRows = 326;

TEST_F(QueryReleaseTest, SuccessfulGroupByReleasesItsShuffles) {
  const Footprint before = TakeFootprint(ctx());
  auto r = session_->Sql(kGroupBy);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 16u);
  EXPECT_GT(r->metrics.stages, 1);  // it shuffled
  EXPECT_EQ(TakeFootprint(ctx()), before);
}

TEST_F(QueryReleaseTest, SuccessfulJoinReleasesItsShuffles) {
  const Footprint before = TakeFootprint(ctx());
  auto r = session_->Sql(kJoin);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), kJoinRows);
  EXPECT_GT(r->metrics.stages, 1);
  EXPECT_EQ(TakeFootprint(ctx()), before);
}

// A sql2rdd result owns its lineage: its shuffles stay resident (and
// recoverable after a node loss) for as long as the caller holds it.
TEST_F(QueryReleaseTest, Sql2RddKeepsShufflesUntilDropped) {
  const Footprint before = TakeFootprint(ctx());
  auto table = session_->Sql2Rdd(kGroupBy);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  auto first = ctx().Collect(table->rdd);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->size(), 16u);

  const Footprint held = TakeFootprint(ctx());
  EXPECT_GT(held.shuffles_live, before.shuffles_live);
  EXPECT_GT(held.shuffle_resident_bytes, 0.0);
  EXPECT_GT(held.registered_shuffles, before.registered_shuffles);
  // Queries in between do not disturb the held shuffles.
  ASSERT_TRUE(session_->Sql(kJoin).ok());
  EXPECT_EQ(TakeFootprint(ctx()), held);

  // Kill a node that holds map outputs: the held shuffle is still
  // registered, so the next action recomputes the lost outputs by lineage.
  ctx().InjectFault(FaultEvent{FaultEvent::Kind::kKill, ctx().now(), 0, 1.0});
  const uint64_t recovered_before =
      CounterValue(ctx(), "shark_map_tasks_recovered_total");
  auto again = ctx().Collect(table->rdd);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  auto sorted = [](std::vector<Row> rows) {
    std::vector<std::string> out;
    for (const Row& row : rows) out.push_back(row.ToString());
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(sorted(*again), sorted(*first));
  EXPECT_GT(CounterValue(ctx(), "shark_map_tasks_recovered_total"),
            recovered_before);

  table->rdd.reset();
  const Footprint after = TakeFootprint(ctx());
  EXPECT_EQ(after.shuffles_live, before.shuffles_live);
  EXPECT_EQ(after.shuffle_resident_bytes, 0.0);
  EXPECT_EQ(after.registered_shuffles, before.registered_shuffles);
  EXPECT_EQ(after, before);
}

// A cached table's blocks are owned by the catalog's reference: queries
// leave them alone, UNCACHE releases them.
TEST_F(QueryReleaseTest, CachedTableBlocksLiveUntilUncache) {
  const Footprint before = TakeFootprint(ctx());
  ASSERT_TRUE(session_->CacheTable("t").ok());
  const Footprint cached = TakeFootprint(ctx());
  EXPECT_GT(ctx().block_manager().TotalUsedBytes(), 0u);
  EXPECT_NE(cached.used_bytes_per_node, before.used_bytes_per_node);

  for (const char* sql : {kGroupBy, kJoin, "SELECT COUNT(*) FROM t"}) {
    auto r = session_->Sql(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    EXPECT_EQ(TakeFootprint(ctx()), cached) << sql;
  }

  ASSERT_TRUE(session_->UncacheTable("t").ok());
  EXPECT_EQ(ctx().block_manager().TotalUsedBytes(), 0u);
  EXPECT_EQ(TakeFootprint(ctx()), before);
}

// A TableRdd can outlive its session and cluster context; dropping it then
// releases nothing (the sanitizer builds catch any touch of the dead context).
TEST_F(QueryReleaseTest, TableRddOutlivingItsContextReleasesNothing) {
  ASSERT_TRUE(session_->CacheTable("t").ok());
  // The lineage holds a shuffle and the still-cached table's RDD.
  auto table = session_->Sql2Rdd(kGroupBy);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_TRUE(ctx().Collect(table->rdd).ok());
  session_.reset();  // sole owner of the context
  table->rdd.reset();
}

// Three concurrent SQL jobs under admission control: at quiescence nothing
// is left in the shuffle ledger or the admission reservations, and virtual
// time does not depend on how many host threads computed the task bodies.
struct ConcurrentSqlRun {
  std::vector<double> finish_vtimes;
  std::vector<size_t> rows;
  double now = 0.0;
};

ConcurrentSqlRun RunConcurrentSql(int host_threads) {
  ClusterConfig cfg = SmallConfig();
  cfg.host_threads = host_threads;
  SharkSession session(std::make_shared<ClusterContext>(cfg));
  std::vector<Row> t_rows;
  std::vector<Row> u_rows;
  for (int i = 0; i < 200; ++i) {
    t_rows.push_back(Row({Value::Int64(i % 16), Value::Int64(i)}));
    u_rows.push_back(Row({Value::Int64(i % 32), Value::Int64(2 * i)}));
  }
  Schema t_schema({{"k", TypeKind::kInt64}, {"v", TypeKind::kInt64}});
  Schema u_schema({{"k", TypeKind::kInt64}, {"w", TypeKind::kInt64}});
  EXPECT_TRUE(session.CreateDfsTable("t", t_schema, t_rows, 8).ok());
  EXPECT_TRUE(session.CreateDfsTable("u", u_schema, u_rows, 8).ok());
  EXPECT_TRUE(session.CacheTable("u").ok());

  ClusterContext& ctx = session.context();
  const Footprint before = TakeFootprint(ctx);
  JobManager jm(&ctx);
  const char* queries[] = {kGroupBy, kJoin, kGroupBy};
  ConcurrentSqlRun run;
  run.rows.resize(3);
  std::vector<JobSpec> specs(3);
  for (size_t i = 0; i < specs.size(); ++i) {
    specs[i].label = "sql" + std::to_string(i);
    specs[i].mem_demand_bytes =
        ctx.memory_manager().AdmissionHeadroomBytes() / 8;
    specs[i].body = [&session, &run, sql = queries[i], i]() -> Status {
      SHARK_ASSIGN_OR_RETURN(QueryResult r, session.Sql(sql));
      run.rows[i] = r.rows.size();
      return Status::OK();
    };
  }
  for (const JobOutcome& o : jm.RunJobs(std::move(specs))) {
    EXPECT_TRUE(o.status.ok()) << o.label << ": " << o.status.ToString();
    run.finish_vtimes.push_back(o.finish_vtime);
  }
  EXPECT_EQ(TakeFootprint(ctx), before) << "host_threads=" << host_threads;
  EXPECT_EQ(ctx.memory_manager().total_shuffle_bytes(), 0u);
  EXPECT_EQ(ctx.memory_manager().admitted_bytes(), 0u);
  run.now = ctx.now();
  return run;
}

TEST(ConcurrentJobsTest, ConcurrentSqlJobsReleaseEverythingAtQuiescence) {
  ConcurrentSqlRun serial = RunConcurrentSql(1);
  ConcurrentSqlRun pool = RunConcurrentSql(0);
  EXPECT_EQ(serial.rows, (std::vector<size_t>{16, kJoinRows, 16}));
  EXPECT_EQ(pool.rows, serial.rows);
  // Byte-identical virtual time: exact double equality, not a tolerance.
  EXPECT_EQ(pool.finish_vtimes, serial.finish_vtimes);
  EXPECT_EQ(pool.now, serial.now);
}

}  // namespace
}  // namespace shark
