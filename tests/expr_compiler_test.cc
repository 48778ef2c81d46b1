#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "sql/expr_compiler.h"
#include "sql/parser.h"
#include "sql/reference_eval.h"
#include "sql/session.h"

namespace shark {
namespace {

/// Binds columns a,b,c,s to slots 0..3 (as in expr_test).
ExprPtr Bind(const std::string& text) {
  auto parsed = ParseExpression(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::function<void(Expr*)> bind = [&](Expr* e) {
    if (e->kind == ExprKind::kColumnRef) {
      int slot = e->name == "a" ? 0 : e->name == "b" ? 1 : e->name == "c" ? 2 : 3;
      e->kind = ExprKind::kSlot;
      e->slot = slot;
    }
    for (auto& ch : e->children) bind(ch.get());
  };
  bind(parsed->get());
  return *parsed;
}

/// `col + (col + (... + (col + 1)))`, nested 40 deep on the right: the
/// operand stack grows by one per level.
std::string DeepSum(const std::string& col) {
  std::string expr = "1";
  for (int i = 0; i < 40; ++i) expr = col + " + (" + expr + ")";
  return expr;
}

/// Property: compiled evaluation == interpreted evaluation, on every
/// expression form, across many rows.
class CompiledVsInterpretedTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CompiledVsInterpretedTest, Agree) {
  ExprPtr expr = Bind(GetParam());
  UdfRegistry udfs;
  ExprCompiler compiler(&udfs);
  auto compiled = compiler.Compile(*expr);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  Random rng(11);
  const char* strings[] = {"US", "UK", "abc", "", "hello.html"};
  for (int i = 0; i < 300; ++i) {
    Row row({rng.Bernoulli(0.1) ? Value::Null()
                                : Value::Int64(rng.UniformInt(-20, 120)),
             rng.Bernoulli(0.1) ? Value::Null()
                                : Value::Double(rng.NextDouble() * 10.0),
             Value::String(strings[rng.Uniform(5)]),
             rng.Bernoulli(0.5) ? Value::Null() : Value::Int64(rng.UniformInt(0, 5))});
    Value interpreted = EvalExpr(*expr, row, &udfs);
    Value compiled_v = compiled->Eval(row);
    bool both_null = interpreted.is_null() && compiled_v.is_null();
    EXPECT_TRUE(both_null || interpreted == compiled_v)
        << GetParam() << " row=" << row.ToString()
        << " interp=" << interpreted.ToString()
        << " compiled=" << compiled_v.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Exprs, CompiledVsInterpretedTest,
    ::testing::Values(
        "a + 1", "a * 2 - b", "a / 0", "a % 7", "-a", "NOT (a > 5)",
        "a > 50 AND b < 5.0", "a > 50 OR s IS NULL", "a BETWEEN 10 AND 90",
        "a NOT BETWEEN 10 AND 90", "c IN ('US', 'UK')", "c NOT IN ('abc')",
        "s IS NULL", "s IS NOT NULL", "c LIKE '%.html'", "c NOT LIKE 'U%'",
        "SUBSTR(c, 1, 2)", "LOWER(c)", "LENGTH(c) + a",
        "CASE WHEN a > 100 THEN 'big' WHEN a > 10 THEN 'mid' ELSE 'small' END",
        "CASE WHEN a > 1000 THEN 1 END", "COALESCE(s, a)",
        "IF(a > 50, b, 0.0 - b)", "a = 10 AND b = 2.5 OR c = 'US'",
        "ABS(0 - a) + FLOOR(b)", [] {
          static const std::string deep = DeepSum("a");
          return deep.c_str();
        }()));

TEST(ExprCompilerTest, UdfCalls) {
  UdfRegistry udfs;
  ASSERT_TRUE(udfs.Register("TWICE",
                            {[](const std::vector<Value>& args) {
                               return Value::Int64(args[0].AsInt64() * 2);
                             },
                             TypeKind::kInt64, 2.0})
                  .ok());
  ExprPtr expr = Bind("TWICE(a) + 1");
  ExprCompiler compiler(&udfs);
  auto compiled = compiler.Compile(*expr);
  ASSERT_TRUE(compiled.ok());
  Row row({Value::Int64(21), Value::Null(), Value::Null(), Value::Null()});
  EXPECT_EQ(compiled->Eval(row), Value::Int64(43));
}

TEST(ExprCompilerTest, RejectsAggregates) {
  ExprPtr expr = Bind("SUM(a)");
  UdfRegistry udfs;
  ExprCompiler compiler(&udfs);
  EXPECT_FALSE(compiler.Compile(*expr).ok());
}

TEST(ExprCompilerTest, ProgramIsFlat) {
  ExprPtr expr = Bind("a + b * 2 - 1");
  UdfRegistry udfs;
  ExprCompiler compiler(&udfs);
  auto compiled = compiler.Compile(*expr);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->num_instructions(), 7u);  // a b 2 * + 1 - (postfix)
  EXPECT_EQ(compiled->max_stack_depth(), 3u);   // a, b, 2 before the *
}

/// Session with two uncached DFS tables, t(x, name) and u(y, label), and a
/// TWICE UDF.
std::unique_ptr<SharkSession> MakeJoinSession() {
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.hardware.cores_per_node = 2;
  auto session =
      std::make_unique<SharkSession>(std::make_shared<ClusterContext>(cfg));
  EXPECT_TRUE(session->udfs()
                  .Register("TWICE",
                            {[](const std::vector<Value>& args) {
                               return args[0].is_null()
                                          ? Value::Null()
                                          : Value::Int64(args[0].AsInt64() * 2);
                             },
                             TypeKind::kInt64, 2.0})
                  .ok());
  std::vector<Row> t_rows;
  for (int i = 0; i < 300; ++i) {
    t_rows.push_back(
        Row({Value::Int64(i), Value::String("n" + std::to_string(i % 9))}));
  }
  std::vector<Row> u_rows;
  for (int i = 0; i < 40; ++i) {
    u_rows.push_back(
        Row({Value::Int64(i % 25), Value::String("l" + std::to_string(i))}));
  }
  EXPECT_TRUE(session
                  ->CreateDfsTable("t",
                                   Schema({{"x", TypeKind::kInt64},
                                           {"name", TypeKind::kString}}),
                                   t_rows, 3)
                  .ok());
  EXPECT_TRUE(session
                  ->CreateDfsTable("u",
                                   Schema({{"y", TypeKind::kInt64},
                                           {"label", TypeKind::kString}}),
                                   u_rows, 2)
                  .ok());
  return session;
}

Result<QueryResult> Reference(SharkSession* session, const std::string& sql) {
  auto stmt = ParseStatement(sql);
  if (!stmt.ok()) return stmt.status();
  return ReferenceExecute(*stmt->select, session->catalog(),
                          session->context().dfs(), &session->udfs());
}

std::multiset<std::string> Keyed(const QueryResult& r) {
  std::multiset<std::string> out;
  for (const Row& row : r.rows) out.insert(row.ToString());
  return out;
}

TEST(ExprCompilerTest, EndToEndQueryResultsUnchanged) {
  // Join keys, group keys, aggregate arguments and the ORDER BY key are all
  // expressions (TWICE is a UDF); the executor runs them as compiled
  // programs, the reference oracle interprets the trees.
  auto session = MakeJoinSession();
  const std::string q =
      "SELECT SUBSTR(t.name, 1, 2) AS k, COUNT(*) AS c, "
      "SUM(TWICE(t.x) + u.y) AS s "
      "FROM t JOIN u ON TWICE(t.x % 10) = u.y + 1 "
      "GROUP BY SUBSTR(t.name, 1, 2) ORDER BY s * 2 + c DESC";
  auto engine = session->Sql(q);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto reference = Reference(session.get(), q);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_FALSE(reference->rows.empty());
  EXPECT_EQ(Keyed(*engine), Keyed(*reference));
  // Same ORDER BY key sequence (rows with tied keys may differ in order).
  auto sort_keys = [](const QueryResult& r) {
    std::vector<int64_t> out;
    for (const Row& row : r.rows) {
      out.push_back(row.Get(2).AsInt64() * 2 + row.Get(1).AsInt64());
    }
    return out;
  };
  EXPECT_EQ(sort_keys(*engine), sort_keys(*reference));
}

TEST(ExprCompilerTest, DeepExpressionsRunOnCachedAndUncachedTables) {
  auto session = MakeJoinSession();
  const std::string deep = DeepSum("x");
  const std::string q = "SELECT name, " + deep + " FROM t WHERE (" + deep +
                        ") % 7 = 3";
  auto reference = Reference(session.get(), q);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_FALSE(reference->rows.empty());
  for (bool cached : {false, true}) {
    if (cached) {
      ASSERT_TRUE(session->CacheTable("t").ok());
    }
    auto engine = session->Sql(q);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ(Keyed(*engine), Keyed(*reference)) << "cached=" << cached;
  }
}

}  // namespace
}  // namespace shark
