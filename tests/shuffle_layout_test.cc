// Single-block map-output layout: each writer's records block, offsets and
// bucket bytes must equal a reference built the old way — one vector per
// bucket, filled in writer order — and so must everything derived from
// them: the fetched record sequence for a PDE-style bucket list, the
// effective (cost-scaled) record count, and the master's ShuffleStats
// (log-encoded bucket bytes and totals). 1,600 buckets over a handful of
// records per map task leave almost every bucket empty, the shape the layout
// exists for; 4-bucket cases put dozens of groups in each bucket, where the
// combiners' writer order (first-seen key order) within a bucket shows.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "columnar/table_partition.h"
#include "common/random.h"
#include "common/size_encoding.h"
#include "exec/vectorized/vec_exec.h"
#include "rdd/context.h"
#include "rdd/pair_rdd.h"
#include "sql/aggregates.h"
#include "sql/expr_compiler.h"

namespace shark {
namespace {

constexpr int kBuckets = 1600;
constexpr int kNodes = 4;
constexpr int kMaps = 8;

ClusterConfig LayoutConfig() {
  ClusterConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.hardware.cores_per_node = 2;
  // Combiners pre-scale their bytes (cost_scale != 1), yet small enough
  // that scaled buckets keep non-zero, truncated byte counts.
  cfg.virtual_data_scale = 5;
  return cfg;
}

/// A PDE-style reducer's bucket list: contiguous runs (which a fetch may
/// coalesce), isolated buckets and out-of-order entries.
std::vector<int> PdeBucketList() {
  std::vector<int> list;
  for (int b = 500; b < 1000; ++b) list.push_back(b);
  for (int b : {1200, 1100, 7, 3, 4}) list.push_back(b);
  for (int b = 1500; b < kBuckets; ++b) list.push_back(b);
  return list;
}

TaskContext MakeTask(ClusterContext* ctx, int partition) {
  return TaskContext(partition, &ctx->profile(), &ctx->block_manager(),
                     &ctx->shuffle_manager(), &ctx->broadcasts(),
                     ctx->virtual_scale());
}

/// Runs a shuffle's map side the way the scheduler's map stage does —
/// PartitionBlock in a task, then PutMapOutput at commit — committing map p
/// on node p % kNodes, in map order.
void RunMaps(ClusterContext* ctx, const ShuffleDependency& dep,
             const std::vector<BlockData>& blocks) {
  ShuffleManager& sm = ctx->shuffle_manager();
  for (size_t p = 0; p < blocks.size(); ++p) {
    TaskContext tctx = MakeTask(ctx, static_cast<int>(p));
    MapOutput out = dep.PartitionBlock(blocks[p], &tctx);
    out.node = static_cast<int>(p) % kNodes;
    sm.PutMapOutput(dep.shuffle_id(), static_cast<int>(p), std::move(out));
  }
}

/// One map task's output in the old layout: a vector per bucket.
template <typename T>
struct RefOutput {
  std::vector<std::vector<T>> buckets;
  std::vector<uint64_t> bytes;
  double cost_scale = 1.0;
};

/// Splits records (in writer order) into `num_buckets` buckets, sizing each
/// bucket the way the writers always have: raw ApproxSizeOf bytes, scaled
/// and truncated per bucket when `cost_scale` != 1.
template <typename T, typename BucketFn>
RefOutput<T> SplitPerBucket(const std::vector<T>& writer_order,
                            int num_buckets, BucketFn bucket_of,
                            double cost_scale) {
  RefOutput<T> ref;
  ref.buckets.resize(static_cast<size_t>(num_buckets));
  for (const T& x : writer_order) {
    ref.buckets[static_cast<size_t>(bucket_of(x))].push_back(x);
  }
  ref.cost_scale = cost_scale;
  for (const auto& bucket : ref.buckets) {
    uint64_t raw = ApproxSizeOfRange(bucket);
    ref.bytes.push_back(
        cost_scale == 1.0
            ? raw
            : static_cast<uint64_t>(static_cast<double>(raw) * cost_scale));
  }
  return ref;
}

int HashBucket(uint64_t hash, int num_buckets = kBuckets) {
  return static_cast<int>(hash % static_cast<uint64_t>(num_buckets));
}

/// Checks the committed outputs of shuffle `dep`, a fetch of `list` and the
/// master's statistics against the per-bucket references. `same` compares
/// one fetched record with one reference record.
template <typename T, typename Same>
void ExpectMatchesReference(ClusterContext* ctx, const ShuffleDependency& dep,
                            const std::vector<RefOutput<T>>& refs,
                            const std::vector<int>& list, Same same) {
  ShuffleManager& sm = ctx->shuffle_manager();
  const int sid = dep.shuffle_id();
  const int nb = dep.num_buckets();
  ASSERT_EQ(sm.NumMapPartitions(sid), static_cast<int>(refs.size()));

  // Layout: one records block per output, grouped by bucket.
  for (size_t m = 0; m < refs.size(); ++m) {
    const MapOutput* mo = sm.GetMapOutput(sid, static_cast<int>(m));
    ASSERT_NE(mo, nullptr);
    ASSERT_EQ(mo->num_buckets(), nb);
    ASSERT_EQ(refs[m].buckets.size(), static_cast<size_t>(nb));
    ASSERT_EQ(mo->bucket_bytes.size(), static_cast<size_t>(nb));
    ASSERT_NE(mo->records, nullptr);
    const auto& block = *std::static_pointer_cast<const std::vector<T>>(mo->records);
    EXPECT_EQ(block.size(), mo->num_records());
    EXPECT_EQ(mo->cost_scale, refs[m].cost_scale);
    uint32_t pos = 0;
    for (int b = 0; b < nb; ++b) {
      const auto& want = refs[m].buckets[static_cast<size_t>(b)];
      ASSERT_EQ(mo->offsets[static_cast<size_t>(b)], pos);
      ASSERT_EQ(mo->BucketRecords(b), want.size()) << "map " << m << " bucket " << b;
      EXPECT_EQ(mo->bucket_bytes[static_cast<size_t>(b)],
                refs[m].bytes[static_cast<size_t>(b)])
          << "map " << m << " bucket " << b;
      for (const T& x : want) {
        EXPECT_TRUE(same(block[pos], x)) << "map " << m << " bucket " << b;
        ++pos;
      }
    }
    EXPECT_EQ(pos, block.size());
  }

  // Fetch: map-major, then list order; effective records summed one term
  // per (map, listed bucket), empty buckets included.
  std::vector<const T*> want_seq;
  double want_effective = 0.0;
  for (const RefOutput<T>& ref : refs) {
    for (int b : list) {
      const auto& bucket = ref.buckets[static_cast<size_t>(b)];
      for (const T& x : bucket) want_seq.push_back(&x);
      want_effective += static_cast<double>(bucket.size()) * ref.cost_scale;
    }
  }
  TaskContext tctx = MakeTask(ctx, 0);
  double effective = 0.0;
  std::vector<ShuffleSlice> slices =
      tctx.FetchShuffleBuckets(sid, list, &effective);
  EXPECT_TRUE(tctx.missing_inputs().empty());
  EXPECT_EQ(effective, want_effective);
  size_t i = 0;
  for (const ShuffleSlice& s : slices) {
    EXPECT_LT(s.begin, s.end);  // empty ranges are never handed out
    for (const T& x : s.As<T>()) {
      ASSERT_LT(i, want_seq.size());
      EXPECT_TRUE(same(x, *want_seq[i])) << "fetched record " << i;
      ++i;
    }
  }
  EXPECT_EQ(i, want_seq.size());
  // Transfer charges: one per map output with bytes in the listed buckets.
  std::vector<DeferredCharge> charges = tctx.TakeDeferredCharges();
  size_t c = 0;
  for (size_t m = 0; m < refs.size(); ++m) {
    uint64_t bytes = 0;
    for (int b : list) bytes += refs[m].bytes[static_cast<size_t>(b)];
    if (bytes == 0) continue;
    ASSERT_LT(c, charges.size());
    EXPECT_EQ(charges[c].kind, DeferredCharge::Kind::kMemOrNet);
    EXPECT_EQ(charges[c].bytes, bytes) << "map " << m;
    EXPECT_EQ(charges[c].home, static_cast<int>(m) % kNodes);
    ++c;
  }
  EXPECT_EQ(c, charges.size());

  // Statistics: log-encoded sizes per bucket and the totals.
  ShuffleStats want;
  want.bucket_bytes.assign(static_cast<size_t>(nb), 0);
  for (const RefOutput<T>& ref : refs) {
    for (int b = 0; b < nb; ++b) {
      const auto bi = static_cast<size_t>(b);
      uint64_t approx = SizeEncoding::Decode(SizeEncoding::Encode(ref.bytes[bi]));
      want.bucket_bytes[bi] += approx;
      want.total_bytes += approx;
      want.total_records += ref.buckets[bi].size();
    }
  }
  const ShuffleStats& got = sm.Stats(sid);
  EXPECT_EQ(got.bucket_bytes, want.bucket_bytes);
  EXPECT_EQ(got.total_bytes, want.total_bytes);
  EXPECT_EQ(got.total_records, want.total_records);
}

using KV = std::pair<int64_t, int64_t>;

/// Skewed keys: a few hot keys among a few hundred distinct ones.
std::vector<std::vector<KV>> SkewedMapInputs(uint64_t seed) {
  Random rng(seed);
  std::vector<std::vector<KV>> maps(kMaps);
  for (auto& in : maps) {
    for (int i = 0; i < 30; ++i) {
      int64_t key = rng.Uniform(3) == 0 ? rng.UniformInt(0, 4)
                                        : rng.UniformInt(0, 300);
      in.emplace_back(key, rng.UniformInt(1, 9));
    }
  }
  return maps;
}

TEST(ShuffleLayoutTest, PlainShuffleDepMatchesPerBucketSplit) {
  ClusterContext ctx(LayoutConfig());
  std::vector<std::vector<KV>> inputs = SkewedMapInputs(11);
  auto rdd = ctx.Parallelize(std::vector<KV>{}, kMaps);
  auto dep = MakeHashPartitionDep<int64_t, int64_t>(rdd, kBuckets);

  std::vector<BlockData> blocks;
  std::vector<RefOutput<KV>> refs;
  for (const auto& in : inputs) {
    blocks.push_back(std::make_shared<const std::vector<KV>>(in));
    refs.push_back(SplitPerBucket<KV>(
        in, kBuckets, [](const KV& kv) { return HashBucket(KeyHash(kv.first)); },
        1.0));
  }
  RunMaps(&ctx, *dep, blocks);
  ExpectMatchesReference<KV>(&ctx, *dep, refs, PdeBucketList(),
                             [](const KV& a, const KV& b) { return a == b; });
}

/// Runs a summing CombiningShuffleDep's map side into `num_buckets` buckets
/// and checks every output against a reference that lists each map's
/// combined keys in first-seen input order (built without any hash table,
/// so its order depends on no container) and splits them per bucket.
void CheckCombiningAgainstFirstSeen(const std::vector<std::vector<KV>>& inputs,
                                    int num_buckets,
                                    const std::vector<int>& list) {
  ClusterContext ctx(LayoutConfig());
  auto rdd = ctx.Parallelize(std::vector<KV>{}, kMaps);
  auto dep = std::make_shared<CombiningShuffleDep<int64_t, int64_t, int64_t>>(
      rdd, num_buckets, [](const int64_t& v) { return v; },
      [](int64_t& acc, const int64_t& v) { acc += v; });

  std::vector<BlockData> blocks;
  for (const auto& in : inputs) {
    blocks.push_back(std::make_shared<const std::vector<KV>>(in));
  }
  RunMaps(&ctx, *dep, blocks);

  std::vector<RefOutput<KV>> refs;
  for (size_t m = 0; m < inputs.size(); ++m) {
    std::vector<KV> order;
    std::map<int64_t, size_t> slot;
    for (const auto& [k, v] : inputs[m]) {
      auto [it, inserted] = slot.emplace(k, order.size());
      if (inserted) {
        order.emplace_back(k, v);
      } else {
        order[it->second].second += v;
      }
    }
    // The distinct-growth factor is the writer's own estimate; the layout
    // only has to apply it per bucket exactly as before.
    double scale = ctx.shuffle_manager().GetMapOutput(dep->shuffle_id(),
                                                      static_cast<int>(m))
                       ->cost_scale;
    EXPECT_NE(scale, 1.0);
    refs.push_back(SplitPerBucket<KV>(
        order, num_buckets,
        [num_buckets](const KV& kv) {
          return HashBucket(KeyHash(kv.first), num_buckets);
        },
        scale));
  }
  ExpectMatchesReference<KV>(&ctx, *dep, refs, list,
                             [](const KV& a, const KV& b) { return a == b; });
}

/// ~150 distinct keys per map over a few buckets: dozens of groups per
/// bucket, so any writer order other than first-seen shows within a bucket.
std::vector<std::vector<KV>> SharedBucketInputs() {
  Random rng(15);
  std::vector<std::vector<KV>> inputs(kMaps);
  for (auto& in : inputs) {
    for (int i = 0; i < 300; ++i) {
      in.emplace_back(rng.UniformInt(0, 199), rng.UniformInt(1, 9));
    }
  }
  return inputs;
}

TEST(ShuffleLayoutTest, CombiningShuffleDepMatchesPerBucketSplit) {
  CheckCombiningAgainstFirstSeen(SkewedMapInputs(12), kBuckets,
                                 PdeBucketList());
}

TEST(ShuffleLayoutTest, CombiningShuffleDepKeepsFirstSeenOrderInSharedBuckets) {
  CheckCombiningAgainstFirstSeen(SharedBucketInputs(), 4, {2, 3, 0});
}

/// Runs SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k through the vectorized
/// group-by's map side into `num_buckets` buckets, one table partition per
/// map input, and checks every output against a reference that lists each
/// map's groups in first-seen input order (built without any hash table,
/// so its order depends on no container) and splits them per bucket.
void CheckVecAggAgainstFirstSeen(const std::vector<std::vector<KV>>& inputs,
                                 int num_buckets,
                                 const std::vector<int>& list) {
  ClusterContext ctx(LayoutConfig());
  Schema schema({{"k", TypeKind::kInt64}, {"v", TypeKind::kInt64}});
  std::vector<TablePartitionPtr> parts;
  for (const auto& in : inputs) {
    std::vector<Row> rows;
    for (const auto& [k, v] : in) {
      rows.push_back(Row({Value::Int64(k), Value::Int64(v)}));
    }
    parts.push_back(TablePartition::FromRows(schema, rows));
  }
  vec::VecScan scan;
  scan.base = ctx.Parallelize(parts, static_cast<int>(parts.size()));
  scan.schema = std::make_shared<const Schema>(schema);
  scan.needed = std::make_shared<const std::vector<int>>(std::vector<int>{0, 1});
  scan.table = "t";
  ExprCompiler compiler(nullptr);
  auto compile = [&](int slot) {
    auto prog = compiler.Compile(*MakeSlot(slot, TypeKind::kInt64));
    EXPECT_TRUE(prog.ok());
    return std::move(*prog);
  };
  auto groups = std::make_shared<std::vector<CompiledExpr>>();
  groups->push_back(compile(0));
  auto calls = std::make_shared<std::vector<AggCall>>(2);
  (*calls)[0].fn = AggCall::Fn::kCountStar;
  (*calls)[1].fn = AggCall::Fn::kSum;
  (*calls)[1].args = {MakeSlot(1, TypeKind::kInt64)};
  auto args = std::make_shared<std::vector<std::vector<CompiledExpr>>>(2);
  (*args)[1].push_back(compile(1));
  auto dep = vec::MakeVecAggDep(scan, num_buckets, groups, args, calls);

  std::vector<BlockData> blocks;
  for (const TablePartitionPtr& part : parts) {
    blocks.push_back(std::make_shared<const std::vector<TablePartitionPtr>>(
        std::vector<TablePartitionPtr>{part}));
  }
  RunMaps(&ctx, *dep, blocks);

  using Pair = std::pair<Row, AggState>;
  std::vector<RefOutput<Pair>> refs;
  for (size_t m = 0; m < inputs.size(); ++m) {
    const MapOutput* mo =
        ctx.shuffle_manager().GetMapOutput(dep->shuffle_id(), static_cast<int>(m));
    ASSERT_NE(mo, nullptr);
    std::vector<int64_t> first_seen;
    std::map<int64_t, std::pair<int64_t, int64_t>> expect;  // count, sum
    for (const auto& [k, v] : inputs[m]) {
      if (expect.count(k) == 0) first_seen.push_back(k);
      expect[k].first += 1;
      expect[k].second += v;
    }
    std::map<int64_t, const Pair*> written;
    for (const Pair& p : *std::static_pointer_cast<const std::vector<Pair>>(mo->records)) {
      written.emplace(p.first.fields[0].AsInt64(), &p);
    }
    ASSERT_EQ(written.size(), first_seen.size());
    std::vector<Pair> order;
    for (int64_t k : first_seen) {
      const Pair& p = *written.at(k);
      EXPECT_EQ(p.second.cells[0].count, expect.at(k).first);
      EXPECT_EQ(p.second.cells[1].acc, Value::Int64(expect.at(k).second));
      order.push_back(p);
    }
    EXPECT_NE(mo->cost_scale, 1.0);
    refs.push_back(SplitPerBucket<Pair>(
        order, num_buckets,
        [num_buckets](const Pair& p) {
          return HashBucket(KeyHash(p.first), num_buckets);
        },
        mo->cost_scale));
  }
  ExpectMatchesReference<Pair>(
      &ctx, *dep, refs, list,
      [](const Pair& a, const Pair& b) { return a.first == b.first; });
}

TEST(ShuffleLayoutTest, VecAggShuffleDepMatchesPerBucketSplit) {
  CheckVecAggAgainstFirstSeen(SkewedMapInputs(13), kBuckets, PdeBucketList());
}

TEST(ShuffleLayoutTest, VecAggShuffleDepKeepsFirstSeenOrderInSharedBuckets) {
  CheckVecAggAgainstFirstSeen(SharedBucketInputs(), 4, {2, 3, 0});
}

TEST(ShuffleLayoutTest, EmptyInputBlockWritesOneEmptyRecordsBlock) {
  ClusterContext ctx(LayoutConfig());
  auto rdd = ctx.Parallelize(std::vector<KV>{}, 1);
  auto plain = MakeHashPartitionDep<int64_t, int64_t>(rdd, kBuckets);
  auto combining =
      std::make_shared<CombiningShuffleDep<int64_t, int64_t, int64_t>>(
          rdd, kBuckets, [](const int64_t& v) { return v; },
          [](int64_t& acc, const int64_t& v) { acc += v; });
  for (const ShuffleDependency* dep :
       {static_cast<const ShuffleDependency*>(plain.get()),
        static_cast<const ShuffleDependency*>(combining.get())}) {
    RunMaps(&ctx, *dep, {std::make_shared<const std::vector<KV>>()});
    const MapOutput* mo = ctx.shuffle_manager().GetMapOutput(dep->shuffle_id(), 0);
    ASSERT_NE(mo, nullptr);
    ASSERT_NE(mo->records, nullptr);
    EXPECT_TRUE(std::static_pointer_cast<const std::vector<KV>>(mo->records)->empty());
    EXPECT_EQ(mo->offsets, std::vector<uint32_t>(kBuckets + 1, 0));
    EXPECT_EQ(mo->TotalBytes(), 0u);

    TaskContext tctx = MakeTask(&ctx, 0);
    double effective = 0.0;
    EXPECT_TRUE(tctx.FetchShuffleBuckets(dep->shuffle_id(), PdeBucketList(),
                                         &effective)
                    .empty());
    EXPECT_EQ(effective, 0.0);
    EXPECT_TRUE(tctx.TakeDeferredCharges().empty());
    const ShuffleStats& stats = ctx.shuffle_manager().Stats(dep->shuffle_id());
    EXPECT_EQ(stats.total_records, 0u);
    EXPECT_EQ(stats.total_bytes, 0u);
  }
}

TEST(ShuffleLayoutTest, AllEmptyOutputFetchesNothingAndChargesNothing) {
  ShuffleManager sm;
  int id = sm.RegisterShuffle(/*num_map_partitions=*/1, kBuckets);
  MapOutput out;
  out.node = 2;
  out.offsets.assign(kBuckets + 1, 0);
  out.bucket_bytes.assign(kBuckets, 0);
  sm.PutMapOutput(id, 0, std::move(out));
  ASSERT_TRUE(sm.IsComplete(id));
  EXPECT_EQ(sm.Stats(id).total_records, 0u);
  EXPECT_EQ(sm.Stats(id).bucket_bytes, std::vector<uint64_t>(kBuckets, 0));

  EngineProfile profile;
  TaskContext tctx(0, &profile, nullptr, &sm, nullptr);
  double effective = 0.0;
  std::vector<int> all(kBuckets);
  for (int b = 0; b < kBuckets; ++b) all[static_cast<size_t>(b)] = b;
  EXPECT_TRUE(tctx.FetchShuffleBuckets(id, all, &effective).empty());
  EXPECT_EQ(effective, 0.0);
  EXPECT_FALSE(tctx.HasMissingInput());
  EXPECT_TRUE(tctx.TakeDeferredCharges().empty());
}

TEST(ShuffleLayoutTest, DropNodeReportsEveryMapOnThatNodeMissing) {
  ClusterContext ctx(LayoutConfig());
  std::vector<std::vector<KV>> inputs = SkewedMapInputs(14);
  auto rdd = ctx.Parallelize(std::vector<KV>{}, kMaps);
  auto dep = MakeHashPartitionDep<int64_t, int64_t>(rdd, kBuckets);
  std::vector<BlockData> blocks;
  for (const auto& in : inputs) {
    blocks.push_back(std::make_shared<const std::vector<KV>>(in));
  }
  RunMaps(&ctx, *dep, blocks);
  ShuffleManager& sm = ctx.shuffle_manager();
  const ShuffleStats before = sm.Stats(dep->shuffle_id());

  sm.DropNode(1);  // holds maps 1 and 5
  TaskContext tctx = MakeTask(&ctx, 0);
  std::vector<ShuffleSlice> slices =
      tctx.FetchShuffleBuckets(dep->shuffle_id(), PdeBucketList());
  std::vector<std::pair<int, int>> want_missing = {{dep->shuffle_id(), 1},
                                                   {dep->shuffle_id(), 5}};
  EXPECT_EQ(tctx.missing_inputs(), want_missing);
  EXPECT_EQ(sm.MissingMapPartitions(dep->shuffle_id()), (std::vector<int>{1, 5}));
  for (int m : {1, 5}) {
    EXPECT_EQ(sm.GetMapOutput(dep->shuffle_id(), m), nullptr);
  }
  // The surviving maps still serve their slices; none comes from a lost one.
  for (const ShuffleSlice& s : slices) {
    for (int m : {1, 5}) {
      EXPECT_NE(s.records.get(), blocks[static_cast<size_t>(m)].get());
    }
  }
  // Recomputing a lost map does not fold its sizes in twice.
  RunMaps(&ctx, *dep, blocks);
  EXPECT_EQ(sm.Stats(dep->shuffle_id()).bucket_bytes, before.bucket_bytes);
  EXPECT_EQ(sm.Stats(dep->shuffle_id()).total_records, before.total_records);
}

TEST(ShuffleLayoutDeathTest, PutAndGetMapOutputCheckTheirArguments) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto output = [](int buckets) {
    MapOutput out;
    out.node = 0;
    out.offsets.assign(static_cast<size_t>(buckets) + 1, 0);
    out.bucket_bytes.assign(static_cast<size_t>(buckets), 0);
    return out;
  };
  ShuffleManager sm;
  int id = sm.RegisterShuffle(/*num_map_partitions=*/2, /*num_buckets=*/3);
  EXPECT_DEATH(sm.PutMapOutput(id, 2, output(3)), "map_partition");
  EXPECT_DEATH(sm.PutMapOutput(id, -1, output(3)), "map_partition");
  EXPECT_DEATH(sm.PutMapOutput(id, 0, output(4)), "num_buckets");
  EXPECT_DEATH(sm.PutMapOutput(id, 0, output(2)), "num_buckets");
  EXPECT_DEATH(sm.GetMapOutput(id, 2), "map_partition");
  MapOutput bytes_without_records = output(3);
  bytes_without_records.bucket_bytes[1] = 5;
  EXPECT_DEATH(sm.PutMapOutput(id, 0, bytes_without_records), "bucket_bytes");
  sm.PutMapOutput(id, 1, output(3));
  EXPECT_NE(sm.GetMapOutput(id, 1), nullptr);
}

}  // namespace
}  // namespace shark
