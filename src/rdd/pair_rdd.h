#ifndef SHARK_RDD_PAIR_RDD_H_
#define SHARK_RDD_PAIR_RDD_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cardinality.h"
#include "rdd/rdd.h"

namespace shark {

// ---------------------------------------------------------------------------
// Map-side shuffle dependencies
// ---------------------------------------------------------------------------

namespace internal_shuffle {

/// Charges the engine-profile-dependent cost of materializing map output
/// (§5 "Memory-based Shuffle": Shark keeps map outputs in memory; Hadoop
/// serializes, sorts and writes them to local disk).
inline void ChargeMapOutputWrite(uint64_t bytes, uint64_t records,
                                 uint64_t input_records, TaskContext* tctx) {
  if (tctx->profile().sort_before_shuffle) {
    tctx->work().sort_records +=
        tctx->profile().sort_full_map_input ? input_records : records;
  }
  if (tctx->profile().shuffle_through_disk) {
    tctx->work().ser_bytes += bytes;
    tctx->work().disk_write_bytes += bytes;
  }
}

/// MapReduce job chains materialize every reduce output to the replicated
/// DFS and read it back in the next job's map phase (§7 "Intermediate
/// Outputs"); general-DAG engines skip this entirely.
inline void ChargeStageMaterialization(uint64_t bytes, TaskContext* tctx) {
  if (!tctx->profile().materialize_stages_to_dfs || bytes == 0) return;
  tctx->work().ser_bytes += bytes;
  tctx->work().dfs_write_bytes += bytes;
  tctx->work().disk_read_bytes += bytes;
  tctx->work().binary_deser_bytes += bytes;
}

/// Lays records out as one map output: a stable counting sort by bucket, so
/// records land bucket by bucket, each bucket in input order — the order a
/// per-bucket split produces. `bucket_of[i]` is record i's bucket and
/// `take(i)` yields record i; each bucket's bytes are its ApproxSizeOf total.
template <typename T, typename Take>
MapOutput GroupByBucket(int num_buckets, const std::vector<uint32_t>& bucket_of,
                        Take take) {
  const size_t n = bucket_of.size();
  const auto nb = static_cast<size_t>(num_buckets);
  SHARK_CHECK(n <= UINT32_MAX);
  MapOutput out;
  // Count into offsets[b], prefix-sum to bucket ends, then place records
  // back to front so each offsets[b] steps down to its bucket's start.
  out.offsets.assign(nb + 1, 0);
  for (uint32_t b : bucket_of) {
    SHARK_CHECK(b < nb);
    ++out.offsets[b];
  }
  for (size_t b = 1; b < nb; ++b) out.offsets[b] += out.offsets[b - 1];
  out.offsets[nb] = static_cast<uint32_t>(n);
  std::vector<uint32_t> order(n);
  for (size_t i = n; i-- > 0;) {
    order[--out.offsets[bucket_of[i]]] = static_cast<uint32_t>(i);
  }
  out.bucket_bytes.assign(nb, 0);
  auto records = std::make_shared<std::vector<T>>();
  records->reserve(n);
  for (uint32_t i : order) {
    records->push_back(take(i));
    out.bucket_bytes[bucket_of[i]] += ApproxSizeOf(records->back());
  }
  out.records = std::move(records);
  return out;
}

/// Writes a map-side combine table as one map output and charges the
/// combine working set and the shuffle write. `entries` holds the table's
/// (key, combiner) pairs in writer order; `input_key_hashes` holds the
/// KeyHash of every input record's key, in input order. Records are split
/// by key hash, each bucket in writer order; each bucket's bytes are
/// pre-scaled by the distinct-growth adjustment and the reduce side scales
/// its per-record charges by the same factor.
template <typename K, typename C>
MapOutput WriteCombined(std::vector<std::pair<K, C>> entries,
                        std::vector<uint64_t> input_key_hashes,
                        int num_buckets, TaskContext* tctx) {
  const size_t distinct = entries.size();
  const uint64_t input_records = input_key_hashes.size();
  // The combiner's output is bounded by the distinct keys the task sees.
  // Fixed key populations saturate (shuffle volume stays flat at virtual
  // scale); growing populations (unique-id-like keys) keep scaling. The
  // split-overlap statistics distinguish the two; pre-divide the reported
  // bytes so the cost model's uniform scaling yields faithful volumes.
  const double scale = tctx->virtual_scale();
  const double byte_adjust =
      DistinctGrowthFactorSplit(
          SplitHalfSample(std::move(input_key_hashes), distinct), scale) /
      std::max(scale, 1.0);
  std::vector<uint32_t> bucket_of;
  bucket_of.reserve(distinct);
  for (const auto& e : entries) {
    bucket_of.push_back(static_cast<uint32_t>(
        KeyHash(e.first) % static_cast<uint64_t>(num_buckets)));
  }
  MapOutput out = GroupByBucket<std::pair<K, C>>(
      num_buckets, bucket_of, [&](uint32_t i) { return std::move(entries[i]); });
  out.on_disk = tctx->profile().shuffle_through_disk;
  out.cost_scale = byte_adjust;
  uint64_t out_bytes = 0;
  uint64_t raw_bytes = 0;  // resident combine-table size, unadjusted
  for (uint64_t& bytes : out.bucket_bytes) {
    if (bytes == 0) continue;
    raw_bytes += bytes;
    bytes = static_cast<uint64_t>(static_cast<double>(bytes) * byte_adjust);
    out_bytes += bytes;
  }
  // The combine table held one (key, combiner) pair per distinct key;
  // when it exceeds the task's budget the combiner degrades to grace-hash
  // partitioning (spill I/O charged by the context).
  tctx->ReserveOrSpillHash(raw_bytes, distinct);
  tctx->ReleaseAllWorkingSet();
  ChargeMapOutputWrite(out_bytes, out.num_records(), input_records, tctx);
  return out;
}

}  // namespace internal_shuffle

/// Hash-partitions elements into buckets with a caller-supplied bucket
/// function; no map-side combining. Used for DISTRIBUTE BY, co-partitioned
/// loading, co-group (join) inputs and PDE pre-shuffles.
template <typename T>
class PlainShuffleDep final : public ShuffleDependency {
 public:
  using BucketFn = std::function<int(const T&)>;

  PlainShuffleDep(RddPtr<T> parent, int num_buckets, BucketFn bucket_fn)
      : ShuffleDependency(parent, num_buckets),
        typed_parent_(parent),
        bucket_fn_(std::move(bucket_fn)) {}

  MapOutput PartitionBlock(const BlockData& block,
                           TaskContext* tctx) const override {
    const auto& in = *std::static_pointer_cast<const std::vector<T>>(block);
    std::vector<uint32_t> bucket_of;
    bucket_of.reserve(in.size());
    for (const T& x : in) {
      bucket_of.push_back(static_cast<uint32_t>(bucket_fn_(x)));
    }
    // Plain repartitioning scales linearly with the input: cost_scale 1.
    MapOutput out = internal_shuffle::GroupByBucket<T>(
        num_buckets_, bucket_of, [&](uint32_t i) { return in[i]; });
    out.on_disk = tctx->profile().shuffle_through_disk;
    tctx->work().rows_processed += in.size();
    internal_shuffle::ChargeMapOutputWrite(out.TotalBytes(), in.size(),
                                           in.size(), tctx);
    return out;
  }

  const RddPtr<T>& typed_parent() const { return typed_parent_; }

 private:
  RddPtr<T> typed_parent_;
  BucketFn bucket_fn_;
};

/// Convenience: hash-partition a key-value RDD by key.
template <typename K, typename V>
std::shared_ptr<PlainShuffleDep<std::pair<K, V>>> MakeHashPartitionDep(
    RddPtr<std::pair<K, V>> parent, int num_buckets) {
  using P = std::pair<K, V>;
  return std::make_shared<PlainShuffleDep<P>>(
      parent, num_buckets,
      [num_buckets](const P& p) {
        return static_cast<int>(KeyHash(p.first) %
                                static_cast<uint64_t>(num_buckets));
      });
}

/// Hash-partitions (K,V) pairs by key with map-side combining into combiner
/// type C (Spark's combineByKey); this is what makes large-group-count
/// aggregations shuffle only one record per (task, group).
template <typename K, typename V, typename C>
class CombiningShuffleDep final : public ShuffleDependency {
 public:
  using CreateFn = std::function<C(const V&)>;
  using MergeValueFn = std::function<void(C&, const V&)>;

  CombiningShuffleDep(RddPtr<std::pair<K, V>> parent, int num_buckets,
                      CreateFn create, MergeValueFn merge_value)
      : ShuffleDependency(parent, num_buckets),
        typed_parent_(parent),
        create_(std::move(create)),
        merge_value_(std::move(merge_value)) {}

  MapOutput PartitionBlock(const BlockData& block,
                           TaskContext* tctx) const override {
    const auto& in =
        *std::static_pointer_cast<const std::vector<std::pair<K, V>>>(block);
    // Combine across the whole task first, THEN split into buckets: the map
    // task ships at most one record per distinct key regardless of how
    // fine-grained the bucket count is. Entries stay in first-seen key order,
    // the order the vectorized combiner writes too, so both paths produce
    // identical bucket payloads whatever the hash table's iteration order.
    std::vector<std::pair<K, C>> entries;
    std::unordered_map<K, size_t, KeyHasher<K>> index;
    std::vector<uint64_t> key_hashes;
    key_hashes.reserve(in.size());
    for (const auto& [k, v] : in) {
      key_hashes.push_back(KeyHash(k));
      auto [it, inserted] = index.try_emplace(k, entries.size());
      if (inserted) {
        entries.emplace_back(k, create_(v));
      } else {
        merge_value_(entries[it->second].second, v);
      }
    }
    tctx->work().rows_processed += in.size();
    tctx->work().hash_records += in.size();
    return internal_shuffle::WriteCombined(std::move(entries),
                                           std::move(key_hashes), num_buckets_,
                                           tctx);
  }

 private:
  RddPtr<std::pair<K, V>> typed_parent_;
  CreateFn create_;
  MergeValueFn merge_value_;
};

// ---------------------------------------------------------------------------
// Reduce-side RDDs
// ---------------------------------------------------------------------------

/// Reduce partition -> set of fine-grained buckets it is responsible for.
/// Identity (one bucket per reducer) unless PDE coalesced buckets via
/// bin-packing (§3.1.2).
using BucketAssignment = std::vector<std::vector<int>>;

inline BucketAssignment IdentityAssignment(int num_buckets) {
  BucketAssignment a(static_cast<size_t>(num_buckets));
  for (int i = 0; i < num_buckets; ++i) a[static_cast<size_t>(i)] = {i};
  return a;
}

/// Final merge of map-side combiners: one output record per key.
template <typename K, typename C>
class ShuffledReduceRdd final : public TypedRdd<std::pair<K, C>> {
 public:
  using MergeCombinersFn = std::function<void(C&, C&&)>;

  ShuffledReduceRdd(ClusterContext* ctx,
                    std::shared_ptr<ShuffleDependency> dep,
                    MergeCombinersFn merge, BucketAssignment assignment,
                    std::string label = "shuffledReduce")
      : TypedRdd<std::pair<K, C>>(ctx, std::move(label)),
        dep_(dep),
        merge_(std::move(merge)),
        assignment_(std::move(assignment)) {
    this->deps_.push_back(Dependency{nullptr, dep});
  }

  int num_partitions() const override {
    return static_cast<int>(assignment_.size());
  }

  typename TypedRdd<std::pair<K, C>>::Block Compute(
      int p, TaskContext* tctx) const override {
    double effective_records = 0.0;
    std::vector<ShuffleSlice> slices = tctx->FetchShuffleBuckets(
        dep_->shuffle_id(), assignment_[static_cast<size_t>(p)],
        &effective_records);
    std::unordered_map<K, C, KeyHasher<K>> merged;
    uint64_t records_in = 0;
    // Per-record reduce charges use the cardinality-adjusted record count so
    // that the cost model's uniform scaling stays faithful.
    tctx->work().hash_records += static_cast<uint64_t>(effective_records);
    tctx->work().rows_processed += static_cast<uint64_t>(effective_records);
    for (const ShuffleSlice& s : slices) {
      auto recs = s.As<std::pair<K, C>>();
      records_in += recs.size();
      for (const auto& [k, c] : recs) {
        auto it = merged.find(k);
        if (it == merged.end()) {
          merged.emplace(k, c);
        } else {
          merge_(it->second, C(c));
        }
      }
    }
    typename TypedRdd<std::pair<K, C>>::Block out;
    out.reserve(merged.size());
    for (auto& [k, c] : merged) out.emplace_back(k, std::move(c));
    // External hash aggregation: the merge table held one combiner per key;
    // past the task's budget it degrades to grace-hash partitions on local
    // disk merged one at a time.
    tctx->ReserveOrSpillHash(ApproxSizeOfRange(out),
                             static_cast<uint64_t>(effective_records));
    tctx->ReleaseAllWorkingSet();
    // The reduce output is one record per key — cardinality-bounded, so its
    // materialization bytes get the same distinct-growth adjustment as the
    // map-side combiner outputs.
    double adjust = DistinctGrowthFactor(static_cast<double>(records_in),
                                         static_cast<double>(out.size()),
                                         tctx->virtual_scale()) /
                    std::max(tctx->virtual_scale(), 1.0);
    internal_shuffle::ChargeStageMaterialization(
        static_cast<uint64_t>(static_cast<double>(ApproxSizeOfRange(out)) * adjust),
        tctx);
    return out;
  }

 private:
  std::shared_ptr<ShuffleDependency> dep_;
  MergeCombinersFn merge_;
  BucketAssignment assignment_;
};

/// Group-by-key: one (key, all values) record per key.
template <typename K, typename V>
class ShuffledGroupRdd final
    : public TypedRdd<std::pair<K, std::vector<V>>> {
 public:
  ShuffledGroupRdd(ClusterContext* ctx, std::shared_ptr<ShuffleDependency> dep,
                   BucketAssignment assignment, std::string label = "groupBy")
      : TypedRdd<std::pair<K, std::vector<V>>>(ctx, std::move(label)),
        dep_(dep),
        assignment_(std::move(assignment)) {
    this->deps_.push_back(Dependency{nullptr, dep});
  }

  int num_partitions() const override {
    return static_cast<int>(assignment_.size());
  }

  typename TypedRdd<std::pair<K, std::vector<V>>>::Block Compute(
      int p, TaskContext* tctx) const override {
    std::vector<ShuffleSlice> slices = tctx->FetchShuffleBuckets(
        dep_->shuffle_id(), assignment_[static_cast<size_t>(p)]);
    std::unordered_map<K, std::vector<V>, KeyHasher<K>> groups;
    uint64_t records_in = 0;
    for (const ShuffleSlice& s : slices) {
      auto recs = s.As<std::pair<K, V>>();
      tctx->work().hash_records += recs.size();
      tctx->work().rows_processed += recs.size();
      records_in += recs.size();
      for (const auto& [k, v] : recs) groups[k].push_back(v);
    }
    typename TypedRdd<std::pair<K, std::vector<V>>>::Block out;
    out.reserve(groups.size());
    for (auto& [k, vs] : groups) out.emplace_back(k, std::move(vs));
    // The group table holds every value; large groups degrade to grace-hash
    // spill partitions past the task's budget.
    tctx->ReserveOrSpillHash(ApproxSizeOfRange(out), records_in);
    tctx->ReleaseAllWorkingSet();
    internal_shuffle::ChargeStageMaterialization(ApproxSizeOfRange(out), tctx);
    return out;
  }

 private:
  std::shared_ptr<ShuffleDependency> dep_;
  BucketAssignment assignment_;
};

/// Shuffle (co-group) join input: for each key, the values from both sides.
template <typename K, typename V, typename W>
class CoGroupedRdd final
    : public TypedRdd<std::pair<K, std::pair<std::vector<V>, std::vector<W>>>> {
 public:
  using Element = std::pair<K, std::pair<std::vector<V>, std::vector<W>>>;

  CoGroupedRdd(ClusterContext* ctx, std::shared_ptr<ShuffleDependency> left,
               std::shared_ptr<ShuffleDependency> right,
               BucketAssignment assignment, std::string label = "cogroup")
      : TypedRdd<Element>(ctx, std::move(label)),
        left_(left),
        right_(right),
        assignment_(std::move(assignment)) {
    SHARK_CHECK(left->num_buckets() == right->num_buckets());
    this->deps_.push_back(Dependency{nullptr, left});
    this->deps_.push_back(Dependency{nullptr, right});
  }

  int num_partitions() const override {
    return static_cast<int>(assignment_.size());
  }

  typename TypedRdd<Element>::Block Compute(int p,
                                            TaskContext* tctx) const override {
    const auto& my_buckets = assignment_[static_cast<size_t>(p)];
    std::vector<ShuffleSlice> lslices =
        tctx->FetchShuffleBuckets(left_->shuffle_id(), my_buckets);
    std::vector<ShuffleSlice> rslices =
        tctx->FetchShuffleBuckets(right_->shuffle_id(), my_buckets);
    // Local join algorithm selection (§3.1.1): build the hash table over the
    // smaller input, stream the other. Costs are hash-record charges; the
    // output is identical either way.
    std::unordered_map<K, std::pair<std::vector<V>, std::vector<W>>,
                       KeyHasher<K>>
        table;
    uint64_t left_ws = 0, left_records = 0;
    for (const ShuffleSlice& s : lslices) {
      auto recs = s.As<std::pair<K, V>>();
      tctx->work().hash_records += recs.size();
      tctx->work().rows_processed += recs.size();
      left_ws += ApproxSizeOfRange(recs);
      left_records += recs.size();
      for (const auto& [k, v] : recs) table[k].first.push_back(v);
    }
    // Join build table: reserve the left side, then grow by the right side;
    // whichever extension overruns the task's budget degrades to grace-hash
    // spill partitions.
    tctx->ReserveOrSpillHash(left_ws, left_records);
    uint64_t right_ws = 0, right_records = 0;
    for (const ShuffleSlice& s : rslices) {
      auto recs = s.As<std::pair<K, W>>();
      tctx->work().hash_records += recs.size();
      tctx->work().rows_processed += recs.size();
      right_ws += ApproxSizeOfRange(recs);
      right_records += recs.size();
      for (const auto& [k, w] : recs) table[k].second.push_back(w);
    }
    tctx->GrowOrSpillHash(right_ws, right_records);
    typename TypedRdd<Element>::Block out;
    out.reserve(table.size());
    for (auto& [k, vw] : table) out.emplace_back(k, std::move(vw));
    tctx->ReleaseAllWorkingSet();
    internal_shuffle::ChargeStageMaterialization(ApproxSizeOfRange(out), tctx);
    return out;
  }

 private:
  std::shared_ptr<ShuffleDependency> left_;
  std::shared_ptr<ShuffleDependency> right_;
  BucketAssignment assignment_;
};

/// Reduce side of a plain repartition: concatenates assigned buckets.
template <typename T>
class RepartitionedRdd final : public TypedRdd<T> {
 public:
  RepartitionedRdd(ClusterContext* ctx, std::shared_ptr<ShuffleDependency> dep,
                   BucketAssignment assignment, std::string label = "repartition")
      : TypedRdd<T>(ctx, std::move(label)),
        dep_(dep),
        assignment_(std::move(assignment)) {
    this->deps_.push_back(Dependency{nullptr, dep});
  }

  int num_partitions() const override {
    return static_cast<int>(assignment_.size());
  }

  typename TypedRdd<T>::Block Compute(int p, TaskContext* tctx) const override {
    std::vector<ShuffleSlice> slices = tctx->FetchShuffleBuckets(
        dep_->shuffle_id(), assignment_[static_cast<size_t>(p)]);
    typename TypedRdd<T>::Block out;
    for (const ShuffleSlice& s : slices) {
      auto recs = s.As<T>();
      out.insert(out.end(), recs.begin(), recs.end());
    }
    tctx->work().rows_processed += out.size();
    internal_shuffle::ChargeStageMaterialization(ApproxSizeOfRange(out), tctx);
    return out;
  }

 private:
  std::shared_ptr<ShuffleDependency> dep_;
  BucketAssignment assignment_;
};

// ---------------------------------------------------------------------------
// Convenience factories
// ---------------------------------------------------------------------------

/// reduceByKey with map-side combining; one shuffle, `num_buckets` reducers.
template <typename K, typename V, typename MergeFn>
RddPtr<std::pair<K, V>> ReduceByKey(RddPtr<std::pair<K, V>> rdd, MergeFn merge,
                                    int num_buckets) {
  auto merge_value = [merge](V& acc, const V& v) { acc = merge(acc, v); };
  auto dep = std::make_shared<CombiningShuffleDep<K, V, V>>(
      rdd, num_buckets, [](const V& v) { return v; }, merge_value);
  return std::make_shared<ShuffledReduceRdd<K, V>>(
      rdd->context(), dep,
      [merge](V& acc, V&& v) { acc = merge(acc, std::move(v)); },
      IdentityAssignment(num_buckets), "reduceByKey");
}

/// groupByKey without combining.
template <typename K, typename V>
RddPtr<std::pair<K, std::vector<V>>> GroupByKey(RddPtr<std::pair<K, V>> rdd,
                                                int num_buckets) {
  auto dep = MakeHashPartitionDep<K, V>(rdd, num_buckets);
  return std::make_shared<ShuffledGroupRdd<K, V>>(
      rdd->context(), dep, IdentityAssignment(num_buckets));
}

/// Inner equi-join via co-group (the "shuffle join" of Fig 4).
template <typename K, typename V, typename W>
RddPtr<std::pair<K, std::pair<V, W>>> ShuffleJoin(RddPtr<std::pair<K, V>> left,
                                                  RddPtr<std::pair<K, W>> right,
                                                  int num_buckets) {
  auto ldep = MakeHashPartitionDep<K, V>(left, num_buckets);
  auto rdep = MakeHashPartitionDep<K, W>(right, num_buckets);
  auto cogrouped = std::make_shared<CoGroupedRdd<K, V, W>>(
      left->context(), ldep, rdep, IdentityAssignment(num_buckets), "shuffleJoin");
  using CoElem = typename CoGroupedRdd<K, V, W>::Element;
  using Out = std::pair<K, std::pair<V, W>>;
  return cogrouped->FlatMap(
      [](const CoElem& e) {
        std::vector<Out> out;
        for (const V& v : e.second.first) {
          for (const W& w : e.second.second) {
            out.push_back(Out{e.first, {v, w}});
          }
        }
        return out;
      },
      "joinOutput");
}

}  // namespace shark

#endif  // SHARK_RDD_PAIR_RDD_H_
