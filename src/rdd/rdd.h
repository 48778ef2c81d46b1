#ifndef SHARK_RDD_RDD_H_
#define SHARK_RDD_RDD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "rdd/shuffle.h"
#include "rdd/task_context.h"
#include "sim/dfs.h"

namespace shark {

class ClusterContext;
class ShuffleDependency;

// ---------------------------------------------------------------------------
// Size estimation customization point (cache accounting / shuffle sizes).
// ---------------------------------------------------------------------------

inline uint64_t ApproxSizeOf(const std::string& s) { return 24 + s.size(); }

template <typename T>
uint64_t ApproxSizeOf(const T&) {
  static_assert(std::is_trivially_copyable_v<T>,
                "provide an ApproxSizeOf overload for non-trivial types");
  return sizeof(T);
}

// Forward declarations so that pair-of-vector / vector-of-pair compositions
// resolve through ordinary lookup at instantiation time.
template <typename A, typename B>
uint64_t ApproxSizeOf(const std::pair<A, B>& p);
template <typename T>
uint64_t ApproxSizeOf(const std::vector<T>& v);

template <typename A, typename B>
uint64_t ApproxSizeOf(const std::pair<A, B>& p) {
  return ApproxSizeOf(p.first) + ApproxSizeOf(p.second);
}

template <typename T>
uint64_t ApproxSizeOf(const std::vector<T>& v) {
  uint64_t total = 24;
  for (const T& x : v) total += ApproxSizeOf(x);
  return total;
}

template <typename T>
uint64_t ApproxSizeOfRange(std::span<const T> v) {
  uint64_t total = 0;
  for (const T& x : v) total += ApproxSizeOf(x);
  return total;
}

template <typename T>
uint64_t ApproxSizeOfRange(const std::vector<T>& v) {
  return ApproxSizeOfRange(std::span<const T>(v));
}

// ---------------------------------------------------------------------------
// Key hashing customization point (shuffle partitioning, hash joins). Must be
// deterministic across runs so lineage recomputation reproduces identical
// bucket assignment.
// ---------------------------------------------------------------------------

inline uint64_t KeyHash(int64_t k) { return HashInt64(k); }
inline uint64_t KeyHash(int32_t k) { return HashInt64(k); }
inline uint64_t KeyHash(uint64_t k) { return HashInt64(static_cast<int64_t>(k)); }
inline uint64_t KeyHash(double k) { return HashDouble(k); }
inline uint64_t KeyHash(const std::string& k) { return HashBytes(k); }

template <typename A, typename B>
uint64_t KeyHash(const std::pair<A, B>& p) {
  return HashCombine(KeyHash(p.first), KeyHash(p.second));
}

/// std::unordered_map-compatible hasher built on KeyHash.
template <typename K>
struct KeyHasher {
  size_t operator()(const K& k) const { return static_cast<size_t>(KeyHash(k)); }
};

// ---------------------------------------------------------------------------
// Dependencies
// ---------------------------------------------------------------------------

class RddBase;

/// Type-erased map-side description of a shuffle: how to split a parent
/// block into fine-grained reduce buckets and size them. Registered with the
/// ShuffleManager at construction; the id is what reduce tasks fetch by and
/// what PDE consults stats for. The map outputs live exactly as long as this
/// object: the destructor releases them (DagScheduler::ReleaseShuffle).
class ShuffleDependency {
 public:
  virtual ~ShuffleDependency();

  int shuffle_id() const { return shuffle_id_; }
  int num_buckets() const { return num_buckets_; }
  const std::shared_ptr<RddBase>& parent() const { return parent_; }

  /// Splits one parent block into `num_buckets` buckets, charging map-side
  /// costs (combine hashing, optional sort, shuffle write). Fills the
  /// MapOutput's records block, offsets and bucket bytes; byte sizes of
  /// cardinality-bounded (combined) outputs are pre-adjusted with the
  /// distinct-growth estimator so that the cost model's uniform virtual
  /// scaling yields faithful shuffle volumes.
  virtual MapOutput PartitionBlock(const BlockData& block,
                                   TaskContext* tctx) const = 0;

 protected:
  ShuffleDependency(std::shared_ptr<RddBase> parent, int num_buckets);

  std::shared_ptr<RddBase> parent_;
  int num_buckets_;
  int shuffle_id_ = -1;
  // Expires with the context: a dependency that outlives it releases nothing.
  std::weak_ptr<ClusterContext> live_ctx_;
};

/// An edge in the lineage graph: either narrow (parent partition feeds one
/// child partition, computed in the same task) or a shuffle.
struct Dependency {
  std::shared_ptr<RddBase> narrow_parent;          // set for narrow deps
  std::shared_ptr<ShuffleDependency> shuffle;      // set for shuffle deps
};

// ---------------------------------------------------------------------------
// RddBase
// ---------------------------------------------------------------------------

/// Type-erased base of all RDDs: identity, lineage edges, cache flag, and
/// partition-level compute. Instances are immutable datasets created only
/// through deterministic operators (§2.2), which is what makes lineage-based
/// recovery sound.
class RddBase : public std::enable_shared_from_this<RddBase> {
 public:
  RddBase(ClusterContext* ctx, std::string label);
  /// Drops this RDD's cached blocks if it is still cached.
  virtual ~RddBase();

  RddBase(const RddBase&) = delete;
  RddBase& operator=(const RddBase&) = delete;

  int id() const { return id_; }
  ClusterContext* context() const { return ctx_; }
  const std::string& label() const { return label_; }

  virtual int num_partitions() const = 0;
  const std::vector<Dependency>& dependencies() const { return deps_; }

  /// Computes partition `p` from parents (never consults the cache for this
  /// RDD itself; GetOrCompute does). Returned block is a
  /// shared_ptr<const std::vector<T>> for the concrete element type.
  virtual BlockData ComputeErased(int p, TaskContext* tctx) const = 0;

  /// Approximate in-memory bytes of a block produced by this RDD.
  virtual uint64_t BlockBytes(const BlockData& block) const = 0;
  virtual uint64_t BlockRows(const BlockData& block) const = 0;

  /// Cache-aware compute: returns the cached block (charging a memory or
  /// network read) or computes from lineage, inserting into the cache if
  /// this RDD is marked cached and the engine has a memory store.
  BlockData GetOrComputeErased(int p, TaskContext* tctx) const;

  /// Marks this RDD for in-memory caching (Spark's persist(MEMORY_ONLY)).
  /// The blocks stay until Uncache() or until the last reference to this
  /// RDD goes away.
  void Cache() { cached_ = true; }

  /// Disables the generic byte charge on cached reads; used when consumers
  /// charge their own (finer-grained) read costs, e.g. the columnar
  /// memstore, where a scan only pays for the columns it decodes.
  void set_free_cache_reads(bool free_reads) { free_cache_reads_ = free_reads; }
  /// Unmarks caching and drops cached blocks.
  void Uncache();
  bool cached() const { return cached_; }

  /// Locality preference: the cached location if cached, otherwise an
  /// explicit placement hint if set, otherwise the subclass hint (e.g. DFS
  /// replica nodes, or the parent's preference for narrow dependencies).
  std::vector<int> PreferredNodes(int p) const;

  /// Explicit placement hint (e.g. align a co-partitioned table's load tasks
  /// with the partner table's cached partitions, §3.4).
  void set_preferred_hint(std::function<std::vector<int>(int)> hint) {
    preferred_hint_ = std::move(hint);
  }

 protected:
  virtual std::vector<int> ComputePreferredNodes(int p) const;

  // Non-template bridges into ClusterContext so that template subclasses do
  // not need the ClusterContext definition (implemented in context.cc).
  BlockManager* block_manager_ptr() const;
  ShuffleManager* shuffle_manager_ptr() const;

  std::vector<Dependency> deps_;

 private:
  ClusterContext* ctx_;
  // Expires with the context: an RDD that outlives it releases nothing.
  std::weak_ptr<ClusterContext> live_ctx_;
  int id_;
  std::string label_;
  bool cached_ = false;
  bool free_cache_reads_ = false;
  std::function<std::vector<int>(int)> preferred_hint_;
};

// ---------------------------------------------------------------------------
// TypedRdd<T>
// ---------------------------------------------------------------------------

template <typename T>
class TypedRdd;

template <typename T>
using RddPtr = std::shared_ptr<TypedRdd<T>>;

/// Statically-typed RDD of elements T. Blocks are std::vector<T>.
template <typename T>
class TypedRdd : public RddBase {
 public:
  using Element = T;
  using Block = std::vector<T>;

  using RddBase::RddBase;

  /// Computes partition `p`. Implementations pull parent data via the
  /// parent's GetOrCompute so cached partitions short-circuit recomputation.
  virtual Block Compute(int p, TaskContext* tctx) const = 0;

  /// Hook for sources that can return an already-materialized block without
  /// copying (e.g. DFS blocks). Default materializes via Compute.
  virtual std::shared_ptr<const Block> ComputeShared(int p,
                                                     TaskContext* tctx) const {
    return std::make_shared<const Block>(Compute(p, tctx));
  }

  /// Typed view of RddBase::GetOrComputeErased.
  std::shared_ptr<const Block> GetOrCompute(int p, TaskContext* tctx) const {
    return std::static_pointer_cast<const Block>(GetOrComputeErased(p, tctx));
  }

  BlockData ComputeErased(int p, TaskContext* tctx) const final {
    return ComputeShared(p, tctx);
  }

  uint64_t BlockBytes(const BlockData& block) const final {
    return BlockBytes(std::static_pointer_cast<const Block>(block));
  }

  uint64_t BlockBytes(const std::shared_ptr<const Block>& block) const {
    return 24 + ApproxSizeOfRange(*block);
  }

  uint64_t BlockRows(const BlockData& block) const final {
    return std::static_pointer_cast<const Block>(block)->size();
  }

  RddPtr<T> self() {
    return std::static_pointer_cast<TypedRdd<T>>(this->shared_from_this());
  }

  // -- Functional transformations (declared below as free factories; these
  //    members are thin sugar). Definitions follow the concrete RDD types.
  template <typename F>
  auto Map(F f, std::string label = "map");
  template <typename F>
  RddPtr<T> Filter(F f, std::string label = "filter");
  template <typename F>
  auto FlatMap(F f, std::string label = "flatMap");
  template <typename F>
  auto MapPartitions(F f, std::string label = "mapPartitions");
};

// ---------------------------------------------------------------------------
// Narrow-dependency RDDs
// ---------------------------------------------------------------------------

/// Driver-side data split into fixed partitions (SparkContext.parallelize).
template <typename T>
class ParallelizeRdd final : public TypedRdd<T> {
 public:
  ParallelizeRdd(ClusterContext* ctx, const std::vector<T>& data,
                 int num_partitions, std::string label = "parallelize")
      : TypedRdd<T>(ctx, std::move(label)) {
    SHARK_CHECK(num_partitions > 0);
    partitions_.resize(static_cast<size_t>(num_partitions));
    for (size_t i = 0; i < data.size(); ++i) {
      partitions_[i * static_cast<size_t>(num_partitions) / data.size()]
          .push_back(data[i]);
    }
  }

  int num_partitions() const override {
    return static_cast<int>(partitions_.size());
  }

  typename TypedRdd<T>::Block Compute(int p, TaskContext* tctx) const override {
    // Shipped from the driver with the task; charge a network read.
    const auto& part = partitions_[static_cast<size_t>(p)];
    tctx->work().net_read_bytes += ApproxSizeOfRange(part);
    return part;
  }

 private:
  std::vector<std::vector<T>> partitions_;
};

/// Scan of a simulated DFS file whose blocks hold std::vector<T> payloads.
/// Charges local/remote disk reads plus format-dependent deserialization
/// (§3.2: schema-on-read text parsing is the dominant cost for Hive).
template <typename T>
class DfsRdd final : public TypedRdd<T> {
 public:
  DfsRdd(ClusterContext* ctx, const DfsFile* file, std::string label = "")
      : TypedRdd<T>(ctx, label.empty() ? "dfs:" + file->name : std::move(label)),
        file_(file) {
    SHARK_CHECK(!file->blocks.empty());
  }

  int num_partitions() const override {
    return static_cast<int>(file_->blocks.size());
  }

  const DfsFile* file() const { return file_; }

  typename TypedRdd<T>::Block Compute(int p, TaskContext* tctx) const override {
    return *ComputeShared(p, tctx);
  }

  std::shared_ptr<const typename TypedRdd<T>::Block> ComputeShared(
      int p, TaskContext* tctx) const override {
    const DfsBlock& block = file_->blocks[static_cast<size_t>(p)];
    tctx->work().disk_read_bytes += block.bytes;
    tctx->work().disk_seeks += 1;
    tctx->ChargeNetUnlessLocal(block.replicas, block.bytes);
    if (file_->format == DfsFormat::kText) {
      tctx->work().text_deser_bytes += block.bytes;
    } else {
      tctx->work().binary_deser_bytes += block.bytes;
    }
    return std::static_pointer_cast<const typename TypedRdd<T>::Block>(
        block.data);
  }

 protected:
  std::vector<int> ComputePreferredNodes(int p) const override {
    return file_->blocks[static_cast<size_t>(p)].replicas;
  }

 private:
  const DfsFile* file_;
};

/// Element-wise map.
template <typename T, typename U>
class MapRdd final : public TypedRdd<U> {
 public:
  MapRdd(RddPtr<T> parent, std::function<U(const T&)> fn, std::string label)
      : TypedRdd<U>(parent->context(), std::move(label)),
        parent_(parent),
        fn_(std::move(fn)) {
    this->deps_.push_back(Dependency{parent, nullptr});
  }

  int num_partitions() const override { return parent_->num_partitions(); }

  typename TypedRdd<U>::Block Compute(int p, TaskContext* tctx) const override {
    auto in = parent_->GetOrCompute(p, tctx);
    typename TypedRdd<U>::Block out;
    out.reserve(in->size());
    for (const T& x : *in) out.push_back(fn_(x));
    tctx->work().rows_processed += in->size();
    return out;
  }

 protected:
  std::vector<int> ComputePreferredNodes(int p) const override {
    return parent_->PreferredNodes(p);
  }

 private:
  RddPtr<T> parent_;
  std::function<U(const T&)> fn_;
};

/// Element-wise filter.
template <typename T>
class FilterRdd final : public TypedRdd<T> {
 public:
  FilterRdd(RddPtr<T> parent, std::function<bool(const T&)> pred,
            std::string label)
      : TypedRdd<T>(parent->context(), std::move(label)),
        parent_(parent),
        pred_(std::move(pred)) {
    this->deps_.push_back(Dependency{parent, nullptr});
  }

  int num_partitions() const override { return parent_->num_partitions(); }

  typename TypedRdd<T>::Block Compute(int p, TaskContext* tctx) const override {
    auto in = parent_->GetOrCompute(p, tctx);
    typename TypedRdd<T>::Block out;
    for (const T& x : *in) {
      if (pred_(x)) out.push_back(x);
    }
    tctx->work().rows_processed += in->size();
    return out;
  }

 protected:
  std::vector<int> ComputePreferredNodes(int p) const override {
    return parent_->PreferredNodes(p);
  }

 private:
  RddPtr<T> parent_;
  std::function<bool(const T&)> pred_;
};

/// Element-to-many map.
template <typename T, typename U>
class FlatMapRdd final : public TypedRdd<U> {
 public:
  FlatMapRdd(RddPtr<T> parent, std::function<std::vector<U>(const T&)> fn,
             std::string label)
      : TypedRdd<U>(parent->context(), std::move(label)),
        parent_(parent),
        fn_(std::move(fn)) {
    this->deps_.push_back(Dependency{parent, nullptr});
  }

  int num_partitions() const override { return parent_->num_partitions(); }

  typename TypedRdd<U>::Block Compute(int p, TaskContext* tctx) const override {
    auto in = parent_->GetOrCompute(p, tctx);
    typename TypedRdd<U>::Block out;
    for (const T& x : *in) {
      std::vector<U> ys = fn_(x);
      for (U& y : ys) out.push_back(std::move(y));
    }
    tctx->work().rows_processed += in->size();
    return out;
  }

 protected:
  std::vector<int> ComputePreferredNodes(int p) const override {
    return parent_->PreferredNodes(p);
  }

 private:
  RddPtr<T> parent_;
  std::function<std::vector<U>(const T&)> fn_;
};

/// Whole-partition map with access to the partition index and TaskContext;
/// the workhorse for SQL operators (partial aggregation, top-k, marshalling).
template <typename T, typename U>
class MapPartitionsRdd final : public TypedRdd<U> {
 public:
  using Fn = std::function<std::vector<U>(int partition, const std::vector<T>&,
                                          TaskContext*)>;

  MapPartitionsRdd(RddPtr<T> parent, Fn fn, std::string label)
      : TypedRdd<U>(parent->context(), std::move(label)),
        parent_(parent),
        fn_(std::move(fn)) {
    this->deps_.push_back(Dependency{parent, nullptr});
  }

  int num_partitions() const override { return parent_->num_partitions(); }

  typename TypedRdd<U>::Block Compute(int p, TaskContext* tctx) const override {
    auto in = parent_->GetOrCompute(p, tctx);
    return fn_(p, *in, tctx);
  }

 protected:
  std::vector<int> ComputePreferredNodes(int p) const override {
    return parent_->PreferredNodes(p);
  }

 private:
  RddPtr<T> parent_;
  Fn fn_;
};

/// Concatenation of two RDDs of the same type.
template <typename T>
class UnionRdd final : public TypedRdd<T> {
 public:
  UnionRdd(RddPtr<T> left, RddPtr<T> right)
      : TypedRdd<T>(left->context(), "union"), left_(left), right_(right) {
    this->deps_.push_back(Dependency{left, nullptr});
    this->deps_.push_back(Dependency{right, nullptr});
  }

  int num_partitions() const override {
    return left_->num_partitions() + right_->num_partitions();
  }

  typename TypedRdd<T>::Block Compute(int p, TaskContext* tctx) const override {
    if (p < left_->num_partitions()) return *left_->GetOrCompute(p, tctx);
    return *right_->GetOrCompute(p - left_->num_partitions(), tctx);
  }

 protected:
  std::vector<int> ComputePreferredNodes(int p) const override {
    if (p < left_->num_partitions()) return left_->PreferredNodes(p);
    return right_->PreferredNodes(p - left_->num_partitions());
  }

 private:
  RddPtr<T> left_;
  RddPtr<T> right_;
};

/// Narrow repartitioning onto a subset of parent partitions — used by map
/// pruning (§3.5): partitions whose statistics cannot satisfy the predicate
/// are never scanned, because no task is launched for them.
template <typename T>
class PartitionSubsetRdd final : public TypedRdd<T> {
 public:
  PartitionSubsetRdd(RddPtr<T> parent, std::vector<int> selected,
                     std::string label = "pruned")
      : TypedRdd<T>(parent->context(), std::move(label)),
        parent_(parent),
        selected_(std::move(selected)) {
    this->deps_.push_back(Dependency{parent, nullptr});
  }

  int num_partitions() const override {
    return static_cast<int>(selected_.size());
  }

  typename TypedRdd<T>::Block Compute(int p, TaskContext* tctx) const override {
    return *parent_->GetOrCompute(selected_[static_cast<size_t>(p)], tctx);
  }

  std::shared_ptr<const typename TypedRdd<T>::Block> ComputeShared(
      int p, TaskContext* tctx) const override {
    return parent_->GetOrCompute(selected_[static_cast<size_t>(p)], tctx);
  }

 protected:
  std::vector<int> ComputePreferredNodes(int p) const override {
    return parent_->PreferredNodes(selected_[static_cast<size_t>(p)]);
  }

 private:
  RddPtr<T> parent_;
  std::vector<int> selected_;
};

// ---------------------------------------------------------------------------
// Factory helpers + member sugar
// ---------------------------------------------------------------------------

template <typename T>
template <typename F>
auto TypedRdd<T>::Map(F f, std::string label) {
  using U = std::invoke_result_t<F, const T&>;
  return std::make_shared<MapRdd<T, U>>(self(), std::function<U(const T&)>(f),
                                        std::move(label));
}

template <typename T>
template <typename F>
RddPtr<T> TypedRdd<T>::Filter(F f, std::string label) {
  return std::make_shared<FilterRdd<T>>(
      self(), std::function<bool(const T&)>(f), std::move(label));
}

template <typename T>
template <typename F>
auto TypedRdd<T>::FlatMap(F f, std::string label) {
  using Vec = std::invoke_result_t<F, const T&>;
  using U = typename Vec::value_type;
  return std::make_shared<FlatMapRdd<T, U>>(
      self(), std::function<std::vector<U>(const T&)>(f), std::move(label));
}

template <typename T>
template <typename F>
auto TypedRdd<T>::MapPartitions(F f, std::string label) {
  using Vec = std::invoke_result_t<F, int, const std::vector<T>&, TaskContext*>;
  using U = typename Vec::value_type;
  return std::make_shared<MapPartitionsRdd<T, U>>(
      self(), typename MapPartitionsRdd<T, U>::Fn(f), std::move(label));
}

}  // namespace shark

#endif  // SHARK_RDD_RDD_H_
