#ifndef SHARK_RDD_SHUFFLE_H_
#define SHARK_RDD_SHUFFLE_H_

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "sim/dfs.h"

namespace shark {

class MemoryManager;

/// Statistics the master aggregates from map tasks at a shuffle boundary —
/// the raw material for Partial DAG Execution (§3.1). Bucket byte sizes pass
/// through the 1-byte lossy logarithmic encoding before aggregation, exactly
/// as the paper bounds per-task statistics reports to 1-2 KB. Key sketches
/// (heavy hitters, histograms) are ANALYZE's business, not the shuffle's.
struct ShuffleStats {
  std::vector<uint64_t> bucket_bytes;  // per fine-grained reduce bucket
  uint64_t total_bytes = 0;
  uint64_t total_records = 0;
};

/// Output of one map task of a shuffle, resident on the node that ran the
/// map task (in memory for Shark, on local disk for Hadoop — the profile
/// decides the fetch cost). All records sit in one block grouped by bucket:
/// bucket 0's records, then bucket 1's, and so on, each bucket in the order
/// its writer produced it. One pass over `records` therefore visits them in
/// exactly the order a per-bucket split would; the reducers' hash tables
/// depend on that order. An empty bucket costs two equal offsets and a zero
/// byte count, nothing more.
struct MapOutput {
  bool present = false;
  int node = -1;
  /// std::vector<T> of the shuffle's record type, grouped by bucket.
  BlockData records;
  /// Bucket b holds records [offsets[b], offsets[b + 1]); num_buckets + 1
  /// entries.
  std::vector<uint32_t> offsets;
  /// Bytes per bucket as the cost model sees them (exact, not log-encoded);
  /// zero for every empty bucket.
  std::vector<uint64_t> bucket_bytes;
  /// Multiplier translating real per-record reduce-side charges into
  /// faithful virtual charges for cardinality-bounded (combined) outputs;
  /// 1.0 where linear scaling is already correct.
  double cost_scale = 1.0;
  /// Serving mode (§5's memory-based shuffle knob, now per output): false =
  /// buckets stay in the map node's memory and fetches cost mem/net; true =
  /// buckets live on local disk (the Hadoop profile's global default, or a
  /// per-node flip when the node's memory budget had no room at launch).
  bool on_disk = false;
  /// Bytes this output charges to the node's shuffle-buffer ledger while
  /// resident in memory (0 when on_disk). Managed by ShuffleManager.
  uint64_t ledger_bytes = 0;

  int num_buckets() const {
    return offsets.empty() ? 0 : static_cast<int>(offsets.size()) - 1;
  }
  uint32_t num_records() const { return offsets.empty() ? 0 : offsets.back(); }
  uint32_t BucketRecords(int b) const {
    return offsets[static_cast<size_t>(b) + 1] - offsets[static_cast<size_t>(b)];
  }
  uint64_t TotalBytes() const;
};

/// A contiguous run of one map output's records, as a reduce-side fetch
/// hands them out: elements [begin, end) of `records`.
struct ShuffleSlice {
  BlockData records;
  uint32_t begin = 0;
  uint32_t end = 0;

  /// The run typed as the shuffle's record type T.
  template <typename T>
  std::span<const T> As() const {
    const auto& v = *static_cast<const std::vector<T>*>(records.get());
    return std::span<const T>(v.data() + begin, end - begin);
  }
};

/// Tracks materialized map outputs per shuffle. Lost outputs (node failure)
/// are detected by reduce-side fetches and recomputed from lineage by the
/// scheduler.
class ShuffleManager {
 public:
  /// Optional memory arbiter: memory-served map outputs are charged to its
  /// per-node shuffle-buffer ledger while resident. May stay null (unit
  /// tests construct bare ShuffleManagers).
  void set_memory_manager(MemoryManager* mm) { memory_manager_ = mm; }

  /// Registers a shuffle; returns its id.
  int RegisterShuffle(int num_map_partitions, int num_buckets);

  bool IsRegistered(int shuffle_id) const;
  int NumBuckets(int shuffle_id) const;
  int NumMapPartitions(int shuffle_id) const;

  /// Stores one map task's output and folds its sizes into the stats. The
  /// output must have exactly the shuffle's bucket count, and no bytes in an
  /// empty bucket.
  void PutMapOutput(int shuffle_id, int map_partition, MapOutput output);

  /// nullptr if absent — never computed, or lost to a failure. A non-null
  /// result is always present (fetchable).
  const MapOutput* GetMapOutput(int shuffle_id, int map_partition) const;

  /// Every map output slot of a shuffle, indexed by map partition; a slot
  /// that is not `present` is absent exactly as GetMapOutput reports it.
  /// Lets a fetch resolve the shuffle once instead of once per map.
  const std::vector<MapOutput>& MapOutputs(int shuffle_id) const;

  /// True once every map partition has a present output.
  bool IsComplete(int shuffle_id) const;

  /// Map partitions whose output is missing or lost.
  std::vector<int> MissingMapPartitions(int shuffle_id) const;

  const ShuffleStats& Stats(int shuffle_id) const;

  /// Marks outputs on a failed node as lost.
  void DropNode(int node);

  void DropShuffle(int shuffle_id);
  void Clear();

  /// Shuffles registered and not yet dropped.
  size_t num_shuffles() const { return shuffles_.size(); }

 private:
  struct ShuffleState {
    int num_buckets = 0;
    std::vector<MapOutput> outputs;  // indexed by map partition
    // Whether a map partition's sizes were already folded into stats; a
    // recomputation after failure must not double count.
    std::vector<char> stats_recorded;
    ShuffleStats stats;
  };

  const ShuffleState& GetState(int shuffle_id) const;
  void ReleaseLedger(MapOutput* out);

  int next_id_ = 0;
  std::map<int, ShuffleState> shuffles_;
  MemoryManager* memory_manager_ = nullptr;
};

}  // namespace shark

#endif  // SHARK_RDD_SHUFFLE_H_
