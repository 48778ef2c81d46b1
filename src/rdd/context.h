#ifndef SHARK_RDD_CONTEXT_H_
#define SHARK_RDD_CONTEXT_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/trace.h"
#include "rdd/block_manager.h"
#include "rdd/broadcast.h"
#include "rdd/rdd.h"
#include "rdd/scheduler.h"
#include "rdd/shuffle.h"
#include "sim/cluster.h"
#include "sim/cluster_metrics.h"
#include "sim/cost_model.h"
#include "sim/dfs.h"

namespace shark {

class MemoryManager;
class ThreadPool;

/// Serialized on-DFS size customization point (text vs binary SerDe). The
/// default assumes the in-memory footprint; Row provides an overload.
template <typename T>
uint64_t SerializedSizeOf(const T& v, DfsFormat /*format*/) {
  return ApproxSizeOf(v);
}

/// Cluster-level configuration of a context.
struct ClusterConfig {
  int num_nodes = 100;
  HardwareModel hardware;
  EngineProfile profile = EngineProfile::Shark();

  /// Each real row/byte processed stands for this many virtual rows/bytes:
  /// the benches run on ~1000x scaled-down data while reporting virtual
  /// times for paper-sized datasets. Per-node hardware constants and task
  /// overheads are NOT scaled (see DESIGN.md §5).
  double virtual_data_scale = 1.0;

  uint64_t seed = 42;

  /// Host threads that compute task bodies (real scans, joins, gradients).
  /// 0 = one per hardware thread; 1 = fully serial (the reference oracle).
  /// Virtual-time results are bit-for-bit identical for every setting — the
  /// discrete-event scheduler stays single-threaded and only the pure task
  /// bodies are computed ahead on workers (see DESIGN.md §8).
  int host_threads = 0;

  /// Straggler mitigation: launch backup copies of slow tasks (§2.3).
  bool speculation = true;
  double speculation_multiplier = 2.0;

  /// Hadoop-style schedulers assign at most this many new tasks per node per
  /// heartbeat (irrelevant when heartbeat_interval_sec == 0).
  int tasks_per_heartbeat = 2;

  /// Delay scheduling: rather than running a task remotely the moment any
  /// core frees up, wait up to this long for a core on one of its preferred
  /// nodes (cached partitions / DFS replicas). Zaharia et al.'s delay
  /// scheduling, which Spark uses; keeps cached reads node-local even when
  /// node availability is staggered.
  double locality_wait_sec = 3.0;
};

/// The driver/master: owns the simulated cluster, DFS, cache, shuffle state
/// and scheduler — the moral equivalent of a SparkContext plus the cluster
/// it runs on. Multiple contexts (e.g. a Shark one and a Hadoop one) can
/// share a Dfs so both engines query the same warehouse.
class ClusterContext {
 public:
  explicit ClusterContext(ClusterConfig config,
                          std::shared_ptr<Dfs> shared_dfs = nullptr);
  ~ClusterContext();

  ClusterContext(const ClusterContext&) = delete;
  ClusterContext& operator=(const ClusterContext&) = delete;

  const ClusterConfig& config() const { return config_; }
  const EngineProfile& profile() const { return config_.profile; }
  Cluster& cluster() { return *cluster_; }
  Dfs& dfs() { return *dfs_; }
  std::shared_ptr<Dfs> shared_dfs() { return dfs_; }
  BlockManager& block_manager() { return *block_manager_; }
  MemoryManager& memory_manager() { return *memory_manager_; }
  ShuffleManager& shuffle_manager() { return *shuffle_manager_; }
  BroadcastRegistry& broadcasts() { return broadcasts_; }
  DagScheduler& scheduler() { return *scheduler_; }
  const CostModel& cost_model() const { return *cost_model_; }
  double virtual_scale() const { return config_.virtual_data_scale; }

  /// Query-profile recorder. The SQL executor (or a test) brackets a query
  /// with BeginQuery/EndQuery; while active, the scheduler records every
  /// stage and task attempt into it (see common/trace.h). A cooperative job
  /// (JobManager) gets its own per-job collector so concurrent profiled
  /// queries do not interleave stages into one profile.
  TraceCollector& trace_collector() {
    JobState* job = CurrentJobState();
    if (job != nullptr && job->trace != nullptr) return *job->trace;
    return trace_collector_;
  }

  /// Cluster-wide metrics: counters/gauges/histograms across every layer, a
  /// virtual-time utilization timeline and per-stage skew reports. Mutated
  /// only from the scheduler's event loop (see sim/cluster_metrics.h).
  ClusterMetrics& metrics() { return *metrics_; }
  const ClusterMetrics& metrics() const { return *metrics_; }

  /// The worker pool task bodies are computed on, created lazily; nullptr
  /// when execution is effectively serial (host_threads resolves to 1).
  ThreadPool* thread_pool();
  /// Overrides config().host_threads (0 = hardware concurrency, 1 = serial);
  /// takes effect on the next job.
  void set_host_threads(int host_threads);
  /// host_threads with 0 resolved to the hardware concurrency.
  int effective_host_threads() const;

  /// Virtual clock.
  double now() const { return now_; }
  void AdvanceTo(double t) {
    if (t > now_) now_ = t;
  }

  /// Resets virtual time and core availability (not caches or shuffle
  /// outputs) — call between independent experiments.
  void ResetClock();

  /// Schedules a node failure/slowdown at a future virtual time.
  void InjectFault(const FaultEvent& event) { cluster_->InjectFault(event); }

  int NextRddId() { return next_rdd_id_++; }

  /// Weak handle that RDDs and shuffle dependencies keep to this context.
  /// Their destructors release the shuffle outputs and cached blocks they
  /// own through it (DagScheduler::ReleaseShuffle / ReleaseCachedRdd); it
  /// expires when the context is destroyed, so a TableRdd that outlives its
  /// session releases nothing.
  std::weak_ptr<ClusterContext> lifetime() const { return lifetime_; }

  // -- RDD creation --------------------------------------------------------

  template <typename T>
  RddPtr<T> Parallelize(const std::vector<T>& data, int num_partitions) {
    return std::make_shared<ParallelizeRdd<T>>(this, data, num_partitions);
  }

  template <typename T>
  Result<RddPtr<T>> FromDfs(const std::string& file_name) {
    SHARK_ASSIGN_OR_RETURN(const DfsFile* file, dfs_->GetFile(file_name));
    return RddPtr<T>(std::make_shared<DfsRdd<T>>(this, file));
  }

  /// Registers a broadcast value; tasks retrieve it via
  /// GetBroadcast<T>(tctx, id).
  template <typename T>
  int Broadcast(T value) {
    uint64_t bytes = ApproxSizeOf(value);
    return broadcasts_.Register(
        std::make_shared<const T>(std::move(value)), bytes);
  }

  // -- Actions -------------------------------------------------------------

  template <typename R, typename T = typename R::Element>
  Result<std::vector<T>> Collect(const std::shared_ptr<R>& rdd) {
    SHARK_ASSIGN_OR_RETURN(std::vector<BlockData> blocks,
                           scheduler_->RunJob(rdd));
    std::vector<T> out;
    for (const BlockData& b : blocks) {
      auto vec = std::static_pointer_cast<const std::vector<T>>(b);
      out.insert(out.end(), vec->begin(), vec->end());
    }
    return out;
  }

  template <typename R, typename T = typename R::Element>
  Result<uint64_t> Count(const std::shared_ptr<R>& rdd) {
    auto counts = rdd->MapPartitions(
        [](int, const std::vector<T>& in, TaskContext*) {
          return std::vector<uint64_t>{in.size()};
        },
        "count");
    SHARK_ASSIGN_OR_RETURN(std::vector<uint64_t> sizes, Collect(counts));
    uint64_t total = 0;
    for (uint64_t s : sizes) total += s;
    return total;
  }

  /// Commutative-associative fold of all elements on the driver.
  template <typename R, typename F, typename T = typename R::Element>
  Result<T> Reduce(const std::shared_ptr<R>& rdd, T init, F merge) {
    auto partials = rdd->MapPartitions(
        [init, merge](int, const std::vector<T>& in, TaskContext* tctx) {
          T acc = init;
          for (const T& x : in) acc = merge(acc, x);
          tctx->work().rows_processed += in.size();
          return std::vector<T>{acc};
        },
        "reducePartial");
    SHARK_ASSIGN_OR_RETURN(std::vector<T> parts, Collect(partials));
    T acc = init;
    for (T& x : parts) acc = merge(acc, x);
    return acc;
  }

  /// Materializes an RDD as a (replicated) DFS file; the writing tasks pay
  /// serialization plus pipelined replica writes.
  template <typename R, typename T = typename R::Element>
  Result<const DfsFile*> SaveToDfs(const std::shared_ptr<R>& rdd,
                                   const std::string& name, DfsFormat format) {
    auto wrapped = rdd->MapPartitions(
        [format](int, const std::vector<T>& in, TaskContext* tctx) {
          uint64_t bytes = 0;
          for (const T& x : in) bytes += SerializedSizeOf(x, format);
          tctx->work().ser_bytes += bytes;
          tctx->work().dfs_write_bytes += bytes;
          return in;
        },
        "dfsWrite:" + name);
    SHARK_ASSIGN_OR_RETURN(std::vector<BlockData> blocks,
                           scheduler_->RunJob(wrapped));
    const std::vector<int>& nodes = scheduler_->last_job().result_nodes;
    std::vector<DfsBlock> dfs_blocks;
    dfs_blocks.reserve(blocks.size());
    for (size_t i = 0; i < blocks.size(); ++i) {
      auto vec = std::static_pointer_cast<const std::vector<T>>(blocks[i]);
      DfsBlock b;
      b.data = blocks[i];
      b.rows = vec->size();
      for (const T& x : *vec) b.bytes += SerializedSizeOf(x, format);
      if (i < nodes.size() && nodes[i] >= 0) b.replicas.push_back(nodes[i]);
      dfs_blocks.push_back(std::move(b));
    }
    SHARK_RETURN_NOT_OK(dfs_->CreateFile(name, format, std::move(dfs_blocks)));
    return dfs_->GetFile(name);
  }

 private:
  ClusterConfig config_;
  std::shared_ptr<Dfs> dfs_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<CostModel> cost_model_;
  std::unique_ptr<BlockManager> block_manager_;
  std::unique_ptr<MemoryManager> memory_manager_;
  std::unique_ptr<ShuffleManager> shuffle_manager_;
  std::unique_ptr<ClusterMetrics> metrics_;
  std::unique_ptr<DagScheduler> scheduler_;
  std::unique_ptr<ThreadPool> thread_pool_;
  BroadcastRegistry broadcasts_;
  TraceCollector trace_collector_;
  double now_ = 0.0;
  int next_rdd_id_ = 0;
  // Shares no ownership of *this (no-op deleter), only its lifetime.
  std::shared_ptr<ClusterContext> lifetime_{this, [](ClusterContext*) {}};
};

/// Typed access to a broadcast value inside a task.
template <typename T>
std::shared_ptr<const T> GetBroadcast(TaskContext* tctx, int id) {
  return std::static_pointer_cast<const T>(tctx->FetchBroadcast(id));
}

}  // namespace shark

#endif  // SHARK_RDD_CONTEXT_H_
