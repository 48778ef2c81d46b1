#include "rdd/context.h"

#include <algorithm>
#include <thread>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "mem/memory_manager.h"

namespace shark {

// ---------------------------------------------------------------------------
// RddBase (non-template parts live here so rdd.h can keep ClusterContext
// incomplete).
// ---------------------------------------------------------------------------

RddBase::RddBase(ClusterContext* ctx, std::string label)
    : ctx_(ctx),
      live_ctx_(ctx->lifetime()),
      id_(ctx->NextRddId()),
      label_(std::move(label)) {}

RddBase::~RddBase() {
  if (!cached_) return;
  if (std::shared_ptr<ClusterContext> ctx = live_ctx_.lock()) {
    ctx->scheduler().ReleaseCachedRdd(id_);
  }
}

void RddBase::Uncache() {
  cached_ = false;
  ctx_->scheduler().ReleaseCachedRdd(id_);
}

BlockManager* RddBase::block_manager_ptr() const {
  return &ctx_->block_manager();
}

ShuffleManager* RddBase::shuffle_manager_ptr() const {
  return &ctx_->shuffle_manager();
}

std::vector<int> RddBase::PreferredNodes(int p) const {
  if (cached_) {
    int loc = ctx_->block_manager().Location(id_, p);
    if (loc >= 0) return {loc};
  }
  if (preferred_hint_) {
    std::vector<int> hint = preferred_hint_(p);
    if (!hint.empty()) return hint;
  }
  return ComputePreferredNodes(p);
}

BlockData RddBase::GetOrComputeErased(int p, TaskContext* tctx) const {
  if (cached_) {
    if (BlockData hit = tctx->CacheGet(id_, p, free_cache_reads_)) return hit;
  }
  BlockData block = ComputeErased(p, tctx);
  if (cached_) {
    uint64_t bytes = BlockBytes(block);
    tctx->RecordCacheMiss(id_, bytes);
    if (!tctx->HasMissingInput() && tctx->profile().memory_store) {
      tctx->CachePut(id_, p, block, bytes);
    }
  }
  return block;
}

std::vector<int> RddBase::ComputePreferredNodes(int p) const {
  // Default: follow the first narrow parent (pipelined in the same task).
  for (const Dependency& d : deps_) {
    if (d.narrow_parent != nullptr) return d.narrow_parent->PreferredNodes(p);
  }
  return {};
}

// ---------------------------------------------------------------------------
// ShuffleDependency registration and release
// ---------------------------------------------------------------------------

ShuffleDependency::ShuffleDependency(std::shared_ptr<RddBase> parent,
                                     int num_buckets)
    : parent_(std::move(parent)),
      num_buckets_(num_buckets),
      live_ctx_(parent_->context()->lifetime()) {
  SHARK_CHECK(num_buckets > 0);
  shuffle_id_ = parent_->context()->shuffle_manager().RegisterShuffle(
      parent_->num_partitions(), num_buckets);
}

ShuffleDependency::~ShuffleDependency() {
  if (std::shared_ptr<ClusterContext> ctx = live_ctx_.lock()) {
    ctx->scheduler().ReleaseShuffle(shuffle_id_);
  }
}

// ---------------------------------------------------------------------------
// ClusterContext
// ---------------------------------------------------------------------------

ClusterContext::ClusterContext(ClusterConfig config,
                               std::shared_ptr<Dfs> shared_dfs)
    : config_(config) {
  if (shared_dfs != nullptr) {
    dfs_ = std::move(shared_dfs);
  } else {
    dfs_ = std::make_shared<Dfs>(config_.num_nodes, config_.profile.dfs_replication,
                                 config_.seed);
  }
  cluster_ = std::make_unique<Cluster>(config_.num_nodes,
                                       config_.hardware.cores_per_node);
  cost_model_ = std::make_unique<CostModel>(config_.hardware);
  // Cached block sizes are tracked in real bytes while node capacity is a
  // virtual quantity; dividing capacity by the data scale makes a scaled-down
  // dataset occupy the same *fraction* of memory it would at full size.
  uint64_t real_capacity = static_cast<uint64_t>(
      static_cast<double>(config_.hardware.mem_bytes_per_node) /
      std::max(1.0, config_.virtual_data_scale));
  block_manager_ =
      std::make_unique<BlockManager>(config_.num_nodes, real_capacity);
  // The memory manager arbitrates the same scaled budget across the block
  // cache (observed through UsedBytes), shuffle buffers and task working
  // sets; the cache stays the senior consumer with its own LRU enforcement.
  memory_manager_ = std::make_unique<MemoryManager>(
      config_.num_nodes, real_capacity, config_.hardware.cores_per_node);
  memory_manager_->set_cache_usage_fn(
      [bm = block_manager_.get()](int node) { return bm->UsedBytes(node); });
  shuffle_manager_ = std::make_unique<ShuffleManager>();
  shuffle_manager_->set_memory_manager(memory_manager_.get());
  metrics_ = std::make_unique<ClusterMetrics>(config_.num_nodes,
                                              config_.hardware);
  metrics_->set_cache_bytes_fn(
      [bm = block_manager_.get()] { return bm->TotalUsedBytes(); });
  metrics_->set_cache_bytes_on_node_fn(
      [bm = block_manager_.get()](int node) { return bm->UsedBytes(node); });
  metrics_->set_shuffle_bytes_fn(
      [mm = memory_manager_.get()] { return mm->total_shuffle_bytes(); });
  metrics_->set_shuffle_bytes_on_node_fn(
      [mm = memory_manager_.get()](int node) {
        return mm->shuffle_bytes(node);
      });
  metrics_->set_live_shuffles_fn(
      [sm = shuffle_manager_.get()] { return sm->num_shuffles(); });
  block_manager_->set_eviction_hook(
      [m = metrics_.get()](uint64_t blocks, uint64_t bytes) {
        m->OnCacheEviction(blocks, bytes);
      });
  scheduler_ = std::make_unique<DagScheduler>(this);
  SHARK_LOG(kInfo) << "cluster up: " << config_.num_nodes << " nodes x "
                   << config_.hardware.cores_per_node << " cores, "
                   << real_capacity << " B cache/node (scale "
                   << config_.virtual_data_scale << "), host_threads="
                   << config_.host_threads;
}

ClusterContext::~ClusterContext() {
  // From here on, lineage objects that outlive the context release nothing.
  lifetime_.reset();
}

void ClusterContext::ResetClock() {
  cluster_->Reset();
  now_ = 0.0;
  // The timeline cannot run backwards; cumulative counters survive.
  metrics_->OnClockReset();
}

int ClusterContext::effective_host_threads() const {
  int threads = config_.host_threads;
  if (threads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : static_cast<int>(hw);
  }
  return std::max(1, threads);
}

ThreadPool* ClusterContext::thread_pool() {
  int effective = effective_host_threads();
  // The scheduler's main thread helps while it waits, so it counts as one of
  // the configured host threads.
  int workers = effective - 1;
  if (workers < 1) return nullptr;
  if (thread_pool_ == nullptr || thread_pool_->num_workers() != workers) {
    thread_pool_ = std::make_unique<ThreadPool>(workers);
  }
  return thread_pool_.get();
}

void ClusterContext::set_host_threads(int host_threads) {
  config_.host_threads = host_threads;
}

}  // namespace shark
