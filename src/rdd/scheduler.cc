#include "rdd/scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>
#include <limits>
#include <numeric>
#include <set>
#include <string>

#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "mem/memory_manager.h"
#include "rdd/context.h"

namespace shark {

namespace {

constexpr int kMaxTaskRetries = 64;
constexpr double kInf = std::numeric_limits<double>::infinity();

thread_local JobState* g_current_job = nullptr;

}  // namespace

JobState* CurrentJobState() { return g_current_job; }
void SetCurrentJobState(JobState* job) { g_current_job = job; }

/// One registered task set: everything ExecuteTaskSet used to keep on its
/// stack, so several sets can be in flight in the shared event loop at once.
/// Lives on the registering thread's stack (plain callers and nested
/// recovery drive the loop from that frame; cooperative jobs park in it).
struct TaskSetState {
  enum class TaskState { kPending, kRunning, kCommitted };

  struct Inflight {
    int task;
    int node;
    int core;
    double start;
    double finish;
    DagScheduler::TaskOutcome outcome;
    bool speculative;
    int trace = -1;  // index into the stage trace's task list
  };

  /// Host-parallel precomputation slot. Task bodies are pure functions of
  /// (partition, shared state frozen at the current epoch, per-task rng
  /// seed), so they can be computed on worker threads ahead of virtual-time
  /// placement; outcomes computed under an older epoch are discarded and
  /// recomputed inline at launch.
  struct TaskSlot {
    DagScheduler::TaskOutcome outcome;
    std::exception_ptr error;
    long epoch = -1;  // epoch the outcome reflects; -1 = not yet computed
    size_t batch_index = 0;
    bool submitted = false;
  };

  // ---- immutable inputs ----
  std::vector<int> partitions;
  std::function<std::vector<int>(int)> preferred;
  DagScheduler::TaskBody body;
  DagScheduler::CommitFn commit;
  DagScheduler::LostOutputFn lost_outputs;
  JobMetrics* metrics = nullptr;
  DagScheduler::StageInfo info;
  JobState* job = nullptr;
  TraceCollector* collector = nullptr;

  // ---- scheduling state ----
  size_t n = 0;
  uint64_t stage_seq = 0;
  std::vector<TaskState> state;
  std::vector<int> retries;
  std::vector<char> has_duplicate;
  std::deque<int> pending;
  std::vector<Inflight> inflight;
  std::vector<double> committed_durations;
  // Parallel to committed_durations: partition and node of each commit, the
  // raw material of the per-stage skew/straggler report.
  std::vector<int> committed_partitions;
  std::vector<int> committed_nodes;
  std::vector<double> queued_at;
  int stage_speculative = 0;
  int stage_failed = 0;
  size_t committed = 0;
  double stage_start = 0.0;
  double stage_end = 0.0;

  // ---- profile recording ----
  bool tracing = false;
  int stage_tid = -1;

  // ---- lifecycle ----
  // Suspended while this set's completion processing runs a nested lineage
  // recovery: no launches, deaths or completions touch it until the
  // recovery sub-stages finish (the historical recursive behavior).
  bool suspended = false;
  bool finalized = false;
  Status status = Status::OK();

  // Declared after `slots`: the batch destructor drains workers before
  // anything they write into goes away.
  std::vector<TaskSlot> slots;
  std::unique_ptr<TaskBatch> batch;

  // Fetched fresh on every use: nested recovery stages can grow the stage
  // vector and invalidate pointers.
  StageTrace* strace() { return collector->stage(stage_tid); }

  void Event(double t, const std::string& text) {
    if (!tracing) return;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "t=%.6f ", t);
    strace()->events.push_back(buf + text);
  }
};

namespace {

using TaskState = TaskSetState::TaskState;

}  // namespace

DagScheduler::DagScheduler(ClusterContext* ctx) : ctx_(ctx) {
  default_job_.job_seq = 0;
  default_job_.label = "main";
}

DagScheduler::~DagScheduler() = default;

Result<std::vector<BlockData>> DagScheduler::RunJob(
    const std::shared_ptr<RddBase>& rdd) {
  std::vector<int> parts(static_cast<size_t>(rdd->num_partitions()));
  std::iota(parts.begin(), parts.end(), 0);
  return RunJobOnPartitions(rdd, parts);
}

Result<std::vector<BlockData>> DagScheduler::RunJobOnPartitions(
    const std::shared_ptr<RddBase>& rdd, const std::vector<int>& partitions) {
  JobMetrics metrics;
  metrics.start_time = ctx_->now();

  Status st = EnsureAncestorShuffles(rdd, &metrics);
  if (!st.ok()) return st;

  std::vector<BlockData> results(partitions.size());
  std::vector<int> result_nodes(partitions.size(), -1);

  std::vector<int> task_ids(partitions.size());
  std::iota(task_ids.begin(), task_ids.end(), 0);

  auto preferred = [&](int i) {
    return rdd->PreferredNodes(partitions[static_cast<size_t>(i)]);
  };
  auto body = [&](int i, TaskContext* tctx) {
    TaskOutcome o;
    o.block = rdd->GetOrComputeErased(partitions[static_cast<size_t>(i)], tctx);
    if (o.block != nullptr) o.rows_out = rdd->BlockRows(o.block);
    return o;
  };
  auto commit = [&](int i, TaskOutcome&& o, int node) {
    results[static_cast<size_t>(i)] = std::move(o.block);
    result_nodes[static_cast<size_t>(i)] = node;
  };
  auto lost = [](int) { return std::vector<int>{}; };  // driver holds results

  if (!partitions.empty()) {
    metrics.stages += 1;
    st = ExecuteTaskSet(task_ids, preferred, body, commit, lost, &metrics,
                        StageInfo{rdd->label(), false, -1});
    if (!st.ok()) return st;
  }

  metrics.end_time = ctx_->now();
  metrics.result_nodes = std::move(result_nodes);
  last_job_ = std::move(metrics);
  return results;
}

Result<ShuffleStats> DagScheduler::EnsureShuffle(
    const std::shared_ptr<ShuffleDependency>& dep) {
  JobMetrics metrics;
  metrics.start_time = ctx_->now();
  ShuffleManager& sm = ctx_->shuffle_manager();
  if (!sm.IsComplete(dep->shuffle_id())) {
    SHARK_RETURN_NOT_OK(EnsureAncestorShuffles(dep->parent(), &metrics));
    SHARK_RETURN_NOT_OK(RunMapTasks(
        dep, sm.MissingMapPartitions(dep->shuffle_id()), &metrics));
  } else {
    shuffle_registry_[dep->shuffle_id()] = dep;
  }
  metrics.end_time = ctx_->now();
  last_job_ = std::move(metrics);
  return sm.Stats(dep->shuffle_id());
}

Status DagScheduler::EnsureAncestorShuffles(const std::shared_ptr<RddBase>& rdd,
                                            JobMetrics* metrics) {
  std::set<int> visited;
  std::function<Status(const std::shared_ptr<RddBase>&)> walk =
      [&](const std::shared_ptr<RddBase>& r) -> Status {
    if (!visited.insert(r->id()).second) return Status::OK();
    for (const Dependency& d : r->dependencies()) {
      if (d.narrow_parent != nullptr) {
        SHARK_RETURN_NOT_OK(walk(d.narrow_parent));
      }
      if (d.shuffle != nullptr) {
        shuffle_registry_[d.shuffle->shuffle_id()] = d.shuffle;
        ShuffleManager& sm = ctx_->shuffle_manager();
        if (!sm.IsComplete(d.shuffle->shuffle_id())) {
          SHARK_RETURN_NOT_OK(walk(d.shuffle->parent()));
          SHARK_RETURN_NOT_OK(RunMapTasks(
              d.shuffle, sm.MissingMapPartitions(d.shuffle->shuffle_id()),
              metrics));
        }
      }
    }
    return Status::OK();
  };
  return walk(rdd);
}

Status DagScheduler::RunMapTasks(const std::shared_ptr<ShuffleDependency>& dep,
                                 const std::vector<int>& map_partitions,
                                 JobMetrics* metrics) {
  if (map_partitions.empty()) return Status::OK();
  shuffle_registry_[dep->shuffle_id()] = dep;
  ShuffleManager& sm = ctx_->shuffle_manager();
  const int shuffle_id = dep->shuffle_id();

  std::vector<int> task_ids(map_partitions.size());
  std::iota(task_ids.begin(), task_ids.end(), 0);

  auto preferred = [&](int i) {
    return dep->parent()->PreferredNodes(map_partitions[static_cast<size_t>(i)]);
  };
  auto body = [&](int i, TaskContext* tctx) {
    int p = map_partitions[static_cast<size_t>(i)];
    TaskOutcome o;
    BlockData parent_block = dep->parent()->GetOrComputeErased(p, tctx);
    o.map_output = dep->PartitionBlock(parent_block, tctx);
    o.rows_out = o.map_output.num_records();
    o.bytes_out = o.map_output.TotalBytes();
    return o;
  };
  auto commit = [&](int i, TaskOutcome&& o, int node) {
    int p = map_partitions[static_cast<size_t>(i)];
    o.map_output.node = node;
    sm.PutMapOutput(shuffle_id, p, std::move(o.map_output));
  };
  auto lost = [&](int /*node*/) {
    // After a node death, any of this set's committed outputs that the
    // ShuffleManager now reports absent must be recomputed. (Never-computed
    // partitions also read absent; the caller filters to committed tasks.)
    std::vector<int> out;
    for (size_t i = 0; i < map_partitions.size(); ++i) {
      if (sm.GetMapOutput(shuffle_id, map_partitions[i]) == nullptr) {
        out.push_back(static_cast<int>(i));
      }
    }
    return out;
  };

  metrics->stages += 1;
  SHARK_RETURN_NOT_OK(ExecuteTaskSet(
      task_ids, preferred, body, commit, lost, metrics,
      StageInfo{"shuffleMap:" + dep->parent()->label(), true, shuffle_id}));
  // Annotate the finished map stage with the bucket-size distribution the
  // master observed (post log-encoding) — the PDE skew signal. The stage
  // landed in the owning job's collector (recovery runs on the driving
  // thread, so the thread-local lookup alone is not enough).
  TraceCollector& tc = CollectorForCurrentWork();
  if (tc.active() && tc.last_ended_stage() >= 0) {
    StageTrace* st = tc.stage(tc.last_ended_stage());
    if (st != nullptr && st->shuffle_id == shuffle_id) {
      st->shuffle = SummarizeBucketBytes(sm.Stats(shuffle_id).bucket_bytes);
    }
  }
  // Same signal into the metrics layer's skew report for this stage. The
  // last report is this stage's: a finalized set resumes its owner before
  // the loop processes any further event, and nested recovery stages close
  // before the outer set finalizes.
  StageSkewReport* report = ctx_->metrics().last_stage_report();
  if (report != nullptr &&
      report->label == "shuffleMap:" + dep->parent()->label()) {
    AnnotateBucketSkew(sm.Stats(shuffle_id).bucket_bytes, report);
  }
  return Status::OK();
}

Status DagScheduler::RecoverMissing(
    const std::vector<std::pair<int, int>>& missing, JobMetrics* metrics) {
  // Group lost map outputs by shuffle, skipping any already recovered by a
  // concurrent task's recovery.
  std::map<int, std::set<int>> by_shuffle;
  ShuffleManager& sm = ctx_->shuffle_manager();
  for (const auto& [shuffle_id, map_part] : missing) {
    if (sm.GetMapOutput(shuffle_id, map_part) == nullptr) {
      by_shuffle[shuffle_id].insert(map_part);
    }
  }
  for (const auto& [shuffle_id, parts] : by_shuffle) {
    auto it = shuffle_registry_.find(shuffle_id);
    if (it == shuffle_registry_.end()) {
      return Status::Internal("unknown shuffle in recovery");
    }
    std::shared_ptr<ShuffleDependency> dep = it->second.lock();
    if (dep == nullptr) {
      return Status::Internal("shuffle dependency expired during recovery");
    }
    std::vector<int> vec(parts.begin(), parts.end());
    metrics->map_tasks_recovered += static_cast<int>(vec.size());
    ctx_->metrics().OnMapTasksRecovered(static_cast<int>(vec.size()));
    SHARK_RETURN_NOT_OK(RunMapTasks(dep, vec, metrics));
  }
  return Status::OK();
}

void DagScheduler::HandleNodeDeath(int node) {
  ctx_->block_manager().DropNode(node);
  ctx_->shuffle_manager().DropNode(node);
  ctx_->broadcasts().DropNode(node);
}

JobState* DagScheduler::ResolveJobForRegistration() {
  // A job thread registering its own work wins; the driving thread
  // registering a lineage-recovery sub-stage carries the owning job in
  // override_job_; everything else is the plain single-caller identity.
  if (JobState* j = CurrentJobState()) return j;
  if (override_job_ != nullptr) return override_job_;
  return &default_job_;
}

TraceCollector& DagScheduler::CollectorForCurrentWork() {
  JobState* job = ResolveJobForRegistration();
  if (job->trace != nullptr) return *job->trace;
  return ctx_->trace_collector();
}

bool DagScheduler::FairBefore(const JobState* a, const JobState* b) {
  double ka = a->service_seconds / a->weight;
  double kb = b->service_seconds / b->weight;
  if (ka != kb) return ka < kb;
  return a->job_seq < b->job_seq;
}

int DagScheduler::TotalPending() const {
  int total = 0;
  for (const TaskSetState* s : active_sets_) {
    if (!s->suspended) total += static_cast<int>(s->pending.size());
  }
  return total;
}

int DagScheduler::TotalRunning() const {
  int total = 0;
  for (const TaskSetState* s : active_sets_) {
    if (!s->suspended) total += static_cast<int>(s->inflight.size());
  }
  return total;
}

void DagScheduler::FlushReplay() {
  // Applies committed tasks' cache accesses to the shared BlockManager, in
  // commit order. Must run before any mutation of the cache (node death) and
  // only while no worker is reading it (after a batch drain / at set end).
  BlockManager& bm = ctx_->block_manager();
  for (CacheOp& op : replay_log_) {
    if (op.is_put) {
      bm.Put(op.rdd_id, op.partition, std::move(op.data), op.bytes, op.node);
    } else {
      bm.Touch(op.rdd_id, op.partition);
    }
  }
  replay_log_.clear();
}

void DagScheduler::BumpEpoch() {
  // Shared state is about to change: stop the presses. Cancels/awaits any
  // outstanding precomputation across all active sets, applies pending cache
  // effects, and advances the epoch so remaining precomputed outcomes are
  // recomputed at launch.
  for (TaskSetState* s : active_sets_) {
    if (s->batch != nullptr) s->batch->CancelAndDrain();
  }
  FlushReplay();
  epoch_ += 1;
  // Workers are drained; re-latch the working-set budget against the
  // post-flush cache and shuffle ledgers for this epoch's recomputations.
  task_mem_budget_ = ctx_->memory_manager().TaskWorkingSetBudget();
}

void DagScheduler::QuiesceForSharedStateMutation() {
  if (active_sets_.empty() && replay_log_.empty()) return;
  BumpEpoch();
}

void DagScheduler::ReleaseShuffle(int shuffle_id) {
  QuiesceForSharedStateMutation();
  ctx_->shuffle_manager().DropShuffle(shuffle_id);
  shuffle_registry_.erase(shuffle_id);
}

void DagScheduler::ReleaseCachedRdd(int rdd_id) {
  QuiesceForSharedStateMutation();
  ctx_->block_manager().DropRdd(rdd_id);
}

void DagScheduler::ComputeSlot(TaskSetState* set, int task, long at_epoch) {
  TaskSetState::TaskSlot& slot = set->slots[static_cast<size_t>(task)];
  slot.error = nullptr;
  try {
    const ClusterConfig& cfg = ctx_->config();
    TaskContext tctx(set->partitions[static_cast<size_t>(task)],
                     &ctx_->profile(), &ctx_->block_manager(),
                     &ctx_->shuffle_manager(), &ctx_->broadcasts(),
                     ctx_->virtual_scale(),
                     HashCombine(HashCombine(HashInt64(static_cast<int64_t>(
                                                 cfg.seed)),
                                             HashInt64(static_cast<int64_t>(
                                                 set->stage_seq))),
                                 HashInt64(task)),
                     task_mem_budget_);
    TaskOutcome o = set->body(task, &tctx);
    o.work = tctx.work();
    o.missing_inputs.assign(tctx.missing_inputs().begin(),
                            tctx.missing_inputs().end());
    o.charges = tctx.TakeDeferredCharges();
    o.broadcast_fetches = tctx.TakeBroadcastFetches();
    o.cache_log = tctx.TakeCacheLog();
    o.cache_counters = tctx.TakeCacheCounters();
    o.mem_log = tctx.TakeMemLog();
    o.spill_bytes = tctx.spill_bytes();
    o.spill_partitions = tctx.spill_partitions();
    slot.outcome = std::move(o);
  } catch (...) {
    slot.error = std::current_exception();
  }
  slot.epoch = at_epoch;
}

Status DagScheduler::ObtainOutcome(TaskSetState* set, int task,
                                   TaskOutcome* out) {
  // Produces `task`'s outcome: the precomputed one if still current, else
  // computed inline right now (serial mode, or stale after an epoch bump).
  // Copies out so a speculative duplicate can consume it again.
  TaskSetState::TaskSlot& slot = set->slots[static_cast<size_t>(task)];
  if (slot.submitted) set->batch->Wait(slot.batch_index);
  if (slot.epoch != epoch_) ComputeSlot(set, task, epoch_);
  if (slot.error != nullptr) {
    try {
      std::rethrow_exception(slot.error);
    } catch (const std::exception& e) {
      return Status::ExecutionError(std::string("task body threw: ") +
                                    e.what());
    } catch (...) {
      return Status::ExecutionError("task body threw");
    }
  }
  *out = slot.outcome;
  return Status::OK();
}

void DagScheduler::RegisterTaskSet(TaskSetState* set) {
  Cluster& cluster = ctx_->cluster();
  set->n = set->partitions.size();
  set->stage_seq = next_stage_seq_++;
  // With no set in flight there is no frozen epoch to respect: latch the
  // per-task working-set budget fresh, exactly as the one-job scheduler did
  // at stage entry. Sets registered while others run inherit the current
  // epoch's frozen value instead (their task bodies must agree with any
  // already-precomputed outcomes of the same epoch).
  if (active_sets_.empty()) {
    task_mem_budget_ = ctx_->memory_manager().TaskWorkingSetBudget();
  }
  set->job = ResolveJobForRegistration();
  set->state.assign(set->n, TaskState::kPending);
  set->retries.assign(set->n, 0);
  set->has_duplicate.assign(set->n, 0);
  for (size_t i = 0; i < set->n; ++i) set->pending.push_back(static_cast<int>(i));
  set->stage_start = ctx_->now();
  set->stage_end = set->stage_start;
  set->queued_at.assign(set->n, set->stage_start);
  active_sets_.push_back(set);
  ctx_->metrics().Sample(set->stage_start, cluster, TotalPending(),
                         TotalRunning(), /*force=*/true);

  // Query-profile recording: all of it happens in the single-threaded event
  // loop (or on the owning job's thread while it holds the baton) and
  // captures only virtual-time observables, so profiles are byte-identical
  // across host_threads settings. When no profile is active every hook is a
  // no-op.
  set->collector = set->job->trace != nullptr ? set->job->trace
                                              : &ctx_->trace_collector();
  set->tracing = set->collector->active();
  set->stage_tid =
      set->tracing ? set->collector->BeginStage(set->info.label,
                                                set->info.is_map_stage,
                                                set->info.shuffle_id,
                                                set->stage_start)
                   : -1;

  set->slots.assign(set->n, TaskSetState::TaskSlot{});
  ThreadPool* pool = ctx_->thread_pool();
  set->batch = std::make_unique<TaskBatch>(pool);
  if (pool != nullptr) {
    const long at_epoch = epoch_;
    for (size_t i = 0; i < set->n; ++i) {
      int task = static_cast<int>(i);
      set->slots[i].batch_index = set->batch->Submit(
          [this, set, task, at_epoch] { ComputeSlot(set, task, at_epoch); });
      set->slots[i].submitted = true;
    }
  }
}

void DagScheduler::UnregisterTaskSet(TaskSetState* set) {
  active_sets_.erase(std::remove(active_sets_.begin(), active_sets_.end(), set),
                     active_sets_.end());
}

Status DagScheduler::Launch(TaskSetState* set, int task, int node, int core,
                            double avail, bool speculative) {
  Cluster& cluster = ctx_->cluster();
  const ClusterConfig& cfg = ctx_->config();
  const EngineProfile& profile = ctx_->profile();
  ClusterMetrics& cm = ctx_->metrics();
  const double hb = profile.heartbeat_interval_sec;

  double start_exec = avail;
  if (hb > 0.0) {
    // Tasks start on heartbeat ticks, at most tasks_per_heartbeat new
    // tasks per node per tick (Hadoop's assignment model, §7).
    long tick = static_cast<long>(std::ceil(avail / hb - 1e-9));
    while (heartbeat_slots_[{node, tick}] >= cfg.tasks_per_heartbeat) ++tick;
    heartbeat_slots_[{node, tick}] += 1;
    start_exec = static_cast<double>(tick) * hb;
  }
  TaskOutcome outcome;
  SHARK_RETURN_NOT_OK(ObtainOutcome(set, task, &outcome));
  // Per-node memory-based-shuffle decision (§5, per output instead of the
  // global knob): if this map task's buckets would not fit next to what is
  // already resident on the node, serve them from local disk instead —
  // paying serialization plus the disk write here, and the disk-read path
  // on the reduce side. Decided in the single-threaded event loop at
  // launch, so it is deterministic; the winning attempt's flag commits.
  MemoryManager& mm = ctx_->memory_manager();
  if (set->info.is_map_stage && !outcome.map_output.on_disk &&
      outcome.bytes_out > 0 && !mm.ShuffleFits(node, outcome.bytes_out)) {
    outcome.map_output.on_disk = true;
    outcome.work.ser_bytes += outcome.bytes_out;
    outcome.work.disk_write_bytes += outcome.bytes_out;
    cm.OnMapOutputDiskServe(outcome.bytes_out);
    set->Event(avail, "map output of task " + std::to_string(task) + " (" +
                          FormatBytes(outcome.bytes_out) +
                          ") served from disk" + " on node " +
                          std::to_string(node) +
                          " (shuffle buffers over memory budget)");
  }
  if (outcome.spill_bytes > 0) {
    set->Event(avail, "task " + std::to_string(task) + " spilled " +
                          FormatBytes(outcome.spill_bytes) + " in " +
                          std::to_string(outcome.spill_partitions) +
                          " partitions (working set over budget)");
  }
  // Placement-dependent costs resolve now that the node is known: the
  // body's conditional reads, and the one-time per-node broadcast fetches
  // (consulted and updated in deterministic launch order).
  ResolveDeferredCharges(outcome.charges, node, &outcome.work);
  for (int id : outcome.broadcast_fetches) {
    outcome.work.net_read_bytes += ctx_->broadcasts().ChargeFetch(id, node);
  }
  set->metrics->total_work.Add(outcome.work);

  double work_sec = ctx_->cost_model().WorkSeconds(outcome.work, profile,
                                                   ctx_->virtual_scale());
  double finish = start_exec + profile.task_launch_overhead_sec +
                  work_sec * cluster.slowdown(node);
  cluster.OccupyCore(node, core, finish);
  // Core occupancy feeds the weighted fair-share policy: the job that has
  // consumed the least virtual core time per unit weight launches next when
  // several jobs' sets are runnable at the same instant.
  set->job->service_seconds += finish - start_exec;
  // Locality classification (0=preferred, 1=remote, 2=any) feeds both the
  // metrics layer and, when active, the query profile.
  std::vector<int> prefs = set->preferred(task);
  int locality = 2;
  if (!prefs.empty()) {
    locality = 1;
    for (int p : prefs) {
      if (p == node) locality = 0;
    }
  }
  cm.OnTaskLaunch(locality, speculative, outcome.work, work_sec);
  if (speculative) set->stage_speculative += 1;
  int trace_idx = -1;
  if (set->tracing) {
    TaskTrace tt;
    tt.task = task;
    tt.partition = set->partitions[static_cast<size_t>(task)];
    tt.attempt = set->retries[static_cast<size_t>(task)];
    tt.speculative = speculative;
    tt.node = node;
    tt.core = core;
    tt.queue_time = set->queued_at[static_cast<size_t>(task)];
    tt.launch_time = avail;
    tt.run_start = start_exec;
    tt.finish_time = finish;
    tt.rows_out = outcome.rows_out;
    tt.bytes_out = outcome.bytes_out;
    tt.work = outcome.work;  // placement-resolved counters
    tt.spill_bytes = outcome.spill_bytes;
    tt.spill_partitions = outcome.spill_partitions;
    tt.output_on_disk = outcome.map_output.on_disk;
    tt.locality = locality == 0   ? TaskLocality::kPreferred
                  : locality == 1 ? TaskLocality::kRemote
                                  : TaskLocality::kAny;
    StageTrace* st = set->strace();
    trace_idx = static_cast<int>(st->tasks.size());
    st->tasks.push_back(std::move(tt));
  }
  set->inflight.push_back(TaskSetState::Inflight{
      task, node, core, start_exec, finish, std::move(outcome), speculative,
      trace_idx});
  if (!speculative) {
    set->state[static_cast<size_t>(task)] = TaskState::kRunning;
  }
  set->metrics->tasks_launched += 1;
  if (speculative) set->metrics->speculative_tasks += 1;
  cm.Sample(start_exec, cluster, TotalPending(), TotalRunning(),
            /*force=*/false);
  return Status::OK();
}

void DagScheduler::ProcessDeaths(const std::vector<int>& killed, double at) {
  ClusterMetrics& cm = ctx_->metrics();
  // Committed cache effects must land before the dead nodes' blocks are
  // dropped (and workers must stop reading the soon-to-mutate state).
  BumpEpoch();
  for (int node : killed) {
    HandleNodeDeath(node);
    cm.OnNodeDeath();
    // Suspended sets are driven by a nested recovery frame and keep their
    // in-flight tasks, exactly as the recursive scheduler did: the fault
    // schedule was already consumed, so their tasks on the dead node run to
    // completion and their lost outputs surface later as missing inputs.
    std::vector<TaskSetState*> live;
    for (TaskSetState* s : active_sets_) {
      if (!s->suspended) live.push_back(s);
    }
    for (TaskSetState* set : live) {
      set->Event(at, "node " + std::to_string(node) + " died");
      // Abort in-flight tasks on the dead node.
      for (size_t i = 0; i < set->inflight.size();) {
        if (set->inflight[i].node == node) {
          int task = set->inflight[i].task;
          if (set->tracing && set->inflight[i].trace >= 0) {
            TaskTrace& tt =
                set->strace()->tasks[static_cast<size_t>(set->inflight[i].trace)];
            tt.end = TaskEnd::kNodeDeath;
            tt.finish_time = at;
          }
          set->inflight.erase(set->inflight.begin() + static_cast<long>(i));
          set->metrics->tasks_failed += 1;
          cm.OnTaskFailed();
          set->stage_failed += 1;
          // Requeue unless a duplicate still runs or it already committed.
          bool still_running = false;
          for (const TaskSetState::Inflight& f : set->inflight) {
            if (f.task == task) still_running = true;
          }
          if (set->state[static_cast<size_t>(task)] != TaskState::kCommitted &&
              !still_running) {
            set->state[static_cast<size_t>(task)] = TaskState::kPending;
            set->retries[static_cast<size_t>(task)] += 1;
            set->pending.push_back(task);
            set->queued_at[static_cast<size_t>(task)] = at;
          }
        } else {
          ++i;
        }
      }
      // Requeue committed tasks whose outputs died with the node.
      for (int t : set->lost_outputs(node)) {
        if (set->state[static_cast<size_t>(t)] == TaskState::kCommitted) {
          set->state[static_cast<size_t>(t)] = TaskState::kPending;
          set->retries[static_cast<size_t>(t)] += 1;
          set->pending.push_back(t);
          set->queued_at[static_cast<size_t>(t)] = at;
          set->committed -= 1;
          set->Event(at, "output of task " + std::to_string(t) +
                             " lost with node " + std::to_string(node) +
                             "; requeued");
        }
      }
    }
  }
  // The dead nodes' cache blocks and shuffle buffers are gone; re-latch
  // the working-set budget against the surviving residency.
  task_mem_budget_ = ctx_->memory_manager().TaskWorkingSetBudget();
  cm.Sample(at, ctx_->cluster(), TotalPending(), TotalRunning(),
            /*force=*/true);
}

void DagScheduler::FinalizeSet(TaskSetState* set) {
  ClusterMetrics& cm = ctx_->metrics();
  // Anything still in flight is a losing speculative duplicate (a set only
  // finalizes once every task committed) — its output is abandoned. Its
  // core occupancy stands: the cluster really did burn those cores.
  if (set->tracing) {
    for (const TaskSetState::Inflight& f : set->inflight) {
      if (f.trace >= 0) {
        set->strace()->tasks[static_cast<size_t>(f.trace)].end =
            TaskEnd::kSuperseded;
      }
    }
  }
  BumpEpoch();
  UnregisterTaskSet(set);
  ctx_->AdvanceTo(set->stage_end);
  cm.Sample(set->stage_end, ctx_->cluster(), TotalPending(), TotalRunning(),
            /*force=*/true);
  const StageSkewReport* skew = cm.OnStageEnd(
      set->info.label, set->stage_start, set->stage_end,
      set->committed_durations, set->committed_partitions, set->committed_nodes,
      set->stage_speculative, set->stage_failed);
  SHARK_LOG(kDebug) << "stage " << skew->seq << " [" << set->info.label
                    << "] t=" << set->stage_start << ".." << set->stage_end
                    << " tasks=" << skew->tasks << " dur_skew="
                    << skew->dur_skew << " straggler p"
                    << skew->straggler_partition << "@n"
                    << skew->straggler_node;
  if (set->tracing) set->collector->EndStage(set->stage_tid, set->stage_end);
  set->finalized = true;
  // Wake the owner before the loop touches another event, so post-stage
  // reads (last_job_, last_stage_report) still refer to this stage.
  if (set->job->cooperative && coop_hooks_.resume) {
    coop_hooks_.resume(set->job);
  }
}

void DagScheduler::FailSet(TaskSetState* set, const Status& status) {
  if (set->finalized) return;
  set->status = status;
  set->finalized = true;
  UnregisterTaskSet(set);
  if (set->batch != nullptr) set->batch->CancelAndDrain();
  if (set->job->cooperative && coop_hooks_.resume) {
    coop_hooks_.resume(set->job);
  }
}

Status DagScheduler::ProcessCompletion(TaskSetState* set, size_t idx) {
  ClusterMetrics& cm = ctx_->metrics();
  MemoryManager& mm = ctx_->memory_manager();
  const double t = set->inflight[idx].finish;
  TaskSetState::Inflight done = std::move(set->inflight[idx]);
  set->inflight.erase(set->inflight.begin() + static_cast<long>(idx));

  if (set->state[static_cast<size_t>(done.task)] == TaskState::kCommitted) {
    // A speculative duplicate already won.
    if (set->tracing && done.trace >= 0) {
      set->strace()->tasks[static_cast<size_t>(done.trace)].end =
          TaskEnd::kSuperseded;
    }
    return Status::OK();
  }
  if (!done.outcome.missing_inputs.empty()) {
    // Shuffle inputs were lost: recompute them from lineage, then re-run.
    set->metrics->tasks_rerun_missing += 1;
    cm.OnTaskMissingInput();
    set->retries[static_cast<size_t>(done.task)] += 1;
    if (set->retries[static_cast<size_t>(done.task)] > kMaxTaskRetries) {
      FailSet(set, Status::ExecutionError("task exceeded retry limit (recovery)"));
      return Status::OK();
    }
    if (set->tracing && done.trace >= 0) {
      set->strace()->tasks[static_cast<size_t>(done.trace)].end =
          TaskEnd::kMissingInput;
    }
    set->Event(t, "task " + std::to_string(done.task) +
                      " hit missing shuffle input; lineage recovery of " +
                      std::to_string(done.outcome.missing_inputs.size()) +
                      " map outputs");
    // The recovery sub-stages mutate shuffle state and the cache: quiesce
    // precomputation, apply pending cache effects, and suspend this set so
    // the nested drive interleaves everyone else's events but not ours —
    // the historical recursive-scheduler behavior, which single-job virtual
    // times depend on.
    BumpEpoch();
    set->suspended = true;
    JobState* prev_override = override_job_;
    override_job_ = set->job;
    Status rst = RecoverMissing(done.outcome.missing_inputs, set->metrics);
    override_job_ = prev_override;
    set->suspended = false;
    if (!rst.ok()) {
      FailSet(set, rst);
      return Status::OK();
    }
    epoch_ += 1;  // recovery refreshed shared state
    task_mem_budget_ = ctx_->memory_manager().TaskWorkingSetBudget();
    set->state[static_cast<size_t>(done.task)] = TaskState::kPending;
    set->pending.push_back(done.task);
    // Recovery advanced the virtual clock; the re-run queues from there.
    set->queued_at[static_cast<size_t>(done.task)] = ctx_->now();
    return Status::OK();
  }
  // The winning launch's cache accesses take effect (at the next flush) in
  // commit order, attributed to the node the task actually ran on.
  for (CacheOp& op : done.outcome.cache_log) {
    op.node = done.node;
    replay_log_.push_back(std::move(op));
  }
  done.outcome.cache_log.clear();
  // Replay the winning attempt's reservation log in commit order — the
  // MemoryManager's peak/denial/spill accounting evolves exactly as if
  // committed tasks ran one after another. The metrics counters take the
  // committed deltas, so they agree with the manager's own totals.
  uint64_t denied_before = mm.denied_reservations();
  uint64_t spill_bytes_before = mm.committed_spill_bytes();
  uint64_t spill_parts_before = mm.committed_spill_partitions();
  mm.CommitTaskOps(done.node, done.outcome.mem_log);
  done.outcome.mem_log.clear();
  if (mm.denied_reservations() > denied_before) {
    cm.OnReservationDenied(mm.denied_reservations() - denied_before);
  }
  if (mm.committed_spill_bytes() > spill_bytes_before) {
    cm.OnSpill(mm.committed_spill_bytes() - spill_bytes_before,
               static_cast<uint32_t>(mm.committed_spill_partitions() -
                                     spill_parts_before));
  }
  // Cache traffic is counted from the committed attempt's replayed
  // counters, never from worker-thread reads — commit order is fixed, so
  // the totals are deterministic under host parallelism.
  uint64_t hit_blocks = 0, hit_bytes = 0, miss_blocks = 0, miss_bytes = 0;
  for (const auto& [rdd, counters] : done.outcome.cache_counters) {
    hit_blocks += counters.hit_blocks;
    hit_bytes += counters.hit_bytes;
    miss_blocks += counters.miss_blocks;
    miss_bytes += counters.miss_bytes;
  }
  if (hit_blocks + miss_blocks > 0) {
    cm.OnCacheTraffic(hit_blocks, hit_bytes, miss_blocks, miss_bytes);
  }
  if (set->tracing) {
    StageTrace* st = set->strace();
    for (const auto& [rdd, counters] : done.outcome.cache_counters) {
      st->cache_by_rdd[rdd].Add(counters);
    }
  }
  set->commit(done.task, std::move(done.outcome), done.node);
  set->state[static_cast<size_t>(done.task)] = TaskState::kCommitted;
  set->committed += 1;
  set->stage_end = std::max(set->stage_end, done.finish);
  set->committed_durations.push_back(done.finish - done.start);
  set->committed_partitions.push_back(
      set->partitions[static_cast<size_t>(done.task)]);
  set->committed_nodes.push_back(done.node);
  cm.OnTaskCommitted(done.finish - done.start);
  cm.Sample(t, ctx_->cluster(), TotalPending(), TotalRunning(),
            /*force=*/false);
  if (set->committed == set->n) FinalizeSet(set);
  return Status::OK();
}

Result<DagScheduler::DriveResult> DagScheduler::StepOnce(double time_limit) {
  Cluster& cluster = ctx_->cluster();
  const ClusterConfig& cfg = ctx_->config();

  std::vector<TaskSetState*> live;
  for (TaskSetState* s : active_sets_) {
    if (!s->suspended) live.push_back(s);
  }
  if (live.empty()) return DriveResult::kIdle;

  // All-nodes-dead probe (any reference time works: the probe only fails
  // when no node is alive).
  {
    double t;
    int node, core;
    if (!cluster.EarliestFreeCore(live.front()->stage_start, &t, &node,
                                  &core)) {
      Status st = Status::ExecutionError("all cluster nodes failed");
      std::vector<TaskSetState*> doomed = live;
      for (TaskSetState* s : doomed) FailSet(s, st);
      return DriveResult::kProcessed;
    }
  }

  // Assignment candidate: the earliest (stage-start-bounded) free core over
  // sets with pending tasks; virtual-time ties go to the job with the least
  // weighted service.
  TaskSetState* aset = nullptr;
  double assign_t = kInf;
  int assign_node = -1;
  int assign_core = -1;
  for (TaskSetState* s : live) {
    if (s->pending.empty()) continue;
    double t;
    int node, core;
    if (!cluster.EarliestFreeCore(s->stage_start, &t, &node, &core)) continue;
    if (aset == nullptr || t < assign_t ||
        (t == assign_t && FairBefore(s->job, aset->job))) {
      aset = s;
      assign_t = t;
      assign_node = node;
      assign_core = core;
    }
  }

  // Earliest completion across all live sets, in registration order.
  TaskSetState* cset = nullptr;
  double next_completion = kInf;
  size_t completion_idx = 0;
  for (TaskSetState* s : live) {
    for (size_t i = 0; i < s->inflight.size(); ++i) {
      if (s->inflight[i].finish < next_completion) {
        next_completion = s->inflight[i].finish;
        cset = s;
        completion_idx = i;
      }
    }
  }

  // Prefer assignment when a core frees up before the next completion.
  if (aset != nullptr && assign_t <= next_completion) {
    if (assign_t > time_limit) return DriveResult::kDeferred;
    std::vector<int> killed = cluster.ApplyFaultsUpTo(assign_t);
    if (!killed.empty()) {
      ProcessDeaths(killed, assign_t);
      return DriveResult::kProcessed;
    }
    // Delay scheduling (Zaharia et al., used by Spark): place a task on
    // one of its preferred nodes if a core there frees up within the
    // locality wait, even if some other node has an earlier free core —
    // cached partitions and DFS replicas are then read locally. Falls
    // back to the oldest pending task on the globally earliest core.
    constexpr size_t kLocalityScanLimit = 256;
    size_t pick = 0;
    int pick_node = assign_node;
    int pick_core = assign_core;
    double pick_time = assign_t;
    double best_local = assign_t + cfg.locality_wait_sec + 1e-12;
    bool found_local = false;
    size_t scan = std::min(aset->pending.size(), kLocalityScanLimit);
    for (size_t i = 0; i < scan; ++i) {
      for (int node : aset->preferred(aset->pending[i])) {
        if (node < 0 || node >= cluster.num_nodes() || !cluster.alive(node)) {
          continue;
        }
        int core = 0;
        double avail = std::max(aset->stage_start,
                                cluster.EarliestFreeCoreOnNode(node, &core));
        if (avail < best_local) {
          best_local = avail;
          pick = i;
          pick_node = node;
          pick_core = core;
          pick_time = avail;
          found_local = true;
        }
      }
      // A preferred core already free now cannot be beaten; stop early.
      if (found_local && best_local <= assign_t + 1e-12) break;
    }
    if (!found_local) pick_time = assign_t;
    int task = aset->pending[pick];
    aset->pending.erase(aset->pending.begin() + static_cast<long>(pick));
    if (aset->retries[static_cast<size_t>(task)] > kMaxTaskRetries) {
      FailSet(aset, Status::ExecutionError("task exceeded retry limit"));
      return DriveResult::kProcessed;
    }
    Status st = Launch(aset, task, pick_node, pick_core, pick_time, false);
    if (!st.ok()) FailSet(aset, st);
    return DriveResult::kProcessed;
  }

  // Straggler mitigation (§2.3): a set with no pending work but idle cores
  // before its next completion duplicates its slowest running task if it
  // lags well behind typical committed durations.
  if (cfg.speculation) {
    TaskSetState* sset = nullptr;
    double spec_t = kInf;
    int spec_node = -1;
    int spec_core = -1;
    int spec_task = -1;
    for (TaskSetState* s : live) {
      if (!s->pending.empty() || s->committed_durations.size() < 3) continue;
      double t;
      int node, core;
      if (!cluster.EarliestFreeCore(s->stage_start, &t, &node, &core)) continue;
      if (!(t < next_completion)) continue;
      if (sset != nullptr &&
          !(t < spec_t || (t == spec_t && FairBefore(s->job, sset->job)))) {
        continue;
      }
      std::vector<double> durs = s->committed_durations;
      std::nth_element(durs.begin(),
                       durs.begin() + static_cast<long>(durs.size() / 2),
                       durs.end());
      double median = durs[durs.size() / 2];
      int candidate = -1;
      double worst_remaining = cfg.speculation_multiplier * median;
      for (const TaskSetState::Inflight& f : s->inflight) {
        if (f.speculative || s->has_duplicate[static_cast<size_t>(f.task)]) {
          continue;
        }
        double remaining = f.finish - t;
        if (remaining > worst_remaining) {
          worst_remaining = remaining;
          candidate = f.task;
        }
      }
      if (candidate >= 0) {
        sset = s;
        spec_t = t;
        spec_node = node;
        spec_core = core;
        spec_task = candidate;
      }
    }
    if (sset != nullptr) {
      if (spec_t > time_limit) return DriveResult::kDeferred;
      sset->has_duplicate[static_cast<size_t>(spec_task)] = 1;
      sset->Event(spec_t,
                  "speculative duplicate of task " + std::to_string(spec_task));
      Status st = Launch(sset, spec_task, spec_node, spec_core, spec_t, true);
      if (!st.ok()) FailSet(sset, st);
      return DriveResult::kProcessed;
    }
  }

  if (cset == nullptr) {
    Status st = Status::Internal("scheduler stalled with no runnable tasks");
    std::vector<TaskSetState*> doomed = live;
    for (TaskSetState* s : doomed) FailSet(s, st);
    return DriveResult::kProcessed;
  }

  // Handle the earliest completion (applying any earlier faults first).
  if (next_completion > time_limit) return DriveResult::kDeferred;
  std::vector<int> killed = cluster.ApplyFaultsUpTo(next_completion);
  if (!killed.empty()) {
    ProcessDeaths(killed, next_completion);
    return DriveResult::kProcessed;
  }
  SHARK_RETURN_NOT_OK(ProcessCompletion(cset, completion_idx));
  return DriveResult::kProcessed;
}

Result<DagScheduler::DriveResult> DagScheduler::DriveOnce(double time_limit) {
  return StepOnce(time_limit);
}

Status DagScheduler::DriveUntilFinalized(TaskSetState* target) {
  while (!target->finalized) {
    Result<DriveResult> r = StepOnce(kInf);
    SHARK_RETURN_NOT_OK(r.status());
    if (r.value() == DriveResult::kIdle) {
      return Status::Internal("event loop idle with an unfinalized task set");
    }
  }
  return Status::OK();
}

Status DagScheduler::ExecuteTaskSet(
    const std::vector<int>& partitions,
    const std::function<std::vector<int>(int)>& preferred, const TaskBody& body,
    const CommitFn& commit, const LostOutputFn& lost_outputs,
    JobMetrics* metrics, const StageInfo& info) {
  if (partitions.empty()) return Status::OK();

  TaskSetState set;
  set.partitions = partitions;
  set.preferred = preferred;
  set.body = body;
  set.commit = commit;
  set.lost_outputs = lost_outputs;
  set.metrics = metrics;
  set.info = info;
  RegisterTaskSet(&set);

  Status drive_status = Status::OK();
  if (set.job->cooperative && coop_hooks_.park && CurrentJobState() != nullptr) {
    // Cooperative job thread: the JobManager driver owns the loop; sleep
    // until it finalizes (or fails) this set.
    coop_hooks_.park(set.job);
  } else {
    drive_status = DriveUntilFinalized(&set);
  }
  if (!set.finalized) UnregisterTaskSet(&set);
  SHARK_RETURN_NOT_OK(drive_status);
  return set.status;
}

}  // namespace shark
