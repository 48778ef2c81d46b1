#ifndef SHARK_SIM_CLUSTER_METRICS_H_
#define SHARK_SIM_CLUSTER_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "sim/cluster.h"
#include "sim/cost_model.h"

namespace shark {

/// One virtual-time sample of cluster state, recorded by the scheduler's
/// event loop (Figures 5-13 of the paper are explained by exactly these
/// curves: where cores sit busy, how deep the pending queue runs, how much
/// memory the cache and shuffle buffers hold).
struct ClusterSample {
  double time = 0.0;
  int pending_tasks = 0;          // scheduler pending-queue depth
  int running_tasks = 0;          // in-flight task attempts
  int busy_cores_total = 0;
  int alive_nodes = 0;
  uint64_t cache_bytes = 0;       // block-cache resident bytes, all nodes
  uint64_t shuffle_bytes = 0;     // memory-served map-output bytes, all nodes
  std::vector<int> busy_per_node; // busy cores per node at `time`
};

/// Bounded virtual-time time series. Recording is driven by scheduler
/// events; when the series outgrows its budget it decimates itself (drops
/// every other sample and doubles the minimum sampling interval), so memory
/// stays O(max_samples) for arbitrarily long runs while the curve keeps its
/// shape. Purely a function of the virtual-time event sequence, hence
/// byte-identical across host thread counts.
class ClusterTimeline {
 public:
  explicit ClusterTimeline(size_t max_samples = 1024)
      : max_samples_(max_samples < 16 ? 16 : max_samples) {}

  /// Cheap pre-check: false when `now` falls inside the current minimum
  /// sampling interval (callers skip building the sample entirely).
  bool ShouldSample(double now) const;

  /// Records a sample; a sample at the same instant as the last one
  /// replaces it (latest state at that time wins).
  void Record(ClusterSample sample);

  const std::vector<ClusterSample>& samples() const { return samples_; }
  double min_interval() const { return min_interval_; }
  void Clear();

 private:
  size_t max_samples_;
  double min_interval_ = 0.0;
  std::vector<ClusterSample> samples_;
};

/// Per-stage skew/straggler report: task-duration and shuffle-bucket
/// distributions with named culprits — the "why is this stage slow" signal
/// the paper reads off its cluster utilization plots (§6, Figures 8/9).
struct StageSkewReport {
  int seq = 0;                  // stage ordinal within this context
  std::string label;
  double start_time = 0.0;
  double end_time = 0.0;
  int tasks = 0;                // committed tasks
  double dur_p50 = 0.0;
  double dur_p95 = 0.0;
  double dur_max = 0.0;
  double dur_skew = 0.0;        // max / p50 (1.0 = perfectly even)
  int straggler_partition = -1; // partition of the slowest committed task
  int straggler_node = -1;      // node it ran on
  int speculative = 0;
  int failed = 0;
  // Shuffle-bucket side (map stages only; buckets == 0 otherwise).
  int buckets = 0;
  uint64_t bucket_p50 = 0;
  uint64_t bucket_p95 = 0;
  uint64_t bucket_max = 0;
  double bucket_skew = 0.0;     // max / mean
  int culprit_bucket = -1;      // index of the fattest bucket
};

/// Point-in-time SLO readout for one session (or the whole server): live
/// quantiles over the query latency / queued-time histograms. Virtual
/// quantities are deterministic; host quantiles stay 0 unless wall-clock
/// latencies were recorded (streaming serving only).
struct SessionSloSnapshot {
  uint64_t completed = 0;
  uint64_t failed = 0;
  double latency_p50 = 0.0;  // arrival-to-completion, virtual seconds
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  double queued_p50 = 0.0;  // admission-queue wait, virtual seconds
  double queued_p99 = 0.0;
  double host_p50 = 0.0;  // wall-clock seconds (streaming mode only)
  double host_p99 = 0.0;
};

/// Computes duration quantiles/culprits from committed-task observations.
/// `durations`, `partitions` and `nodes` are parallel arrays.
StageSkewReport ComputeStageSkew(const std::string& label, int seq,
                                 double start_time, double end_time,
                                 const std::vector<double>& durations,
                                 const std::vector<int>& partitions,
                                 const std::vector<int>& nodes);

/// Folds a map stage's observed per-bucket bytes into an existing report.
void AnnotateBucketSkew(const std::vector<uint64_t>& bucket_bytes,
                        StageSkewReport* report);

/// Cluster-wide observability: a MetricsRegistry wired into every layer
/// (scheduler, memory manager, shuffle manager, block cache, cost model), a
/// virtual-time ClusterTimeline, and per-stage skew reports. Owned by the
/// ClusterContext; all mutation happens on the driver thread inside the
/// scheduler's event loop, so everything is deterministic under
/// host-parallel task execution.
///
/// Layering: this lives in sim/ and must not see rdd/ types, so upper
/// layers are observed through registered callbacks (cache bytes, shuffle
/// ledger bytes) and through explicit counter hooks the scheduler calls.
class ClusterMetrics {
 public:
  ClusterMetrics(int num_nodes, const HardwareModel& hardware);

  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }
  ClusterTimeline& timeline() { return timeline_; }
  const std::vector<StageSkewReport>& stage_reports() const {
    return stage_reports_;
  }
  /// The report OnStageEnd pushed most recently (nullptr before the first
  /// stage). The scheduler annotates a just-finished map stage's bucket skew
  /// through this.
  StageSkewReport* last_stage_report() {
    return stage_reports_.empty() ? nullptr : &stage_reports_.back();
  }

  // ---- Wiring (context construction) --------------------------------------

  /// Total block-cache resident bytes across the cluster.
  void set_cache_bytes_fn(std::function<uint64_t()> fn);
  /// Per-node block-cache resident bytes (per-node memory gauges).
  void set_cache_bytes_on_node_fn(std::function<uint64_t(int)> fn);
  /// Total / per-node memory-served shuffle map-output bytes.
  void set_shuffle_bytes_fn(std::function<uint64_t()> fn);
  void set_shuffle_bytes_on_node_fn(std::function<uint64_t(int)> fn);
  /// Registered shuffles whose ShuffleDependency is still alive.
  void set_live_shuffles_fn(std::function<uint64_t()> fn);

  // ---- Scheduler hooks (driver thread, event-loop order) ------------------

  /// Samples cluster state at virtual time `now`. Skipped cheaply when the
  /// timeline's minimum interval has not elapsed, unless `force`.
  void Sample(double now, const Cluster& cluster, int pending_tasks,
              int running_tasks, bool force);

  /// One task attempt launched; `locality` is 0=preferred, 1=remote, 2=any.
  void OnTaskLaunch(int locality, bool speculative, const TaskWork& work,
                    double work_seconds);
  void OnTaskCommitted(double duration_sec);
  void OnTaskFailed();        // aborted by node death
  void OnTaskMissingInput();  // discarded, re-run after lineage recovery
  void OnNodeDeath();
  void OnMapOutputDiskServe(uint64_t bytes);
  void OnMapTasksRecovered(int count);
  void OnCacheTraffic(uint64_t hit_blocks, uint64_t hit_bytes,
                      uint64_t miss_blocks, uint64_t miss_bytes);
  void OnCacheEviction(uint64_t blocks, uint64_t bytes);
  void OnSpill(uint64_t bytes, uint32_t partitions);
  void OnReservationDenied(uint64_t count = 1);

  // ---- Job admission hooks (JobManager, driver thread) --------------------

  /// A job entered the admission queue instead of starting; `reason` is the
  /// gate that deferred it ("memory" or "concurrency").
  void OnJobQueued(const std::string& reason);
  /// A job was admitted after `queue_delay_sec` in the queue (0 when it was
  /// admitted on arrival).
  void OnJobAdmitted(double queue_delay_sec);
  /// An admitted job finished; latency is admission-to-completion virtual
  /// seconds.
  void OnJobFinished(bool ok, double latency_sec);
  /// Live admission-state gauges, kept by the JobManager.
  void SetJobsRunning(int64_t running);
  void SetJobsQueued(int64_t queued);

  // ---- Query SLO hooks (JobManager, driver thread) ------------------------

  /// A query finished: feeds the server-wide and (when `session` is
  /// non-empty) per-session latency SLO histograms. `latency_sec` is
  /// arrival-to-completion and `queue_delay_sec` the admission wait, both
  /// virtual seconds (deterministic); `host_seconds` is wall-clock
  /// end-to-end time, or < 0 when not measured (batch mode), keeping the
  /// exposition bit-identical across host_threads settings.
  void OnQueryComplete(const std::string& session, bool ok, double latency_sec,
                       double queue_delay_sec, double host_seconds);

  /// Server-wide SLO quantiles over every completed query.
  SessionSloSnapshot ServerSlo() const;
  /// Per-session SLO quantiles; false if the session never completed a query.
  bool SessionSlo(const std::string& session, SessionSloSnapshot* out) const;
  /// Sessions with at least one completed query, in name order.
  std::vector<std::string> SloSessions() const;

  /// Closes a stage: computes the skew report from committed-task
  /// observations and returns it for optional annotation (bucket bytes).
  StageSkewReport* OnStageEnd(const std::string& label, double start_time,
                              double end_time,
                              const std::vector<double>& durations,
                              const std::vector<int>& partitions,
                              const std::vector<int>& nodes, int speculative,
                              int failed);

  // ---- Export -------------------------------------------------------------

  /// Prometheus text exposition of every registered metric at virtual time
  /// `now` (refreshes the per-node busy-core gauges against the cluster).
  std::string PrometheusText(double now, const Cluster& cluster);

  /// The timeline + skew reports + counter totals as one JSON document —
  /// the `metrics` section benches attach to BENCH_*.json and the schema
  /// tools/bench_gate validates.
  std::string TimelineJson() const;

  /// Clears the timeline and skew reports (counters are cumulative and
  /// survive). Called when the context's virtual clock resets — a timeline
  /// cannot run backwards.
  void OnClockReset();

 private:
  int num_nodes_;
  MetricsRegistry registry_;
  ClusterTimeline timeline_;
  std::vector<StageSkewReport> stage_reports_;
  int next_stage_seq_ = 0;
  uint64_t dropped_stage_reports_ = 0;

  std::function<uint64_t()> cache_bytes_fn_;
  std::function<uint64_t(int)> cache_bytes_on_node_fn_;
  std::function<uint64_t()> shuffle_bytes_fn_;
  std::function<uint64_t(int)> shuffle_bytes_on_node_fn_;

  // Scheduler counters.
  Counter* tasks_launched_;
  Counter* tasks_committed_;
  Counter* tasks_speculative_;
  Counter* tasks_failed_;
  Counter* tasks_missing_input_;
  Counter* map_tasks_recovered_;
  Counter* node_deaths_;
  Counter* locality_preferred_;
  Counter* locality_remote_;
  Counter* locality_any_;
  Counter* stages_total_;
  // Data-movement counters (resolved TaskWork, charged at launch).
  Counter* disk_read_bytes_;
  Counter* disk_write_bytes_;
  Counter* net_read_bytes_;
  Counter* mem_read_bytes_;
  Counter* dfs_write_bytes_;
  // Memory manager.
  Counter* reservations_denied_;
  Counter* spill_bytes_;
  Counter* spill_partitions_;
  // Shuffle manager.
  Counter* map_outputs_disk_;
  Counter* map_output_disk_bytes_;
  // Block cache.
  Counter* cache_hit_blocks_;
  Counter* cache_hit_bytes_;
  Counter* cache_miss_blocks_;
  Counter* cache_miss_bytes_;
  Counter* cache_evicted_blocks_;
  Counter* cache_evicted_bytes_;
  // Job admission (JobManager).
  Counter* jobs_queued_total_;
  Counter* jobs_queued_memory_;
  Counter* jobs_queued_concurrency_;
  Counter* jobs_admitted_;
  Counter* jobs_completed_;
  Counter* jobs_failed_;
  Gauge* jobs_running_gauge_;
  Gauge* jobs_queued_gauge_;
  // Distributions.
  HistogramMetric* task_duration_hist_;
  HistogramMetric* job_queue_delay_hist_;
  HistogramMetric* job_latency_hist_;
  // Query SLO series: one set server-wide, one per session (registered
  // lazily on first completion — deterministic, since completions happen in
  // event-loop order on the driver thread).
  struct QuerySloSeries {
    Counter* completed = nullptr;
    Counter* failed = nullptr;
    HistogramMetric* latency = nullptr;  // virtual arrival-to-completion
    HistogramMetric* queued = nullptr;   // virtual admission wait
    HistogramMetric* host = nullptr;     // wall-clock (streaming only)
  };
  QuerySloSeries MakeQuerySloSeries(const std::string& labels);
  static SessionSloSnapshot SnapshotSeries(const QuerySloSeries& s);
  QuerySloSeries server_queries_;
  std::map<std::string, QuerySloSeries> session_queries_;
  // Per-node busy-core gauges, refreshed by PrometheusText.
  std::vector<Gauge*> busy_core_gauges_;
};

}  // namespace shark

#endif  // SHARK_SIM_CLUSTER_METRICS_H_
