#include "sim/cluster_metrics.h"

#include <algorithm>

#include "common/json_writer.h"

namespace shark {

namespace {

/// Hard cap on retained skew reports; long bench loops keep the most recent
/// window and count the rest as dropped (reported in the JSON export so
/// truncation is never silent).
constexpr size_t kMaxStageReports = 512;

/// Nearest-rank quantile of a sorted vector.
template <typename T>
T SortedQuantile(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return T{};
  double rank = q * static_cast<double>(sorted.size() - 1);
  size_t idx = static_cast<size_t>(rank + 0.5);
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

}  // namespace

// ---------------------------------------------------------------------------
// ClusterTimeline
// ---------------------------------------------------------------------------

bool ClusterTimeline::ShouldSample(double now) const {
  if (samples_.empty()) return true;
  double last = samples_.back().time;
  return now <= last || now >= last + min_interval_;
}

void ClusterTimeline::Record(ClusterSample sample) {
  if (!samples_.empty() && sample.time <= samples_.back().time) {
    samples_.back() = std::move(sample);  // latest state at this instant wins
    return;
  }
  if (!samples_.empty() && sample.time < samples_.back().time + min_interval_) {
    return;
  }
  samples_.push_back(std::move(sample));
  if (samples_.size() >= max_samples_ * 2) {
    // Decimate: keep every other sample, double the minimum interval. The
    // whole history stays bounded while preserving the curve's shape.
    size_t kept = 0;
    for (size_t i = 0; i < samples_.size(); i += 2) {
      samples_[kept++] = std::move(samples_[i]);
    }
    samples_.resize(kept);
    double span = samples_.back().time - samples_.front().time;
    double derived = span / static_cast<double>(max_samples_);
    min_interval_ = std::max(min_interval_ * 2.0, derived);
    if (min_interval_ <= 0.0) min_interval_ = 1e-6;
  }
}

void ClusterTimeline::Clear() {
  samples_.clear();
  min_interval_ = 0.0;
}

// ---------------------------------------------------------------------------
// Skew analyzer
// ---------------------------------------------------------------------------

StageSkewReport ComputeStageSkew(const std::string& label, int seq,
                                 double start_time, double end_time,
                                 const std::vector<double>& durations,
                                 const std::vector<int>& partitions,
                                 const std::vector<int>& nodes) {
  StageSkewReport r;
  r.seq = seq;
  r.label = label;
  r.start_time = start_time;
  r.end_time = end_time;
  r.tasks = static_cast<int>(durations.size());
  if (durations.empty()) return r;
  std::vector<double> sorted = durations;
  std::sort(sorted.begin(), sorted.end());
  r.dur_p50 = SortedQuantile(sorted, 0.5);
  r.dur_p95 = SortedQuantile(sorted, 0.95);
  r.dur_max = sorted.back();
  r.dur_skew = r.dur_p50 > 0.0 ? r.dur_max / r.dur_p50 : 0.0;
  size_t worst = 0;
  for (size_t i = 1; i < durations.size(); ++i) {
    if (durations[i] > durations[worst]) worst = i;
  }
  if (worst < partitions.size()) r.straggler_partition = partitions[worst];
  if (worst < nodes.size()) r.straggler_node = nodes[worst];
  return r;
}

void AnnotateBucketSkew(const std::vector<uint64_t>& bucket_bytes,
                        StageSkewReport* report) {
  report->buckets = static_cast<int>(bucket_bytes.size());
  if (bucket_bytes.empty()) return;
  std::vector<uint64_t> sorted = bucket_bytes;
  std::sort(sorted.begin(), sorted.end());
  report->bucket_p50 = SortedQuantile(sorted, 0.5);
  report->bucket_p95 = SortedQuantile(sorted, 0.95);
  report->bucket_max = sorted.back();
  uint64_t total = 0;
  for (uint64_t b : sorted) total += b;
  double mean =
      static_cast<double>(total) / static_cast<double>(sorted.size());
  report->bucket_skew =
      mean > 0.0 ? static_cast<double>(report->bucket_max) / mean : 0.0;
  size_t culprit = 0;
  for (size_t i = 1; i < bucket_bytes.size(); ++i) {
    if (bucket_bytes[i] > bucket_bytes[culprit]) culprit = i;
  }
  report->culprit_bucket = static_cast<int>(culprit);
}

// ---------------------------------------------------------------------------
// ClusterMetrics
// ---------------------------------------------------------------------------

ClusterMetrics::ClusterMetrics(int num_nodes, const HardwareModel& hardware)
    : num_nodes_(num_nodes) {
  auto c = [&](const char* name, const char* help) {
    return registry_.RegisterCounter(name, help);
  };
  tasks_launched_ = c("shark_tasks_launched_total",
                      "Task attempts launched (retries and speculation included)");
  tasks_committed_ = c("shark_tasks_committed_total",
                       "Task attempts whose output was accepted");
  tasks_speculative_ = c("shark_tasks_speculative_total",
                         "Speculative duplicate launches (straggler mitigation)");
  tasks_failed_ =
      c("shark_tasks_failed_total", "Task attempts aborted by node death");
  tasks_missing_input_ =
      c("shark_tasks_missing_input_total",
        "Task results discarded for lost shuffle input (re-run after recovery)");
  map_tasks_recovered_ = c("shark_map_tasks_recovered_total",
                           "Map outputs recomputed from lineage");
  node_deaths_ = c("shark_node_deaths_total", "Simulated node failures applied");
  locality_preferred_ = registry_.RegisterCounter(
      "shark_task_locality_total", "Task launches by locality class",
      "class=\"preferred\"");
  locality_remote_ = registry_.RegisterCounter("shark_task_locality_total", "",
                                               "class=\"remote\"");
  locality_any_ =
      registry_.RegisterCounter("shark_task_locality_total", "", "class=\"any\"");
  stages_total_ = c("shark_stages_total", "Task sets executed (incl. recovery)");

  disk_read_bytes_ =
      c("shark_disk_read_bytes_total", "Local-disk bytes read by tasks");
  disk_write_bytes_ =
      c("shark_disk_write_bytes_total", "Local-disk bytes written by tasks");
  net_read_bytes_ = c("shark_net_read_bytes_total",
                      "Bytes fetched over the network (shuffle + broadcast)");
  mem_read_bytes_ =
      c("shark_mem_read_bytes_total", "In-memory columnar bytes scanned");
  dfs_write_bytes_ = c("shark_dfs_write_bytes_total",
                       "Replicated DFS bytes written (pre-replication)");

  reservations_denied_ = c("shark_mem_reservations_denied_total",
                           "Working-set reservations denied (operator spilled)");
  spill_bytes_ =
      c("shark_mem_spill_bytes_total", "Operator working-set bytes spilled");
  spill_partitions_ = c("shark_mem_spill_partitions_total",
                        "Grace-hash partitions / external sort runs created");

  map_outputs_disk_ = c("shark_shuffle_outputs_disk_total",
                        "Map outputs flipped to disk serving (memory pressure)");
  map_output_disk_bytes_ = c("shark_shuffle_output_disk_bytes_total",
                             "Bytes of map output served from disk");

  cache_hit_blocks_ =
      c("shark_cache_hit_blocks_total", "Block-cache hits (committed tasks)");
  cache_hit_bytes_ = c("shark_cache_hit_bytes_total", "Block-cache bytes hit");
  cache_miss_blocks_ =
      c("shark_cache_miss_blocks_total", "Block-cache misses (committed tasks)");
  cache_miss_bytes_ = c("shark_cache_miss_bytes_total",
                        "Bytes recomputed because the cache missed");
  cache_evicted_blocks_ =
      c("shark_cache_evicted_blocks_total", "Blocks evicted by per-node LRU");
  cache_evicted_bytes_ =
      c("shark_cache_evicted_bytes_total", "Bytes evicted by per-node LRU");

  jobs_queued_total_ = c("shark_jobs_queued_total",
                         "Jobs deferred by admission control (any reason)");
  jobs_queued_memory_ = registry_.RegisterCounter(
      "shark_jobs_queued_reason_total", "Jobs deferred by admission, by gate",
      "reason=\"memory\"");
  jobs_queued_concurrency_ = registry_.RegisterCounter(
      "shark_jobs_queued_reason_total", "", "reason=\"concurrency\"");
  jobs_admitted_ = c("shark_jobs_admitted_total",
                     "Jobs admitted to the shared event loop");
  jobs_completed_ = c("shark_jobs_completed_total", "Jobs finished OK");
  jobs_failed_ = c("shark_jobs_failed_total", "Jobs finished with an error");
  jobs_running_gauge_ = registry_.RegisterGauge(
      "shark_jobs_running", "Admitted jobs currently in flight");
  jobs_queued_gauge_ = registry_.RegisterGauge(
      "shark_jobs_queued", "Jobs waiting in the admission queue");

  server_queries_ = MakeQuerySloSeries("");

  task_duration_hist_ = registry_.RegisterHistogram(
      "shark_task_duration_seconds", "Committed task durations (virtual)");
  job_queue_delay_hist_ = registry_.RegisterHistogram(
      "shark_job_queue_delay_seconds",
      "Admission-queue wait per admitted job (virtual)");
  job_latency_hist_ = registry_.RegisterHistogram(
      "shark_job_latency_seconds",
      "Admission-to-completion latency per job (virtual)");

  // Hardware-model bandwidth constants exported once, so a scrape is
  // self-describing (utilization curves can be read against capacity).
  registry_
      .RegisterGauge("shark_hw_disk_bw_bytes_per_sec",
                     "Modeled sequential disk bandwidth per node")
      ->Set(hardware.disk_bw_bytes_per_sec);
  registry_
      .RegisterGauge("shark_hw_net_bw_bytes_per_sec",
                     "Modeled per-node network bandwidth")
      ->Set(hardware.net_bw_bytes_per_sec);
  registry_
      .RegisterGauge("shark_hw_mem_scan_bytes_per_sec",
                     "Modeled in-memory columnar scan rate per core")
      ->Set(hardware.mem_scan_bytes_per_sec);

  busy_core_gauges_.reserve(static_cast<size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    busy_core_gauges_.push_back(registry_.RegisterGauge(
        "shark_node_busy_cores", n == 0 ? "Cores busy at exposition time" : "",
        "node=\"" + std::to_string(n) + "\""));
  }
}

void ClusterMetrics::set_cache_bytes_fn(std::function<uint64_t()> fn) {
  cache_bytes_fn_ = std::move(fn);
  registry_.RegisterCallbackGauge(
      "shark_cache_resident_bytes", "Block-cache resident bytes, all nodes",
      [fn = cache_bytes_fn_] { return static_cast<double>(fn()); });
}

void ClusterMetrics::set_cache_bytes_on_node_fn(
    std::function<uint64_t(int)> fn) {
  cache_bytes_on_node_fn_ = std::move(fn);
}

void ClusterMetrics::set_shuffle_bytes_fn(std::function<uint64_t()> fn) {
  shuffle_bytes_fn_ = std::move(fn);
  registry_.RegisterCallbackGauge(
      "shark_shuffle_resident_bytes",
      "Memory-served map-output bytes, all nodes",
      [fn = shuffle_bytes_fn_] { return static_cast<double>(fn()); });
}

void ClusterMetrics::set_live_shuffles_fn(std::function<uint64_t()> fn) {
  registry_.RegisterCallbackGauge(
      "shark_shuffles_live", "Registered shuffles not yet released",
      [fn = std::move(fn)] { return static_cast<double>(fn()); });
}

void ClusterMetrics::set_shuffle_bytes_on_node_fn(
    std::function<uint64_t(int)> fn) {
  shuffle_bytes_on_node_fn_ = std::move(fn);
}

void ClusterMetrics::Sample(double now, const Cluster& cluster,
                            int pending_tasks, int running_tasks, bool force) {
  if (!force && !timeline_.ShouldSample(now)) return;
  ClusterSample s;
  s.time = now;
  s.pending_tasks = pending_tasks;
  s.running_tasks = running_tasks;
  s.alive_nodes = cluster.AliveNodes();
  s.busy_per_node.reserve(static_cast<size_t>(cluster.num_nodes()));
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    int busy = cluster.alive(n) ? cluster.BusyCores(n, now) : 0;
    s.busy_per_node.push_back(busy);
    s.busy_cores_total += busy;
  }
  if (cache_bytes_fn_) s.cache_bytes = cache_bytes_fn_();
  if (shuffle_bytes_fn_) s.shuffle_bytes = shuffle_bytes_fn_();
  timeline_.Record(std::move(s));
}

void ClusterMetrics::OnTaskLaunch(int locality, bool speculative,
                                  const TaskWork& work, double work_seconds) {
  tasks_launched_->Increment();
  if (speculative) tasks_speculative_->Increment();
  switch (locality) {
    case 0:
      locality_preferred_->Increment();
      break;
    case 1:
      locality_remote_->Increment();
      break;
    default:
      locality_any_->Increment();
      break;
  }
  disk_read_bytes_->Increment(work.disk_read_bytes);
  disk_write_bytes_->Increment(work.disk_write_bytes);
  net_read_bytes_->Increment(work.net_read_bytes);
  mem_read_bytes_->Increment(work.mem_read_bytes);
  dfs_write_bytes_->Increment(work.dfs_write_bytes);
  (void)work_seconds;
}

void ClusterMetrics::OnTaskCommitted(double duration_sec) {
  tasks_committed_->Increment();
  task_duration_hist_->Observe(duration_sec);
}

void ClusterMetrics::OnTaskFailed() { tasks_failed_->Increment(); }

void ClusterMetrics::OnTaskMissingInput() { tasks_missing_input_->Increment(); }

void ClusterMetrics::OnNodeDeath() { node_deaths_->Increment(); }

void ClusterMetrics::OnMapOutputDiskServe(uint64_t bytes) {
  map_outputs_disk_->Increment();
  map_output_disk_bytes_->Increment(bytes);
}

void ClusterMetrics::OnMapTasksRecovered(int count) {
  map_tasks_recovered_->Increment(static_cast<uint64_t>(count));
}

void ClusterMetrics::OnCacheTraffic(uint64_t hit_blocks, uint64_t hit_bytes,
                                    uint64_t miss_blocks, uint64_t miss_bytes) {
  cache_hit_blocks_->Increment(hit_blocks);
  cache_hit_bytes_->Increment(hit_bytes);
  cache_miss_blocks_->Increment(miss_blocks);
  cache_miss_bytes_->Increment(miss_bytes);
}

void ClusterMetrics::OnCacheEviction(uint64_t blocks, uint64_t bytes) {
  cache_evicted_blocks_->Increment(blocks);
  cache_evicted_bytes_->Increment(bytes);
}

void ClusterMetrics::OnSpill(uint64_t bytes, uint32_t partitions) {
  spill_bytes_->Increment(bytes);
  spill_partitions_->Increment(partitions);
}

void ClusterMetrics::OnReservationDenied(uint64_t count) {
  reservations_denied_->Increment(count);
}

void ClusterMetrics::OnJobQueued(const std::string& reason) {
  jobs_queued_total_->Increment();
  if (reason == "memory") {
    jobs_queued_memory_->Increment();
  } else {
    jobs_queued_concurrency_->Increment();
  }
}

void ClusterMetrics::OnJobAdmitted(double queue_delay_sec) {
  jobs_admitted_->Increment();
  job_queue_delay_hist_->Observe(queue_delay_sec);
}

void ClusterMetrics::OnJobFinished(bool ok, double latency_sec) {
  if (ok) {
    jobs_completed_->Increment();
  } else {
    jobs_failed_->Increment();
  }
  job_latency_hist_->Observe(latency_sec);
}

ClusterMetrics::QuerySloSeries ClusterMetrics::MakeQuerySloSeries(
    const std::string& labels) {
  QuerySloSeries s;
  s.completed = registry_.RegisterCounter(
      "shark_queries_completed_total",
      labels.empty() ? "Queries finished OK" : "", labels);
  s.failed = registry_.RegisterCounter(
      "shark_queries_failed_total",
      labels.empty() ? "Queries finished with an error" : "", labels);
  s.latency = registry_.RegisterHistogram(
      "shark_query_latency_seconds",
      labels.empty() ? "Arrival-to-completion query latency (virtual)" : "",
      labels);
  s.queued = registry_.RegisterHistogram(
      "shark_query_queued_seconds",
      labels.empty() ? "Admission-queue wait per query (virtual)" : "",
      labels);
  s.host = registry_.RegisterHistogram(
      "shark_query_host_seconds",
      labels.empty() ? "End-to-end wall-clock query latency (streaming serving)"
                     : "",
      labels);
  return s;
}

SessionSloSnapshot ClusterMetrics::SnapshotSeries(const QuerySloSeries& s) {
  SessionSloSnapshot out;
  out.completed = s.completed->value();
  out.failed = s.failed->value();
  auto q = [](const HistogramMetric* h, double quantile) {
    const ApproxHistogram& hist = h->histogram();
    return hist.total_count() > 0 ? hist.EstimateQuantile(quantile) : 0.0;
  };
  out.latency_p50 = q(s.latency, 0.50);
  out.latency_p95 = q(s.latency, 0.95);
  out.latency_p99 = q(s.latency, 0.99);
  out.queued_p50 = q(s.queued, 0.50);
  out.queued_p99 = q(s.queued, 0.99);
  out.host_p50 = q(s.host, 0.50);
  out.host_p99 = q(s.host, 0.99);
  return out;
}

void ClusterMetrics::OnQueryComplete(const std::string& session, bool ok,
                                     double latency_sec,
                                     double queue_delay_sec,
                                     double host_seconds) {
  auto feed = [&](QuerySloSeries& s) {
    if (ok) {
      s.completed->Increment();
    } else {
      s.failed->Increment();
    }
    s.latency->Observe(latency_sec);
    s.queued->Observe(queue_delay_sec);
    if (host_seconds >= 0.0) s.host->Observe(host_seconds);
  };
  feed(server_queries_);
  if (session.empty()) return;
  auto it = session_queries_.find(session);
  if (it == session_queries_.end()) {
    it = session_queries_
             .emplace(session, MakeQuerySloSeries(
                                   MetricsRegistry::Label("session", session)))
             .first;
  }
  feed(it->second);
}

SessionSloSnapshot ClusterMetrics::ServerSlo() const {
  return SnapshotSeries(server_queries_);
}

bool ClusterMetrics::SessionSlo(const std::string& session,
                                SessionSloSnapshot* out) const {
  auto it = session_queries_.find(session);
  if (it == session_queries_.end()) return false;
  *out = SnapshotSeries(it->second);
  return true;
}

std::vector<std::string> ClusterMetrics::SloSessions() const {
  std::vector<std::string> out;
  out.reserve(session_queries_.size());
  for (const auto& [name, series] : session_queries_) out.push_back(name);
  return out;
}

void ClusterMetrics::SetJobsRunning(int64_t running) {
  jobs_running_gauge_->Set(static_cast<double>(running));
}

void ClusterMetrics::SetJobsQueued(int64_t queued) {
  jobs_queued_gauge_->Set(static_cast<double>(queued));
}

StageSkewReport* ClusterMetrics::OnStageEnd(
    const std::string& label, double start_time, double end_time,
    const std::vector<double>& durations, const std::vector<int>& partitions,
    const std::vector<int>& nodes, int speculative, int failed) {
  stages_total_->Increment();
  StageSkewReport r = ComputeStageSkew(label, next_stage_seq_++, start_time,
                                       end_time, durations, partitions, nodes);
  r.speculative = speculative;
  r.failed = failed;
  if (stage_reports_.size() >= kMaxStageReports) {
    // Keep the most recent window: long bench loops care about the queries
    // they just ran, and the drop is reported, never silent.
    stage_reports_.erase(stage_reports_.begin());
    ++dropped_stage_reports_;
  }
  stage_reports_.push_back(std::move(r));
  return &stage_reports_.back();
}

std::string ClusterMetrics::PrometheusText(double now, const Cluster& cluster) {
  for (int n = 0; n < num_nodes_ && n < cluster.num_nodes(); ++n) {
    int busy = cluster.alive(n) ? cluster.BusyCores(n, now) : 0;
    busy_core_gauges_[static_cast<size_t>(n)]->Set(busy);
  }
  return registry_.TextExposition();
}

std::string ClusterMetrics::TimelineJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("num_nodes").Int(num_nodes_);
  w.Key("sample_min_interval").Double(timeline_.min_interval());
  w.Key("samples").BeginArray();
  for (const ClusterSample& s : timeline_.samples()) {
    w.BeginObject();
    w.Key("t").FixedDouble(s.time, 6);
    w.Key("pending").Int(s.pending_tasks);
    w.Key("running").Int(s.running_tasks);
    w.Key("busy_cores").Int(s.busy_cores_total);
    w.Key("alive_nodes").Int(s.alive_nodes);
    w.Key("cache_bytes").UInt(s.cache_bytes);
    w.Key("shuffle_bytes").UInt(s.shuffle_bytes);
    w.Key("busy_per_node").BeginArray();
    for (int b : s.busy_per_node) w.Int(b);
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.Key("stages").BeginArray();
  for (const StageSkewReport& r : stage_reports_) {
    w.BeginObject();
    w.Key("seq").Int(r.seq);
    w.Key("label").String(r.label);
    w.Key("start").FixedDouble(r.start_time, 6);
    w.Key("end").FixedDouble(r.end_time, 6);
    w.Key("tasks").Int(r.tasks);
    w.Key("dur_p50").FixedDouble(r.dur_p50, 6);
    w.Key("dur_p95").FixedDouble(r.dur_p95, 6);
    w.Key("dur_max").FixedDouble(r.dur_max, 6);
    w.Key("dur_skew").FixedDouble(r.dur_skew, 3);
    w.Key("straggler_partition").Int(r.straggler_partition);
    w.Key("straggler_node").Int(r.straggler_node);
    w.Key("speculative").Int(r.speculative);
    w.Key("failed").Int(r.failed);
    if (r.buckets > 0) {
      w.Key("buckets").Int(r.buckets);
      w.Key("bucket_p50").UInt(r.bucket_p50);
      w.Key("bucket_p95").UInt(r.bucket_p95);
      w.Key("bucket_max").UInt(r.bucket_max);
      w.Key("bucket_skew").FixedDouble(r.bucket_skew, 3);
      w.Key("culprit_bucket").Int(r.culprit_bucket);
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("dropped_stage_reports").UInt(dropped_stage_reports_);
  w.Key("counters").BeginObject();
  for (const auto& [name, value] : registry_.CounterSnapshot()) {
    w.Key(name).UInt(value);
  }
  w.EndObject();
  w.EndObject();
  std::string out = w.str();
  out += "\n";
  return out;
}

void ClusterMetrics::OnClockReset() {
  timeline_.Clear();
  stage_reports_.clear();
  next_stage_seq_ = 0;
  dropped_stage_reports_ = 0;
}

}  // namespace shark
