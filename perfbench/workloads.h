#ifndef SHARK_PERFBENCH_WORKLOADS_H_
#define SHARK_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace shark {
namespace perfbench {

/// Command-line settings of one benchmark run.
struct RunSpec {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir;  // raw results, Chrome trace and query log go here
};

/// Fixed per-workload resource configuration, printed and checked against
/// nproc before anything runs.
struct ResourceConfig {
  int host_threads = 1;  // ClusterConfig::host_threads, never 0
  int connections = 0;   // SharkClient connections (serving only)
};

/// One timed operation as the user sees it.
struct OpRecord {
  std::string type;
  double ms = 0.0;      // host latency (serving: from the op's due time)
  bool ok = false;      // succeeded and the answer matched the oracle
  bool traced = false;  // spans were recorded around this op
};

/// Everything one run measured; main.cc writes it out as JSON for run.py.
struct RunResult {
  std::vector<double> setup_s;  // one entry per repeated set-up
  std::vector<OpRecord> ops;
  double window_s = 0.0;        // wall time of the measured op sequence
  double cpu_s = 0.0;           // process user+sys time over that window
  bool virtual_deterministic = false;
  double virtual_s_total = 0.0; // deterministic given the seed
  std::string op_seq_hash;      // FNV-1a over the generated op sequence
  std::vector<std::string> errors;  // first few failure messages
  /// Engine counter deltas over the measured window (repeat exactly for a
  /// seed on the closed-loop workloads).
  std::map<std::string, double> counters;
  /// Per-layer values measured from outside; run.py reports them in
  /// traced runs.
  std::map<std::string, double> layer;
  /// Serving only: per-op query ids and late-send times, for run.py to join
  /// against the server's query log and the client/replay spans.
  std::vector<std::string> query_ids;
  std::vector<double> late_ms;
  std::map<std::string, std::string> info;  // printed configuration
};

ResourceConfig ResourcesFor(const std::string& workload);

/// Runs one workload; returns false on an unknown workload name.
bool RunWorkload(const RunSpec& spec, const ResourceConfig& res,
                 SpanLog* spans, RunResult* out);

}  // namespace perfbench
}  // namespace shark

#endif  // SHARK_PERFBENCH_WORKLOADS_H_
