// shark_perfbench: runs one benchmark workload against the engine's public
// API and writes the raw measurements as JSON for run.py, which turns them
// into the reported metrics.
//
//   shark_perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// Workloads: olap_cached, serving_point, load_refresh (see NOTES.md).

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "common/json_writer.h"
#include "workloads.h"

namespace shark {
namespace perfbench {
namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: shark_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --out DIR\n",
               msg);
  return 2;
}

bool ParseInt(const char* text, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

void WriteResult(const RunSpec& spec, const ResourceConfig& res, int nproc,
                 const RunResult& r, double peak_rss_mb,
                 const std::string& path) {
  JsonWriter w;
  w.BeginObject();
  w.Key("workload").String(spec.workload);
  w.Key("seed").UInt(spec.seed);
  w.Key("seconds").Int(spec.seconds);
  w.Key("trace").Bool(spec.trace);
  w.Key("host_threads").Int(res.host_threads);
  w.Key("connections").Int(res.connections);
  w.Key("nproc").Int(nproc);
  w.Key("op_seq_hash").String(r.op_seq_hash);
  w.Key("setup_s").BeginArray();
  for (double s : r.setup_s) w.Double(s);
  w.EndArray();
  w.Key("window_s").Double(r.window_s);
  w.Key("cpu_s").Double(r.cpu_s);
  w.Key("virtual_s_total").Double(r.virtual_s_total);
  w.Key("virtual_deterministic").Bool(r.virtual_deterministic);
  w.Key("peak_rss_mb").Double(peak_rss_mb);
  w.Key("op_type").BeginArray();
  for (const OpRecord& op : r.ops) w.String(op.type);
  w.EndArray();
  w.Key("op_ms").BeginArray();
  for (const OpRecord& op : r.ops) w.Double(op.ms);
  w.EndArray();
  w.Key("op_ok").BeginArray();
  for (const OpRecord& op : r.ops) w.Bool(op.ok);
  w.EndArray();
  w.Key("op_traced").BeginArray();
  for (const OpRecord& op : r.ops) w.Bool(op.traced);
  w.EndArray();
  w.Key("query_ids").BeginArray();
  for (const std::string& q : r.query_ids) w.String(q);
  w.EndArray();
  w.Key("late_ms").BeginArray();
  for (double v : r.late_ms) w.Double(v);
  w.EndArray();
  w.Key("errors").BeginArray();
  for (const std::string& e : r.errors) w.String(e);
  w.EndArray();
  w.Key("counters").BeginObject();
  for (const auto& [k, v] : r.counters) w.Key(k).Double(v);
  w.EndObject();
  w.Key("layer").BeginObject();
  for (const auto& [k, v] : r.layer) w.Key(k).Double(v);
  w.EndObject();
  w.Key("info").BeginObject();
  for (const auto& [k, v] : r.info) w.Key(k).String(v);
  w.EndObject();
  w.EndObject();
  std::ofstream out(path);
  out << w.str() << "\n";
}

int Main(int argc, char** argv) {
  RunSpec spec;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return Usage("every flag takes a value");
    const char* flag = argv[i];
    const char* value = argv[++i];
    long long v = 0;
    if (std::strcmp(flag, "--workload") == 0) {
      spec.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      if (!ParseInt(value, 0, (1LL << 62), &v)) return Usage("bad --seed");
      spec.seed = static_cast<uint64_t>(v);
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      if (!ParseInt(value, 1, 600, &v)) return Usage("bad --seconds");
      spec.seconds = static_cast<int>(v);
      have_seconds = true;
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (!ParseInt(value, 0, 1, &v)) return Usage("bad --trace");
      spec.trace = v == 1;
      have_trace = true;
    } else if (std::strcmp(flag, "--out") == 0) {
      spec.out_dir = value;
    } else {
      return Usage((std::string("unknown flag ") + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      spec.out_dir.empty()) {
    return Usage("missing a required flag");
  }

  const ResourceConfig res = ResourcesFor(spec.workload);
  const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("seed %llu\nconfig host_threads=%d connections=%d nproc=%d\n",
              static_cast<unsigned long long>(spec.seed), res.host_threads,
              res.connections, nproc);
  // Host threads computing task bodies plus client connections must not
  // oversubscribe the machine, or host timings measure the OS scheduler.
  if (res.host_threads < 1 || res.host_threads + res.connections > nproc) {
    std::fprintf(stderr,
                 "refusing to run: host_threads (%d) + connections (%d) "
                 "exceeds nproc (%d)\n",
                 res.host_threads, res.connections, nproc);
    return 3;
  }

  SpanLog spans(spec.trace);
  RunResult result;
  try {
    if (!RunWorkload(spec, res, &spans, &result)) {
      return Usage(("unknown workload " + spec.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run failed: %s\n", e.what());
    return 4;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  for (const auto& [k, v] : result.info) {
    std::printf("info %s: %s\n", k.c_str(), v.c_str());
  }
  if (spec.trace &&
      !spans.WriteChromeTrace(spec.out_dir + "/trace.json")) {
    std::fprintf(stderr, "could not write the Chrome trace\n");
    return 4;
  }
  WriteResult(spec, res, nproc, result, peak_rss_mb,
              spec.out_dir + "/raw.json");
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace shark

int main(int argc, char** argv) { return shark::perfbench::Main(argc, argv); }
