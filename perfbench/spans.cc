#include "spans.h"

#include <atomic>
#include <fstream>

#include "common/json_writer.h"

namespace shark {
namespace perfbench {

namespace {

// Small stable per-thread number for the trace viewer's rows.
uint64_t ThreadIndex() {
  static std::atomic<uint64_t> next{1};
  thread_local uint64_t index = next++;
  return index;
}

double Micros(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - epoch).count();
}

}  // namespace

int SpanLog::Begin(const std::string& name, int64_t op_id, int parent) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.op_id = op_id;
  s.parent = parent;
  s.tid = ThreadIndex();
  s.start = Clock::now();
  s.end = s.start;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::End(int id) {
  if (id < 0) return;
  Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = now;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.BeginObject();
      w.Key("name").String(s.name);
      w.Key("ph").String("X");
      w.Key("pid").Int(1);
      w.Key("tid").UInt(s.tid);
      w.Key("ts").Double(Micros(epoch_, s.start));
      w.Key("dur").Double(Micros(s.start, s.end));
      w.Key("args").BeginObject();
      w.Key("id").Int(static_cast<int64_t>(i));
      w.Key("parent").Int(s.parent);
      w.Key("op").Int(s.op_id);
      w.EndObject();
      w.EndObject();
    }
  }
  w.EndArray();
  w.Key("displayTimeUnit").String("ms");
  w.EndObject();
  std::ofstream out(path);
  out << w.str() << "\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
}  // namespace shark
