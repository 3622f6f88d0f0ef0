#include "perfbench/cc/trace.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "src/util/file_util.h"
#include "src/util/json.h"

namespace perfbench {

using persona::MutexLock;

int64_t NowNs() {
  static const auto kEpoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

uint32_t ThreadTag() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t tag = next.fetch_add(1, std::memory_order_relaxed);
  return tag;
}

std::string LayerOf(const std::string& name) { return name.substr(0, name.find('.')); }

uint64_t Tracer::Begin(std::string name, uint64_t parent) {
  Span span;
  span.parent = parent;
  span.name = std::move(name);
  span.thread = ThreadTag();
  span.start_ns = NowNs();
  MutexLock lock(mu_);
  span.id = next_id_++;
  open_[span.id] = spans_.size();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(uint64_t id) {
  const int64_t now = NowNs();
  MutexLock lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) {
    return;
  }
  spans_[it->second].end_ns = now;
  open_.erase(it);
}

uint64_t Tracer::Record(std::string name, uint64_t parent, int64_t start_ns,
                        int64_t end_ns, uint32_t thread) {
  if (!enabled_) {
    return 0;
  }
  Span span;
  span.parent = parent;
  span.name = std::move(name);
  span.thread = thread;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  MutexLock lock(mu_);
  span.id = next_id_++;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<Span> Tracer::Snapshot() const {
  MutexLock lock(mu_);
  return spans_;
}

void Tracer::Clear() {
  MutexLock lock(mu_);
  spans_.clear();
  open_.clear();
}

int64_t UnionNs(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) {
      continue;
    }
    if (!open || start > cur_end) {
      if (open) {
        total += cur_end - cur_start;
      }
      cur_start = start;
      cur_end = end;
      open = true;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (open) {
    total += cur_end - cur_start;
  }
  return total;
}

std::map<std::string, double> LayerSelfSeconds(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (const Span& span : spans) {
    int64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      // Only the part of each child inside the parent's interval is subtracted.
      std::vector<std::pair<int64_t, int64_t>> clipped;
      clipped.reserve(it->second.size());
      for (const auto& [start, end] : it->second) {
        clipped.emplace_back(std::max(start, span.start_ns), std::min(end, span.end_ns));
      }
      covered = UnionNs(std::move(clipped));
    }
    const int64_t own = std::max<int64_t>(span.end_ns - span.start_ns - covered, 0);
    self[LayerOf(span.name)] += static_cast<double>(own) / 1e9;
  }
  return self;
}

persona::Status WriteChromeTrace(const std::vector<Span>& spans, const std::string& path) {
  persona::json::Array events;
  events.reserve(spans.size());
  for (const Span& span : spans) {
    persona::json::Object event;
    event["name"] = persona::json::Value(span.name);
    event["cat"] = persona::json::Value(LayerOf(span.name));
    event["ph"] = persona::json::Value("X");
    event["ts"] = persona::json::Value(static_cast<double>(span.start_ns) / 1e3);
    event["dur"] = persona::json::Value(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    event["pid"] = persona::json::Value(1);
    event["tid"] = persona::json::Value(static_cast<int64_t>(span.thread));
    persona::json::Object args;
    args["id"] = persona::json::Value(span.id);
    args["parent"] = persona::json::Value(span.parent);
    event["args"] = persona::json::Value(std::move(args));
    events.push_back(persona::json::Value(std::move(event)));
  }
  persona::json::Object root;
  root["traceEvents"] = persona::json::Value(std::move(events));
  root["displayTimeUnit"] = persona::json::Value("ms");
  return persona::WriteStringToFile(path, persona::json::Value(std::move(root)).Dump());
}

}  // namespace perfbench
