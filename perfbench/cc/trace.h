// Span recorder for traced benchmark runs.
//
// Spans are recorded by the benchmark around each call it makes into a layer (tool
// calls, store calls, AlignBatch, ingest frame phases, node lifetimes). They stay in
// memory and are written at exit as Chrome trace-event JSON, which loads in Perfetto
// and chrome://tracing. A layer's self time is its spans' duration minus the part of
// each span's interval that its child spans cover.

#ifndef PERFBENCH_CC_TRACE_H_
#define PERFBENCH_CC_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/status.h"

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: root
  std::string name;     // "<layer>.<call>", e.g. "storage.get_batch"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;
};

// Nanoseconds on the steady clock since the process started tracing.
int64_t NowNs();
uint32_t ThreadTag();

// The layer of a span is its name up to the first '.'.
std::string LayerOf(const std::string& name);

class Tracer {
 public:
  // Disabled tracers record nothing; Begin returns 0 and End ignores it.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span and returns its id.
  uint64_t Begin(std::string name, uint64_t parent) EXCLUDES(mu_);
  void End(uint64_t id) EXCLUDES(mu_);
  // Records a span whose interval is already known (e.g. a completion observed later).
  uint64_t Record(std::string name, uint64_t parent, int64_t start_ns, int64_t end_ns,
                  uint32_t thread) EXCLUDES(mu_);

  std::vector<Span> Snapshot() const EXCLUDES(mu_);
  void Clear() EXCLUDES(mu_);

 private:
  const bool enabled_;
  mutable persona::Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
  std::map<uint64_t, size_t> open_ GUARDED_BY(mu_);  // id -> index in spans_
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
};

// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, uint64_t parent)
      : tracer_(tracer), id_(tracer->enabled() ? tracer->Begin(std::move(name), parent) : 0) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }
  // Ends the span before scope exit; later calls do nothing.
  void Close() {
    if (id_ != 0 && !closed_) {
      tracer_->End(id_);
    }
    closed_ = true;
  }

 private:
  Tracer* tracer_;
  uint64_t id_;
  bool closed_ = false;
};

// Sum of each layer's self time in seconds, keyed by layer.
std::map<std::string, double> LayerSelfSeconds(const std::vector<Span>& spans);

// Length of the union of the given [start, end) intervals, in nanoseconds.
int64_t UnionNs(std::vector<std::pair<int64_t, int64_t>> intervals);

// Writes `spans` as Chrome trace-event JSON ("X" complete events, microseconds).
persona::Status WriteChromeTrace(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_CC_TRACE_H_
