// Benchmark-owned forwarding decorators that time each call into the storage and
// align layers. Every virtual of the wrapped interface is forwarded, including
// CachesReads, Prefetch, SubmitAsync and MakeScratch, so wrapping never changes which
// paths the program takes (e.g. ChunkPipeline's read-ahead decision).

#ifndef PERFBENCH_CC_DECORATORS_H_
#define PERFBENCH_CC_DECORATORS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/cc/trace.h"
#include "src/align/aligner.h"
#include "src/storage/object_store.h"
#include "src/util/mutex.h"

namespace perfbench {

using Interval = std::pair<int64_t, int64_t>;  // [start_ns, end_ns)

class TimedStore final : public persona::storage::ObjectStore {
 public:
  // `parent` names the span that store spans hang under; read at each call.
  TimedStore(persona::storage::ObjectStore* inner, Tracer* tracer,
             const std::atomic<uint64_t>* parent);
  ~TimedStore() override;  // drains and joins the completion watcher

  TimedStore(const TimedStore&) = delete;
  TimedStore& operator=(const TimedStore&) = delete;

  using ObjectStore::Put;
  persona::Status Put(const std::string& key, std::span<const uint8_t> data) override;
  persona::Status Get(const std::string& key, persona::Buffer* out) override;
  persona::Result<uint64_t> Size(const std::string& key) override;
  persona::Status Delete(const std::string& key) override;
  bool Exists(const std::string& key) override;
  persona::Result<std::vector<std::string>> List(std::string_view prefix) override;
  persona::storage::StoreStats stats() const override { return inner_->stats(); }

  persona::Status PutBatch(std::span<persona::storage::PutOp> ops) override;
  persona::Status GetBatch(std::span<persona::storage::GetOp> ops) override;
  persona::Status DeleteBatch(std::span<persona::storage::DeleteOp> ops) override;
  persona::storage::IoTicket SubmitAsync(std::span<persona::storage::PutOp> puts,
                                         std::span<persona::storage::GetOp> gets) override;

  bool CachesReads() const override { return inner_->CachesReads(); }
  void Prefetch(std::span<const std::string> keys) override;

  struct Timings {
    std::vector<double> get_ms;  // one sample per Get/GetBatch call
    std::vector<double> put_ms;  // one per Put/PutBatch call or async put submission
    std::vector<Interval> busy;  // every call's interval (for the layer's busy time)
  };
  // Waits for outstanding async completions, then returns the samples so far.
  Timings TakeTimings() EXCLUDES(mu_, watch_mu_);

 private:
  enum class Kind { kGet, kPut, kOther };
  void Note(Kind kind, const char* name, int64_t start_ns) EXCLUDES(mu_);
  void NoteInterval(Kind kind, const char* name, int64_t start_ns, int64_t end_ns,
                    uint32_t thread, uint64_t parent) EXCLUDES(mu_);
  void WatchLoop() EXCLUDES(watch_mu_);

  persona::storage::ObjectStore* const inner_;
  Tracer* const tracer_;
  const std::atomic<uint64_t>* const parent_;

  mutable persona::Mutex mu_;
  Timings timings_ GUARDED_BY(mu_);

  // Async submissions complete on the store's workers; a watcher thread observes each
  // ticket in submission order and records its latency when it completes.
  struct Pending {
    persona::storage::IoTicket ticket;
    Kind kind = Kind::kPut;
    int64_t start_ns = 0;
    uint32_t thread = 0;
    uint64_t parent = 0;
  };
  persona::Mutex watch_mu_;
  persona::CondVar watch_cv_;
  std::deque<Pending> pending_ GUARDED_BY(watch_mu_);
  size_t in_hand_ GUARDED_BY(watch_mu_) = 0;  // popped but not yet recorded
  bool stop_ GUARDED_BY(watch_mu_) = false;
  std::thread watcher_;  // declared last: uses every member above
};

class TimedAligner final : public persona::align::Aligner {
 public:
  TimedAligner(const persona::align::Aligner* inner, Tracer* tracer, uint64_t parent)
      : inner_(inner), tracer_(tracer), parent_(parent) {}

  std::string_view name() const override { return inner_->name(); }
  persona::align::AlignmentResult Align(const persona::genome::Read& read,
                                        persona::align::AlignProfile* profile) const override;
  std::unique_ptr<persona::align::AlignerScratch> MakeScratch() const override {
    return inner_->MakeScratch();
  }
  void AlignBatch(std::span<const persona::genome::Read> reads,
                  std::span<persona::align::AlignmentResult> results,
                  persona::align::AlignerScratch* scratch,
                  persona::align::AlignProfile* profile) const override;
  std::pair<persona::align::AlignmentResult, persona::align::AlignmentResult> AlignPair(
      const persona::genome::Read& read1, const persona::genome::Read& read2,
      persona::align::AlignProfile* profile) const override;

  struct Timings {
    std::vector<Interval> calls;           // every align call's interval
    persona::align::AlignProfile profile;  // counters the calls added
  };
  Timings timings() const EXCLUDES(mu_);

 private:
  void Note(const char* name, int64_t start_ns, const persona::align::AlignProfile* before,
            const persona::align::AlignProfile* after) const EXCLUDES(mu_);

  const persona::align::Aligner* const inner_;
  Tracer* const tracer_;
  const uint64_t parent_;
  mutable persona::Mutex mu_;
  mutable Timings timings_ GUARDED_BY(mu_);
};

}  // namespace perfbench

#endif  // PERFBENCH_CC_DECORATORS_H_
