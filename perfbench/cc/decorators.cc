#include "perfbench/cc/decorators.h"

namespace perfbench {

using persona::MutexLock;
using persona::Status;
namespace storage = persona::storage;
namespace align = persona::align;

TimedStore::TimedStore(storage::ObjectStore* inner, Tracer* tracer,
                       const std::atomic<uint64_t>* parent)
    : inner_(inner), tracer_(tracer), parent_(parent), watcher_([this] { WatchLoop(); }) {}

TimedStore::~TimedStore() {
  {
    MutexLock lock(watch_mu_);
    stop_ = true;
  }
  watch_cv_.NotifyAll();
  watcher_.join();
}

void TimedStore::NoteInterval(Kind kind, const char* name, int64_t start_ns, int64_t end_ns,
                              uint32_t thread, uint64_t parent) {
  {
    MutexLock lock(mu_);
    const double ms = static_cast<double>(end_ns - start_ns) / 1e6;
    if (kind == Kind::kGet) {
      timings_.get_ms.push_back(ms);
    } else if (kind == Kind::kPut) {
      timings_.put_ms.push_back(ms);
    }
    timings_.busy.emplace_back(start_ns, end_ns);
  }
  tracer_->Record(name, parent, start_ns, end_ns, thread);
}

void TimedStore::Note(Kind kind, const char* name, int64_t start_ns) {
  NoteInterval(kind, name, start_ns, NowNs(), ThreadTag(),
               parent_->load(std::memory_order_relaxed));
}

Status TimedStore::Put(const std::string& key, std::span<const uint8_t> data) {
  const int64_t start = NowNs();
  Status status = inner_->Put(key, data);
  Note(Kind::kPut, "storage.put", start);
  return status;
}

Status TimedStore::Get(const std::string& key, persona::Buffer* out) {
  const int64_t start = NowNs();
  Status status = inner_->Get(key, out);
  Note(Kind::kGet, "storage.get", start);
  return status;
}

persona::Result<uint64_t> TimedStore::Size(const std::string& key) {
  const int64_t start = NowNs();
  persona::Result<uint64_t> size = inner_->Size(key);
  Note(Kind::kOther, "storage.size", start);
  return size;
}

Status TimedStore::Delete(const std::string& key) {
  const int64_t start = NowNs();
  Status status = inner_->Delete(key);
  Note(Kind::kOther, "storage.delete", start);
  return status;
}

bool TimedStore::Exists(const std::string& key) {
  const int64_t start = NowNs();
  const bool exists = inner_->Exists(key);
  Note(Kind::kOther, "storage.exists", start);
  return exists;
}

persona::Result<std::vector<std::string>> TimedStore::List(std::string_view prefix) {
  const int64_t start = NowNs();
  auto keys = inner_->List(prefix);
  Note(Kind::kOther, "storage.list", start);
  return keys;
}

Status TimedStore::PutBatch(std::span<storage::PutOp> ops) {
  const int64_t start = NowNs();
  Status status = inner_->PutBatch(ops);
  Note(Kind::kPut, "storage.put_batch", start);
  return status;
}

Status TimedStore::GetBatch(std::span<storage::GetOp> ops) {
  const int64_t start = NowNs();
  Status status = inner_->GetBatch(ops);
  Note(Kind::kGet, "storage.get_batch", start);
  return status;
}

Status TimedStore::DeleteBatch(std::span<storage::DeleteOp> ops) {
  const int64_t start = NowNs();
  Status status = inner_->DeleteBatch(ops);
  Note(Kind::kOther, "storage.delete_batch", start);
  return status;
}

storage::IoTicket TimedStore::SubmitAsync(std::span<storage::PutOp> puts,
                                          std::span<storage::GetOp> gets) {
  Pending pending;
  pending.kind = puts.empty() ? Kind::kGet : Kind::kPut;
  pending.start_ns = NowNs();
  pending.thread = ThreadTag();
  pending.parent = parent_->load(std::memory_order_relaxed);
  pending.ticket = inner_->SubmitAsync(puts, gets);
  storage::IoTicket ticket = pending.ticket;
  {
    MutexLock lock(watch_mu_);
    pending_.push_back(std::move(pending));
  }
  watch_cv_.NotifyAll();
  return ticket;
}

void TimedStore::Prefetch(std::span<const std::string> keys) {
  const int64_t start = NowNs();
  inner_->Prefetch(keys);
  Note(Kind::kOther, "storage.prefetch", start);
}

void TimedStore::WatchLoop() {
  for (;;) {
    Pending pending;
    {
      MutexLock lock(watch_mu_);
      while (pending_.empty() && !stop_) {
        watch_cv_.Wait(watch_mu_);
      }
      if (pending_.empty()) {
        return;  // stopping with nothing left to observe
      }
      pending = std::move(pending_.front());
      pending_.pop_front();
      ++in_hand_;
    }
    pending.ticket.Wait();
    NoteInterval(pending.kind,
                 pending.kind == Kind::kPut ? "storage.put_async" : "storage.get_async",
                 pending.start_ns, NowNs(), pending.thread, pending.parent);
    {
      MutexLock lock(watch_mu_);
      --in_hand_;
    }
    watch_cv_.NotifyAll();
  }
}

TimedStore::Timings TimedStore::TakeTimings() {
  {
    MutexLock lock(watch_mu_);
    while (!pending_.empty() || in_hand_ != 0) {
      watch_cv_.Wait(watch_mu_);
    }
  }
  MutexLock lock(mu_);
  Timings out = std::move(timings_);
  timings_ = Timings{};
  return out;
}

namespace {

align::AlignProfile ProfileDelta(const align::AlignProfile& before,
                                 const align::AlignProfile& after) {
  align::AlignProfile delta;
  delta.reads = after.reads - before.reads;
  delta.bases = after.bases - before.bases;
  delta.seed_ns = after.seed_ns - before.seed_ns;
  delta.verify_ns = after.verify_ns - before.verify_ns;
  delta.candidates = after.candidates - before.candidates;
  delta.index_probes = after.index_probes - before.index_probes;
  delta.lv_batch_runs = after.lv_batch_runs - before.lv_batch_runs;
  delta.lv_batch_jobs = after.lv_batch_jobs - before.lv_batch_jobs;
  return delta;
}

}  // namespace

void TimedAligner::Note(const char* name, int64_t start_ns, const align::AlignProfile* before,
                        const align::AlignProfile* after) const {
  const int64_t end_ns = NowNs();
  {
    MutexLock lock(mu_);
    timings_.calls.emplace_back(start_ns, end_ns);
    if (before != nullptr) {
      timings_.profile.Merge(ProfileDelta(*before, *after));
    }
  }
  tracer_->Record(name, parent_, start_ns, end_ns, ThreadTag());
}

align::AlignmentResult TimedAligner::Align(const persona::genome::Read& read,
                                           align::AlignProfile* profile) const {
  const align::AlignProfile before = profile != nullptr ? *profile : align::AlignProfile{};
  const int64_t start = NowNs();
  align::AlignmentResult result = inner_->Align(read, profile);
  Note("align.read", start, profile != nullptr ? &before : nullptr, profile);
  return result;
}

void TimedAligner::AlignBatch(std::span<const persona::genome::Read> reads,
                              std::span<align::AlignmentResult> results,
                              align::AlignerScratch* scratch,
                              align::AlignProfile* profile) const {
  const align::AlignProfile before = profile != nullptr ? *profile : align::AlignProfile{};
  const int64_t start = NowNs();
  inner_->AlignBatch(reads, results, scratch, profile);
  Note("align.batch", start, profile != nullptr ? &before : nullptr, profile);
}

std::pair<align::AlignmentResult, align::AlignmentResult> TimedAligner::AlignPair(
    const persona::genome::Read& read1, const persona::genome::Read& read2,
    align::AlignProfile* profile) const {
  const align::AlignProfile before = profile != nullptr ? *profile : align::AlignProfile{};
  const int64_t start = NowNs();
  auto pair = inner_->AlignPair(read1, read2, profile);
  Note("align.pair", start, profile != nullptr ? &before : nullptr, profile);
  return pair;
}

TimedAligner::Timings TimedAligner::timings() const {
  MutexLock lock(mu_);
  return timings_;
}

}  // namespace perfbench
