// Workload `stream_ingest`: a closed loop of two client threads, each streaming its own
// seeded FASTQ in 128 KB Data frames (the next frame goes as soon as the socket takes
// it) into one IngestService, which writes AGD to CephSimStore. The stream is
// write-only, so there is no cache tier. Storage sees only writes (beside
// cluster_align's reads); compression encoding and the ingest wire layer do the work,
// and alignment and variant calling never run.

#include <algorithm>
#include <optional>
#include <thread>

#include "perfbench/cc/common.h"
#include "src/format/fastq.h"
#include "src/genome/generator.h"
#include "src/genome/read_simulator.h"
#include "src/ingest/service.h"
#include "src/ingest/wire.h"
#include "src/pipeline/agd_store_util.h"
#include "src/pipeline/convert.h"
#include "src/storage/memory_store.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"
#include "src/util/stopwatch.h"
#include "src/util/string_util.h"

namespace perfbench {
namespace {

using namespace persona;

constexpr int kClients = 2;
constexpr size_t kFrameBytes = 128 * 1024;
constexpr uint64_t kNodeMbPerSec = 16;
constexpr const char* kColumns[] = {"bases", "qual", "metadata"};

pipeline::ChunkPipeline::Options PipelineOptions() {
  pipeline::ChunkPipeline::Options options;
  options.transform_parallelism = 2;
  options.serialize_parallelism = 2;
  options.write_parallelism = 2;
  options.write_window = 2;
  return options;
}

std::string Dataset(int client) { return "client" + std::to_string(client); }

// One client session's phases, as the client saw them.
struct ClientRun {
  Status status;
  double handshake_ms = 0;
  double send_blocked_s = 0;  // time inside Data-frame sends
  double drain_ms = 0;        // End sent -> Done received
};

ClientRun StreamOne(uint16_t port, const std::string& dataset, const std::string& fastq,
                    Tracer* tracer, uint64_t parent) {
  ClientRun run;
  auto fail = [&](Status status) {
    run.status = std::move(status);
    return run;
  };
  ScopedSpan session(tracer, "ingest.session", parent);
  Stopwatch phase;
  auto conn = ingest::ConnectLoopback(port);
  if (!conn.ok()) {
    return fail(conn.status());
  }
  ingest::Frame frame;
  {
    ScopedSpan span(tracer, "ingest.handshake", session.id());
    if (Status s = ingest::WriteFrame(*conn, ingest::FrameType::kStart, dataset); !s.ok()) {
      return fail(s);
    }
    if (Status s = ingest::ReadFrame(*conn, &frame); !s.ok()) {
      return fail(s);
    }
    if (frame.type != ingest::FrameType::kStarted) {
      return fail(DataLossError("expected Started, got: " + frame.payload));
    }
  }
  run.handshake_ms = phase.ElapsedSeconds() * 1e3;
  {
    ScopedSpan span(tracer, "ingest.send", session.id());
    for (size_t offset = 0; offset < fastq.size(); offset += kFrameBytes) {
      const size_t len = std::min(kFrameBytes, fastq.size() - offset);
      Stopwatch send;
      Status s = ingest::WriteFrame(*conn, ingest::FrameType::kData,
                                    std::string_view(fastq).substr(offset, len));
      run.send_blocked_s += send.ElapsedSeconds();
      if (!s.ok()) {
        return fail(s);
      }
    }
  }
  {
    ScopedSpan span(tracer, "ingest.drain", session.id());
    phase.Reset();
    if (Status s = ingest::WriteFrame(*conn, ingest::FrameType::kEnd, ""); !s.ok()) {
      return fail(s);
    }
    for (;;) {
      if (Status s = ingest::ReadFrame(*conn, &frame); !s.ok()) {
        return fail(s);
      }
      if (frame.type == ingest::FrameType::kDone) {
        break;
      }
      if (frame.type == ingest::FrameType::kError) {
        return fail(DataLossError("session failed: " + frame.payload));
      }
    }
    run.drain_ms = phase.ElapsedSeconds() * 1e3;
  }
  return run;
}

class StreamIngest final : public Workload {
 public:
  Status Setup(uint64_t seed, bool tiny) override {
    genome::GenomeSpec genome_spec;
    genome_spec.num_contigs = tiny ? 1 : 2;
    genome_spec.contig_length = tiny ? 50'000 : 500'000;
    Rng seeds(seed);
    genome_spec.seed = seeds.Next();
    const genome::ReferenceGenome reference = genome::GenerateGenome(genome_spec);
    sizes_ = InputSizes{};
    reads_.assign(kClients, {});
    fastq_.assign(kClients, {});
    for (int c = 0; c < kClients; ++c) {
      genome::ReadSimSpec read_spec;
      read_spec.read_length = 101;
      read_spec.seed = seeds.Next();
      genome::ReadSimulator simulator(&reference, read_spec);
      reads_[c] = simulator.Simulate(tiny ? 3'000 : 200'000);
      format::WriteFastq(reads_[c], &fastq_[c]);
      sizes_.reads += reads_[c].size();
      sizes_.fastq_bytes += fastq_[c].size();
      for (const genome::Read& read : reads_[c]) {
        sizes_.bases += read.bases.size();
      }
    }
    chunk_size_ = tiny ? 500 : 10'000;
    return OkStatus();
  }

  // The oracle: each client's FASTQ imported offline by ImportFastqToAgd (the two
  // imports run side by side; each is serial at its FASTQ parser).
  Status BuildOracles() override {
    oracle_.assign(kClients, {});
    std::vector<Status> status(kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([this, c, &status] { status[c] = ImportOffline(c); });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    sizes_.dataset_bytes = 0;
    for (int c = 0; c < kClients; ++c) {
      PERSONA_RETURN_IF_ERROR(status[c]);
      for (const auto& object : oracle_[c]) {
        sizes_.dataset_bytes += object.second.size();
      }
    }
    reads_ = {};
    return OkStatus();
  }

  // Changes one base in the middle of client 0's stream: valid FASTQ, wrong data.
  Status CorruptStagedChunk() override {
    std::string& fastq = fastq_[0];
    const size_t plus = fastq.find("\n+\n", fastq.size() / 2);
    if (plus == std::string::npos) {
      return InternalError("no FASTQ record to corrupt");
    }
    char& base = fastq[plus - 1];  // last base of that record
    base = base == 'A' ? 'C' : 'A';
    return OkStatus();
  }

  Result<Iteration> RunOnce(Tracer* tracer) override {
    const bool traced = tracer->enabled();
    Iteration it;
    storage::CephSimStore ceph(CephConfig(kNodeMbPerSec));
    std::atomic<uint64_t> parent{0};
    std::optional<TimedStore> timed;
    storage::ObjectStore* store = &ceph;
    if (traced) {
      store = &timed.emplace(&ceph, tracer, &parent);
    }
    ingest::IngestOptions options;
    options.chunk_size = chunk_size_;
    options.codec = compress::CodecId::kZlib;
    options.pipeline = PipelineOptions();

    ScopedSpan root(tracer, "bench.stream_ingest", 0);
    parent = root.id();
    const int64_t start_ns = NowNs();
    Stopwatch wall;
    auto service = ingest::IngestService::Start(store, options);
    if (!service.ok()) {
      return service.status();
    }
    std::vector<ClientRun> clients(kClients);
    std::atomic<int> returned{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        clients[c] = StreamOne((*service)->port(), Dataset(c), fastq_[c], tracer, root.id());
        returned.fetch_add(1);
      });
    }
    // Traced passes sample the sessions' records in flight while the clients stream.
    uint64_t peak_in_flight = 0;
    while (traced && returned.load() < kClients) {
      for (const auto& session : (*service)->Sessions()) {
        peak_in_flight = std::max(peak_in_flight, session.records_in_flight);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    it.wall_s = wall.ElapsedSeconds();
    it.peak_rss_mb = PeakRssMb();
    const int64_t wall_ns = NowNs() - start_ns;
    root.Close();
    (*service)->Shutdown();
    const std::vector<ingest::IngestSessionStats> sessions = (*service)->Sessions();
    const storage::StoreStats device_stats = ceph.stats();
    it.device_bytes = device_stats.bytes_read + device_stats.bytes_written;
    it.device_ops = device_stats.read_ops + device_stats.write_ops;

    // Operations: each client session and each session's parity gate.
    it.attempted = 2 * kClients;
    it.failed = device_stats.give_ups;
    for (int c = 0; c < kClients; ++c) {
      if (!clients[c].status.ok()) {
        ++it.failed;
        it.gate_failures.push_back(Dataset(c) + ": " + clients[c].status.ToString());
      }
    }
    for (const ingest::IngestSessionStats& session : sessions) {
      if (!session.status.ok() || !session.done) {
        ++it.failed;
        it.gate_failures.push_back(session.dataset + " session: " + session.status.ToString());
      }
    }
    // --- Correctness gate (untimed): chunks bit-identical to the offline import.
    size_t identical = 0;
    size_t total = 0;
    for (int c = 0; c < kClients; ++c) {
      // One batch, so the reads overlap across the OSD nodes.
      std::vector<Buffer> objects(oracle_[c].size());
      std::vector<storage::GetOp> gets(oracle_[c].size());
      for (size_t i = 0; i < gets.size(); ++i) {
        gets[i].key = oracle_[c][i].first;
        gets[i].out = &objects[i];
      }
      const Status read = ceph.GetBatch(gets);  // per-op outcomes are checked below
      size_t mismatched = 0;
      for (size_t i = 0; i < gets.size(); ++i) {
        it.output_digest = it.output_digest * 31 + Crc32(objects[i].view());
        if (gets[i].status.ok() && objects[i].view() == oracle_[c][i].second) {
          ++identical;
        } else {
          ++mismatched;
        }
      }
      total += oracle_[c].size();
      const uint64_t chunks = oracle_[c].size() / std::size(kColumns);
      const bool same_count = std::any_of(
          sessions.begin(), sessions.end(), [&](const ingest::IngestSessionStats& session) {
            return session.dataset == Dataset(c) && session.chunks_built == chunks;
          });
      if (mismatched != 0 || !same_count) {
        ++it.failed;
        it.gate_failures.push_back(StrFormat(
            "%s: %zu of %zu chunk objects differ from the offline import%s (read: %s)",
            Dataset(c).c_str(), mismatched, oracle_[c].size(),
            same_count ? "" : ", and the chunk count differs", read.ToString().c_str()));
      }
    }
    it.accuracy = total == 0 ? 0 : static_cast<double>(identical) / static_cast<double>(total);

    if (!traced) {
      return it;
    }
    Metrics& m = it.layer;
    AddStorageMetrics(timed->TakeTimings(), device_stats, nullptr, &m);
    m["compress.ratio"] =
        static_cast<double>(sizes_.fastq_bytes) / static_cast<double>(device_stats.bytes_written);
    const double n = kClients;
    for (const ClientRun& client : clients) {
      m["ingest.handshake_ms"] += client.handshake_ms / n;
      m["ingest.send_blocked_s"] += client.send_blocked_s / n;
      m["ingest.drain_ms"] += client.drain_ms / n;
    }
    m["ingest.peak_records_in_flight"] = static_cast<double>(peak_in_flight);
    // Stage metrics are per-session means.
    for (const ingest::IngestSessionStats& session : sessions) {
      const double share = 1.0 / static_cast<double>(sessions.size());
      m["ingest.session_s"] += session.seconds * share;
      for (const auto& stage : session.report.stages) {
        const std::string prefix = "ingest.stage." + stage.name;
        m[prefix + ".busy_s"] += static_cast<double>(stage.busy_ns) / 1e9 * share;
        m[prefix + ".input_wait_s"] += static_cast<double>(stage.input_wait_ns) / 1e9 * share;
        m[prefix + ".output_wait_s"] += static_cast<double>(stage.output_wait_ns) / 1e9 * share;
      }
    }
    m["compress.encode_busy_s"] = m["ingest.stage.serializer.busy_s"];
    AddTraceMetrics(tracer->Snapshot(), root.id(), wall_ns, &m);
    return it;
  }

  InputSizes sizes() const override { return sizes_; }

 private:
  Status ImportOffline(int c) {
    storage::MemoryStore store;
    PERSONA_RETURN_IF_ERROR(
        pipeline::WriteGzippedFastqToStore(&store, Dataset(c), reads_[c]).status());
    format::Manifest manifest;
    PERSONA_RETURN_IF_ERROR(pipeline::ImportFastqToAgd(&store, Dataset(c), chunk_size_,
                                                       compress::CodecId::kZlib, &manifest,
                                                       PipelineOptions())
                                .status());
    for (size_t i = 0; i < manifest.chunks.size(); ++i) {
      for (const char* column : kColumns) {
        const std::string key = manifest.ChunkFileName(i, column);
        Buffer object;
        PERSONA_RETURN_IF_ERROR(store.Get(key, &object));
        oracle_[c].emplace_back(key, std::string(object.view()));
      }
    }
    return OkStatus();
  }

  std::vector<std::vector<genome::Read>> reads_;
  std::vector<std::string> fastq_;
  int64_t chunk_size_ = 0;
  // Per client: (object key, bytes) of every chunk column of the offline import.
  std::vector<std::vector<std::pair<std::string, std::string>>> oracle_;
  InputSizes sizes_;
};

}  // namespace

std::unique_ptr<Workload> MakeStreamIngest() { return std::make_unique<StreamIngest>(); }

}  // namespace perfbench
