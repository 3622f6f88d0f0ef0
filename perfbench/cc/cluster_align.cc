// Workload `cluster_align`: a WorkService and two in-process RunPersonaNode workers
// (two executor threads each) align reads staged in CephSimStore over loopback. The
// SNAP seed index of the 4 Mbp reference exceeds the last-level cache, and the cache
// tier is cold at the start of every pass. The align kernels, the dataflow executor and
// cluster leasing do the work; storage is read-mostly, and sort and variant never run.

#include <optional>
#include <thread>

#include "perfbench/cc/common.h"
#include "src/align/accuracy.h"
#include "src/align/snap_aligner.h"
#include "src/cluster/persona_node.h"
#include "src/cluster/work_service.h"
#include "src/genome/generator.h"
#include "src/genome/read_simulator.h"
#include "src/pipeline/agd_store_util.h"
#include "src/pipeline/persona_pipeline.h"
#include "src/storage/cache_store.h"
#include "src/storage/memory_store.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"
#include "src/util/stopwatch.h"
#include "src/util/string_util.h"

namespace perfbench {
namespace {

using namespace persona;

constexpr int kNodes = 2;
constexpr int kNodeThreads = 2;
constexpr uint64_t kNodeMbPerSec = 64;
constexpr size_t kCacheBudget = 256ull << 20;

class ClusterAlign final : public Workload {
 public:
  Status Setup(uint64_t seed, bool tiny) override {
    genome::GenomeSpec genome_spec;
    genome_spec.num_contigs = tiny ? 2 : 4;
    genome_spec.contig_length = tiny ? 50'000 : 1'000'000;
    Rng seeds(seed);
    genome_spec.seed = seeds.Next();
    reference_ = genome::GenerateGenome(genome_spec);

    align::SeedIndexOptions index_options;
    index_options.seed_length = 20;
    PERSONA_ASSIGN_OR_RETURN(align::SeedIndex index,
                             align::SeedIndex::Build(reference_, index_options));
    index_ = std::make_unique<align::SeedIndex>(std::move(index));
    aligner_ = std::make_unique<align::SnapAligner>(&reference_, index_.get());

    genome::ReadSimSpec read_spec;
    read_spec.read_length = 101;
    read_spec.seed = seeds.Next();
    genome::ReadSimulator simulator(&reference_, read_spec);
    reads_ = simulator.Simulate(tiny ? 6'000 : 300'000);
    chunk_size_ = tiny ? 1'000 : 10'000;

    ceph_ = std::make_unique<storage::CephSimStore>(CephConfig(kNodeMbPerSec));
    PERSONA_ASSIGN_OR_RETURN(manifest_,
                             pipeline::WriteAgdToStore(ceph_.get(), "cl", reads_, chunk_size_));

    sizes_ = InputSizes{};
    sizes_.reads = reads_.size();
    for (const genome::Read& read : reads_) {
      sizes_.bases += read.bases.size();
      sizes_.fastq_bytes += read.metadata.size() + read.bases.size() + read.qual.size() + 6;
    }
    sizes_.seed_index_bytes = index_->MemoryBytes();
    sizes_.dataset_bytes = ceph_->stats().bytes_written;
    sizes_.cache_budget_bytes = kCacheBudget;
    return OkStatus();
  }

  // The oracle: the same staged dataset aligned in-process by RunPersonaAlignment, on a
  // copy of the staged objects.
  Status BuildOracles() override {
    storage::MemoryStore store;
    PERSONA_ASSIGN_OR_RETURN(std::vector<std::string> keys, ceph_->List(""));
    std::vector<Buffer> objects(keys.size());
    std::vector<storage::GetOp> gets(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      gets[i].key = keys[i];
      gets[i].out = &objects[i];
    }
    PERSONA_RETURN_IF_ERROR(ceph_->GetBatch(gets));
    for (size_t i = 0; i < keys.size(); ++i) {
      PERSONA_RETURN_IF_ERROR(store.Put(keys[i], objects[i]));
    }
    const format::Manifest& manifest = manifest_;
    dataflow::Executor executor(kNodes * kNodeThreads);
    pipeline::AlignPipelineOptions options;
    options.align_nodes = kNodes * kNodeThreads;
    options.subchunk_size = 512;
    options.collect_results = true;
    PERSONA_ASSIGN_OR_RETURN(
        pipeline::AlignRunReport report,
        pipeline::RunPersonaAlignment(&store, manifest, *aligner_, &executor, options));
    oracle_results_.clear();
    for (size_t c = 0; c < manifest.chunks.size(); ++c) {
      Buffer object;
      PERSONA_RETURN_IF_ERROR(store.Get(manifest.ChunkFileName(c, "results"), &object));
      oracle_results_.emplace_back(object.view());
    }
    std::vector<align::AlignmentResult> flat;
    for (const auto& chunk : report.results) {
      flat.insert(flat.end(), chunk.begin(), chunk.end());
    }
    accuracy_ = align::ScoreAlignments(reference_, reads_, flat).correct_fraction();
    reads_ = {};  // the staged dataset is the program's only copy from here on
    return OkStatus();
  }

  // Swaps the bases of the first two staged chunks: valid AGD, wrong reads.
  Status CorruptStagedChunk() override {
    Buffer first;
    Buffer second;
    const std::string a = manifest_.ChunkFileName(0, "bases");
    const std::string b = manifest_.ChunkFileName(1, "bases");
    PERSONA_RETURN_IF_ERROR(ceph_->Get(a, &first));
    PERSONA_RETURN_IF_ERROR(ceph_->Get(b, &second));
    PERSONA_RETURN_IF_ERROR(ceph_->Put(a, second));
    return ceph_->Put(b, first);
  }

  Result<Iteration> RunOnce(Tracer* tracer) override {
    const bool traced = tracer->enabled();
    Iteration it;
    const size_t groups = manifest_.chunks.size();
    // The previous pass's results must not satisfy this pass's gate.
    std::vector<storage::DeleteOp> stale(groups);
    for (size_t c = 0; c < groups; ++c) {
      stale[c].key = manifest_.ChunkFileName(c, "results");
    }
    if (!ceph_->DeleteBatch(stale).ok()) {
      for (const storage::DeleteOp& op : stale) {  // the first pass finds nothing to delete
        if (!op.status.ok() && op.status.code() != StatusCode::kNotFound) {
          return op.status;
        }
      }
    }
    std::atomic<uint64_t> parent{0};
    std::optional<TimedStore> timed;
    storage::ObjectStore* device = ceph_.get();
    if (traced) {
      device = &timed.emplace(ceph_.get(), tracer, &parent);
    }
    storage::CacheStore store(device, {.budget_bytes = kCacheBudget});
    const storage::StoreStats device_before = ceph_->stats();
    const storage::StoreStats cache_before = store.stats();

    struct NodeRun {
      Result<cluster::PersonaNodeReport> report = InternalError("not run");
      TimedAligner::Timings timings;
    };
    std::vector<NodeRun> nodes(kNodes);

    ScopedSpan root(tracer, "bench.cluster_align", 0);
    parent = root.id();
    const int64_t start_ns = NowNs();
    Stopwatch wall;
    cluster::WorkServiceOptions service_options;
    service_options.job.tool = "align";
    service_options.job.group_size = 1;
    service_options.job.num_groups = static_cast<int64_t>(groups);
    service_options.job.lease_timeout_sec = 120;  // a lost node re-issues, not expiry
    service_options.job.heartbeat_interval_sec = 1;
    auto service = cluster::WorkService::Start(service_options);
    if (!service.ok()) {
      return service.status();
    }
    const uint16_t port = (*service)->port();
    std::vector<std::thread> threads;
    for (int n = 0; n < kNodes; ++n) {
      threads.emplace_back([&, n] {
        ScopedSpan span(tracer, "cluster.node", root.id());
        std::optional<TimedAligner> timed_aligner;
        const align::Aligner* aligner = aligner_.get();
        if (traced) {
          aligner = &timed_aligner.emplace(aligner_.get(), tracer, span.id());
        }
        cluster::PersonaNodeOptions options;
        options.port = port;
        options.node_name = "node-" + std::to_string(n);
        options.store = &store;
        options.aligner = aligner;
        options.executor_threads = kNodeThreads;
        options.align.align_nodes = kNodeThreads;
        options.align.subchunk_size = 512;
        NodeRun& run = nodes[static_cast<size_t>(n)];
        run.report = cluster::RunPersonaNode(options);
        if (traced) {
          run.timings = timed_aligner->timings();
        }
      });
    }
    const Status drained = (*service)->AwaitDrained(150);
    it.wall_s = wall.ElapsedSeconds();
    it.peak_rss_mb = PeakRssMb();
    const int64_t wall_ns = NowNs() - start_ns;
    const cluster::ClusterWorkReport report = (*service)->Report();
    if (!drained.ok()) {
      (*service)->ForceShutdown();  // unblocks the nodes so they can be joined
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    root.Close();
    (*service)->Shutdown();
    const storage::StoreStats device_stats = StatsDelta(device_before, ceph_->stats());
    const storage::StoreStats cache_stats = StatsDelta(cache_before, store.stats());
    it.device_bytes = device_stats.bytes_read + device_stats.bytes_written;
    it.device_ops = device_stats.read_ops + device_stats.write_ops;

    // Operations: every group lease, every node session, and the results gate.
    it.attempted = groups + kNodes + 1;
    it.failed = report.quarantined + report.reissues + cache_stats.give_ups;
    if (!drained.ok() || !report.drained || report.completed != groups) {
      ++it.failed;
      it.gate_failures.push_back(StrFormat(
          "cluster did not drain: %llu of %zu groups (%s)",
          static_cast<unsigned long long>(report.completed), groups,
          drained.ToString().c_str()));
    }
    for (const NodeRun& node : nodes) {
      if (!node.report.ok()) {
        ++it.failed;
        it.gate_failures.push_back("node failed: " + node.report.status().ToString());
      }
    }
    // --- Correctness gate (untimed): results byte-identical to the in-process oracle.
    size_t mismatched = 0;
    for (size_t c = 0; c < groups; ++c) {
      Buffer object;
      const bool read = ceph_->Get(manifest_.ChunkFileName(c, "results"), &object).ok();
      it.output_digest = it.output_digest * 31 + Crc32(object.view());
      if (!read || object.view() != oracle_results_[c]) {
        ++mismatched;
      }
    }
    if (mismatched != 0) {
      ++it.failed;
      it.gate_failures.push_back(StrFormat(
          "%zu of %zu results chunks differ from the in-process oracle", mismatched, groups));
    }
    it.accuracy = accuracy_;  // the results equal the oracle's, whose accuracy this is

    if (!traced) {
      return it;
    }
    Metrics& m = it.layer;
    AddStorageMetrics(timed->TakeTimings(), device_stats, &cache_stats, &m);
    TimedAligner::Timings all;
    double node_seconds = 0;
    double node_capacity_s = 0;
    double node_busy_s = 0;
    std::vector<double> gaps_ms;
    for (const NodeRun& node : nodes) {
      all.calls.insert(all.calls.end(), node.timings.calls.begin(), node.timings.calls.end());
      all.profile.Merge(node.timings.profile);
      const double seconds = node.report.ok() ? node.report->seconds : 0;
      node_seconds += seconds;
      node_capacity_s += seconds * kNodeThreads;
      std::vector<Interval> calls = node.timings.calls;
      std::sort(calls.begin(), calls.end());
      int64_t covered_until = calls.empty() ? 0 : calls.front().second;
      for (const Interval& call : calls) {
        node_busy_s += static_cast<double>(call.second - call.first) / 1e9;
        if (call.first > covered_until) {
          gaps_ms.push_back(static_cast<double>(call.first - covered_until) / 1e6);
        }
        covered_until = std::max(covered_until, call.second);
      }
    }
    AddAlignMetrics(all, kNodes * kNodeThreads, it.wall_s, &m);
    m["compress.ratio"] =
        static_cast<double>(sizes_.fastq_bytes) / static_cast<double>(sizes_.dataset_bytes);
    m["cluster.s_per_group"] = report.completed == 0
                                   ? 0
                                   : node_seconds / static_cast<double>(report.completed);
    m["cluster.node_idle_share"] = node_capacity_s > 0 ? 1 - node_busy_s / node_capacity_s : 0;
    m["cluster.idle_gap_ms.p50"] = Quantile(gaps_ms, 0.5);
    m["cluster.idle_gap_ms.p99"] = Quantile(gaps_ms, 0.99);
    m["cluster.reissues"] = static_cast<double>(report.reissues);
    m["cluster.expired_reclaims"] = static_cast<double>(report.expired_reclaims);
    m["cluster.duplicate_completions"] = static_cast<double>(report.duplicate_completions);
    AddTraceMetrics(tracer->Snapshot(), root.id(), wall_ns, &m);
    return it;
  }

  InputSizes sizes() const override { return sizes_; }

 private:
  genome::ReferenceGenome reference_;
  std::unique_ptr<align::SeedIndex> index_;
  std::unique_ptr<align::SnapAligner> aligner_;
  std::vector<genome::Read> reads_;
  int64_t chunk_size_ = 0;
  std::unique_ptr<storage::CephSimStore> ceph_;
  format::Manifest manifest_;
  std::vector<std::string> oracle_results_;
  double accuracy_ = 0;
  InputSizes sizes_;
};

}  // namespace

std::unique_ptr<Workload> MakeClusterAlign() { return std::make_unique<ClusterAlign>(); }

}  // namespace perfbench
