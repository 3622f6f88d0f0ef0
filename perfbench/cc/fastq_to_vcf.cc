// Workload `fastq_to_vcf`: import -> align (SNAP) -> sort -> dedup -> call on
// CacheStore(CephSimStore), from a seeded diploid donor read at 30x. The pipeline,
// variant and compress layers do nearly all the work; alignment does little, and
// storage sees both reads and writes.

#include <optional>

#include "perfbench/cc/common.h"
#include "src/align/snap_aligner.h"
#include "src/genome/generator.h"
#include "src/genome/mutate.h"
#include "src/genome/read_simulator.h"
#include "src/pipeline/agd_store_util.h"
#include "src/pipeline/convert.h"
#include "src/pipeline/dedup.h"
#include "src/pipeline/persona_pipeline.h"
#include "src/pipeline/sort.h"
#include "src/storage/cache_store.h"
#include "src/storage/memory_store.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"
#include "src/util/stopwatch.h"
#include "src/util/string_util.h"
#include "src/variant/accuracy.h"
#include "src/variant/call_pipeline.h"

namespace perfbench {
namespace {

using namespace persona;

constexpr int64_t kChunkSize = 5'000;
constexpr int kThreads = 4;
constexpr uint64_t kNodeMbPerSec = 64;
constexpr size_t kCacheBudget = 256ull << 20;
// PASS-SNV F1 floor. Calls on this donor measure about 0.97; a caller or aligner
// regression that loses calls falls well below.
constexpr double kSnvF1Floor = 0.93;

class FastqToVcf final : public Workload {
 public:
  Status Setup(uint64_t seed, bool tiny) override {
    genome::GenomeSpec genome_spec;
    genome_spec.num_contigs = tiny ? 2 : 4;
    genome_spec.contig_length = tiny ? 20'000 : 100'000;
    Rng seeds(seed);
    genome_spec.seed = seeds.Next();
    reference_ = genome::GenerateGenome(genome_spec);

    genome::MutationSpec mutation_spec;
    mutation_spec.snv_rate = 1e-3;
    mutation_spec.insertion_rate = 1.2e-4;
    mutation_spec.deletion_rate = 1.2e-4;
    mutation_spec.min_spacing = 150;
    mutation_spec.seed = seeds.Next();
    donor_ = genome::MutateGenome(reference_, mutation_spec);

    align::SeedIndexOptions index_options;
    index_options.seed_length = 20;
    PERSONA_ASSIGN_OR_RETURN(align::SeedIndex index,
                             align::SeedIndex::Build(reference_, index_options));
    index_ = std::make_unique<align::SeedIndex>(std::move(index));
    aligner_ = std::make_unique<align::SnapAligner>(&reference_, index_.get());

    const double coverage = 30;
    const int read_length = 101;
    const size_t per_haplotype = static_cast<size_t>(
        coverage * static_cast<double>(reference_.total_length()) / read_length / 2);
    std::vector<genome::Read> reads;
    for (size_t hap = 0; hap < 2; ++hap) {
      genome::ReadSimSpec read_spec;
      read_spec.read_length = read_length;
      read_spec.substitution_rate = 0.003;
      read_spec.duplicate_fraction = 0.03;
      read_spec.seed = seeds.Next();
      genome::ReadSimulator simulator(&donor_.haplotypes[hap], read_spec);
      std::vector<genome::Read> hap_reads = simulator.Simulate(per_haplotype);
      reads.insert(reads.end(), std::make_move_iterator(hap_reads.begin()),
                   std::make_move_iterator(hap_reads.end()));
    }
    sizes_ = InputSizes{};
    sizes_.reads = reads.size();
    for (const genome::Read& read : reads) {
      sizes_.bases += read.bases.size();
      // "@name\nbases\n+\nqual\n"
      sizes_.fastq_bytes += read.metadata.size() + read.bases.size() + read.qual.size() + 6;
    }
    sizes_.seed_index_bytes = index_->MemoryBytes();
    sizes_.cache_budget_bytes = kCacheBudget;

    // The sequencer output sits outside the cluster store (the paper's local disk),
    // so the device counters see only AGD traffic.
    input_ = std::make_unique<storage::MemoryStore>();
    return pipeline::WriteGzippedFastqToStore(input_.get(), "donor", reads).status();
  }

  Status BuildOracles() override { return OkStatus(); }  // truth comes from the donor

  Status CorruptStagedChunk() override {
    Buffer object;
    PERSONA_RETURN_IF_ERROR(input_->Get("donor.fastq.gz", &object));
    std::string bytes(object.view());
    for (size_t i = bytes.size() / 2; i < bytes.size() / 2 + 64 && i < bytes.size(); ++i) {
      bytes[i] = static_cast<char>(~bytes[i]);
    }
    return input_->Put("donor.fastq.gz", std::string_view(bytes));
  }

  Result<Iteration> RunOnce(Tracer* tracer) override {
    const bool traced = tracer->enabled();
    Iteration it;
    storage::CephSimStore ceph(CephConfig(kNodeMbPerSec));
    std::atomic<uint64_t> parent{0};
    std::optional<TimedStore> timed;
    storage::ObjectStore* device = &ceph;
    if (traced) {
      device = &timed.emplace(&ceph, tracer, &parent);
    }
    storage::CacheStore store(device, {.budget_bytes = kCacheBudget});
    dataflow::Executor executor(kThreads);

    ScopedSpan root(tracer, "bench.fastq_to_vcf", 0);
    const int64_t start_ns = NowNs();
    Stopwatch wall;
    // Traced passes note the cache counters at each tool boundary, for the per-stage
    // hit ratio in the run record.
    std::vector<std::pair<std::string, storage::StoreStats>> marks;
    auto mark = [&](const char* stage) {
      if (traced) {
        marks.emplace_back(stage, store.stats());
      }
    };
    // A failed tool call ends the pass: later stages have no input.
    auto tool_failed = [&](const Status& status, const char* tool) {
      ++it.failed;
      it.gate_failures.push_back(std::string(tool) + ": " + status.ToString());
      return it;
    };

    it.attempted += 5;
    format::Manifest imported;
    Result<pipeline::ConvertReport> import_report = [&] {
      ScopedSpan span(tracer, "pipeline.import", root.id());
      mark("import");
      parent = span.id();
      return pipeline::ImportFastqToAgd(&store, "donor", kChunkSize,
                                        compress::CodecId::kZlib, &imported, {},
                                        input_.get());
    }();
    if (!import_report.ok()) {
      return tool_failed(import_report.status(), "import");
    }

    std::optional<TimedAligner> timed_aligner;
    Result<pipeline::AlignRunReport> align_report = [&] {
      ScopedSpan span(tracer, "pipeline.align", root.id());
      mark("align");
      parent = span.id();
      const align::Aligner* aligner = aligner_.get();
      if (traced) {
        aligner = &timed_aligner.emplace(aligner_.get(), tracer, span.id());
      }
      pipeline::AlignPipelineOptions options;
      options.align_nodes = kThreads;
      options.subchunk_size = 512;
      return pipeline::RunPersonaAlignment(&store, imported, *aligner, &executor, options);
    }();
    if (!align_report.ok()) {
      return tool_failed(align_report.status(), "align");
    }
    format::Manifest aligned = imported;
    aligned.columns.push_back(format::ResultsColumn());
    aligned.SetReference(reference_);

    format::Manifest sorted;
    Result<pipeline::SortReport> sort_report = [&] {
      ScopedSpan span(tracer, "pipeline.sort", root.id());
      mark("sort");
      parent = span.id();
      pipeline::SortOptions options;
      options.key = pipeline::SortKey::kLocation;
      return pipeline::SortAgdDataset(&store, aligned, "sorted", options, &sorted);
    }();
    if (!sort_report.ok()) {
      return tool_failed(sort_report.status(), "sort");
    }

    Result<pipeline::DedupReport> dedup_report = [&] {
      ScopedSpan span(tracer, "pipeline.dedup", root.id());
      mark("dedup");
      parent = span.id();
      return pipeline::DedupAgdResults(&store, sorted);
    }();
    if (!dedup_report.ok()) {
      return tool_failed(dedup_report.status(), "dedup");
    }

    Result<variant::CallPipelineReport> call_report = [&] {
      ScopedSpan span(tracer, "variant.call", root.id());
      mark("call");
      parent = span.id();
      variant::CallPipelineOptions options;
      options.sample_name = "donor";
      options.filter.min_qual = 20;
      options.filter.min_depth = 6;
      return variant::CallVariantsAgd(&store, sorted, reference_, options);
    }();
    if (!call_report.ok()) {
      return tool_failed(call_report.status(), "call");
    }
    it.wall_s = wall.ElapsedSeconds();
    it.peak_rss_mb = PeakRssMb();
    const int64_t wall_ns = NowNs() - start_ns;
    root.Close();
    const storage::StoreStats device_stats = ceph.stats();
    const storage::StoreStats cache_stats = store.stats();
    it.device_bytes = device_stats.bytes_read + device_stats.bytes_written;
    it.device_ops = device_stats.read_ops + device_stats.write_ops;
    it.failed += cache_stats.give_ups;

    // --- Correctness gates (untimed). ---
    it.attempted += 2;
    const uint64_t digest = Crc32(call_report->vcf_text);
    it.output_digest = digest;
    if (!vcf_digest_.has_value()) {
      vcf_digest_ = digest;
    } else if (*vcf_digest_ != digest) {
      ++it.failed;
      it.gate_failures.push_back("VCF digest differs between passes of one seed");
    }
    const variant::VariantAccuracy accuracy = variant::ScoreVariants(
        donor_.variants, call_report->records, /*passing_only=*/true, &reference_);
    it.accuracy = accuracy.snv.F1();
    if (it.accuracy < kSnvF1Floor) {
      ++it.failed;
      it.gate_failures.push_back(
          StrFormat("snv_f1 %.4f below floor %.2f", it.accuracy, kSnvF1Floor));
    }

    sizes_.dataset_bytes = import_report->bytes_out;
    if (!traced) {
      return it;
    }
    Metrics& m = it.layer;
    marks.emplace_back("end", cache_stats);
    for (size_t i = 0; i + 1 < marks.size(); ++i) {
      const storage::StoreStats stage = StatsDelta(marks[i].second, marks[i + 1].second);
      const uint64_t lookups = stage.cache_hits + stage.cache_misses;
      m["storage.cache_hit_ratio." + marks[i].first] =
          lookups == 0 ? 0
                       : static_cast<double>(stage.cache_hits) / static_cast<double>(lookups);
      m["storage.device_read_mb." + marks[i].first] =
          static_cast<double>(stage.bytes_read) / 1e6;
    }
    m["pipeline.import_s"] = import_report->seconds;
    m["pipeline.align_s"] = align_report->seconds;
    m["pipeline.sort_phase1_s"] = sort_report->phase1_seconds;
    m["pipeline.sort_merge_s"] = sort_report->merge_seconds;
    m["pipeline.dedup_s"] = dedup_report->seconds;
    m["pipeline.dedup.duplicate_share"] =
        dedup_report->total == 0 ? 0
                                 : static_cast<double>(dedup_report->duplicates) /
                                       static_cast<double>(dedup_report->total);
    const double call_s = call_report->seconds;
    m["variant.call_s"] = call_s;
    m["variant.reads_per_s"] = static_cast<double>(call_report->reads_used) / call_s;
    m["variant.columns_per_s"] = static_cast<double>(call_report->columns_piled) / call_s;
    const uint64_t considered = call_report->reads_used + call_report->reads_skipped;
    m["variant.skipped_share"] =
        considered == 0 ? 0
                        : static_cast<double>(call_report->reads_skipped) /
                              static_cast<double>(considered);
    m["compress.ratio"] = static_cast<double>(import_report->bytes_in) /
                          static_cast<double>(import_report->bytes_out);
    AddStorageMetrics(timed->TakeTimings(), device_stats, &cache_stats, &m);
    AddAlignMetrics(timed_aligner->timings(), kThreads, align_report->seconds, &m);
    AddTraceMetrics(tracer->Snapshot(), root.id(), wall_ns, &m);
    return it;
  }

  InputSizes sizes() const override { return sizes_; }

 private:
  genome::ReferenceGenome reference_;
  genome::DonorGenome donor_;
  std::unique_ptr<align::SeedIndex> index_;
  std::unique_ptr<align::SnapAligner> aligner_;
  std::unique_ptr<storage::MemoryStore> input_;
  InputSizes sizes_;
  std::optional<uint64_t> vcf_digest_;
};

}  // namespace

std::unique_ptr<Workload> MakeFastqToVcf() { return std::make_unique<FastqToVcf>(); }

}  // namespace perfbench
