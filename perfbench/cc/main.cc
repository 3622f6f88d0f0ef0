// Repository benchmark driver. One invocation runs one seeded workload for a fixed
// measurement time and prints, as its last stdout line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}
// With --trace 0 the metrics are the end-to-end ones, measured with no decorator or
// span in the program's path; with --trace 1 they are the per-layer ones, taken from
// traced passes that alternate with untraced ones (their ratio is the overhead).
//
// Usage: perfbench --workload <fastq_to_vcf|cluster_align|stream_ingest> --seed <n>
//                  --seconds <s> --trace <0|1> [--out-dir <dir>] [--tiny] [--corrupt]

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <thread>

#include "perfbench/cc/common.h"
#include "src/util/file_util.h"
#include "src/util/json.h"
#include "src/util/simd.h"
#include "src/util/stopwatch.h"

namespace perfbench {
namespace {

using persona::json::Object;
using persona::json::Value;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"mbases_per_s", "Mbase/s"},
    {"device_bytes_per_base", "B/base"},
    {"peak_rss_mb", "MB"},
    {"output_accuracy", "fraction"},
};

// Every per-layer metric, on every workload; a layer a workload does not exercise
// reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"storage.get_ms.p50", "ms"},
    {"storage.get_ms.p99", "ms"},
    {"storage.put_ms.p50", "ms"},
    {"storage.put_ms.p99", "ms"},
    {"storage.busy_s", "s"},
    {"storage.device_read_mb", "MB"},
    {"storage.device_write_mb", "MB"},
    {"storage.device_read_ops", "count"},
    {"storage.device_write_ops", "count"},
    {"storage.cache_hit_ratio", "fraction"},
    {"storage.cache_hit_mb", "MB"},
    {"storage.cache_evictions", "count"},
    {"storage.retries", "count"},
    {"storage.give_ups", "count"},
    {"compress.ratio", "ratio"},
    {"compress.encode_busy_s", "s"},
    {"align.busy_s", "s"},
    {"align.seed_s", "s"},
    {"align.verify_s", "s"},
    {"align.kernel_mbases_per_s", "Mbase/s"},
    {"align.candidates_per_read", "count"},
    {"dataflow.executor_busy_share", "fraction"},
    {"pipeline.import_s", "s"},
    {"pipeline.align_s", "s"},
    {"pipeline.sort_phase1_s", "s"},
    {"pipeline.sort_merge_s", "s"},
    {"pipeline.dedup_s", "s"},
    {"pipeline.dedup.duplicate_share", "fraction"},
    {"variant.call_s", "s"},
    {"variant.reads_per_s", "1/s"},
    {"variant.columns_per_s", "1/s"},
    {"variant.skipped_share", "fraction"},
    {"ingest.handshake_ms", "ms"},
    {"ingest.send_blocked_s", "s"},
    {"ingest.drain_ms", "ms"},
    {"ingest.session_s", "s"},
    {"ingest.peak_records_in_flight", "count"},
    {"ingest.stage.record-source.busy_s", "s"},
    {"ingest.stage.record-source.input_wait_s", "s"},
    {"ingest.stage.record-source.output_wait_s", "s"},
    {"ingest.stage.agd-build.busy_s", "s"},
    {"ingest.stage.agd-build.input_wait_s", "s"},
    {"ingest.stage.agd-build.output_wait_s", "s"},
    {"ingest.stage.serializer.busy_s", "s"},
    {"ingest.stage.serializer.input_wait_s", "s"},
    {"ingest.stage.serializer.output_wait_s", "s"},
    {"ingest.stage.writer.busy_s", "s"},
    {"ingest.stage.writer.input_wait_s", "s"},
    {"ingest.stage.writer.output_wait_s", "s"},
    {"cluster.s_per_group", "s"},
    {"cluster.node_idle_share", "fraction"},
    {"cluster.idle_gap_ms.p50", "ms"},
    {"cluster.idle_gap_ms.p99", "ms"},
    {"cluster.reissues", "count"},
    {"cluster.expired_reclaims", "count"},
    {"cluster.duplicate_completions", "count"},
    {"trace.self_s.bench", "s"},
    {"trace.self_s.pipeline", "s"},
    {"trace.self_s.variant", "s"},
    {"trace.self_s.storage", "s"},
    {"trace.self_s.align", "s"},
    {"trace.self_s.ingest", "s"},
    {"trace.self_s.cluster", "s"},
    {"trace.tool_cover_share", "fraction"},
    {"trace.spans", "count"},
    {"trace.overhead_share", "fraction"},
};

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool corrupt = false;
  std::string out_dir = ".bench_build/perfbench";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <fastq_to_vcf|cluster_align|"
               "stream_ingest> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--tiny] [--corrupt]\n",
               why);
  std::exit(2);
}

Config ParseArgs(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(("missing value for " + arg).c_str());
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      config.workload = value();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      config.trace = value() == "1";
    } else if (arg == "--out-dir") {
      config.out_dir = value();
    } else if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--corrupt") {
      config.corrupt = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (config.seconds <= 0) {
    Usage("--seconds must be positive");
  }
  return config;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "fastq_to_vcf") {
    return MakeFastqToVcf();
  }
  if (name == "cluster_align") {
    return MakeClusterAlign();
  }
  if (name == "stream_ingest") {
    return MakeStreamIngest();
  }
  Usage(("unknown workload '" + name + "'").c_str());
}

std::string ReadSmallFile(const std::string& path) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  while (!text.empty() && (text.back() == '\n' || text.back() == ' ')) {
    text.pop_back();
  }
  return text;
}

Object HostFingerprint() {
  Object host;
  host["cpu_model"] = Value(ProcField("/proc/cpuinfo", "model name"));
  host["nproc"] = Value(static_cast<int64_t>(std::thread::hardware_concurrency()));
  // The last-level cache is the highest-level unified cache of CPU 0.
  std::string llc;
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/";
    if (!persona::FileExists(dir + "size")) {
      break;
    }
    if (ReadSmallFile(dir + "type") != "Instruction") {
      llc = ReadSmallFile(dir + "size");
    }
  }
  host["llc_size"] = Value(llc);
  host["simd_level"] = Value(persona::SimdLevelName(persona::ActiveSimdLevel()));
  host["compiler"] = Value(PERFBENCH_COMPILER);
  host["build_type"] = Value(PERFBENCH_BUILD_TYPE);
  return host;
}

Value MetricsJson(const Metrics& values, std::span<const MetricSpec> specs) {
  Object out;
  for (const MetricSpec& spec : specs) {
    auto it = values.find(spec.name);
    Object metric;
    metric["value"] = Value(it == values.end() ? 0.0 : it->second);
    metric["unit"] = Value(spec.unit);
    out[spec.name] = Value(std::move(metric));
  }
  return Value(std::move(out));
}

int Run(const Config& config) {
  // --- Set-up, several times; the last one's inputs are the ones measured. ---
  const int setups = config.tiny ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < setups; ++i) {
    workload.reset();
    workload = MakeWorkload(config.workload);
    persona::Stopwatch timer;
    persona::Status status = workload->Setup(config.seed, config.tiny);
    setup_s.push_back(timer.ElapsedSeconds());
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  persona::Status status = workload->BuildOracles();
  if (status.ok() && config.corrupt) {
    status = workload->CorruptStagedChunk();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: oracle set-up failed: %s\n", status.ToString().c_str());
    return 1;
  }

  // --- Measurement. ---
  Tracer untraced(false);
  Tracer traced(true);
  std::vector<Iteration> plain;
  std::vector<Iteration> with_trace;
  std::vector<Span> last_spans;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  persona::Stopwatch clock;
  for (size_t pass = 0;; ++pass) {
    const bool trace_pass = config.trace && pass % 2 == 1;
    traced.Clear();
    ResetPeakRss();
    persona::Result<Iteration> result = workload->RunOnce(trace_pass ? &traced : &untraced);
    if (!result.ok()) {
      ++attempted;
      ++failed;
      failures.push_back(result.status().ToString());
      break;
    }
    attempted += result->attempted;
    failed += result->failed;
    failures.insert(failures.end(), result->gate_failures.begin(),
                    result->gate_failures.end());
    if (trace_pass) {
      last_spans = traced.Snapshot();
      with_trace.push_back(std::move(*result));
    } else {
      plain.push_back(std::move(*result));
    }
    const bool enough = !plain.empty() && (!config.trace || !with_trace.empty());
    if (!failures.empty() || (enough && clock.ElapsedSeconds() >= config.seconds)) {
      break;
    }
  }
  const InputSizes sizes = workload->sizes();

  Metrics e2e;
  {
    std::vector<double> wall, rate, bytes_per_base, accuracy;
    for (const Iteration& it : plain) {
      wall.push_back(it.wall_s);
      rate.push_back(it.wall_s > 0 ? static_cast<double>(sizes.bases) / it.wall_s / 1e6 : 0);
      bytes_per_base.push_back(static_cast<double>(it.device_bytes) /
                               static_cast<double>(sizes.bases));
      accuracy.push_back(it.accuracy);
    }
    e2e["setup_s"] = Median(setup_s);
    e2e["wall_s"] = Median(wall);
    e2e["mbases_per_s"] = Median(rate);
    e2e["device_bytes_per_base"] = Median(bytes_per_base);
    // Later passes inherit the allocator's per-thread arenas from earlier ones and
    // grow with each pass, so the first pass stands for a user's fresh process.
    e2e["peak_rss_mb"] = plain.empty() ? 0 : plain.front().peak_rss_mb;
    e2e["output_accuracy"] = Median(accuracy);
  }
  Metrics layer;
  if (config.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      std::vector<double> values;
      for (const Iteration& it : with_trace) {
        auto found = it.layer.find(spec.name);
        values.push_back(found == it.layer.end() ? 0.0 : found->second);
      }
      layer[spec.name] = Median(values);
    }
    std::vector<double> traced_wall;
    for (const Iteration& it : with_trace) {
      traced_wall.push_back(it.wall_s);
    }
    layer["trace.overhead_share"] =
        e2e["wall_s"] > 0 ? Median(traced_wall) / e2e["wall_s"] - 1 : 0;
  }

  // --- Machine-readable record (and the Chrome trace of the last traced pass). ---
  const bool correct = failures.empty() && failed == 0;
  const std::string tag = config.workload + "-seed" + std::to_string(config.seed) +
                          (config.tiny ? "-tiny" : "");
  Object record;
  record["workload"] = Value(config.workload);
  record["seed"] = Value(config.seed);
  record["seconds"] = Value(config.seconds);
  record["trace"] = Value(config.trace);
  record["host"] = Value(HostFingerprint());
  Object input;
  input["reads"] = Value(sizes.reads);
  input["bases"] = Value(sizes.bases);
  input["fastq_bytes"] = Value(sizes.fastq_bytes);
  input["seed_index_bytes"] = Value(sizes.seed_index_bytes);
  input["dataset_bytes"] = Value(sizes.dataset_bytes);
  input["cache_budget_bytes"] = Value(sizes.cache_budget_bytes);
  record["inputs"] = Value(std::move(input));
  persona::json::Array setups_json(setup_s.begin(), setup_s.end());
  record["setup_s"] = Value(std::move(setups_json));
  // Every pass, untraced ones first, so wrapped and unwrapped passes can be compared.
  persona::json::Array passes;
  for (const auto* list : {&plain, &with_trace}) {
    for (const Iteration& it : *list) {
      Object pass;
      pass["traced"] = Value(list == &with_trace);
      pass["wall_s"] = Value(it.wall_s);
      pass["peak_rss_mb"] = Value(it.peak_rss_mb);
      pass["device_bytes"] = Value(it.device_bytes);
      pass["device_ops"] = Value(it.device_ops);
      pass["output_digest"] = Value(std::to_string(it.output_digest));
      if (!it.layer.empty()) {
        Object layer_json;
        for (const auto& [name, value] : it.layer) {
          layer_json[name] = Value(value);
        }
        pass["per_layer"] = Value(std::move(layer_json));
      }
      passes.push_back(Value(std::move(pass)));
    }
  }
  record["passes"] = Value(std::move(passes));
  record["failed_share"] =
      Value(attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted));
  persona::json::Array failures_json(failures.begin(), failures.end());
  record["failures"] = Value(std::move(failures_json));
  record["end_to_end"] = MetricsJson(e2e, kEndToEnd);
  if (config.trace) {
    record["per_layer"] = MetricsJson(layer, kPerLayer);
  }
  persona::Status written = persona::MakeDirectories(config.out_dir);
  if (written.ok()) {
    written = persona::WriteStringToFile(
        config.out_dir + "/record-" + tag + (config.trace ? "-trace" : "") + ".json",
        Value(std::move(record)).Dump(2));
  }
  if (written.ok() && config.trace && !last_spans.empty()) {
    written = WriteChromeTrace(last_spans, config.out_dir + "/trace-" + tag + ".json");
  }
  if (!written.ok()) {
    std::fprintf(stderr, "perfbench: writing the run record failed: %s\n",
                 written.ToString().c_str());
    return 1;
  }

  for (const std::string& failure : failures) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", failure.c_str());
  }
  Object line;
  line["correct"] = Value(correct);
  line["attempted"] = Value(std::max<uint64_t>(attempted, 1));
  line["failed"] = Value(failed);
  line["metrics"] = config.trace ? MetricsJson(layer, kPerLayer) : MetricsJson(e2e, kEndToEnd);
  std::printf("%s\n", Value(std::move(line)).Dump().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
