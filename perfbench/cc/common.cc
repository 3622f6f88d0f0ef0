#include "perfbench/cc/common.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>

namespace perfbench {

namespace storage = persona::storage;

storage::CephSimConfig CephConfig(uint64_t per_node_mb_per_s) {
  storage::CephSimConfig config;
  config.num_osd_nodes = 7;
  config.replication = 3;
  config.per_node_bandwidth = per_node_mb_per_s * 1000 * 1000;
  return config;
}

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // resets VmHWM to the current RSS
}

double PeakRssMb() {
  return std::atof(ProcField("/proc/self/status", "VmHWM").c_str()) / 1024.0;  // "123 kB"
}

std::string ProcField(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const size_t colon = line.find(':');
      std::string value = colon == std::string::npos ? "" : line.substr(colon + 1);
      value.erase(0, value.find_first_not_of(" \t"));
      return value;
    }
  }
  return "";
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

void AddStorageMetrics(const TimedStore::Timings& timings, const storage::StoreStats& device,
                       const storage::StoreStats* cache, Metrics* out) {
  Metrics& m = *out;
  m["storage.get_ms.p50"] = Quantile(timings.get_ms, 0.5);
  m["storage.get_ms.p99"] = Quantile(timings.get_ms, 0.99);
  m["storage.put_ms.p50"] = Quantile(timings.put_ms, 0.5);
  m["storage.put_ms.p99"] = Quantile(timings.put_ms, 0.99);
  m["storage.busy_s"] = static_cast<double>(UnionNs(timings.busy)) / 1e9;
  m["storage.device_read_mb"] = static_cast<double>(device.bytes_read) / 1e6;
  m["storage.device_write_mb"] = static_cast<double>(device.bytes_written) / 1e6;
  m["storage.device_read_ops"] = static_cast<double>(device.read_ops);
  m["storage.device_write_ops"] = static_cast<double>(device.write_ops);
  // The cache tier's counters include its backend's, so the outermost store counts all.
  const storage::StoreStats& outer = cache != nullptr ? *cache : device;
  m["storage.retries"] = static_cast<double>(outer.retries);
  m["storage.give_ups"] = static_cast<double>(outer.give_ups);
  if (cache != nullptr) {
    const uint64_t lookups = cache->cache_hits + cache->cache_misses;
    m["storage.cache_hit_ratio"] =
        lookups == 0 ? 0 : static_cast<double>(cache->cache_hits) / static_cast<double>(lookups);
    m["storage.cache_hit_mb"] = static_cast<double>(cache->cache_hit_bytes) / 1e6;
    m["storage.cache_evictions"] = static_cast<double>(cache->cache_evictions);
  }
}

void AddAlignMetrics(const TimedAligner::Timings& timings, double threads, double wall_s,
                     Metrics* out) {
  Metrics& m = *out;
  double busy_s = 0;
  for (const Interval& call : timings.calls) {
    busy_s += static_cast<double>(call.second - call.first) / 1e9;
  }
  const auto& p = timings.profile;
  m["align.busy_s"] = busy_s;
  m["align.seed_s"] = static_cast<double>(p.seed_ns) / 1e9;
  m["align.verify_s"] = static_cast<double>(p.verify_ns) / 1e9;
  m["align.kernel_mbases_per_s"] =
      busy_s > 0 ? static_cast<double>(p.bases) / busy_s / 1e6 : 0;
  m["align.candidates_per_read"] =
      p.reads > 0 ? static_cast<double>(p.candidates) / static_cast<double>(p.reads) : 0;
  m["dataflow.executor_busy_share"] = threads * wall_s > 0 ? busy_s / (threads * wall_s) : 0;
}

void AddTraceMetrics(const std::vector<Span>& spans, uint64_t root, int64_t wall_ns,
                     Metrics* out) {
  Metrics& m = *out;
  for (const auto& [layer, seconds] : LayerSelfSeconds(spans)) {
    m["trace.self_s." + layer] = seconds;
  }
  std::vector<Interval> top;
  for (const Span& span : spans) {
    if (span.parent == root) {
      top.emplace_back(span.start_ns, span.end_ns);
    }
  }
  m["trace.tool_cover_share"] =
      wall_ns > 0 ? static_cast<double>(UnionNs(std::move(top))) / static_cast<double>(wall_ns)
                  : 0;
  m["trace.spans"] = static_cast<double>(spans.size());
}

}  // namespace perfbench
