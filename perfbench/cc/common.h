// Shared types of the benchmark driver: the workload interface, one iteration's
// measurements, and the helpers that turn layer reports into named metrics.

#ifndef PERFBENCH_CC_COMMON_H_
#define PERFBENCH_CC_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/cc/decorators.h"
#include "perfbench/cc/trace.h"
#include "src/storage/ceph_sim.h"
#include "src/util/result.h"

namespace perfbench {

using Metrics = std::map<std::string, double>;

// What a run's record states about its inputs.
struct InputSizes {
  uint64_t reads = 0;
  uint64_t bases = 0;
  uint64_t fastq_bytes = 0;
  uint64_t seed_index_bytes = 0;
  uint64_t dataset_bytes = 0;       // AGD bytes the workload reads or writes
  uint64_t cache_budget_bytes = 0;  // 0: no cache tier
};

// One timed pass of a workload, plus its untimed correctness gates.
struct Iteration {
  double wall_s = 0;
  double peak_rss_mb = 0;     // peak resident set of the timed part of the pass
  uint64_t device_bytes = 0;  // simulated device bytes read plus written
  uint64_t device_ops = 0;    // simulated device read plus write operations
  uint64_t output_digest = 0; // digest of the pass's outputs (VCF, results, chunks)
  double accuracy = 0;        // workload-specific output accuracy, see README
  uint64_t attempted = 0;     // operations attempted (tool calls, groups, sessions, gates)
  uint64_t failed = 0;        // give-ups, quarantined chunks, failed sessions/leases/gates
  std::vector<std::string> gate_failures;
  Metrics layer;  // per-layer metrics, filled only by traced iterations
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Generates the program's inputs from `seed` and stages them; timed as setup_s.
  virtual persona::Status Setup(uint64_t seed, bool tiny) = 0;
  // Builds the correctness oracles from the staged inputs; untimed, once per run.
  virtual persona::Status BuildOracles() = 0;
  // Damages one staged input chunk so that the workload's gate must trip.
  virtual persona::Status CorruptStagedChunk() = 0;
  // One pass. With `tracer` enabled, the pass runs behind the timing decorators and
  // fills Iteration::layer; otherwise the program runs exactly as a user calls it.
  virtual persona::Result<Iteration> RunOnce(Tracer* tracer) = 0;
  virtual InputSizes sizes() const = 0;
};

std::unique_ptr<Workload> MakeFastqToVcf();
std::unique_ptr<Workload> MakeClusterAlign();
std::unique_ptr<Workload> MakeStreamIngest();

// Every OSD node of the simulated cluster store: 7 nodes, 3-way replication.
persona::storage::CephSimConfig CephConfig(uint64_t per_node_mb_per_s);

// Peak resident set of the process since the last ResetPeakRss, in MB.
void ResetPeakRss();
double PeakRssMb();
// Value of the first line of a /proc-style file that starts with `key`, after its ':'.
std::string ProcField(const std::string& path, const std::string& key);

double Median(std::vector<double> values);
// Linear-interpolated quantile, q in [0, 1]; 0 for an empty set.
double Quantile(std::vector<double> values, double q);
// Storage-layer metrics from one pass: call timings at the device boundary, the
// device's counter delta, and the cache tier's counter delta (absent: nullptr).
void AddStorageMetrics(const TimedStore::Timings& timings,
                       const persona::storage::StoreStats& device,
                       const persona::storage::StoreStats* cache, Metrics* out);
// Align-layer metrics from the decorator's counters; `threads` x `wall_s` is the
// executor capacity the align busy time is a share of.
void AddAlignMetrics(const TimedAligner::Timings& timings, double threads, double wall_s,
                     Metrics* out);
// Self time of each layer from the pass's spans, plus the share of `wall_ns` the
// top-level spans under `root` cover.
void AddTraceMetrics(const std::vector<Span>& spans, uint64_t root, int64_t wall_ns,
                     Metrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_CC_COMMON_H_
