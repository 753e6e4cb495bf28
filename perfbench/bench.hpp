#pragma once

/// \file bench.hpp
/// Shared pieces of the benchmark: command-line arguments, the result
/// record every workload fills, sample statistics, the seeded inputs, and
/// the "world" (pool + cluster + metadata store + pipeline) a workload runs
/// against.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rapids/core/pipeline.hpp"
#include "rapids/kvstore/db.hpp"
#include "rapids/parallel/thread_pool.hpp"
#include "rapids/storage/cluster.hpp"
#include "trace.hpp"

namespace rapids::perfbench {

struct Args {
  std::string workload;
  u64 seed = 1;
  f64 seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< workspaces and trace files go below here
};

/// What one run reports. Correctness violations are collected as messages
/// and make the run fail.
struct Result {
  struct Metric {
    f64 value = 0.0;
    std::string unit;
  };
  u64 attempted = 0;
  u64 failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> violations;
  /// Workload facts for the context block (sizes, hit ratio, ...).
  std::map<std::string, std::string> context;

  void set(const std::string& name, f64 value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void violate(const std::string& what);
  /// Count one attempted operation; a failed one also records a violation.
  void op(bool ok, const std::string& what_if_failed);
  bool correct() const { return violations.empty(); }
};

// --- statistics -----------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
f64 quantile(std::vector<f64> v, f64 q);
inline f64 median(std::vector<f64> v) { return quantile(std::move(v), 0.5); }
inline f64 ratio(f64 num, f64 den) { return den != 0.0 ? num / den : 0.0; }

/// Process CPU seconds (user + system) so far.
f64 process_cpu_seconds();
/// Peak resident set of this process, MB.
f64 peak_rss_mb();
/// Total size of the regular files below `dir` (0 if absent).
u64 directory_bytes(const std::string& dir);

// --- inputs ---------------------------------------------------------------

/// One generated field. The dataset rotates hurricane -> NYX -> SCALE.
struct Field {
  std::string dataset;
  mgard::Dims dims;
  std::vector<f32> data;
  u64 input_bytes() const { return data.size() * sizeof(f32); }
};

/// Field `index` of the workload seeded with `seed`; deterministic.
Field make_field(u64 seed, u32 index, u64 extent, ThreadPool* pool);

/// Mix a run seed with a stream tag into an independent 64-bit seed.
u64 mix_seed(u64 seed, u64 tag);

// --- world ----------------------------------------------------------------

constexpr u32 kSystems = 16;
constexpr unsigned kThreads = 4;
/// The storage fleet is part of the scenario, not of the inputs: its
/// bandwidths stay fixed across seeds so simulated latencies compare.
constexpr u64 kClusterSeed = 42;

/// A fresh pipeline over a fleet and an on-disk metadata store under `dir`
/// (removed on destruction). Fragments go to per-system directories unless
/// `fragments_on_disk` is false (serve keeps them in memory: its set-up and
/// drills then do not depend on how fast the host's disk creates files).
/// With a recorder, metadata calls go through a TracedKv decorator.
class World {
 public:
  World(std::string dir, core::PipelineConfig config, SpanRecorder* rec,
        unsigned threads = kThreads, bool fragments_on_disk = true);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  ThreadPool& pool() { return pool_; }
  storage::Cluster& cluster() { return cluster_; }
  core::RapidsPipeline& pipeline() { return *pipeline_; }
  kv::KvStore& kv() { return traced_ ? static_cast<kv::KvStore&>(*traced_) : *db_; }
  /// Decorator counters (zeros when untraced).
  TracedKv::Counters kv_counters() const {
    return traced_ ? traced_->counters() : TracedKv::Counters{};
  }
  /// Bytes of every fragment file on the fleet's disks.
  u64 fragment_disk_bytes() const;

 private:
  std::string dir_;
  ThreadPool pool_;
  storage::Cluster cluster_;
  std::unique_ptr<kv::Db> db_;
  std::unique_ptr<TracedKv> traced_;
  std::unique_ptr<core::RapidsPipeline> pipeline_;
};

/// Expected stored fragment bytes (data + parity) of one record: every level
/// j is padded to k_j = n - m_j equal fragments and n fragments are stored.
u64 expected_stored_bytes(const core::ObjectRecord& record, u32 n);

// --- workloads ------------------------------------------------------------

void run_ingest(const Args& args, Result& result);
void run_retrieve(const Args& args, Result& result);
void run_serve(const Args& args, Result& result);

// --- alone replays (traced runs only) ---------------------------------------

struct AloneTimes {
  f64 refactor_s = 0.0;      ///< Refactorer::refactor, median
  f64 reconstruct_s = 0.0;   ///< Refactorer::reconstruct of every level, median
  f64 ec_encode_gbps = 0.0;  ///< ReedSolomon::encode over the level payloads
  f64 ec_decode_gbps = 0.0;  ///< ReedSolomon::decode from parity-heavy survivors
  f64 gf_mul_acc_gbps = 0.0;
  f64 crc32c_gbps = 0.0;
};

/// Replay the refactor / EC / SIMD kernels alone on `field`, with the
/// pipeline's refactor options and the FT configuration of `record`, on
/// `pool`. Each replay is recorded as a span.
AloneTimes replay_alone(const Field& field, const core::PipelineConfig& config,
                        const core::ObjectRecord& record, ThreadPool& pool,
                        SpanRecorder& rec);

struct AcoAlone {
  f64 plan_ms = 0.0;      ///< core::optimized_plan wall time, median
  f64 iterations = 0.0;   ///< iterations the ACO solver ran
};

/// Replay gather planning alone on the problem a restore of `record` would
/// face now (the pipeline's bandwidth estimates, the fleet's availability).
AcoAlone replay_aco(const core::ObjectRecord& record, core::RapidsPipeline& pipe,
                    storage::Cluster& cluster, SpanRecorder& rec);

}  // namespace rapids::perfbench
