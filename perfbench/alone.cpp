// Alone replays: the layers' public entry points called directly on a
// workload's own inputs, so the traced run can set each stage's in-situ time
// (read from the pipeline's reports) against the same work done alone.

#include <algorithm>
#include <vector>

#include "bench.hpp"
#include "rapids/core/gather.hpp"
#include "rapids/ec/reed_solomon.hpp"
#include "rapids/mgard/refactorer.hpp"
#include "rapids/net/transfer_sim.hpp"
#include "rapids/simd/gf256_kernels.hpp"
#include "rapids/solver/aco.hpp"
#include "rapids/util/crc32c.hpp"

namespace rapids::perfbench {

namespace {

constexpr int kReps = 3;

/// Median wall seconds of kReps calls of `fn`, each recorded as a span.
template <class Fn>
f64 timed(SpanRecorder& rec, const char* name, Fn&& fn) {
  std::vector<f64> s;
  for (int i = 0; i < kReps; ++i) {
    ScopedSpan span(rec, name, 0, /*op=*/true);
    fn();
    s.push_back(static_cast<f64>(span.finish()) / 1e9);
  }
  return median(s);
}

std::span<const u8> as_u8(const Bytes& b) {
  return {reinterpret_cast<const u8*>(b.data()), b.size()};
}

}  // namespace

AloneTimes replay_alone(const Field& field, const core::PipelineConfig& config,
                        const core::ObjectRecord& record, ThreadPool& pool,
                        SpanRecorder& rec) {
  AloneTimes t;
  const mgard::Refactorer rf(config.refactor, &pool);
  mgard::RefactoredObject obj;
  t.refactor_s = timed(rec, "alone.mgard.refactor",
                       [&] { obj = rf.refactor(field.data, field.dims, "alone"); });
  std::vector<Bytes> payloads;
  for (const auto& lvl : obj.levels) payloads.push_back(lvl.payload);
  t.reconstruct_s = timed(rec, "alone.mgard.reconstruct",
                          [&] { (void)rf.reconstruct(obj, payloads); });

  // Erasure coding with the record's per-level parity counts.
  const u32 n = kSystems;
  const std::size_t levels = std::min(payloads.size(), record.ft.size());
  u64 bytes = 0;
  std::vector<std::vector<ec::Fragment>> frags(levels);
  for (std::size_t j = 0; j < levels; ++j) bytes += payloads[j].size();
  const f64 enc_s = timed(rec, "alone.ec.encode", [&] {
    for (std::size_t j = 0; j < levels; ++j) {
      const ec::ReedSolomon rs(n - record.ft[j], record.ft[j], record.matrix_kind);
      frags[j] = rs.encode(as_u8(payloads[j]), "alone", static_cast<u32>(j), &pool);
    }
  });
  t.ec_encode_gbps = ratio(static_cast<f64>(bytes) / 1e9, enc_s);
  // Decode from the parity-heaviest survivor set: drop the first m data
  // fragments, so the matrix inversion and application do the most work.
  const f64 dec_s = timed(rec, "alone.ec.decode", [&] {
    for (std::size_t j = 0; j < levels; ++j) {
      const ec::ReedSolomon rs(n - record.ft[j], record.ft[j], record.matrix_kind);
      const std::span<const ec::Fragment> all(frags[j]);
      (void)rs.decode(all.subspan(record.ft[j]), &pool);
    }
  });
  t.ec_decode_gbps = ratio(static_cast<f64>(bytes) / 1e9, dec_s);

  // SIMD kernels over the workload's own level bytes (at least 32 MB each).
  std::vector<u8> src;
  for (const auto& p : payloads) {
    const auto v = as_u8(p);
    src.insert(src.end(), v.begin(), v.end());
  }
  if (src.empty()) src.assign(1, 0);
  const u64 passes = std::max<u64>(1, (32ull << 20) / src.size());
  std::vector<u8> dst(src.size(), 0);
  const auto& gf = simd::active_kernels();
  const f64 gf_s = timed(rec, "alone.simd.gf_mul_acc", [&] {
    for (u64 p = 0; p < passes; ++p)
      gf.mul_acc(dst.data(), src.data(), src.size(), static_cast<u8>(0x53 + p));
  });
  t.gf_mul_acc_gbps = ratio(static_cast<f64>(passes * src.size()) / 1e9, gf_s);
  u32 crc = 0;
  const f64 crc_s = timed(rec, "alone.simd.crc32c", [&] {
    for (u64 p = 0; p < passes; ++p) crc = crc32c(src.data(), src.size(), crc);
  });
  t.crc32c_gbps = ratio(static_cast<f64>(passes * src.size()) / 1e9, crc_s);
  return t;
}

AcoAlone replay_aco(const core::ObjectRecord& record, core::RapidsPipeline& pipe,
                    storage::Cluster& cluster, SpanRecorder& rec) {
  core::GatherProblem problem;
  problem.n = cluster.size();
  problem.m = record.ft;
  problem.level_sizes = record.level_sizes;
  problem.bandwidths = pipe.bandwidth_estimates();
  for (u32 i = 0; i < cluster.size(); ++i)
    problem.available.push_back(cluster.system(i).available());
  const auto& aco = pipe.config().aco;

  AcoAlone out;
  out.plan_ms = timed(rec, "alone.solver.optimized_plan",
                      [&] { (void)core::optimized_plan(problem, aco); }) * 1e3;

  // optimized_plan does not report its iteration count; run the same solver
  // on the same groups (one per recoverable level, k_j fragments each, any
  // available system) and objective to read it.
  const u32 levels = problem.recoverable_levels();
  std::vector<u32> needed;
  for (u32 j = 0; j < levels; ++j) needed.push_back(problem.n - problem.m[j]);
  std::vector<std::vector<bool>> allowed(levels, problem.available);
  const f64 max_bw = *std::max_element(problem.bandwidths.begin(), problem.bandwidths.end());
  std::vector<f64> bias(problem.n, 1e-6);
  for (u32 i = 0; i < problem.n; ++i)
    if (problem.available[i]) bias[i] = problem.bandwidths[i] / max_bw;
  const solver::SubsetAco solver(problem.n, needed, allowed, bias);
  const auto objective = [&](const solver::Selection& s) {
    return net::equal_share_mean_time(core::plan_transfers(problem, s), problem.bandwidths);
  };
  const auto warm = core::naive_plan(problem);
  out.iterations = static_cast<f64>(solver.solve(objective, aco, warm.systems_per_level)
                                        .iterations_run);
  return out;
}

}  // namespace rapids::perfbench
