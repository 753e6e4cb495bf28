// Tests for the prepare and restore dataflow: the byte-identity contract of
// prepare and restore against a staged, stage-by-stage oracle at every level
// prefix, and restore() as a one-shot deep refine.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>

#include "rapids/core/ft_optimizer.hpp"
#include "rapids/core/pipeline.hpp"
#include "rapids/data/datasets.hpp"
#include "rapids/data/stats.hpp"
#include "rapids/kvstore/db.hpp"
#include "rapids/parallel/thread_pool.hpp"
#include "rapids/storage/failure.hpp"
#include "rapids/storage/placement.hpp"

namespace rapids::core {
namespace {

namespace fs = std::filesystem;
using mgard::Dims;

// ---------------------------------- byte identity against a staged oracle

/// One self-contained pipeline environment (cluster + metadata store), so
/// runs under comparison never share state.
struct Env {
  explicit Env(const std::string& tag) {
    dir = (fs::temp_directory_path() / ("rapids_stream_" + tag)).string();
    fs::remove_all(dir);
    cluster = std::make_unique<storage::Cluster>(
        storage::ClusterConfig{16, 0.01, 42});
    db = kv::Db::open(dir);
  }
  ~Env() {
    db.reset();
    fs::remove_all(dir);
  }
  std::string dir;
  std::unique_ptr<storage::Cluster> cluster;
  std::unique_ptr<kv::Db> db;
};

PipelineConfig fast_config() {
  PipelineConfig cfg;
  cfg.refactor.decomp_levels = 3;
  cfg.refactor.num_retrieval_levels = 4;
  cfg.refactor.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-6};
  cfg.aco.iterations = 20;
  return cfg;
}

/// What prepare must leave behind on a healthy cluster, computed stage by
/// stage with no pipeline: refactor everything, optimize the FT
/// configuration, erasure-code every level whole, and place fragment i of
/// level j where the placement policy puts it.
struct StagedOracle {
  mgard::RefactoredObject object;  ///< with payloads
  Bytes record;                    ///< serialized ObjectRecord
  /// Fragment key -> (system, serialized fragment).
  std::map<std::string, std::pair<u32, Bytes>> fragments;
};

StagedOracle staged_oracle(const PipelineConfig& cfg,
                           const storage::Cluster& cluster,
                           std::span<const f32> field, Dims dims,
                           const std::string& name) {
  StagedOracle oracle;
  oracle.object = mgard::Refactorer(cfg.refactor).refactor(field, dims, name);
  const mgard::RefactoredObject& obj = oracle.object;
  const u32 n = cluster.size();

  FtProblem problem;
  problem.n = n;
  problem.p = cluster.config().failure_prob;
  problem.original_size = obj.original_bytes();
  problem.overhead_budget = cfg.overhead_budget;
  for (u32 j = 0; j < obj.levels.size(); ++j) {
    problem.level_sizes.push_back(obj.level_bytes(j));
    problem.level_errors.push_back(obj.rel_error_bound(j + 1));
  }
  const auto solution = ft_optimize_heuristic(problem);
  EXPECT_TRUE(solution.has_value());
  if (!solution) return oracle;

  ObjectRecord record;
  record.meta = obj;
  record.ft = solution->m;
  record.level_sizes = problem.level_sizes;
  record.matrix_kind = cfg.matrix_kind;
  record.placement = cfg.placement;
  record.planned_p = cluster.config().failure_prob;
  record.planned_error = solution->expected_error;
  oracle.record = record.serialize();

  for (u32 j = 0; j < obj.levels.size(); ++j) {
    const u32 m = solution->m[j];
    const ec::ReedSolomon rs(n - m, m, cfg.matrix_kind);
    const Bytes& payload = obj.levels[j].payload;
    const auto frags = rs.encode(
        {reinterpret_cast<const u8*>(payload.data()), payload.size()}, name, j);
    for (u32 idx = 0; idx < frags.size(); ++idx) {
      const u32 sys = storage::place_fragment(cfg.placement, n, j, idx);
      oracle.fragments[frags[idx].id.key()] = {sys, frags[idx].serialize()};
    }
  }
  return oracle;
}

/// Assert that `env` holds exactly the oracle's state for `name`: the
/// serialized object record, every fragment location, and every stored
/// fragment's serialized bytes (header + payload + CRC).
void expect_oracle_state(const StagedOracle& oracle, Env& env,
                         const std::string& name) {
  const auto raw = env.db->get("obj/" + name);
  ASSERT_TRUE(raw.has_value()) << name;
  EXPECT_EQ(Bytes(reinterpret_cast<const std::byte*>(raw->data()),
                  reinterpret_cast<const std::byte*>(raw->data()) + raw->size()),
            oracle.record)
      << "object record bytes differ for " << name;
  EXPECT_EQ(env.db->scan_prefix("frag/" + name + "/").size(),
            oracle.fragments.size());
  for (const auto& [key, want] : oracle.fragments) {
    const auto loc = env.db->get(key);
    ASSERT_TRUE(loc.has_value()) << key;
    EXPECT_EQ(*loc, std::to_string(want.first)) << "location differs for " << key;
    const auto frag = env.cluster->system(want.first).get(key);
    ASSERT_TRUE(frag.has_value()) << key;
    EXPECT_EQ(frag->serialize(), want.second) << "fragment bytes differ for " << key;
  }
}

bool same_floats(const std::vector<f32>& a, const std::vector<f32>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(f32)) == 0);
}

TEST(StreamingPrepare, ByteIdenticalToStagedWithAndWithoutPool) {
  ThreadPool pool(4);
  const Dims dims{33, 33, 17};
  const auto field = data::hurricane_pressure(dims, 21);

  Env pooled("pooled");
  RapidsPipeline pooled_pipe(*pooled.cluster, *pooled.db, fast_config(), &pool);
  const auto pooled_report = pooled_pipe.prepare(field, dims, "hp");

  Env serial("serial");  // no pool: every level encodes and stores inline
  RapidsPipeline serial_pipe(*serial.cluster, *serial.db, fast_config());
  const auto serial_report = serial_pipe.prepare(field, dims, "hp");

  const auto oracle =
      staged_oracle(fast_config(), *pooled.cluster, field, dims, "hp");
  expect_oracle_state(oracle, pooled, "hp");
  expect_oracle_state(oracle, serial, "hp");
  EXPECT_EQ(pooled_report.record.serialize(), oracle.record);
  EXPECT_EQ(serial_report.record.serialize(), oracle.record);
  EXPECT_EQ(pooled_report.fragments_stored, oracle.fragments.size());
  EXPECT_GT(pooled_report.prepare_latency, 0.0);
}

TEST(StreamingRestore, ByteIdenticalToStagedAtEveryLevelPrefix) {
  // Knock out progressively more systems so restores run at every usable
  // level prefix; at each prefix the restored field must match a one-shot
  // Refactorer::reconstruct of the oracle's payloads bit for bit.
  ThreadPool pool(4);
  const Dims dims{33, 33, 17};
  const auto field = data::scale_temperature(dims, 22);
  auto cfg = fast_config();
  // No restore cache: cached levels would mask the outages and keep every
  // restore at full depth.
  cfg.restore_cache_bytes = 0;

  Env env("prefix");
  RapidsPipeline pipe(*env.cluster, *env.db, cfg, &pool);
  const auto prep = pipe.prepare(field, dims, "st");
  const auto oracle = staged_oracle(cfg, *env.cluster, field, dims, "st");
  ASSERT_EQ(prep.record.serialize(), oracle.record);
  const mgard::Refactorer rf(cfg.refactor);
  std::vector<Bytes> payloads;
  for (const auto& lvl : oracle.object.levels) payloads.push_back(lvl.payload);

  const FtConfig& ft = prep.record.ft;
  const u32 levels = static_cast<u32>(ft.size());
  for (u32 target = levels; target >= 1; --target) {
    // m_target failures keep at least levels 1..target (m is non-increasing);
    // a deeper level survives only if its m ties m_target.
    std::vector<u32> down;
    for (u32 i = 0; i < ft[target - 1]; ++i) down.push_back(i);
    storage::fail_exactly(*env.cluster, down);
    u32 expected = target;
    while (expected < levels && ft[expected] >= ft[target - 1]) ++expected;

    const auto rep = pipe.restore("st");
    ASSERT_EQ(rep.levels_used, expected);
    EXPECT_DOUBLE_EQ(rep.rel_error_bound,
                     oracle.object.rel_error_bound(expected));
    const auto want = rf.reconstruct(
        oracle.object, std::span<const Bytes>(payloads.data(), expected));
    EXPECT_TRUE(same_floats(rep.data, want))
        << "restored bytes differ at prefix " << target;
    EXPECT_LE(data::relative_linf_error(field, rep.data), rep.rel_error_bound);
  }
}

TEST(StreamingRestore, StreamsLevelsAndCutsTimeToFirstByte) {
  ThreadPool pool(4);
  Env env("ttfb");
  // A loose first target keeps retrieval level 1 genuinely small so its
  // fragments land well before the deep levels (the realistic size skew; at
  // this bench scale the default targets make level 1 the largest level).
  auto cfg = fast_config();
  cfg.refactor.target_rel_errors = {1e-1, 1e-3, 1e-5, 1e-7};
  RapidsPipeline pipeline(*env.cluster, *env.db, cfg, &pool);
  const Dims dims{33, 33, 17};
  const auto field = data::nyx_temperature(dims, 23);
  pipeline.prepare(field, dims, "nt");

  const auto first = pipeline.restore("nt");
  EXPECT_EQ(first.levels_used, 4u);
  EXPECT_EQ(first.levels_streamed, 4u);  // nothing cached: all streamed in
  // Level 1 is decodable as soon as its own (small) fragments land — long
  // before the full gather completes.
  EXPECT_GT(first.first_level_latency, 0.0);
  EXPECT_LT(first.first_level_latency, first.gather_latency);
  ASSERT_FALSE(first.plan.level_latencies.empty());
  const f64 err = data::relative_linf_error(field, first.data);
  EXPECT_LE(err, first.rel_error_bound);

  // Second restore: the cache serves every level, so the first usable
  // approximation needs no WAN wait at all.
  const auto second = pipeline.restore("nt");
  EXPECT_EQ(second.cache_hits, 4u);
  EXPECT_EQ(second.levels_streamed, 0u);
  EXPECT_DOUBLE_EQ(second.first_level_latency, 0.0);
  EXPECT_TRUE(same_floats(first.data, second.data));
}

TEST(StreamingPrepare, ReportsStageBreakdown) {
  ThreadPool pool(4);
  Env env("breakdown");
  RapidsPipeline pipeline(*env.cluster, *env.db, fast_config(), &pool);
  const Dims dims{33, 33, 17};
  const auto field = data::hurricane_temperature(dims, 24);
  const auto report = pipeline.prepare(field, dims, "ht");
  EXPECT_GT(report.transform_seconds, 0.0);
  EXPECT_GT(report.plane_encode_seconds, 0.0);
  EXPECT_GE(report.refactor_seconds,
            report.transform_seconds + report.plane_encode_seconds);
  EXPECT_GT(report.prepare_latency, 0.0);
  EXPECT_GT(report.distribution_latency, 0.0);
}

TEST(StreamingPrepare, BatchMatchesStagedSerialLoop) {
  ThreadPool pool(4);
  const Dims dims{33, 33, 17};
  std::vector<std::string> names;
  std::vector<std::vector<f32>> fields;
  for (u32 i = 0; i < 3; ++i) {
    names.push_back("obj" + std::to_string(i));
    fields.push_back(data::hurricane_pressure(dims, 30 + i));
  }

  Env batch("batch_stream");
  RapidsPipeline batch_pipe(*batch.cluster, *batch.db, fast_config(), &pool);
  std::vector<PrepareRequest> requests;
  for (u32 i = 0; i < names.size(); ++i)
    requests.push_back({fields[i], dims, names[i]});
  const auto reports = batch_pipe.prepare_batch(requests);
  ASSERT_EQ(reports.size(), names.size());

  for (u32 i = 0; i < names.size(); ++i)
    expect_oracle_state(
        staged_oracle(fast_config(), *batch.cluster, fields[i], dims, names[i]),
        batch, names[i]);
}

TEST(StreamingRefine, DeliversLevelsThroughTheSink) {
  ThreadPool pool(4);
  Env env("refine");
  RapidsPipeline pipeline(*env.cluster, *env.db, fast_config(), &pool);
  const Dims dims{33, 33, 17};
  const auto field = data::nyx_velocity(dims, 25);
  const auto prep = pipeline.prepare(field, dims, "nv");

  auto session = pipeline.begin_refine("nv");
  const auto first = pipeline.refine(*session, 1e-3);
  EXPECT_GT(first.levels_streamed, 0u);
  EXPECT_GT(first.first_level_latency, 0.0);
  const auto rest = pipeline.refine(*session, 0.0);  // to the deepest level
  EXPECT_EQ(session->levels(), static_cast<u32>(prep.record.ft.size()));
  const f64 err = data::relative_linf_error(field, rest.data);
  EXPECT_LE(err, rest.rel_error_bound);
}

// ------------------------------------ restore() is a one-shot deep refine

TEST(StreamingRestore, RestoreReadsEveryLevelEvenWhenLevelOneIsExact) {
  // restore() targets the deepest level, not a bound of 0: a record whose
  // e_1 already reads 0 must still be restored from every level.
  ThreadPool pool(4);
  Env env("exact");
  RapidsPipeline pipe(*env.cluster, *env.db, fast_config(), &pool);
  const Dims dims{17, 17, 9};
  pipe.prepare(data::nyx_temperature(dims, 27), dims, "ex");
  auto record = *pipe.lookup("ex");
  for (auto& lvl : record.meta.levels) lvl.rel_error_bound = 0.0;
  const Bytes wire = record.serialize();
  env.db->put("obj/ex", std::string(reinterpret_cast<const char*>(wire.data()),
                                    wire.size()));
  const u32 levels = static_cast<u32>(record.ft.size());

  const auto full = pipe.restore("ex");
  EXPECT_EQ(full.levels_used, levels);
  EXPECT_EQ(full.cache_hits + full.cache_misses, levels);
  const auto bounded = pipe.refine(*pipe.begin_refine("ex"), 0.0);
  EXPECT_EQ(bounded.levels_used, 1u);  // e_1 = 0 already meets a 0 bound
}

/// Two identical environments, one read through restore() and one through a
/// fresh session refined to the deepest level. Both see the same cluster
/// seeds, so straggler draws and bandwidth learning evolve identically.
struct RestoreVsRefine {
  explicit RestoreVsRefine(const std::string& tag)
      : a("rvr_a_" + tag), b("rvr_b_" + tag),
        pa(*a.cluster, *a.db, fast_config(), &pool),
        pb(*b.cluster, *b.db, fast_config(), &pool) {
    const Dims dims{33, 33, 17};
    field = data::nyx_temperature(dims, 26);
    ft = pa.prepare(field, dims, "rv").record.ft;
    pb.prepare(field, dims, "rv");
  }
  /// Apply `fn` to both sides, then read A by restore() and B by refine().
  template <typename Fn>
  void expect_equal_after(Fn fn, const char* what) {
    fn(pa, *a.cluster);
    fn(pb, *b.cluster);
    const auto x = pa.restore("rv");
    const auto y = pb.refine(*pb.begin_refine("rv"), 0.0);
    SCOPED_TRACE(what);
    EXPECT_TRUE(same_floats(x.data, y.data));
    EXPECT_EQ(x.levels_used, y.levels_used);
    EXPECT_DOUBLE_EQ(x.rel_error_bound, y.rel_error_bound);
    EXPECT_EQ(x.plan.systems_per_level, y.plan.systems_per_level);
    EXPECT_DOUBLE_EQ(x.gather_latency, y.gather_latency);
    EXPECT_DOUBLE_EQ(x.first_level_latency, y.first_level_latency);
    EXPECT_EQ(x.bytes_transferred, y.bytes_transferred);
    EXPECT_EQ(x.cache_hits, y.cache_hits);
    EXPECT_EQ(x.cache_misses, y.cache_misses);
    EXPECT_EQ(x.cache_corrupt, y.cache_corrupt);
    EXPECT_EQ(x.planes_decoded, y.planes_decoded);
    last = x;
  }

  ThreadPool pool{4};
  Env a, b;
  RapidsPipeline pa, pb;
  std::vector<f32> field;
  FtConfig ft;
  RestoreReport last;  ///< the restore() side of the latest comparison
};

TEST(StreamingRestore, RestoreEqualsFreshDeepRefineCold) {
  RestoreVsRefine t("cold");
  t.expect_equal_after([](RapidsPipeline&, storage::Cluster&) {}, "cold");
  EXPECT_EQ(t.last.levels_used, static_cast<u32>(t.ft.size()));
  EXPECT_EQ(t.last.cache_hits, 0u);
  EXPECT_GT(t.last.bytes_transferred, 0u);
  EXPECT_GT(t.last.first_level_latency, 0.0);
}

TEST(StreamingRestore, RestoreEqualsFreshDeepRefineFullyCached) {
  RestoreVsRefine t("cached");
  // Warm both caches with a full read, then compare the second reads.
  t.expect_equal_after([](RapidsPipeline&, storage::Cluster&) {}, "warm-up");
  t.expect_equal_after([](RapidsPipeline&, storage::Cluster&) {}, "cached");
  EXPECT_EQ(t.last.cache_hits, static_cast<u32>(t.ft.size()));
  EXPECT_EQ(t.last.bytes_transferred, 0u);
  EXPECT_DOUBLE_EQ(t.last.first_level_latency, 0.0);
}

TEST(StreamingRestore, RestoreEqualsFreshDeepRefineLevelOneCached) {
  RestoreVsRefine t("l1");
  t.expect_equal_after(
      [](RapidsPipeline& p, storage::Cluster&) {
        p.restore_cache().clear();
        p.fetch_level_payload("rv", 0);  // caches level 1 only
      },
      "level 1 cached");
  EXPECT_EQ(t.last.cache_hits, 1u);
  EXPECT_EQ(t.last.levels_used, static_cast<u32>(t.ft.size()));
  EXPECT_GT(t.last.bytes_transferred, 0u);
  // Level 1 came from the cache: no WAN wait before the first level.
  EXPECT_DOUBLE_EQ(t.last.first_level_latency, 0.0);
}

TEST(StreamingRestore, RestoreEqualsFreshDeepRefineUnrecoverable) {
  RestoreVsRefine t("lost");
  const u32 down = t.ft.front() + 1;  // one past level 1's tolerance
  t.expect_equal_after(
      [down](RapidsPipeline& p, storage::Cluster& c) {
        p.restore_cache().clear();
        std::vector<u32> ids;
        for (u32 i = 0; i < down; ++i) ids.push_back(i);
        storage::fail_exactly(c, ids);
      },
      "unrecoverable");
  EXPECT_EQ(t.last.levels_used, 0u);
  EXPECT_DOUBLE_EQ(t.last.rel_error_bound, 1.0);
  EXPECT_TRUE(t.last.data.empty());
}

}  // namespace
}  // namespace rapids::core
