// ingest: a closed loop with one producer that archives 257^3 f32 fields
// through prepare_batch() in windows of four objects on a 4-thread pool.
// Fields rotate hurricane -> NYX -> SCALE; fragments go to on-disk storage
// systems and metadata to an on-disk kv::Db. Object names are reused from a
// fixed ring, so re-preparing a name overwrites it in place and disk use
// stays bounded. Only the write side runs: refactor, FT optimization,
// erasure encode, fragment puts and metadata writes.

#include <string>
#include <vector>

#include "bench.hpp"
#include "rapids/ec/fragment.hpp"
#include "rapids/util/timer.hpp"

namespace rapids::perfbench {

namespace {

constexpr u64 kExtent = 257;
constexpr u32 kFields = 3;
constexpr u32 kWindow = 4;
constexpr u32 kRing = 8;
constexpr u32 kSetups = 3;
constexpr u32 kMinWindows = 3;

std::string ring_name(u64 slot) { return "ingest/" + std::to_string(slot % kRing); }

/// Sums over the measured prepares.
struct PrepareTotals {
  u64 objects = 0;
  u64 input_bytes = 0, stored_bytes = 0;
  f64 transform_s = 0.0, plane_encode_s = 0.0, optimize_s = 0.0;
  f64 encode_s = 0.0, store_s = 0.0;
  f64 codec_s = 0.0;
  u64 codec_bytes = 0;
  u64 put_retries = 0;

  void add(const core::PrepareReport& rep, u64 input) {
    ++objects;
    input_bytes += input;
    stored_bytes += expected_stored_bytes(rep.record, kSystems);
    transform_s += rep.transform_seconds;
    plane_encode_s += rep.plane_encode_seconds;
    optimize_s += rep.optimize_seconds;
    encode_s += rep.encode_seconds;
    store_s += rep.store_seconds;
    codec_s += rep.plane_codec.seconds;
    codec_bytes += rep.plane_codec.bytes;
    put_retries += rep.put_retries;
  }
};

/// Check that every fragment of `name` sits on the fleet as the record says:
/// n fragments per level, each with the level's k, m and size, ceil(s_j /
/// k_j) payload bytes and a good CRC. Returns an empty string when it does,
/// else what is wrong.
std::string check_stored(storage::Cluster& cluster, const std::string& name,
                         const core::ObjectRecord& record) {
  const u32 n = cluster.size();
  const std::size_t levels = record.level_sizes.size();
  if (record.ft.size() != levels)
    return name + ": record has " + std::to_string(record.ft.size()) +
           " tolerances for " + std::to_string(levels) + " levels";
  std::vector<u32> per_level(levels, 0);
  const std::string prefix = "frag/" + record.storage_name(name) + "/";
  for (u32 i = 0; i < n; ++i) {
    auto& sys = cluster.system(i);
    for (const auto& key : sys.keys_with_prefix(prefix)) {
      const auto frag = sys.get(key);
      if (!frag) return name + ": fragment " + key + " unreadable";
      const u32 j = frag->id.level;
      if (j >= levels) return name + ": fragment " + key + " beyond the levels";
      ++per_level[j];
      const u32 k = n - record.ft[j];
      const u64 want = (record.level_sizes[j] + k - 1) / k;
      if (frag->k != k || frag->m != record.ft[j] ||
          frag->level_bytes != record.level_sizes[j] ||
          frag->payload.size() != want || !frag->verify())
        return name + ": fragment " + key + " disagrees with the record";
    }
  }
  for (std::size_t j = 0; j < levels; ++j)
    if (per_level[j] != n)
      return name + ": level " + std::to_string(j) + " has " +
             std::to_string(per_level[j]) + " fragments, expected " +
             std::to_string(n);
  return {};
}

/// Record a prepare's report stages under its span. The refactor stages and
/// the FT optimization run one after another on the calling thread and are
/// laid end to end; the streaming encode and store stages overlap them
/// (level j ships while level j+1 refactors), so each is laid from the
/// operation's start. The union of the children then covers
/// max(refactor + optimize, encode, store), and the span's self time is
///   unexplained = max(0, wall - max(refactor + optimize, encode, store)).
void record_prepare_stages(SpanRecorder& rec, const ScopedSpan& op,
                           const core::PrepareReport& rep) {
  const std::pair<const char*, f64> serial[] = {
      {"mgard.transform", rep.transform_seconds},
      {"mgard.plane_encode", rep.plane_encode_seconds},
      {"mgard.assemble",
       rep.refactor_seconds - rep.transform_seconds - rep.plane_encode_seconds},
      {"core.ft_optimize", rep.optimize_seconds}};
  record_stages(rec, op.id(), op.start_ns(), serial);
  const std::pair<const char*, f64> encode[] = {{"ec.encode", rep.encode_seconds}};
  record_stages(rec, op.id(), op.start_ns(), encode);
  const std::pair<const char*, f64> store[] = {{"storage.store", rep.store_seconds}};
  record_stages(rec, op.id(), op.start_ns(), store);
}

}  // namespace

void run_ingest(const Args& args, Result& r) {
  SpanRecorder rec(args.trace);
  core::PipelineConfig config;  // the library defaults throughout
  const std::string dir = args.out_dir + "/ingest-work";

  // --- set-up: pool, fleet, metadata store, pipeline, fields ---------------
  std::unique_ptr<World> world;
  std::vector<Field> fields;
  std::vector<f64> setup_s;
  for (u32 s = 0; s < (args.trace ? 1u : kSetups); ++s) {
    world.reset();
    fields.clear();
    Timer t;
    world = std::make_unique<World>(dir, config, args.trace ? &rec : nullptr);
    for (u32 i = 0; i < kFields; ++i)
      fields.push_back(make_field(args.seed, i, kExtent, &world->pool()));
    setup_s.push_back(t.seconds());
  }
  r.set("setup_s", median(setup_s), "s");
  auto& pipe = world->pipeline();
  const u64 field_bytes = fields[0].input_bytes();
  r.context["ingest.field"] = std::to_string(kExtent) + "^3 f32, " +
                              std::to_string(field_bytes) + " B (" +
                              std::to_string(2 * field_bytes) + " B as f64)";
  r.context["ingest.window"] = std::to_string(kWindow) + " objects, ring of " +
                               std::to_string(kRing) + " names";

  // --- the loop ------------------------------------------------------------
  std::vector<u64> live_input(kRing, 0);  // input bytes behind each ring name
  std::vector<f64> window_ms;
  std::vector<bool> window_traced;
  std::vector<f64> sim_ms;
  PrepareTotals totals;
  u64 slot = 0;

  const auto window = [&](bool measured) {
    std::vector<core::PrepareRequest> reqs;
    std::vector<u32> field_of;
    for (u32 j = 0; j < kWindow; ++j, ++slot) {
      const u32 f = static_cast<u32>(slot % kFields);
      reqs.push_back({fields[f].data, fields[f].dims, ring_name(slot)});
      field_of.push_back(f);
    }
    std::vector<core::PrepareReport> reps;
    ScopedSpan span(rec, "core.prepare_batch", 0, /*op=*/true);
    try {
      reps = pipe.prepare_batch(reqs);
    } catch (const std::exception& e) {
      span.finish();
      for (u32 j = 0; j < kWindow; ++j)
        r.op(false, "prepare_batch threw: " + std::string(e.what()));
      return;
    }
    const f64 ms = static_cast<f64>(span.finish()) / 1e6;
    if (!measured) return;
    window_ms.push_back(ms);
    window_traced.push_back(rec.enabled());
    for (u32 j = 0; j < kWindow; ++j) {
      const auto& rep = reps[j];
      const auto& name = reqs[j].name;
      const u64 in = fields[field_of[j]].input_bytes();
      // The stored bytes must match the level sizes and FT configuration
      // the pipeline reports, and the metadata store must hold those same.
      std::string bad = check_stored(world->cluster(), name, rep.record);
      const auto stored_rec = pipe.lookup(name);
      if (bad.empty() && (!stored_rec || stored_rec->ft != rep.record.ft ||
                          stored_rec->level_sizes != rep.record.level_sizes))
        bad = name + ": metadata record differs from the prepare report";
      r.op(bad.empty(), bad);
      if (!bad.empty()) continue;
      live_input[(slot - kWindow + j) % kRing] = in;
      sim_ms.push_back(rep.distribution_latency * 1e3);
      totals.add(rep, in);
    }
  };

  // Warm-up: the first window pays first-touch allocation of the pool's
  // workspaces and the disk files.
  window(false);
  rec.clear();

  // Traced runs trace every other window; the difference of the traced and
  // untraced windows' median latency is the tracing overhead.
  const f64 cpu0 = process_cpu_seconds();
  const u64 steals0 = world->pool().steal_count();
  const auto kv0 = world->kv_counters();
  Timer loop;
  for (u32 w = 0; loop.seconds() < args.seconds ||
                  (window_ms.size() < kMinWindows && loop.seconds() < 3 * args.seconds);
       ++w) {
    rec.set_enabled(args.trace && w % 2 == 1);
    window(true);
  }
  rec.set_enabled(args.trace);
  const f64 wall = loop.seconds();
  const f64 cpu = process_cpu_seconds() - cpu0;
  const auto kv1 = world->kv_counters();

  f64 op_s = 0.0;
  for (f64 ms : window_ms) op_s += ms / 1e3;
  r.set("ops_per_s", ratio(static_cast<f64>(totals.objects), op_s), "1/s");
  r.set("op_p50_ms", median(window_ms), "ms");
  r.set("sim_p50_ms", median(sim_ms), "ms");
  r.set("stored_per_input",
        ratio(static_cast<f64>(totals.stored_bytes), static_cast<f64>(totals.input_bytes)),
        "ratio");
  const f64 mb = static_cast<f64>(totals.input_bytes) / 1e6;
  r.context["ingest.prepare_mbps"] = std::to_string(ratio(mb, op_s));
  r.context["ingest.windows"] = std::to_string(window_ms.size());
  if (!args.trace) return;

  // --- per-layer, from the reports and the decorator -------------------------
  const f64 n = static_cast<f64>(totals.objects);
  r.set("core.op_samples", static_cast<f64>(window_ms.size()), "count");
  r.set("mgard.transform_ms_per_mb", ratio(totals.transform_s * 1e3, mb), "ms/MB");
  r.set("mgard.plane_encode_ms_per_mb", ratio(totals.plane_encode_s * 1e3, mb), "ms/MB");
  r.set("mgard.codec_encode_gbps",
        ratio(static_cast<f64>(totals.codec_bytes) / 1e9, totals.codec_s), "GB/s");
  r.set("ec.encode_ms_per_mb", ratio(totals.encode_s * 1e3, mb), "ms/MB");
  r.set("storage.store_ms_per_mb", ratio(totals.store_s * 1e3, mb), "ms/MB");
  r.set("storage.put_retries", static_cast<f64>(totals.put_retries), "count");
  r.set("core.ft_optimize_ms", ratio(totals.optimize_s * 1e3, n), "ms");
  u64 live_bytes = 0;
  for (u64 b : live_input) live_bytes += b;
  r.set("storage.disk_bytes_per_input_byte",
        ratio(static_cast<f64>(world->fragment_disk_bytes()),
              static_cast<f64>(live_bytes)),
        "ratio");
  r.set("kvstore.calls_per_prepare", ratio(static_cast<f64>(kv1.calls - kv0.calls), n),
        "count");
  r.set("kvstore.busy_ms_per_prepare",
        ratio(static_cast<f64>(kv1.busy_ns - kv0.busy_ns) / 1e6, n), "ms");
  r.set("kvstore.wal_bytes_per_prepare",
        ratio(static_cast<f64>(kv1.bytes_written - kv0.bytes_written), n), "B");
  r.set("parallel.cpu_util", ratio(cpu, wall * kThreads), "ratio");
  r.set("parallel.steals_per_op",
        ratio(static_cast<f64>(world->pool().steal_count() - steals0), n), "count");
  std::vector<f64> on, off;
  for (std::size_t i = 0; i < window_ms.size(); ++i)
    (window_traced[i] ? on : off).push_back(window_ms[i]);
  r.set("trace.overhead_frac", ratio(median(on) - median(off), median(off)), "ratio");

  // --- thread sweep: one prepare of field 0 on 1-, 2- and 4-thread pools ---
  // Each runs in a fresh world, so no object overlaps another. The 4-thread
  // prepare is also the in-situ side of the refactor alone ratio and the
  // operation whose unexplained share is reported.
  core::PrepareReport insitu;
  f64 mbps[3] = {0, 0, 0};
  const unsigned threads[3] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) {
    World w(args.out_dir + "/ingest-sweep", config, &rec, threads[i]);
    // Warm the pool's workspaces first, as the measured loop does.
    w.pipeline().prepare(fields[0].data, fields[0].dims, "sweep/warm");
    ScopedSpan span(rec, "core.prepare@" + std::to_string(threads[i]) + "t", 0, true);
    const auto rep = w.pipeline().prepare(fields[0].data, fields[0].dims, "sweep");
    const std::int64_t ns = span.finish();
    record_prepare_stages(rec, span, rep);
    mbps[i] = static_cast<f64>(field_bytes) / 1e6 / (static_cast<f64>(ns) / 1e9);
    if (threads[i] == kThreads) {
      insitu = rep;
      const auto all = rec.spans();
      const auto self = self_time_ns(all, span.id());
      r.set("core.prepare_unexplained_frac",
            self ? static_cast<f64>(*self) / static_cast<f64>(ns) : 0.0, "ratio");
    }
  }
  r.set("core.prepare_1t_mbps", mbps[0], "MB/s");
  r.set("core.prepare_2t_mbps", mbps[1], "MB/s");
  r.set("core.prepare_scaling_eff", ratio(mbps[2], 4.0 * mbps[0]), "ratio");

  // --- alone replays on the workload's own field ---------------------------
  const auto alone = replay_alone(fields[0], config, insitu.record, world->pool(), rec);
  r.set("mgard.refactor_alone_mbps",
        ratio(static_cast<f64>(field_bytes) / 1e6, alone.refactor_s), "MB/s");
  r.set("mgard.refactor_insitu_over_alone", ratio(insitu.refactor_seconds, alone.refactor_s),
        "ratio");
  r.set("ec.encode_alone_gbps", alone.ec_encode_gbps, "GB/s");
  r.set("simd.gf_mul_acc_gbps", alone.gf_mul_acc_gbps, "GB/s");
  r.set("simd.crc32c_gbps", alone.crc32c_gbps, "GB/s");

  r.set("trace.spans", static_cast<f64>(rec.spans().size()), "count");
  const std::string path = args.out_dir + "/trace-ingest-seed" + std::to_string(args.seed) + ".json";
  if (!rec.write_chrome_trace(path)) r.violate("cannot write " + path);
  r.context["trace_file"] = path;
}

}  // namespace rapids::perfbench
