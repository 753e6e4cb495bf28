// retrieve: a closed loop with four analysts reading a catalog of 193^3
// fields while two of the sixteen storage systems are down. Each analyst
// sends its next read when its previous one returns. Reads are plain
// full-precision restore()s and progressive reads (begin_refine(), refine()
// to the object's level-1 bound, then refine() to full precision). The
// catalog's refactored bytes exceed the restore-cache budget, so every read
// fetches most of its object's bytes and runs gather planning, fetch,
// erasure decode, plane decode and recompose.
//
// The fields are 193^3 so that a restore does not run from the shared L3:
// at 129^3 a neighbour streaming through the L3 slowed restores by half.
// There are four analysts because one read keeps the 4-thread pool busy only
// a third of the time, and a mostly idle pool made runs track the load on
// the host; four keep it about 90% busy.

#include <array>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "rapids/data/stats.hpp"
#include "rapids/util/crc32c.hpp"
#include "rapids/util/rng.hpp"
#include "rapids/util/timer.hpp"

namespace rapids::perfbench {

namespace {

constexpr u64 kExtent = 193;
constexpr u32 kCatalog = 4;
constexpr u32 kWindow = 4;
constexpr u64 kCacheBytes = 2ull << 20;
constexpr u32 kDown[] = {3, 11};
constexpr u32 kSetups = 3;
constexpr u32 kMinReads = 6;
constexpr u32 kAnalysts = 4;

std::string catalog_name(u32 i) { return "catalog/" + std::to_string(i); }

u32 field_crc(const std::vector<f32>& v) {
  return crc32c(v.data(), v.size() * sizeof(f32));
}

core::PipelineConfig retrieve_config() {
  core::PipelineConfig c;
  c.restore_cache_bytes = kCacheBytes;
  return c;
}

/// Sums over the measured plain restores.
struct RestoreTotals {
  u64 reads = 0;
  f64 reconstruct_s = 0.0, decode_s = 0.0, fetch_s = 0.0;
  f64 codec_s = 0.0;
  u64 codec_bytes = 0, planes = 0;

  void add(const core::RestoreReport& rep) {
    ++reads;
    reconstruct_s += rep.reconstruct_seconds;
    decode_s += rep.decode_seconds;
    fetch_s += rep.fetch_seconds;
    codec_s += rep.plane_codec.seconds;
    codec_bytes += rep.plane_codec.bytes;
    planes += rep.planes_decoded;
  }
};

std::array<std::pair<const char*, f64>, 4> restore_stages(const core::RestoreReport& rep) {
  return {{{"core.gather_plan", rep.planning_seconds},
           {"storage.fetch", rep.fetch_seconds},
           {"ec.decode", rep.decode_seconds},
           {"mgard.reconstruct", rep.reconstruct_seconds}}};
}

}  // namespace

void run_retrieve(const Args& args, Result& r) {
  SpanRecorder rec(args.trace);
  const core::PipelineConfig config = retrieve_config();
  const std::string dir = args.out_dir + "/retrieve-work";

  // --- set-up: world, catalog fields, catalog prepare, outage --------------
  std::unique_ptr<World> world;
  std::vector<Field> fields;
  std::vector<f64> setup_s;
  for (u32 s = 0; s < (args.trace ? 1u : kSetups); ++s) {
    world.reset();
    fields.clear();
    Timer t;
    world = std::make_unique<World>(dir, config, args.trace ? &rec : nullptr);
    for (u32 i = 0; i < kCatalog; ++i)
      fields.push_back(make_field(args.seed, i, kExtent, &world->pool()));
    for (u32 i = 0; i < kCatalog; i += kWindow) {
      std::vector<core::PrepareRequest> reqs;
      for (u32 j = i; j < i + kWindow && j < kCatalog; ++j)
        reqs.push_back({fields[j].data, fields[j].dims, catalog_name(j)});
      world->pipeline().prepare_batch(reqs);
    }
    for (u32 d : kDown) world->cluster().fail(d);
    setup_s.push_back(t.seconds());
  }
  r.set("setup_s", median(setup_s), "s");
  auto& pipe = world->pipeline();

  std::vector<core::ObjectRecord> records;
  u64 stored = 0, input = 0, refactored = 0;
  for (u32 i = 0; i < kCatalog; ++i) {
    records.push_back(*pipe.lookup(catalog_name(i)));
    stored += expected_stored_bytes(records.back(), kSystems);
    input += fields[i].input_bytes();
    for (u64 s : records.back().level_sizes) refactored += s;
  }
  r.set("stored_per_input", ratio(static_cast<f64>(stored), static_cast<f64>(input)),
        "ratio");
  r.context["retrieve.catalog"] = std::to_string(kCatalog) + " x " +
                                  std::to_string(kExtent) + "^3 f32, " +
                                  std::to_string(input) + " B input (" +
                                  std::to_string(2 * input) + " B as f64)";
  r.context["retrieve.refactored_bytes"] = std::to_string(refactored);
  r.context["retrieve.restore_cache_bytes"] = std::to_string(kCacheBytes);
  r.context["retrieve.down_systems"] = "3,11";

  // --- the loop ------------------------------------------------------------
  // Reads come in rounds: every catalog object once as a plain restore and
  // once as a progressive read, in a seeded random order. Each object (and
  // so each dataset) weighs the same in every run's percentiles. The
  // analysts take reads from this one sequence; `mu` guards it and every
  // tally below.
  Rng rng(mix_seed(args.seed, 0x7265747269657665ull));
  std::vector<std::pair<u32, bool>> round;  // (object, progressive)
  const auto next_read = [&] {
    if (round.empty()) {
      for (u32 i = 0; i < kCatalog; ++i) round.insert(round.end(), {{i, false}, {i, true}});
      for (std::size_t i = round.size() - 1; i > 0; --i)
        std::swap(round[i], round[rng.next_below(i + 1)]);
    }
    const auto next = round.back();
    round.pop_back();
    return next;
  };
  std::vector<f64> restore_ms, first_ms, full_ms, sim_ms, first_level_ms, plan_ms;
  std::vector<u64> restore_span;  // span id of each restore, 0 when untraced
  std::map<std::string, u32> plain_crc, progressive_crc;
  RestoreTotals totals;
  f64 preview_s = 0.0;
  u64 previews = 0, rung2 = 0, rung2_reused = 0, wan_bytes = 0, fetch_retries = 0,
      hedged = 0, replans = 0;
  u64 reads = 0;
  std::mutex mu;

  // Checks one read report against the regenerated original.
  const auto check = [&](const core::RestoreReport& rep, u32 obj, f64 want_bound,
                         const char* what) -> std::string {
    const std::string name = catalog_name(obj);
    if (rep.data.size() != fields[obj].data.size())
      return name + " " + what + ": no data";
    if (rep.rel_error_bound > want_bound)
      return name + " " + what + ": bound " + std::to_string(rep.rel_error_bound) +
             " coarser than requested " + std::to_string(want_bound);
    const f64 err = data::relative_linf_error(fields[obj].data, rep.data);
    if (!(err <= rep.rel_error_bound))
      return name + " " + what + ": error " + std::to_string(err) + " above bound " +
             std::to_string(rep.rel_error_bound);
    return {};
  };
  const auto note_fetch = [&](const core::RestoreReport& rep) {
    wan_bytes += rep.bytes_transferred;
    fetch_retries += rep.fetch_retries;
    hedged += rep.hedged_fetches;
    replans += rep.replans;
    if (rep.cache_misses > 0) {
      sim_ms.push_back(rep.gather_latency * 1e3);
      first_level_ms.push_back(rep.first_level_latency * 1e3);
      plan_ms.push_back(rep.planning_seconds * 1e3);
    }
  };

  const auto read = [&](bool measured) {
    std::pair<u32, bool> next;
    {
      std::lock_guard lock(mu);
      next = next_read();
    }
    const auto [obj, progressive] = next;
    const std::string name = catalog_name(obj);
    const auto& rc = records[obj];
    const f64 full_bound = rc.meta.rel_error_bound(static_cast<u32>(rc.level_sizes.size()));
    std::string bad;
    try {
      if (!progressive) {
        ScopedSpan span(rec, "core.restore", 0, /*op=*/true);
        const auto rep = pipe.restore(name);
        const f64 ms = static_cast<f64>(span.finish()) / 1e6;
        if (!measured) return;
        record_stages(rec, span.id(), span.start_ns(), restore_stages(rep));
        bad = check(rep, obj, full_bound, "restore");
        std::lock_guard lock(mu);
        restore_ms.push_back(ms);
        restore_span.push_back(rec.enabled() ? span.id() : 0);
        totals.add(rep);
        note_fetch(rep);
        if (bad.empty()) plain_crc[name] = field_crc(rep.data);
      } else {
        const f64 coarse = rc.meta.rel_error_bound(1);
        ScopedSpan span(rec, "core.progressive_read", 0, /*op=*/true);
        const auto session = pipe.begin_refine(name);
        ScopedSpan s1(rec, "core.refine.coarse", span.id());
        const auto r1 = pipe.refine(*session, coarse);
        const f64 t1 = static_cast<f64>(s1.finish()) / 1e6;
        ScopedSpan s2(rec, "core.refine.full", span.id());
        const auto r2 = pipe.refine(*session, 0.0);
        s2.finish();
        const f64 ms = static_cast<f64>(span.finish()) / 1e6;
        if (!measured) return;
        record_stages(rec, s1.id(), s1.start_ns(), restore_stages(r1));
        record_stages(rec, s2.id(), s2.start_ns(), restore_stages(r2));
        bad = check(r1, obj, coarse, "coarse refine");
        if (bad.empty()) bad = check(r2, obj, full_bound, "full refine");
        std::lock_guard lock(mu);
        first_ms.push_back(static_cast<f64>(s1.start_ns() - span.start_ns()) / 1e6 + t1);
        full_ms.push_back(ms);
        preview_s += r1.reconstruct_seconds;
        ++previews;
        note_fetch(r1);
        note_fetch(r2);
        if (r2.cache_misses > 0) {
          ++rung2;
          if (r2.plan_reused) ++rung2_reused;
        }
        if (bad.empty()) progressive_crc[name] = field_crc(r2.data);
      }
    } catch (const std::exception& e) {
      if (!measured) throw;
      bad = name + (progressive ? " progressive read" : " restore") + " threw: " + e.what();
    }
    std::lock_guard lock(mu);
    ++reads;
    r.op(bad.empty(), bad);
  };

  // Warm-up: first reconstructs pay first-touch allocation.
  for (int i = 0; i < 3; ++i) read(false);
  rec.clear();
  const auto cache0 = pipe.restore_cache().stats();
  const auto kv0 = world->kv_counters();
  const f64 cpu0 = process_cpu_seconds();
  const u64 steals0 = world->pool().steal_count();
  // Traced runs switch tracing on for every other read of analyst 0; the
  // difference of the traced and untraced restores' median latency is the
  // tracing overhead. The switch is shared, so reads of other analysts that
  // overlap a traced read are traced too.
  Timer loop;
  const auto analyst = [&](u32 a) {
    for (u64 i = 0;; ++i) {
      {
        std::lock_guard lock(mu);
        if (loop.seconds() >= args.seconds &&
            (reads >= kMinReads || loop.seconds() >= 3 * args.seconds))
          return;
      }
      if (a == 0) rec.set_enabled(args.trace && i % 2 == 1);
      read(true);
    }
  };
  {
    std::vector<std::jthread> others;
    for (u32 a = 1; a < kAnalysts; ++a) others.emplace_back(analyst, a);
    analyst(0);
  }
  rec.set_enabled(args.trace);
  const f64 wall = loop.seconds();
  const f64 cpu = process_cpu_seconds() - cpu0;
  const auto kv1 = world->kv_counters();
  const auto cache1 = pipe.restore_cache().stats();

  // A sampled progressive read must end byte-identical to a plain restore of
  // the same object; restore one now if the loop never paired them.
  u32 compared = 0;
  for (const auto& [name, crc] : progressive_crc) {
    const auto it = plain_crc.find(name);
    if (it == plain_crc.end()) continue;
    ++compared;
    if (it->second != crc) r.violate(name + ": progressive read differs from restore()");
  }
  if (compared == 0 && !progressive_crc.empty()) {
    const auto& [name, crc] = *progressive_crc.begin();
    if (field_crc(pipe.restore(name).data) != crc)
      r.violate(name + ": progressive read differs from restore()");
  }

  const f64 hits = static_cast<f64>(cache1.hits - cache0.hits);
  const f64 misses = static_cast<f64>(cache1.misses - cache0.misses);
  r.set("ops_per_s", ratio(static_cast<f64>(reads), wall), "1/s");
  r.set("op_p50_ms", median(restore_ms), "ms");
  r.set("sim_p50_ms", median(sim_ms), "ms");
  r.context["retrieve.cache_hit_ratio"] = std::to_string(ratio(hits, hits + misses));
  r.context["retrieve.samples"] = std::to_string(restore_ms.size()) + " restores, " +
                                  std::to_string(full_ms.size()) + " progressive reads";
  if (!args.trace) return;

  // --- per-layer, from the reports and the decorator -------------------------
  const f64 n = static_cast<f64>(totals.reads);
  const f64 nreads = static_cast<f64>(reads);
  r.set("core.op_samples", n, "count");
  r.set("mgard.reconstruct_ms", ratio(totals.reconstruct_s * 1e3, n), "ms");
  r.set("mgard.codec_decode_gbps",
        ratio(static_cast<f64>(totals.codec_bytes) / 1e9, totals.codec_s), "GB/s");
  r.set("mgard.planes_decoded_per_read", ratio(static_cast<f64>(totals.planes), n), "count");
  const f64 preview_ms = ratio(preview_s * 1e3, static_cast<f64>(previews));
  r.set("mgard.preview_reconstruct_ms", preview_ms, "ms");
  r.set("mgard.preview_over_full", ratio(preview_ms, ratio(totals.reconstruct_s * 1e3, n)),
        "ratio");
  r.set("ec.decode_ms_per_read", ratio(totals.decode_s * 1e3, n), "ms");
  r.set("storage.fetch_ms_per_read", ratio(totals.fetch_s * 1e3, n), "ms");
  r.set("storage.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
  r.set("storage.fetch_retries", static_cast<f64>(fetch_retries), "count");
  r.set("net.first_level_sim_ms", median(first_level_ms), "ms");
  r.set("net.hedged_fetches", static_cast<f64>(hedged), "count");
  r.set("net.wan_mb_per_read", ratio(static_cast<f64>(wan_bytes) / 1e6, nreads), "MB");
  r.set("kvstore.calls_per_read", ratio(static_cast<f64>(kv1.calls - kv0.calls), nreads),
        "count");
  r.set("kvstore.busy_ms_per_read",
        ratio(static_cast<f64>(kv1.busy_ns - kv0.busy_ns) / 1e6, nreads), "ms");
  r.set("core.gather_plan_ms", median(plan_ms), "ms");
  r.set("core.replans", static_cast<f64>(replans), "count");
  // Unexplained share of a restore: its span's self time (wall minus the
  // union of its report stages, laid end to end, and its metadata calls)
  // over its wall time; median over the traced restores.
  std::vector<f64> unexplained;
  const auto all_spans = rec.spans();
  for (std::size_t i = 0; i < restore_ms.size(); ++i) {
    if (restore_span[i] == 0) continue;
    if (const auto self = self_time_ns(all_spans, restore_span[i]))
      unexplained.push_back(static_cast<f64>(*self) / (restore_ms[i] * 1e6));
  }
  r.set("core.read_unexplained_frac", median(unexplained), "ratio");
  r.set("core.plan_reused_ratio",
        ratio(static_cast<f64>(rung2_reused), static_cast<f64>(rung2)), "ratio");
  r.set("core.restore_p90_ms", quantile(restore_ms, 0.9), "ms");
  r.set("core.first_approx_p50_ms", median(first_ms), "ms");
  r.set("core.first_approx_p90_ms", quantile(first_ms, 0.9), "ms");
  r.set("core.refine_full_p50_ms", median(full_ms), "ms");
  r.set("parallel.cpu_util", ratio(cpu, wall * kThreads), "ratio");
  r.set("parallel.steals_per_op",
        ratio(static_cast<f64>(world->pool().steal_count() - steals0), nreads), "count");
  std::vector<f64> on, off;
  for (std::size_t i = 0; i < restore_ms.size(); ++i)
    (restore_span[i] != 0 ? on : off).push_back(restore_ms[i]);
  r.set("trace.overhead_frac", ratio(median(on) - median(off), median(off)), "ratio");

  // --- thread sweep: cold restores of object 0 on 1-, 2- and 4-thread pools -
  // Each pool gets its own pipeline over the same fleet and metadata store,
  // with the restore cache off so every restore fetches and decodes.
  f64 sweep_ms[3] = {0, 0, 0};
  const unsigned threads[3] = {1, 2, 4};
  core::PipelineConfig cold = config;
  cold.restore_cache_bytes = 0;
  for (int i = 0; i < 3; ++i) {
    ThreadPool pool(threads[i]);
    core::RapidsPipeline p(world->cluster(), world->kv(), cold, &pool);
    p.restore(catalog_name(0));  // warm-up
    std::vector<f64> ms;
    for (int rep = 0; rep < 3; ++rep) {
      ScopedSpan span(rec, "core.restore@" + std::to_string(threads[i]) + "t", 0, true);
      p.restore(catalog_name(0));
      ms.push_back(static_cast<f64>(span.finish()) / 1e6);
    }
    sweep_ms[i] = median(ms);
  }
  r.set("core.restore_1t_ms", sweep_ms[0], "ms");
  r.set("core.restore_2t_ms", sweep_ms[1], "ms");
  r.set("core.restore_scaling_eff", ratio(sweep_ms[0], 4.0 * sweep_ms[2]), "ratio");

  // --- alone replays on the workload's own inputs ---------------------------
  const auto alone = replay_alone(fields[0], config, records[0], world->pool(), rec);
  r.set("mgard.reconstruct_alone_ms", alone.reconstruct_s * 1e3, "ms");
  r.set("mgard.reconstruct_insitu_over_alone",
        ratio(ratio(totals.reconstruct_s, n), alone.reconstruct_s), "ratio");
  r.set("ec.decode_alone_gbps", alone.ec_decode_gbps, "GB/s");
  r.set("simd.gf_mul_acc_gbps", alone.gf_mul_acc_gbps, "GB/s");
  r.set("simd.crc32c_gbps", alone.crc32c_gbps, "GB/s");
  const auto aco = replay_aco(records[0], pipe, world->cluster(), rec);
  r.set("solver.aco_plan_alone_ms", aco.plan_ms, "ms");
  r.set("solver.aco_iterations", aco.iterations, "count");

  r.set("trace.spans", static_cast<f64>(rec.spans().size()), "count");
  const std::string path =
      args.out_dir + "/trace-retrieve-seed" + std::to_string(args.seed) + ".json";
  if (!rec.write_chrome_trace(path)) r.violate("cannot write " + path);
  r.context["trace_file"] = path;
}

}  // namespace rapids::perfbench
