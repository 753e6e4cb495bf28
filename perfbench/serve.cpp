// serve: an open-loop, multi-tenant drill through service::ObjectService on
// the service's simulated clock. Seeded Poisson arrivals come from four
// tenants: one ingest tenant submitting kPrepare of 65^3 fields, and three
// analysts submitting kRestore / kRefine on a hot set that fits the restore
// cache. The offered load is fixed and high enough that admission rejects,
// sheds and brownouts all occur.
//
// Measured drills, each with its own seeded schedule of 8 simulated
// seconds, run in freshly set-up worlds until --seconds of wall time have
// passed (at least three). Two short drills of one more schedule must make
// identical decisions: the service promises a schedule that is a pure
// function of the seeded arrivals. Every set-up counts toward setup_s.
//
// Requests execute inline on the driver thread, each using the 4-thread pool
// inside the pipeline. Handing the service the pool to run requests
// concurrently breaks that promise today: a completed request feeds its
// served level count back into later cost estimates, and concurrent
// requests on one object finish in either order, so drills of one seed gave
// two different schedule hashes; long pooled drills also stalled with the
// driver waiting on a completion no worker ran. See perfbench/README.md.

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "rapids/data/stats.hpp"
#include "rapids/service/service.hpp"
#include "rapids/util/rng.hpp"
#include "rapids/util/timer.hpp"

namespace rapids::perfbench {

namespace {

using service::Outcome;
using service::Priority;
using service::Request;
using service::Verb;

constexpr u64 kExtent = 65;
constexpr u32 kHot = 6;          // analysts' hot set
constexpr u32 kIngestFields = 3; // the ingest tenant's inputs
constexpr u32 kIngestRing = 4;
constexpr u32 kTenants = 4;      // tenant 0 ingests, 1..3 read
constexpr u32 kLanes = 4;
constexpr u32 kMinDrills = 3;
// Cost model pinned (not derived from the bandwidth snapshot) so offered
// load is fixed: est = 0.05 s + new WAN bytes / 1 MB/s. A read of levels
// already served costs 0.05 lane-seconds, a 65^3 prepare about 1.1.
constexpr f64 kCostFixedS = 0.05;
constexpr f64 kCostBytesPerS = 1.0e6;
// Poisson rates (per simulated second): about 1.9x the four lanes' capacity.
constexpr f64 kAnalystRate = 40.0;
constexpr f64 kIngestRate = 1.0;
constexpr f64 kMeanCostS = 0.055;  ///< deadline unit for analyst requests
constexpr f64 kDrillHorizonS = 8.0;  ///< simulated arrival window of a drill
constexpr f64 kCheckHorizonS = 2.0;  ///< simulated window of the check drills

std::string hot_name(u32 i) { return "hot/" + std::to_string(i); }

service::ServiceOptions drill_options() {
  service::ServiceOptions o;
  o.lanes = kLanes;
  o.tenant_weights.assign(kTenants, 1.0);
  o.max_tenant_depth = 16;
  o.max_global_depth = 40;
  o.cost_fixed_s = kCostFixedS;
  o.cost_bytes_per_s = kCostBytesPerS;
  o.saturate_backlog_s = 0.5;
  o.saturate_exit_backlog_s = 0.2;
  o.brownout_backlog_s = 1.2;
  o.brownout_exit_backlog_s = 0.5;
  o.brownout_sustain_s = 0.3;
  o.keep_data = true;  // every read is checked against its original
  return o;
}

struct Arrival {
  f64 t = 0.0;
  Request req;
  u32 field = 0;  ///< hot-set or ingest field index
};

/// The arrival schedule drawn from `seed`. Analysts ask for full precision or
/// one of the object's level bounds, with a mix of deadlines; the ingest
/// tenant's prepares are deadline-free batch work.
std::vector<Arrival> arrivals(u64 seed, f64 horizon_s,
                              const std::vector<std::vector<f64>>& level_bounds) {
  std::vector<Arrival> out;
  for (u32 tenant = 0; tenant < kTenants; ++tenant) {
    const f64 rate = tenant == 0 ? kIngestRate : kAnalystRate;
    Rng rng(mix_seed(seed, 0x5e7e0000ull + tenant));
    f64 t = 0.0;
    for (u64 k = 0;; ++k) {
      t += -std::log(1.0 - rng.next_double()) / rate;
      if (t >= horizon_s) break;
      Arrival a;
      a.t = t;
      a.req.tenant = tenant;
      if (tenant == 0) {
        a.field = static_cast<u32>(k % kIngestFields);
        a.req.verb = Verb::kPrepare;
        a.req.priority = Priority::kBatch;
        a.req.object = "ingest/" + std::to_string(k % kIngestRing);
      } else {
        a.field = static_cast<u32>(rng.next_below(kHot));
        a.req.object = hot_name(a.field);
        const auto& bounds = level_bounds[a.field];
        if (rng.bernoulli(0.5)) {
          a.req.verb = Verb::kRestore;
          a.req.rel_bound = 0.0;
        } else {
          a.req.verb = Verb::kRefine;
          a.req.rel_bound = bounds[rng.next_below(bounds.size())];
        }
        const f64 u = rng.next_double();
        if (u < 0.2) {
          a.req.priority = Priority::kHigh;
          a.req.deadline_s = t + kMeanCostS * 3.0;
        } else if (u < 0.7) {
          a.req.priority = Priority::kNormal;
          a.req.deadline_s = t + kMeanCostS * 6.0;
        } else {
          a.req.priority = Priority::kBatch;
        }
      }
      out.push_back(std::move(a));
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Arrival& a, const Arrival& b) { return a.t < b.t; });
  return out;
}

/// Everything one drill produced, plus the tallies the run aggregates.
struct DrillResult {
  u64 hash = 0;
  f64 wall_s = 0.0, submit_s = 0.0, exec_s = 0.0, queue_delay_s = 0.0, cpu_s = 0.0;
  u64 submitted = 0, rejected = 0, executed = 0, shed = 0, brownouts = 0, served_ok = 0;
  u64 read_responses = 0, wan_bytes = 0, steals = 0;
  u64 cache_hits = 0, cache_misses = 0, kv_calls = 0, kv_busy_ns = 0;
  std::vector<f64> wall_ms, sim_ms;

  void add(const DrillResult& o) {
    wall_s += o.wall_s;
    submit_s += o.submit_s;
    exec_s += o.exec_s;
    queue_delay_s += o.queue_delay_s;
    cpu_s += o.cpu_s;
    submitted += o.submitted;
    rejected += o.rejected;
    executed += o.executed;
    shed += o.shed;
    brownouts += o.brownouts;
    served_ok += o.served_ok;
    read_responses += o.read_responses;
    wan_bytes += o.wan_bytes;
    steals += o.steals;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    kv_calls += o.kv_calls;
    kv_busy_ns += o.kv_busy_ns;
    wall_ms.insert(wall_ms.end(), o.wall_ms.begin(), o.wall_ms.end());
    sim_ms.insert(sim_ms.end(), o.sim_ms.begin(), o.sim_ms.end());
  }
};

/// The set-up of one drill: a fresh world with the hot set prepared.
struct DrillWorld {
  std::unique_ptr<World> world;
  std::vector<Field> hot, ingest;
  std::vector<core::ObjectRecord> records;
};

DrillWorld set_up(const Args& args, const core::PipelineConfig& config, SpanRecorder* rec) {
  DrillWorld w;
  w.world = std::make_unique<World>(args.out_dir + "/serve-work", config, rec, kThreads,
                                    /*fragments_on_disk=*/false);
  for (u32 i = 0; i < kHot; ++i)
    w.hot.push_back(make_field(args.seed, i, kExtent, &w.world->pool()));
  for (u32 i = 0; i < kIngestFields; ++i)
    w.ingest.push_back(make_field(args.seed, 100 + i, kExtent, &w.world->pool()));
  std::vector<core::PrepareRequest> reqs;
  for (u32 i = 0; i < kHot; ++i) reqs.push_back({w.hot[i].data, w.hot[i].dims, hot_name(i)});
  w.world->pipeline().prepare_batch(reqs);
  for (u32 i = 0; i < kHot; ++i) w.records.push_back(*w.world->pipeline().lookup(hot_name(i)));
  return w;
}

/// Run one drill: submit every arrival at its simulated instant, drain, and
/// check every response.
DrillResult drill(DrillWorld& w, f64 horizon_s, u64 seed, SpanRecorder& rec, Result& r) {
  std::vector<std::vector<f64>> level_bounds(kHot);
  for (u32 i = 0; i < kHot; ++i)
    for (u32 j = 1; j <= w.records[i].level_sizes.size(); ++j)
      level_bounds[i].push_back(w.records[i].meta.rel_error_bound(j));
  const auto plan = arrivals(seed, horizon_s, level_bounds);

  auto& pipe = w.world->pipeline();
  DrillResult d;
  service::ObjectService svc(pipe, drill_options());
  std::map<u64, f64> submitted_at;  // ticket id -> wall seconds
  std::map<u64, u32> field_of;
  const auto cache0 = pipe.restore_cache().stats();
  const auto kv0 = w.world->kv_counters();
  const f64 cpu0 = process_cpu_seconds();
  const u64 steals0 = w.world->pool().steal_count();
  Timer clock;
  // Each response is checked and tallied as it arrives (results are not
  // kept: a drill returns thousands of restored fields).
  const auto handle = [&](const service::Response& resp, f64 now) {
    const bool ran = resp.outcome != Outcome::kShed;
    if (ran) {
      ++d.executed;
      d.wall_ms.push_back((now - submitted_at[resp.id]) * 1e3);
      d.sim_ms.push_back((resp.completed_s - resp.submitted_s) * 1e3);
      d.queue_delay_s += resp.dispatched_s - resp.submitted_s;
    } else {
      ++d.shed;
    }
    if (resp.outcome == Outcome::kBrownout) ++d.brownouts;
    std::string bad;
    if (resp.outcome == Outcome::kFailed) {
      bad = resp.object + ": request failed: " + resp.error;
    } else if (ran && !resp.deadline_met) {
      bad = resp.object + ": accepted request finished past its deadline";
    } else if (ran && resp.verb != Verb::kPrepare) {
      ++d.read_responses;
      d.wan_bytes += resp.wan_bytes;
      const auto& orig = w.hot[field_of[resp.id]].data;
      if (resp.achieved_bound > resp.effective_bound)
        bad = resp.object + ": achieved bound above the effective bound";
      else if (resp.outcome == Outcome::kOk && resp.degraded)
        bad = resp.object + ": served coarser than requested without brownout";
      else if (resp.result.size() != orig.size() ||
               !(data::relative_linf_error(orig, resp.result) <= resp.achieved_bound))
        bad = resp.object + ": measured error above the achieved bound";
    }
    r.op(bad.empty(), bad);
    if (bad.empty() && resp.outcome == Outcome::kOk && resp.deadline_met && !resp.degraded)
      ++d.served_ok;
  };
  const auto collect = [&] {
    const f64 now = clock.seconds();
    for (const auto& resp : svc.take_completed()) handle(resp, now);
  };
  for (const auto& a : plan) {
    {
      ScopedSpan span(rec, "service.advance_to", 0, true);
      svc.advance_to(a.t);
      d.exec_s += static_cast<f64>(span.finish()) / 1e9;
    }
    collect();
    Request req = a.req;
    if (req.verb == Verb::kPrepare) {
      req.data = w.ingest[a.field].data;
      req.dims = w.ingest[a.field].dims;
    }
    ScopedSpan span(rec, "service.submit", 0, true);
    const auto res = svc.submit(req);
    d.submit_s += static_cast<f64>(span.finish()) / 1e9;
    ++d.submitted;
    if (!res.admitted()) {  // a fast reject is the service working, not a failure
      ++d.rejected;
      r.op(true, {});
      continue;
    }
    submitted_at[res.id] = clock.seconds();
    field_of[res.id] = a.field;
  }
  {
    ScopedSpan span(rec, "service.drain", 0, true);
    svc.advance_to(horizon_s);
    svc.drain();
    d.exec_s += static_cast<f64>(span.finish()) / 1e9;
  }
  collect();
  d.wall_s = clock.seconds();
  d.cpu_s = process_cpu_seconds() - cpu0;
  d.steals = w.world->pool().steal_count() - steals0;
  const auto kv1 = w.world->kv_counters();
  d.kv_calls = kv1.calls - kv0.calls;
  d.kv_busy_ns = kv1.busy_ns - kv0.busy_ns;
  const auto cache1 = pipe.restore_cache().stats();
  d.cache_hits = cache1.hits - cache0.hits;
  d.cache_misses = cache1.misses - cache0.misses;
  d.hash = svc.stats().schedule_hash;
  return d;
}

}  // namespace

void run_serve(const Args& args, Result& r) {
  SpanRecorder rec(args.trace);
  const core::PipelineConfig config;  // the library defaults

  // Measured drills, each on its own schedule (drawn from the run seed) in a
  // freshly set-up world, until --seconds of drill wall time have passed.
  // Traced runs trace every other drill.
  std::vector<f64> setup_s;
  std::vector<DrillResult> drills;
  std::vector<bool> drill_traced;
  DrillWorld last;
  f64 measured_s = 0.0;
  for (u32 i = 0; i < kMinDrills || measured_s < args.seconds; ++i) {
    last = {};
    rec.set_enabled(false);
    Timer t;
    last = set_up(args, config, args.trace ? &rec : nullptr);
    setup_s.push_back(t.seconds());
    drill_traced.push_back(args.trace && i % 2 == 1);
    rec.set_enabled(drill_traced.back());
    drills.push_back(drill(last, kDrillHorizonS, mix_seed(args.seed, i), rec, r));
    measured_s += drills.back().wall_s;
  }
  rec.set_enabled(false);

  // Determinism: two short drills of one schedule must decide identically.
  u64 check_hash[2] = {0, 0};
  for (auto& h : check_hash) {
    last = {};
    Timer t;
    last = set_up(args, config, nullptr);
    setup_s.push_back(t.seconds());
    h = drill(last, kCheckHorizonS, mix_seed(args.seed, 1u << 20), rec, r).hash;
  }
  if (check_hash[0] != check_hash[1])
    r.violate("two drills of one schedule made different decisions");

  DrillResult sum;
  std::vector<f64> rps;
  for (const auto& d : drills) {
    rps.push_back(ratio(static_cast<f64>(d.executed), d.wall_s));
    sum.add(d);
  }
  if (sum.rejected == 0 || sum.shed == 0 || sum.brownouts == 0)
    r.violate("offered load did not drive rejects, sheds and brownouts all");

  u64 stored = 0, input = 0, refactored = 0;
  for (u32 i = 0; i < kHot; ++i) {
    stored += expected_stored_bytes(last.records[i], kSystems);
    input += last.hot[i].input_bytes();
    for (u64 s : last.records[i].level_sizes) refactored += s;
  }
  const f64 hits = static_cast<f64>(sum.cache_hits);
  const f64 hit_ratio = ratio(hits, hits + static_cast<f64>(sum.cache_misses));
  r.set("setup_s", median(setup_s), "s");
  r.set("ops_per_s", median(rps), "1/s");
  r.set("op_p50_ms", median(sum.wall_ms), "ms");
  r.set("sim_p50_ms", median(sum.sim_ms), "ms");
  r.set("stored_per_input", ratio(static_cast<f64>(stored), static_cast<f64>(input)), "ratio");
  r.set("service.ok_frac", ratio(static_cast<f64>(sum.served_ok), static_cast<f64>(sum.submitted)),
        "ratio");
  r.context["serve.hot_set"] = std::to_string(kHot) + " x " + std::to_string(kExtent) +
                               "^3 f32, " + std::to_string(input) + " B input, " +
                               std::to_string(refactored) + " B refactored";
  r.context["serve.restore_cache_bytes"] = std::to_string(config.restore_cache_bytes);
  r.context["serve.drills"] = std::to_string(drills.size()) + " x " +
                              std::to_string(kDrillHorizonS) + " simulated s";
  r.context["serve.cache_hit_ratio"] = std::to_string(hit_ratio);
  r.context["serve.samples"] = std::to_string(sum.submitted) + " submitted, " +
                               std::to_string(sum.executed) + " executed";
  if (!args.trace) return;

  // --- per-layer ---------------------------------------------------------
  const f64 sub = static_cast<f64>(sum.submitted);
  const f64 ex = static_cast<f64>(sum.executed);
  r.set("core.op_samples", ex, "count");
  r.set("service.submit_us", ratio(sum.submit_s * 1e6, sub), "us");
  r.set("service.exec_ms_per_req", ratio(sum.exec_s * 1e3, ex), "ms");
  r.set("service.queue_delay_sim_ms", ratio(sum.queue_delay_s * 1e3, ex), "ms");
  r.set("service.rejected_frac", ratio(static_cast<f64>(sum.rejected), sub), "ratio");
  r.set("service.shed_frac", ratio(static_cast<f64>(sum.shed), sub), "ratio");
  r.set("service.brownout_frac", ratio(static_cast<f64>(sum.brownouts), sub), "ratio");
  r.set("service.latency_p90_ms", quantile(sum.wall_ms, 0.9), "ms");
  r.set("storage.cache_hit_ratio", hit_ratio, "ratio");
  r.set("net.wan_mb_per_read",
        ratio(static_cast<f64>(sum.wan_bytes) / 1e6, static_cast<f64>(sum.read_responses)),
        "MB");
  r.set("kvstore.calls_per_read", ratio(static_cast<f64>(sum.kv_calls), ex), "count");
  r.set("kvstore.busy_ms_per_read", ratio(static_cast<f64>(sum.kv_busy_ns) / 1e6, ex), "ms");
  r.set("parallel.cpu_util", ratio(sum.cpu_s, sum.wall_s * kThreads), "ratio");
  r.set("parallel.steals_per_op", ratio(static_cast<f64>(sum.steals), ex), "count");
  // The throughput lost to tracing, as a share of the untraced throughput.
  std::vector<f64> on, off;
  for (std::size_t i = 0; i < rps.size(); ++i) (drill_traced[i] ? on : off).push_back(rps[i]);
  r.set("trace.overhead_frac", ratio(median(off) - median(on), median(off)), "ratio");

  rec.set_enabled(true);
  const auto alone = replay_alone(last.hot[0], config, last.records[0], last.world->pool(), rec);
  r.set("simd.gf_mul_acc_gbps", alone.gf_mul_acc_gbps, "GB/s");
  r.set("simd.crc32c_gbps", alone.crc32c_gbps, "GB/s");
  const auto aco = replay_aco(last.records[0], last.world->pipeline(), last.world->cluster(), rec);
  r.set("solver.aco_plan_alone_ms", aco.plan_ms, "ms");
  r.set("solver.aco_iterations", aco.iterations, "count");

  r.set("trace.spans", static_cast<f64>(rec.spans().size()), "count");
  const std::string path = args.out_dir + "/trace-serve-seed" + std::to_string(args.seed) + ".json";
  if (!rec.write_chrome_trace(path)) r.violate("cannot write " + path);
  r.context["trace_file"] = path;
}

}  // namespace rapids::perfbench
