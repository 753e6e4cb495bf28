// rapids_bench: the repository benchmark. One binary, three seeded
// workloads (ingest / retrieve / serve) against the public API of
// core::RapidsPipeline and service::ObjectService.
//
//   rapids_bench --workload <ingest|retrieve|serve> --seed <n>
//                --seconds <s> --trace <0|1> [--out <dir>]
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end set,
// with --trace 1 the per-layer set (a layer a workload does not exercise
// reports 0). Any correctness violation makes the exit code 1. A readable
// summary and the workload's context go to stderr; the traced run also
// writes a Chrome trace-event file below --out.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "rapids/simd/cpu_features.hpp"

#ifndef RAPIDS_BENCH_BUILD_TYPE
#define RAPIDS_BENCH_BUILD_TYPE "unknown"
#endif

namespace rapids::perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Measured in untraced runs; every workload reports every one.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},        {"sim_p50_ms", "ms"},
    {"stored_per_input", "ratio"}, {"peak_rss_mb", "MB"},
};

/// Measured in traced runs.
constexpr MetricDef kPerLayer[] = {
    {"mgard.transform_ms_per_mb", "ms/MB"},
    {"mgard.plane_encode_ms_per_mb", "ms/MB"},
    {"mgard.codec_encode_gbps", "GB/s"},
    {"mgard.reconstruct_ms", "ms"},
    {"mgard.codec_decode_gbps", "GB/s"},
    {"mgard.planes_decoded_per_read", "count"},
    {"mgard.preview_reconstruct_ms", "ms"},
    {"mgard.preview_over_full", "ratio"},
    {"mgard.refactor_alone_mbps", "MB/s"},
    {"mgard.refactor_insitu_over_alone", "ratio"},
    {"mgard.reconstruct_alone_ms", "ms"},
    {"mgard.reconstruct_insitu_over_alone", "ratio"},
    {"ec.encode_ms_per_mb", "ms/MB"},
    {"ec.encode_alone_gbps", "GB/s"},
    {"ec.decode_ms_per_read", "ms"},
    {"ec.decode_alone_gbps", "GB/s"},
    {"simd.gf_mul_acc_gbps", "GB/s"},
    {"simd.crc32c_gbps", "GB/s"},
    {"storage.store_ms_per_mb", "ms/MB"},
    {"storage.disk_bytes_per_input_byte", "ratio"},
    {"storage.fetch_ms_per_read", "ms"},
    {"storage.cache_hit_ratio", "ratio"},
    {"storage.put_retries", "count"},
    {"storage.fetch_retries", "count"},
    {"net.first_level_sim_ms", "ms"},
    {"net.hedged_fetches", "count"},
    {"net.wan_mb_per_read", "MB"},
    {"kvstore.calls_per_prepare", "count"},
    {"kvstore.busy_ms_per_prepare", "ms"},
    {"kvstore.wal_bytes_per_prepare", "B"},
    {"kvstore.calls_per_read", "count"},
    {"kvstore.busy_ms_per_read", "ms"},
    {"core.ft_optimize_ms", "ms"},
    {"core.prepare_unexplained_frac", "ratio"},
    {"core.prepare_1t_mbps", "MB/s"},
    {"core.prepare_2t_mbps", "MB/s"},
    {"core.prepare_scaling_eff", "ratio"},
    {"core.gather_plan_ms", "ms"},
    {"core.replans", "count"},
    {"core.read_unexplained_frac", "ratio"},
    {"core.restore_1t_ms", "ms"},
    {"core.restore_2t_ms", "ms"},
    {"core.restore_scaling_eff", "ratio"},
    {"core.plan_reused_ratio", "ratio"},
    {"core.restore_p90_ms", "ms"},
    {"core.first_approx_p50_ms", "ms"},
    {"core.first_approx_p90_ms", "ms"},
    {"core.refine_full_p50_ms", "ms"},
    {"core.op_samples", "count"},
    {"solver.aco_plan_alone_ms", "ms"},
    {"solver.aco_iterations", "count"},
    {"parallel.cpu_util", "ratio"},
    {"parallel.steals_per_op", "count"},
    {"service.submit_us", "us"},
    {"service.exec_ms_per_req", "ms"},
    {"service.queue_delay_sim_ms", "ms"},
    {"service.rejected_frac", "ratio"},
    {"service.shed_frac", "ratio"},
    {"service.brownout_frac", "ratio"},
    {"service.latency_p90_ms", "ms"},
    {"service.ok_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"trace.spans", "count"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: rapids_bench --workload <ingest|retrieve|serve> "
               "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else if (flag == "--out") {
        a.out_dir = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

void json_number(std::FILE* f, f64 v) {
  // Full precision; JSON has no NaN/inf, and no metric may be either.
  if (v != v || v - v != 0.0) v = 0.0;
  std::fprintf(f, "%.17g", v);
}

/// Host facts for the context block.
void add_host_context(Result& r, const Args& a) {
  r.context["nproc"] = std::to_string(std::thread::hardware_concurrency());
  r.context["pool_threads"] = std::to_string(kThreads);
  r.context["isa"] = simd::active_isa_name();
  r.context["build_type"] = RAPIDS_BENCH_BUILD_TYPE;
  r.context["seed"] = std::to_string(a.seed);
  const auto cache = [](const char* path) {
    std::string s;
    if (std::FILE* f = std::fopen(path, "r")) {
      char buf[64] = {};
      if (std::fgets(buf, sizeof buf, f) != nullptr) s = buf;
      std::fclose(f);
    }
    while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
    return s.empty() ? std::string("unknown") : s;
  };
  r.context["l2_size"] = cache("/sys/devices/system/cpu/cpu0/cache/index2/size");
  r.context["l3_size"] = cache("/sys/devices/system/cpu/cpu0/cache/index3/size");
}

/// Write the run's context and every metric it measured (both sets) to
/// <out>/context-<workload>-seed<n>-trace<t>.json, the raw material of
/// perfbench/context.json.
void write_context(const Args& a, const Result& r) {
  const std::string path = a.out_dir + "/context-" + a.workload + "-seed" +
                           std::to_string(a.seed) + "-trace" + (a.trace ? "1" : "0") +
                           ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"context\": {");
  bool first = true;
  for (const auto& [k, v] : r.context) {
    std::fprintf(f, "%s", first ? "" : ", ");
    first = false;
    write_json_string(f, k);
    std::fprintf(f, ": ");
    write_json_string(f, v);
  }
  std::fprintf(f, "}, \"metrics\": {");
  first = true;
  for (const auto& [k, m] : r.metrics) {
    std::fprintf(f, "%s", first ? "" : ", ");
    first = false;
    write_json_string(f, k);
    std::fprintf(f, ": ");
    json_number(f, m.value);
  }
  std::fprintf(f, "}}\n");
  std::fclose(f);
}

int run(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Result result;
  add_host_context(result, args);
  std::filesystem::create_directories(args.out_dir);

  if (args.workload == "ingest") run_ingest(args, result);
  else if (args.workload == "retrieve") run_retrieve(args, result);
  else if (args.workload == "serve") run_serve(args, result);
  else usage(("unknown workload " + args.workload).c_str());

  result.set("peak_rss_mb", peak_rss_mb(), "MB");

  std::vector<std::pair<std::string, Result::Metric>> out;
  if (args.trace) {
    for (const auto& d : kPerLayer) {
      const auto it = result.metrics.find(d.name);
      out.emplace_back(d.name, Result::Metric{
                                   it != result.metrics.end() ? it->second.value : 0.0,
                                   d.unit});
    }
  } else {
    for (const auto& d : kEndToEnd) {
      const auto it = result.metrics.find(d.name);
      if (it == result.metrics.end()) {
        result.violate(std::string("end-to-end metric not measured: ") + d.name);
        continue;
      }
      out.emplace_back(d.name, Result::Metric{it->second.value, d.unit});
    }
  }

  std::fprintf(stderr, "context:");
  for (const auto& [k, v] : result.context)
    std::fprintf(stderr, " %s=%s", k.c_str(), v.c_str());
  std::fprintf(stderr, "\n");
  write_context(args, result);
  for (const auto& [name, m] : out)
    std::fprintf(stderr, "  %-38s %14.6g %s\n", name.c_str(), m.value,
                 m.unit.c_str());
  for (const auto& v : result.violations)
    std::fprintf(stderr, "VIOLATION: %s\n", v.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i ? ", " : "", out[i].first.c_str());
    json_number(stdout, out[i].second.value);
    std::printf(", \"unit\": \"%s\"}", out[i].second.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return result.correct() && result.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace rapids::perfbench

int main(int argc, char** argv) {
  try {
    return rapids::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
