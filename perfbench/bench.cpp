#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "rapids/data/field_generators.hpp"
#include "rapids/util/rng.hpp"

namespace rapids::perfbench {

namespace fs = std::filesystem;

void Result::violate(const std::string& what) {
  if (violations.size() < 20) violations.push_back(what);
  else if (violations.size() == 20) violations.push_back("... (more)");
}

void Result::op(bool ok, const std::string& what_if_failed) {
  ++attempted;
  if (ok) return;
  ++failed;
  violate(what_if_failed);
}

f64 quantile(std::vector<f64> v, f64 q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const f64 pos = q * static_cast<f64>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<f64>(lo));
}

f64 process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<f64>(t.tv_sec) + static_cast<f64>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

f64 peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<f64>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

u64 directory_bytes(const std::string& dir) {
  std::error_code ec;
  u64 total = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

u64 mix_seed(u64 seed, u64 tag) {
  SplitMix64 sm(seed ^ (0x9E3779B97F4A7C15ull * (tag + 1)));
  return sm.next();
}

Field make_field(u64 seed, u32 index, u64 extent, ThreadPool* pool) {
  Field f;
  f.dims = mgard::Dims{extent, extent, extent};
  const u64 s = mix_seed(seed, index);
  switch (index % 3) {
    case 0:
      f.dataset = "hurricane";
      f.data = data::hurricane_pressure(f.dims, s, pool);
      break;
    case 1:
      f.dataset = "nyx";
      f.data = data::nyx_temperature(f.dims, s, pool);
      break;
    default:
      f.dataset = "scale";
      f.data = data::scale_pressure(f.dims, s, pool);
      break;
  }
  return f;
}

World::World(std::string dir, core::PipelineConfig config, SpanRecorder* rec,
             unsigned threads, bool fragments_on_disk)
    : dir_(std::move(dir)),
      pool_(threads),
      cluster_(storage::ClusterConfig{kSystems, 0.01, kClusterSeed}) {
  fs::remove_all(dir_);
  fs::create_directories(dir_);
  for (u32 i = 0; fragments_on_disk && i < cluster_.size(); ++i)
    cluster_.system(i).attach_directory(dir_ + "/sys" + std::to_string(i));
  db_ = kv::Db::open(dir_ + "/meta");
  if (rec != nullptr) traced_ = std::make_unique<TracedKv>(*db_, rec);
  pipeline_ = std::make_unique<core::RapidsPipeline>(cluster_, kv(),
                                                     std::move(config), &pool_);
}

World::~World() {
  pipeline_.reset();
  traced_.reset();
  db_.reset();
  std::error_code ec;
  fs::remove_all(dir_, ec);
}

u64 World::fragment_disk_bytes() const {
  u64 total = 0;
  for (u32 i = 0; i < cluster_.size(); ++i)
    total += directory_bytes(dir_ + "/sys" + std::to_string(i));
  return total;
}

u64 expected_stored_bytes(const core::ObjectRecord& record, u32 n) {
  u64 total = 0;
  for (std::size_t j = 0; j < record.level_sizes.size(); ++j) {
    const u64 k = n - record.ft.at(j);
    total += n * ((record.level_sizes[j] + k - 1) / k);
  }
  return total;
}

}  // namespace rapids::perfbench
