#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace rapids::perfbench {

namespace {

/// Small stable per-thread index (the viewer shows one row per thread).
std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

}  // namespace

void write_json_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f, "\\u%04x", c);
      continue;
    }
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::uint64_t SpanRecorder::record(std::string name, std::int64_t start_ns,
                                   std::int64_t end_ns, std::uint64_t parent,
                                   std::uint64_t request, std::uint64_t id) {
  if (!enabled()) return 0;
  if (id == 0) id = reserve_id();
  Span s{id, parent, request, std::move(name), start_ns, end_ns, thread_index()};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return id;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  const auto all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f, "{\"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"name\": ", s.tid);
    write_json_string(f, s.name);
    std::fprintf(f,
                 ", \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu, \"request\": %llu}}%s\n",
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.duration_ns()) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 == all.size() ? "" : ",");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder& rec, std::string name,
                       std::uint64_t parent, bool op)
    : rec_(rec),
      name_(std::move(name)),
      parent_(parent),
      id_(rec.enabled() ? rec.reserve_id() : 0),
      op_(op && rec.enabled()),
      start_(rec.now_ns()) {
  if (op_) {
    prev_op_ = rec_.current_op();
    rec_.set_current_op(id_);
  }
}

std::int64_t ScopedSpan::finish() {
  if (done_) return duration_;
  done_ = true;
  const std::int64_t end = rec_.now_ns();
  duration_ = end - start_;
  if (op_) rec_.set_current_op(prev_op_);
  rec_.record(std::move(name_), start_, end, parent_, op_ ? id_ : parent_, id_);
  return duration_;
}

void record_stages(SpanRecorder& rec, std::uint64_t parent,
                   std::int64_t start_ns,
                   std::span<const std::pair<const char*, double>> stages_s) {
  std::int64_t t = start_ns;
  for (const auto& [name, seconds] : stages_s) {
    if (!(seconds > 0.0)) continue;
    const auto dur = static_cast<std::int64_t>(seconds * 1e9);
    rec.record(name, t, t + dur, parent, parent);
    t += dur;
  }
}

std::optional<std::int64_t> self_time_ns(std::span<const Span> spans,
                                         std::uint64_t id) {
  const auto it = std::find_if(spans.begin(), spans.end(),
                               [&](const Span& s) { return s.id == id; });
  if (it == spans.end()) return std::nullopt;
  std::vector<std::pair<std::int64_t, std::int64_t>> kids;
  for (const Span& c : spans) {
    if (c.parent != id || c.id == id) continue;
    const std::int64_t lo = std::max(c.start_ns, it->start_ns);
    const std::int64_t hi = std::min(c.end_ns, it->end_ns);
    if (hi > lo) kids.emplace_back(lo, hi);
  }
  std::sort(kids.begin(), kids.end());
  std::int64_t covered = 0;
  std::int64_t run_lo = 0, run_hi = -1;
  bool open = false;
  for (const auto& [lo, hi] : kids) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) covered += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) covered += run_hi - run_lo;
  return it->duration_ns() - covered;
}

template <class Fn>
decltype(auto) TracedKv::call(const char* name, std::uint64_t written,
                              Fn&& fn) {
  const std::int64_t start = rec_ != nullptr ? rec_->now_ns() : 0;
  const auto t0 = std::chrono::steady_clock::now();
  struct Done {
    TracedKv& self;
    const char* name;
    std::int64_t start;
    std::chrono::steady_clock::time_point t0;
    std::uint64_t written;
    ~Done() {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      self.calls_.fetch_add(1);
      self.busy_ns_.fetch_add(static_cast<std::uint64_t>(ns));
      self.bytes_written_.fetch_add(written);
      if (self.rec_ != nullptr) {
        const std::uint64_t op = self.rec_->current_op();
        self.rec_->record(name, start, start + ns, op, op);
      }
    }
  } done{*this, name, start, t0, written};
  return fn();
}

void TracedKv::put(const std::string& key, const std::string& value) {
  call("kvstore.put", key.size() + value.size(),
       [&] { inner_.put(key, value); });
}

void TracedKv::put_batch(
    std::span<const std::pair<std::string, std::string>> entries) {
  std::uint64_t bytes = 0;
  for (const auto& [k, v] : entries) bytes += k.size() + v.size();
  call("kvstore.put_batch", bytes, [&] { inner_.put_batch(entries); });
}

void TracedKv::del(const std::string& key) {
  call("kvstore.del", key.size(), [&] { inner_.del(key); });
}

void TracedKv::del_batch(std::span<const std::string> keys) {
  std::uint64_t bytes = 0;
  for (const auto& k : keys) bytes += k.size();
  call("kvstore.del_batch", bytes, [&] { inner_.del_batch(keys); });
}

std::optional<std::string> TracedKv::get(const std::string& key) {
  return call("kvstore.get", 0, [&] { return inner_.get(key); });
}

std::vector<std::pair<std::string, std::string>> TracedKv::scan_prefix(
    const std::string& prefix) {
  return call("kvstore.scan_prefix", 0,
              [&] { return inner_.scan_prefix(prefix); });
}

}  // namespace rapids::perfbench
