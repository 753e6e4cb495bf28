// Tests of the benchmark's own tracing helpers: the forwarding KvStore
// decorator must answer exactly like a plain kv::Db, and self-time
// arithmetic must be right for nested, sibling and overlapping spans.
// Runs from the build directory: `./perfbench_test` (or `ctest`).

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "rapids/kvstore/db.hpp"
#include "trace.hpp"

namespace {

using rapids::perfbench::Span;
using rapids::perfbench::SpanRecorder;
using rapids::perfbench::TracedKv;
using rapids::perfbench::self_time_ns;

int failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

void decorator_matches_plain_db() {
  namespace fs = std::filesystem;
  const fs::path root = fs::current_path() / "perfbench_test_kv";
  fs::remove_all(root);
  SpanRecorder rec;
  {
    // Small memtable so the script also crosses flushes and compaction.
    rapids::kv::DbOptions opts;
    opts.memtable_flush_bytes = 256;
    opts.compaction_trigger = 2;
    auto plain = rapids::kv::Db::open((root / "plain").string(), opts);
    auto inner = rapids::kv::Db::open((root / "traced").string(), opts);
    TracedKv traced(*inner, &rec);
    rapids::kv::KvStore* stores[2] = {plain.get(), &traced};

    const auto both = [&](auto&& fn) {
      for (auto* s : stores) fn(*s);
    };
    const auto same_get = [&](const std::string& key) {
      CHECK(stores[0]->get(key) == stores[1]->get(key));
    };
    const auto same_scan = [&](const std::string& prefix) {
      CHECK(stores[0]->scan_prefix(prefix) == stores[1]->scan_prefix(prefix));
    };

    for (int i = 0; i < 40; ++i)
      both([&](auto& s) { s.put("obj/" + std::to_string(i % 13), "v" + std::to_string(i)); });
    same_get("obj/3");
    same_get("obj/missing");
    std::vector<std::pair<std::string, std::string>> batch;
    for (int i = 0; i < 20; ++i)
      batch.emplace_back("frag/a/" + std::to_string(i), std::string(30, 'x') + std::to_string(i));
    both([&](auto& s) { s.put_batch(batch); });
    same_scan("frag/a/");
    same_scan("obj/");
    both([&](auto& s) { s.del("obj/4"); });
    both([&](auto& s) { s.del("never/there"); });
    same_get("obj/4");
    const std::vector<std::string> dels = {"frag/a/1", "frag/a/7", "frag/a/19"};
    both([&](auto& s) { s.del_batch(dels); });
    same_scan("frag/");
    same_scan("");
    both([&](auto& s) { s.put("frag/a/7", "back"); });
    same_get("frag/a/7");
    same_scan("frag/a/");

    // The decorator counted and recorded every call made through it.
    // 45 writes (40 put, put_batch, 2 del, del_batch, put), 4 gets, 5 scans.
    const auto c = traced.counters();
    CHECK(c.calls == 54);
    CHECK(rec.spans().size() == c.calls);
    CHECK(c.bytes_written > 0);
  }
  // Reopening replays the same WAL/runs: both stores still agree.
  {
    auto plain = rapids::kv::Db::open((root / "plain").string());
    auto inner = rapids::kv::Db::open((root / "traced").string());
    CHECK(plain->scan_prefix("") == inner->scan_prefix(""));
  }
  fs::remove_all(root);
}

Span span(std::uint64_t id, std::uint64_t parent, std::int64_t start, std::int64_t end) {
  return Span{id, parent, 0, "s" + std::to_string(id), start, end, 0};
}

void self_time_arithmetic() {
  // Root [0, 100) with siblings [10, 30) and [50, 60): self = 100 - 30.
  {
    const std::vector<Span> s = {span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 60)};
    CHECK(self_time_ns(s, 1) == 70);
    CHECK(self_time_ns(s, 2) == 20);
  }
  // Nested: grandchildren count toward their parent, not the root.
  {
    const std::vector<Span> s = {span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 2, 20, 40),
                                 span(4, 3, 25, 30)};
    CHECK(self_time_ns(s, 1) == 50);
    CHECK(self_time_ns(s, 2) == 30);
    CHECK(self_time_ns(s, 3) == 15);
    CHECK(self_time_ns(s, 4) == 5);
  }
  // Overlapping siblings (concurrent stages) count once; children that
  // stick out of the parent are clipped to it.
  {
    const std::vector<Span> s = {span(1, 0, 100, 200), span(2, 1, 90, 130),
                                 span(3, 1, 120, 150), span(4, 1, 140, 145),
                                 span(5, 1, 190, 260)};
    CHECK(self_time_ns(s, 1) == 100 - 50 - 10);
  }
  // Children laid end to end beyond the parent's end leave no self time.
  {
    const std::vector<Span> s = {span(1, 0, 0, 10), span(2, 1, 0, 8), span(3, 1, 8, 16)};
    CHECK(self_time_ns(s, 1) == 0);
  }
  // Unknown id.
  {
    const std::vector<Span> s = {span(1, 0, 0, 10)};
    CHECK(!self_time_ns(s, 9).has_value());
  }
  // Report stages recorded by record_stages nest under the op's span.
  {
    SpanRecorder rec;
    rapids::perfbench::ScopedSpan op(rec, "op", 0, true);
    const std::pair<const char*, double> stages[] = {{"a", 0.0}, {"b", -1.0}, {"c", 1e-6}};
    rapids::perfbench::record_stages(rec, op.id(), op.start_ns(), stages);
    op.finish();
    const auto all = rec.spans();
    CHECK(all.size() == 2);  // only the positive stage and the op itself
    CHECK(all[0].name == "c" && all[0].parent == op.id());
    CHECK(all[0].duration_ns() == 1000);
  }
  // A disabled recorder records nothing.
  {
    SpanRecorder rec(false);
    rapids::perfbench::ScopedSpan op(rec, "op", 0, true);
    op.finish();
    CHECK(rec.spans().empty());
  }
}

void chrome_trace_is_written() {
  SpanRecorder rec;
  rec.record("with \"quote\"", 1000, 3000, 0, 0);
  const std::string path = "perfbench_test_trace.json";
  CHECK(rec.write_chrome_trace(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  CHECK(f != nullptr);
  if (f != nullptr) {
    char buf[512] = {};
    const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
    std::fclose(f);
    const std::string text(buf, n);
    CHECK(text.find("\"traceEvents\"") != std::string::npos);
    CHECK(text.find("with \\\"quote\\\"") != std::string::npos);
    CHECK(text.find("\"dur\": 2.000") != std::string::npos);
  }
  std::filesystem::remove(path);
}

}  // namespace

int main() {
  decorator_matches_plain_db();
  self_time_arithmetic();
  chrome_trace_is_written();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_test: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
