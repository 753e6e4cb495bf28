#pragma once

/// \file trace.hpp
/// The benchmark's own tracing: an in-memory span recorder, self-time
/// arithmetic over its spans, a Chrome trace-event writer, and a forwarding
/// kv::KvStore decorator that records one span per metadata call.
///
/// Spans are recorded around the calls the benchmark makes into each layer
/// (pipeline / service calls, metadata calls through the decorator, alone
/// replays of public kernels). Stage times read from a call's report become
/// child spans of that call's span, laid end to end from its start. Nothing
/// here reaches inside the library.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "rapids/kvstore/kvstore.hpp"

namespace rapids::perfbench {

/// One recorded interval. Times are nanoseconds since the recorder started.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< operation the span belongs to (0 = none)
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;      ///< small per-thread index, for the viewer

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Thread-safe in-memory span store. A disabled recorder records nothing and
/// costs one branch per call site; recording can be switched on and off
/// between operations (the traced run measures its own overhead that way).
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled = true);

  bool enabled() const { return enabled_.load(); }
  void set_enabled(bool on) { enabled_.store(on); }
  std::int64_t now_ns() const;

  /// Reserve an id for a span that will be recorded later (so children can
  /// name it as their parent before it closes).
  std::uint64_t reserve_id() { return next_id_.fetch_add(1); }

  /// Record a finished span; returns its id (0 when disabled).
  std::uint64_t record(std::string name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t parent = 0,
                       std::uint64_t request = 0, std::uint64_t id = 0);

  /// The operation span that calls without a known parent (metadata calls
  /// made from pool threads) attach to. Set by operation ScopedSpans.
  std::uint64_t current_op() const { return current_op_.load(); }
  void set_current_op(std::uint64_t id) { current_op_.store(id); }

  std::vector<Span> spans() const;
  void clear();

  /// Write every span as a Chrome trace-event ("X" complete events, µs).
  /// Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::atomic<bool> enabled_;
  const std::chrono::steady_clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> current_op_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: opens at construction, records at finish() or destruction.
/// An operation span (`op = true`) also becomes the recorder's current
/// operation for its lifetime, so decorator spans nest under it.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, std::uint64_t parent = 0,
             bool op = false);
  ~ScopedSpan() { finish(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }
  std::int64_t start_ns() const { return start_; }
  /// Close the span now (idempotent); returns its duration in ns.
  std::int64_t finish();

 private:
  SpanRecorder& rec_;
  std::string name_;
  std::uint64_t parent_;
  std::uint64_t id_;
  std::uint64_t prev_op_ = 0;
  bool op_;
  bool done_ = false;
  std::int64_t start_;
  std::int64_t duration_ = 0;
};

/// Write `s` to `f` as a JSON string literal (quotes and control characters
/// escaped).
void write_json_string(std::FILE* f, const std::string& s);

/// Record report stage times as children of `parent`, laid end to end from
/// `start_ns` (stages with a non-positive duration are skipped).
void record_stages(SpanRecorder& rec, std::uint64_t parent,
                   std::int64_t start_ns,
                   std::span<const std::pair<const char*, double>> stages_s);

/// Self time of span `id`: its duration minus the part of it covered by the
/// union of its direct children (clipped to the span). Overlapping children
/// count once. Returns nullopt when `id` is not among `spans`.
std::optional<std::int64_t> self_time_ns(std::span<const Span> spans,
                                         std::uint64_t id);

/// Forwarding metadata store: every call goes to `inner` unchanged; when a
/// recorder is attached each call is also recorded as a span under the
/// recorder's current operation. Counts calls, busy time and the key+value
/// bytes written (the logical WAL payload).
class TracedKv final : public kv::KvStore {
 public:
  explicit TracedKv(kv::KvStore& inner, SpanRecorder* rec = nullptr)
      : inner_(inner), rec_(rec) {}

  void put(const std::string& key, const std::string& value) override;
  void put_batch(
      std::span<const std::pair<std::string, std::string>> entries) override;
  void del(const std::string& key) override;
  void del_batch(std::span<const std::string> keys) override;
  std::optional<std::string> get(const std::string& key) override;
  std::vector<std::pair<std::string, std::string>> scan_prefix(
      const std::string& prefix) override;

  struct Counters {
    std::uint64_t calls = 0;
    std::uint64_t busy_ns = 0;
    std::uint64_t bytes_written = 0;
  };
  Counters counters() const {
    return {calls_.load(), busy_ns_.load(), bytes_written_.load()};
  }

 private:
  /// Times `fn`, counts it and records its span.
  template <class Fn>
  decltype(auto) call(const char* name, std::uint64_t written, Fn&& fn);

  kv::KvStore& inner_;
  SpanRecorder* rec_;
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
};

}  // namespace rapids::perfbench
