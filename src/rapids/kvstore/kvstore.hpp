#pragma once

/// \file kvstore.hpp
/// The metadata-store interface the pipeline programs against. The embedded
/// single-node Db (the paper's deployed configuration) implements it, and so
/// can any decorator or alternative store without touching the pipeline.

#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace rapids::kv {

/// Minimal ordered key-value contract used by the data-management layers.
class KvStore {
 public:
  virtual ~KvStore() = default;

  /// Insert or overwrite.
  virtual void put(const std::string& key, const std::string& value) = 0;

  /// Insert or overwrite a batch of entries. Implementations may group the
  /// batch into a single durability barrier (one WAL append / flush for all
  /// N entries) instead of one per entry — the pipeline writes all fragment
  /// locations of one level this way. Default: loop over put().
  virtual void put_batch(
      std::span<const std::pair<std::string, std::string>> entries) {
    for (const auto& [key, value] : entries) put(key, value);
  }

  /// Delete (absent keys are a no-op).
  virtual void del(const std::string& key) = 0;

  /// Delete a batch of keys. Like put_batch, implementations may group the
  /// batch into a single durability barrier — migration GC drops every
  /// superseded fragment-location key of an object this way. Default: loop
  /// over del().
  virtual void del_batch(std::span<const std::string> keys) {
    for (const auto& key : keys) del(key);
  }

  /// Lookup; nullopt if absent or deleted.
  virtual std::optional<std::string> get(const std::string& key) = 0;

  /// All live entries whose keys start with `prefix`, in key order.
  virtual std::vector<std::pair<std::string, std::string>> scan_prefix(
      const std::string& prefix) = 0;
};

}  // namespace rapids::kv
