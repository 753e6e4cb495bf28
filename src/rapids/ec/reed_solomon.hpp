#pragma once

/// \file reed_solomon.hpp
/// Systematic Reed-Solomon erasure codec over GF(2^8): RS(k, m) splits a byte
/// payload into k equal data fragments and computes m parity fragments such
/// that *any* k of the k+m fragments reconstruct the payload. This is the
/// same contract the paper obtains from liberasurecode. Encode and decode of
/// large payloads are parallelized by striping across a ThreadPool.

#include <optional>
#include <vector>

#include "rapids/ec/fragment.hpp"
#include "rapids/ec/matrix.hpp"
#include "rapids/util/common.hpp"

namespace rapids {
class ThreadPool;
}

namespace rapids::ec {

/// Which construction to use for the encode matrix. Both satisfy the
/// any-k-of-n property; Cauchy has slightly denser parity rows but a closed
/// form. The default matches the classic jerasure/vandermonde behaviour.
enum class MatrixKind { kVandermonde, kCauchy };

/// Reed-Solomon codec for a fixed (k, m) geometry. Thread-safe after
/// construction (encode/decode do not mutate shared state).
class ReedSolomon {
 public:
  /// Build an RS(k, m) codec. Requires 1 <= k, 1 <= m, k + m <= 255.
  ReedSolomon(u32 k, u32 m, MatrixKind kind = MatrixKind::kVandermonde);

  u32 k() const { return k_; }
  u32 m() const { return m_; }
  u32 n() const { return k_ + m_; }
  MatrixKind kind() const { return kind_; }

  /// Fragment payload size for an input of `data_size` bytes: the input is
  /// zero-padded up to a multiple of k and split evenly.
  u64 fragment_size(u64 data_size) const { return ceil_div(data_size, k_); }

  /// Encode `data` into k data + m parity fragments for object/level
  /// identified by (object_name, level). Fragment payloads are
  /// fragment_size(data.size()) bytes each; CRCs are filled in. If `pool` is
  /// non-null, the data-row copies and parity computation are striped across
  /// it; the fragments are byte-identical with or without a pool.
  std::vector<Fragment> encode(std::span<const u8> data,
                               const std::string& object_name, u32 level,
                               ThreadPool* pool = nullptr) const;

  /// Reconstruct the original payload from any >= k surviving fragments
  /// (mixed data/parity, any order). Duplicate indices and fragments failing
  /// their CRC check are skipped as long as k distinct healthy fragments
  /// remain. Throws invariant_error if fewer than k healthy distinct
  /// fragments are available or if geometry disagrees. If `pool` is
  /// non-null, the matrix application is striped.
  std::vector<u8> decode(std::span<const Fragment> fragments,
                         ThreadPool* pool = nullptr) const;

  /// Rebuild the payload of one specific missing fragment (data or parity)
  /// from any >= k survivors — the "repair" path used when a storage system
  /// permanently loses a fragment.
  Fragment reconstruct_fragment(std::span<const Fragment> survivors,
                                u32 missing_index, ThreadPool* pool = nullptr) const;

  /// The (k+m) x k encode matrix (top k rows = identity).
  const Matrix& encode_matrix() const { return encode_matrix_; }

 private:
  std::vector<u8> decode_rows(std::span<const Fragment> fragments, u64* level_bytes,
                              ThreadPool* pool) const;

  u32 k_;
  u32 m_;
  MatrixKind kind_;
  Matrix encode_matrix_;
};

}  // namespace rapids::ec
