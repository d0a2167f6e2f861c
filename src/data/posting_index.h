#ifndef THEMIS_DATA_POSTING_INDEX_H_
#define THEMIS_DATA_POSTING_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "data/domain.h"
#include "data/table.h"

namespace themis::data {

/// The ascending ids of the rows holding one attribute code: a view into
/// a PostingIndex. Row ids are stored as uint16 offsets within blocks of
/// kBlockRows rows, so a list costs two bytes per row plus one boundary
/// per block.
class PostingList {
 public:
  static constexpr uint32_t kBlockBits = 16;
  static constexpr uint32_t kBlockRows = uint32_t{1} << kBlockBits;

  PostingList() = default;
  /// `block_starts` holds num_blocks + 1 ascending positions into
  /// `offsets`: block b's offsets are [block_starts[b], block_starts[b+1]).
  PostingList(const uint16_t* offsets, const uint32_t* block_starts,
              size_t num_blocks)
      : offsets_(offsets), starts_(block_starts), num_blocks_(num_blocks) {}

  /// Rows in the list.
  size_t size() const {
    return num_blocks_ == 0 ? 0 : starts_[num_blocks_] - starts_[0];
  }

  /// Writes the listed rows in [lo, hi) to `out` in ascending order and
  /// returns how many there are. `out` needs room for
  /// min(size(), hi - lo) ids.
  size_t RowsIn(uint32_t lo, uint32_t hi, uint32_t* out) const;

  /// Calls fn(row) for every listed row, in ascending order.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    for (size_t b = 0; b < num_blocks_; ++b) {
      const uint32_t base = static_cast<uint32_t>(b) << kBlockBits;
      for (uint32_t i = starts_[b]; i < starts_[b + 1]; ++i) {
        fn(base + offsets_[i]);
      }
    }
  }

 private:
  const uint16_t* offsets_ = nullptr;
  const uint32_t* starts_ = nullptr;
  size_t num_blocks_ = 0;
};

/// Inverted code index of one Table: for each attribute and each of its
/// codes, the ascending ids of the rows holding that code. An attribute's
/// lists are built on its first List() call — one counting-sort pass over
/// the column — and published through a per-attribute once-flag, so
/// concurrent first users wait on a single build and later calls only
/// read. The table must outlive the index and must not change after the
/// first List() call on it.
class PostingIndex {
 public:
  explicit PostingIndex(const Table* table);

  const Table& table() const { return *table_; }

  /// The rows whose attribute `attr` holds `code`. Codes outside the
  /// attribute's domain (kNullCode included) give an empty list.
  PostingList List(size_t attr, ValueCode code) const;

 private:
  /// One attribute's lists: every row id, ordered by (code, row) and
  /// stored as in-block offsets, with the start of each (code, block)
  /// run. Code c's runs are starts[c * blocks .. (c + 1) * blocks].
  struct Postings {
    std::once_flag built;
    size_t num_codes = 0;
    std::vector<uint16_t> offsets;
    std::vector<uint32_t> starts;
  };

  const Postings& Built(size_t attr) const;

  const Table* table_;
  size_t num_blocks_;
  std::unique_ptr<Postings[]> attrs_;
};

}  // namespace themis::data

#endif  // THEMIS_DATA_POSTING_INDEX_H_
