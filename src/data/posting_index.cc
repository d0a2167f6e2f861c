#include "data/posting_index.h"

#include <algorithm>

#include "util/logging.h"

namespace themis::data {

size_t PostingList::RowsIn(uint32_t lo, uint32_t hi, uint32_t* out) const {
  if (lo >= hi || num_blocks_ == 0) return 0;
  const size_t block_end =
      std::min<size_t>(num_blocks_, ((hi - 1) >> kBlockBits) + 1);
  size_t n = 0;
  for (size_t b = lo >> kBlockBits; b < block_end; ++b) {
    const uint32_t base = static_cast<uint32_t>(b) << kBlockBits;
    const uint16_t* first = offsets_ + starts_[b];
    const uint16_t* last = offsets_ + starts_[b + 1];
    // Only the range's first and last block can be cut; both bounds fall
    // inside the block there, so they fit an offset.
    if (lo > base) {
      first = std::lower_bound(first, last, static_cast<uint16_t>(lo - base));
    }
    if (hi - base < kBlockRows) {
      last = std::lower_bound(first, last, static_cast<uint16_t>(hi - base));
    }
    for (; first != last; ++first) out[n++] = base + *first;
  }
  return n;
}

PostingIndex::PostingIndex(const Table* table)
    : table_(table),
      num_blocks_((table->num_rows() + PostingList::kBlockRows - 1) >>
                  PostingList::kBlockBits),
      attrs_(std::make_unique<Postings[]>(table->num_attributes())) {}

const PostingIndex::Postings& PostingIndex::Built(size_t attr) const {
  THEMIS_CHECK(attr < table_->num_attributes())
      << "attribute " << attr << " out of range";
  Postings& p = attrs_[attr];
  std::call_once(p.built, [&] {
    const std::vector<ValueCode>& column = table_->column(attr);
    size_t num_codes = table_->schema()->domain(attr).size();
    for (const ValueCode code : column) {
      THEMIS_CHECK(code >= 0) << "negative code in attribute " << attr;
      num_codes = std::max(num_codes, static_cast<size_t>(code) + 1);
    }
    // Counting sort by (code, block): count each run, prefix-sum the
    // counts into run starts, then scatter rows in ascending order so
    // every run comes out sorted.
    const size_t blocks = num_blocks_;
    std::vector<uint32_t> starts(num_codes * blocks + 1, 0);
    for (size_t r = 0; r < column.size(); ++r) {
      ++starts[static_cast<size_t>(column[r]) * blocks +
               (r >> PostingList::kBlockBits) + 1];
    }
    for (size_t i = 1; i < starts.size(); ++i) starts[i] += starts[i - 1];
    std::vector<uint32_t> cursor(starts.begin(), starts.end() - 1);
    std::vector<uint16_t> offsets(column.size());
    for (size_t r = 0; r < column.size(); ++r) {
      const size_t run = static_cast<size_t>(column[r]) * blocks +
                         (r >> PostingList::kBlockBits);
      offsets[cursor[run]++] =
          static_cast<uint16_t>(r & (PostingList::kBlockRows - 1));
    }
    p.num_codes = num_codes;
    p.offsets = std::move(offsets);
    p.starts = std::move(starts);
  });
  return p;
}

PostingList PostingIndex::List(size_t attr, ValueCode code) const {
  const Postings& p = Built(attr);
  if (code < 0 || static_cast<size_t>(code) >= p.num_codes) return {};
  return PostingList(p.offsets.data(),
                     p.starts.data() + static_cast<size_t>(code) * num_blocks_,
                     num_blocks_);
}

}  // namespace themis::data
