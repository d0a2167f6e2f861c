#ifndef THEMIS_DATA_DOMAIN_H_
#define THEMIS_DATA_DOMAIN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace themis::data {

/// Dictionary-encoded value: an index into the attribute's active domain.
/// Themis assumes each attribute's active domain is discrete and ordered
/// (Sec 3); continuous attributes are bucketized first.
using ValueCode = int32_t;
inline constexpr ValueCode kNullCode = -1;

/// The active domain of one attribute: its name and the ordered list of
/// distinct values (as display labels). Codes are positions in that list.
class Domain {
 public:
  Domain() = default;
  explicit Domain(std::string name) : name_(std::move(name)) {}
  Domain(std::string name, std::vector<std::string> labels);

  const std::string& name() const { return name_; }

  /// Number of distinct values N_i.
  size_t size() const { return labels_.size(); }

  /// Adds `label` if absent; returns its code either way. Looking up a
  /// label that is present copies nothing.
  ValueCode Intern(std::string_view label);

  /// Code for `label`, or error if it is not in the active domain.
  Result<ValueCode> Code(std::string_view label) const;

  /// True if `label` is in the active domain.
  bool Contains(std::string_view label) const;

  /// Label for `code`. code must be in [0, size()).
  const std::string& Label(ValueCode code) const;

  const std::vector<std::string>& labels() const { return labels_; }

  /// Per-code translation into `target`'s code space: out[c] is the code
  /// of Label(c) in `target`, or kNullCode when that label is absent
  /// there. Lets join probes compare dictionary codes directly when the
  /// two sides' domains differ (label equality == translated-code
  /// equality, since labels are unique within a domain).
  std::vector<ValueCode> TranslateTo(const Domain& target) const;

 private:
  std::string name_;
  std::vector<std::string> labels_;
  /// Hashes std::string and std::string_view alike, so the index is
  /// probed with a view (heterogeneous lookup).
  struct LabelHash {
    using is_transparent = void;
    size_t operator()(std::string_view label) const {
      return std::hash<std::string_view>{}(label);
    }
  };
  std::unordered_map<std::string, ValueCode, LabelHash, std::equal_to<>>
      index_;
};

}  // namespace themis::data

#endif  // THEMIS_DATA_DOMAIN_H_
