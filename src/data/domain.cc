#include "data/domain.h"

#include "util/logging.h"

namespace themis::data {

Domain::Domain(std::string name, std::vector<std::string> labels)
    : name_(std::move(name)), labels_(std::move(labels)) {
  for (size_t i = 0; i < labels_.size(); ++i) {
    auto [it, inserted] =
        index_.emplace(labels_[i], static_cast<ValueCode>(i));
    THEMIS_CHECK(inserted) << "duplicate label '" << labels_[i]
                           << "' in domain " << name_;
  }
}

ValueCode Domain::Intern(std::string_view label) {
  auto it = index_.find(label);
  if (it != index_.end()) return it->second;
  ValueCode code = static_cast<ValueCode>(labels_.size());
  labels_.emplace_back(label);
  index_.emplace(labels_.back(), code);
  return code;
}

Result<ValueCode> Domain::Code(std::string_view label) const {
  auto it = index_.find(label);
  if (it == index_.end()) {
    return Status::NotFound("value '" + std::string(label) +
                            "' not in domain of " + name_);
  }
  return it->second;
}

bool Domain::Contains(std::string_view label) const {
  return index_.find(label) != index_.end();
}

std::vector<ValueCode> Domain::TranslateTo(const Domain& target) const {
  std::vector<ValueCode> out(labels_.size(), kNullCode);
  for (size_t c = 0; c < labels_.size(); ++c) {
    auto code = target.Code(labels_[c]);
    if (code.ok()) out[c] = *code;
  }
  return out;
}

const std::string& Domain::Label(ValueCode code) const {
  THEMIS_CHECK(code >= 0 && static_cast<size_t>(code) < labels_.size())
      << "code " << code << " out of range for domain " << name_;
  return labels_[static_cast<size_t>(code)];
}

}  // namespace themis::data
