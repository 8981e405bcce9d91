#include "src/core/state_store.h"

#include "src/common/serde.h"

namespace impeller {

MapStateStore::MapStateStore(std::string name, ChangeSink sink,
                             const uint32_t* ctx_substream)
    : name_(std::move(name)),
      sink_(std::move(sink)),
      ctx_substream_(ctx_substream) {}

std::optional<std::string> MapStateStore::Get(std::string_view key) const {
  auto it = data_.find(key);
  if (it == data_.end()) {
    return std::nullopt;
  }
  return it->second.value;
}

std::optional<uint32_t> MapStateStore::GetOwner(std::string_view key) const {
  auto it = data_.find(key);
  if (it == data_.end()) {
    return std::nullopt;
  }
  return it->second.owner;
}

void MapStateStore::Put(std::string_view key, std::string_view value) {
  // Last writer wins: a write during record processing stamps the record's
  // input substream; a write outside it (timers) keeps the existing owner,
  // so timer-driven re-puts of a key never orphan it.
  uint32_t ctx = ctx_substream_ != nullptr ? *ctx_substream_
                                           : kUnownedSubstream;
  auto it = data_.find(key);
  if (it == data_.end()) {
    it = data_.emplace(std::string(key), Entry{std::string(value), ctx})
             .first;
    bytes_ += key.size() + value.size();
  } else {
    // Replaced: adjust for the value size delta only.
    bytes_ -= std::min(bytes_, it->second.value.size());
    bytes_ += value.size();
    it->second.value.assign(value);
    if (ctx != kUnownedSubstream) {
      it->second.owner = ctx;
    }
  }
  if (sink_) {
    sink_(ChangeLogView{name_, key, /*is_delete=*/false, value,
                        it->second.owner});
  }
}

void MapStateStore::Delete(std::string_view key) {
  auto it = data_.find(key);
  if (it == data_.end()) {
    return;
  }
  uint32_t owner = it->second.owner;
  bytes_ -= std::min(bytes_, it->first.size() + it->second.value.size());
  data_.erase(it);
  if (sink_) {
    sink_(ChangeLogView{name_, key, /*is_delete=*/true, {}, owner});
  }
}

void MapStateStore::ScanPrefix(
    std::string_view prefix,
    const std::function<bool(std::string_view, std::string_view)>& visit)
    const {
  for (auto it = data_.lower_bound(prefix); it != data_.end();
       ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    if (!visit(it->first, it->second.value)) {
      break;
    }
  }
}

void MapStateStore::ScanRange(
    std::string_view from, std::string_view to,
    const std::function<bool(std::string_view, std::string_view)>& visit)
    const {
  auto it = data_.lower_bound(from);
  auto end = data_.lower_bound(to);
  for (; it != end; ++it) {
    if (!visit(it->first, it->second.value)) {
      break;
    }
  }
}

void MapStateStore::ScanAll(
    const std::function<bool(std::string_view, std::string_view, uint32_t)>&
        visit) const {
  for (const auto& [key, entry] : data_) {
    if (!visit(key, entry.value, entry.owner)) {
      break;
    }
  }
}

void MapStateStore::DeleteRange(std::string_view from, std::string_view to) {
  std::vector<std::string> doomed;
  ScanRange(from, to, [&](std::string_view key, std::string_view) {
    doomed.emplace_back(key);
    return true;
  });
  for (const auto& key : doomed) {
    Delete(key);
  }
}

void MapStateStore::ApplyChange(const ChangeLogView& change) {
  if (change.is_delete) {
    auto it = data_.find(change.key);
    if (it != data_.end()) {
      bytes_ -= std::min(bytes_, it->first.size() + it->second.value.size());
      data_.erase(it);
    }
    return;
  }
  auto it = data_.find(change.key);
  if (it == data_.end()) {
    data_.emplace(std::string(change.key),
                  Entry{std::string(change.value), change.substream});
    bytes_ += change.key.size() + change.value.size();
  } else {
    bytes_ -= std::min(bytes_, it->second.value.size());
    bytes_ += change.value.size();
    it->second.value.assign(change.value);
    it->second.owner = change.substream;
  }
}

namespace {

// Leading varint of an owner-carrying snapshot. Pre-ownership snapshots
// start directly with the entry count, which can never reach this value, so
// MergeSnapshot can decode both formats: entries without a trailing owner
// field default to kUnownedSubstream (checkpoints taken before the
// ownership upgrade must stay recoverable).
constexpr uint64_t kOwnedSnapshotMark = ~uint64_t{0};

}  // namespace

std::string MapStateStore::SerializeSnapshot() const {
  BinaryWriter w(bytes_ + 32);
  w.WriteVarU64(kOwnedSnapshotMark);
  w.WriteVarU64(data_.size());
  for (const auto& [key, entry] : data_) {
    w.WriteString(key);
    w.WriteString(entry.value);
    w.WriteVarU64(entry.owner);
  }
  return w.Take();
}

Status MapStateStore::RestoreSnapshot(std::string_view raw) {
  Clear();
  return MergeSnapshot(raw, nullptr);
}

Status MapStateStore::MergeSnapshot(std::string_view raw,
                                    const OwnerFilter& keep) {
  BinaryReader r(raw);
  IMPELLER_ASSIGN_OR_RETURN(uint64_t count, r.ReadVarU64());
  const bool has_owner = count == kOwnedSnapshotMark;
  if (has_owner) {
    IMPELLER_ASSIGN_OR_RETURN(count, r.ReadVarU64());
  }
  for (uint64_t i = 0; i < count; ++i) {
    IMPELLER_ASSIGN_OR_RETURN(std::string key, r.ReadString());
    IMPELLER_ASSIGN_OR_RETURN(std::string value, r.ReadString());
    uint32_t owner = kUnownedSubstream;
    if (has_owner) {
      IMPELLER_ASSIGN_OR_RETURN(uint64_t owner_raw, r.ReadVarU64());
      owner = static_cast<uint32_t>(owner_raw);
    }
    if (keep && !keep(owner)) {
      continue;
    }
    // Replacements (merging several handoff sources, or a snapshot over a
    // prior merge) must shed the old entry's size or bytes_ drifts upward.
    auto it = data_.find(key);
    if (it != data_.end()) {
      bytes_ -= std::min(bytes_, it->first.size() + it->second.value.size());
    }
    bytes_ += key.size() + value.size();
    data_.insert_or_assign(std::move(key), Entry{std::move(value), owner});
  }
  return OkStatus();
}

void MapStateStore::Clear() {
  data_.clear();
  bytes_ = 0;
}

std::string EncodeCompositeKey(std::string_view key, uint64_t suffix) {
  std::string out;
  out.reserve(key.size() + 9);
  out.append(key);
  out.push_back('\0');
  for (int i = 7; i >= 0; --i) {
    out.push_back(static_cast<char>((suffix >> (8 * i)) & 0xFF));
  }
  return out;
}

Result<std::pair<std::string, uint64_t>> DecodeCompositeKey(
    std::string_view raw) {
  if (raw.size() < 9) {
    return DataLossError("composite key too short");
  }
  size_t sep = raw.size() - 9;
  if (raw[sep] != '\0') {
    return DataLossError("composite key missing separator");
  }
  uint64_t suffix = 0;
  for (size_t i = sep + 1; i < raw.size(); ++i) {
    suffix = (suffix << 8) | static_cast<uint8_t>(raw[i]);
  }
  return std::make_pair(std::string(raw.substr(0, sep)), suffix);
}

}  // namespace impeller
