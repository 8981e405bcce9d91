// In-memory state store with change-log capture (paper §4: "Impeller stores
// state in memory for low access latency ... updates to the local state
// store are appended to a change log stream for fault tolerance").
//
// All operator state — aggregate tables, window panes, join buffers — is
// kept in MapStateStores over an ordered map with type-specific key
// encodings, so change-log replay, snapshotting and checkpointing are
// uniform across every stateful operator.
//
// Keyed state is substream-range-owned (§5.3): every entry remembers the
// input substream whose records last wrote it. State keys are not routing
// keys (window panes use composite keys, table aggregates keep per-row and
// per-group stores), so ownership cannot be recomputed by hashing — it is
// recorded at write time from the runtime's current-record context, carried
// through change-log records and snapshots, and is what lets a rescaled
// generation split or merge exactly its substream range of the state.
#ifndef IMPELLER_SRC_CORE_STATE_STORE_H_
#define IMPELLER_SRC_CORE_STATE_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/core/record.h"

namespace impeller {

// Receives every mutation for change-log appends. Null = capture disabled
// (replay, unsafe mode). The view's fields alias the caller's key/value and
// the store's name; the sink must encode (or copy) before returning.
using ChangeSink = std::function<void(const ChangeLogView&)>;

// Ownership predicate over an entry's owner substream. May normalize the
// owner in place (e.g. map kUnownedSubstream to a source task's default
// substream) before deciding; returns whether the entry is kept.
using OwnerFilter = std::function<bool(uint32_t& owner)>;

class MapStateStore {
 public:
  // `ctx_substream` (optional) points at the runtime's current-record input
  // substream; each Put/Delete stamps the entry's owner from it. Null (or
  // pointing at kUnownedSubstream) leaves new entries unowned.
  MapStateStore(std::string name, ChangeSink sink,
                const uint32_t* ctx_substream = nullptr);

  const std::string& name() const { return name_; }

  std::optional<std::string> Get(std::string_view key) const;
  void Put(std::string_view key, std::string_view value);
  void Delete(std::string_view key);

  // Owner substream of a key; nullopt when absent.
  std::optional<uint32_t> GetOwner(std::string_view key) const;

  // Visits entries with the given prefix in key order; visitor returns
  // false to stop early.
  void ScanPrefix(
      std::string_view prefix,
      const std::function<bool(std::string_view, std::string_view)>& visit)
      const;

  // Visits entries in [from, to) in key order.
  void ScanRange(
      std::string_view from, std::string_view to,
      const std::function<bool(std::string_view, std::string_view)>& visit)
      const;

  // Visits every entry with its owner substream (handoff re-append path).
  void ScanAll(const std::function<bool(std::string_view key,
                                        std::string_view value,
                                        uint32_t owner)>& visit) const;

  // Deletes every key in [from, to); each deletion is captured.
  void DeleteRange(std::string_view from, std::string_view to);

  size_t size() const { return data_.size(); }
  size_t SizeBytes() const { return bytes_; }

  // --- recovery / checkpointing / migration (no change capture) ---
  void ApplyChange(const ChangeLogView& change);
  void ApplyChange(const ChangeLogBody& change) {
    ApplyChange(ChangeLogView{change.store, change.key, change.is_delete,
                              change.value, change.substream});
  }
  std::string SerializeSnapshot() const;
  Status RestoreSnapshot(std::string_view raw);
  // Merges a serialized snapshot without clearing, keeping only entries the
  // filter accepts (null = all); the split half of a rescale handoff.
  Status MergeSnapshot(std::string_view raw, const OwnerFilter& keep);
  void Clear();

 private:
  struct Entry {
    std::string value;
    uint32_t owner = kUnownedSubstream;
  };

  std::string name_;
  ChangeSink sink_;
  const uint32_t* ctx_substream_ = nullptr;
  // std::less<> enables heterogeneous lookup: string_view keys probe the
  // map without materializing temporary std::strings.
  std::map<std::string, Entry, std::less<>> data_;
  size_t bytes_ = 0;
};

// Order-preserving composite keys for window panes and join buffers:
// <user key> '\0' <big-endian u64>. User keys must not contain NUL.
std::string EncodeCompositeKey(std::string_view key, uint64_t suffix);
Result<std::pair<std::string, uint64_t>> DecodeCompositeKey(
    std::string_view raw);

}  // namespace impeller

#endif  // IMPELLER_SRC_CORE_STATE_STORE_H_
