#include <algorithm>
#include <cassert>

#include "src/common/logging.h"
#include "src/common/serde.h"
#include "src/core/operators.h"

namespace impeller {

namespace {

// (event time, payload) pairs used by window panes and join buffers.
std::string EncodeTimedValue(TimeNs et, std::string_view value) {
  BinaryWriter w(value.size() + 10);
  w.WriteVarI64(et);
  w.WriteString(value);
  return w.Take();
}

bool DecodeTimedValue(std::string_view raw, TimeNs* et, std::string* value) {
  BinaryReader r(raw);
  auto t = r.ReadVarI64();
  auto v = r.ReadString();
  if (!t.ok() || !v.ok()) {
    return false;
  }
  *et = *t;
  *value = std::move(*v);
  return true;
}

std::string EncodePair(std::string_view a, std::string_view b) {
  BinaryWriter w(a.size() + b.size() + 8);
  w.WriteString(a);
  w.WriteString(b);
  return w.Take();
}

bool DecodePair(std::string_view raw, std::string* a, std::string* b) {
  BinaryReader r(raw);
  auto first = r.ReadString();
  auto second = r.ReadString();
  if (!first.ok() || !second.ok()) {
    return false;
  }
  *a = std::move(*first);
  *b = std::move(*second);
  return true;
}

}  // namespace

// --- GroupAggregateOperator ---

void GroupAggregateOperator::Open(OperatorContext* ctx) {
  store_ = ctx->GetStore(store_name_);
}

void GroupAggregateOperator::Process(uint32_t, StreamRecord record,
                                     Collector* out) {
  std::optional<std::string> acc = store_->Get(record.key);
  std::string next = agg_.add(acc ? *acc : agg_.init(), record);
  store_->Put(record.key, next);
  StreamRecord update;
  update.key = std::move(record.key);
  update.value = std::move(next);
  update.event_time = record.event_time;
  out->Emit(std::move(update));
}

// --- TableAggregateOperator ---

void TableAggregateOperator::Open(OperatorContext* ctx) {
  prev_ = ctx->GetStore(store_prefix_ + ".prev");
  agg_store_ = ctx->GetStore(store_prefix_ + ".agg");
}

void TableAggregateOperator::Process(uint32_t, StreamRecord record,
                                     Collector* out) {
  std::string row = row_key_ ? row_key_(record) : record.key;
  // Retract the old row's contribution from its group, if any.
  std::optional<std::string> old_entry = prev_->Get(row);
  if (old_entry) {
    std::string old_group, old_value;
    if (DecodePair(*old_entry, &old_group, &old_value)) {
      std::optional<std::string> acc = agg_store_->Get(old_group);
      std::string next =
          agg_.remove(acc ? *acc : agg_.init(), old_value);
      agg_store_->Put(old_group, next);
      StreamRecord retraction;
      retraction.key = old_group;
      retraction.value = std::move(next);
      retraction.event_time = record.event_time;
      out->Emit(std::move(retraction));
    }
  }
  std::string group = group_key_(record);
  prev_->Put(row, EncodePair(group, record.value));
  std::optional<std::string> acc = agg_store_->Get(group);
  std::string next = agg_.add(acc ? *acc : agg_.init(), record);
  agg_store_->Put(group, next);
  StreamRecord update;
  update.key = std::move(group);
  update.value = std::move(next);
  update.event_time = record.event_time;
  out->Emit(std::move(update));
}

// --- WindowAggregateOperator ---

WindowAggregateOperator::WindowAggregateOperator(
    std::string store_name, WindowSpec window, AggregateFn agg,
    DurationNs allowed_lateness, WindowEmitMode mode)
    : store_name_(std::move(store_name)),
      window_(window),
      agg_(std::move(agg)),
      allowed_lateness_(allowed_lateness),
      mode_(mode) {}

void WindowAggregateOperator::Open(OperatorContext* ctx) {
  ctx_ = ctx;
  store_ = ctx->GetStore(store_name_);
}

TimeNs WindowAggregateOperator::Watermark() const {
  return ctx_->max_event_time() - allowed_lateness_;
}

void WindowAggregateOperator::Process(uint32_t, StreamRecord record,
                                      Collector* out) {
  window_.AssignWindows(record.event_time, &scratch_starts_);
  TimeNs watermark = Watermark();
  for (TimeNs start : scratch_starts_) {
    if (start + window_.size <= watermark) {
      continue;  // the pane already fired; drop the late contribution
    }
    std::string pane_key =
        EncodeCompositeKey(record.key, static_cast<uint64_t>(start));
    std::optional<std::string> pane = store_->Get(pane_key);
    TimeNs max_et = record.event_time;
    std::string acc;
    if (pane) {
      TimeNs stored_et;
      std::string stored_acc;
      if (DecodeTimedValue(*pane, &stored_et, &stored_acc)) {
        max_et = std::max(max_et, stored_et);
        acc = agg_.add(stored_acc, record);
      } else {
        acc = agg_.add(agg_.init(), record);
      }
    } else {
      acc = agg_.add(agg_.init(), record);
    }
    store_->Put(pane_key, EncodeTimedValue(max_et, acc));
    if (mode_ == WindowEmitMode::kEagerSuppressed) {
      dirty_panes_.insert(pane_key);
    }
  }
}

void WindowAggregateOperator::EmitPane(std::string_view pane_key,
                                       std::string_view pane_value,
                                       Collector* out) {
  auto decoded = DecodeCompositeKey(pane_key);
  TimeNs max_et;
  std::string acc;
  if (!decoded.ok() || !DecodeTimedValue(pane_value, &max_et, &acc)) {
    return;
  }
  StreamRecord result;
  result.key = decoded->first;
  // Window metadata rides in the value so downstream operators can group
  // results of the same window (e.g. Q5's per-window max).
  BinaryWriter w(acc.size() + 10);
  w.WriteVarI64(static_cast<TimeNs>(decoded->second));
  w.WriteString(acc);
  result.value = w.Take();
  result.event_time = max_et;
  out->Emit(std::move(result));
}

void WindowAggregateOperator::OnCommit(Collector* out) {
  // Eager mode: flush updated panes at commit (Kafka Streams' record cache
  // flushing on commit).
  for (const std::string& pane_key : dirty_panes_) {
    std::optional<std::string> pane = store_->Get(pane_key);
    if (pane) {
      EmitPane(pane_key, *pane, out);
    }
  }
  dirty_panes_.clear();
}

void WindowAggregateOperator::OnTimer(TimeNs, Collector* out) {
  TimeNs watermark = Watermark();
  std::vector<std::pair<std::string, std::string>> closed;
  store_->ScanPrefix("", [&](std::string_view key, std::string_view value) {
    auto decoded = DecodeCompositeKey(key);
    if (!decoded.ok()) {
      return true;
    }
    TimeNs start = static_cast<TimeNs>(decoded->second);
    if (start + window_.size <= watermark) {
      closed.emplace_back(std::string(key), std::string(value));
    }
    return true;
  });
  for (auto& [pane_key, pane_value] : closed) {
    if (mode_ == WindowEmitMode::kOnClose) {
      EmitPane(pane_key, pane_value, out);
    } else if (dirty_panes_.erase(pane_key) > 0) {
      // Final authoritative value for a pane updated since the last flush.
      EmitPane(pane_key, pane_value, out);
    }
    store_->Delete(pane_key);
  }
}

// --- StreamStreamJoinOperator ---

StreamStreamJoinOperator::StreamStreamJoinOperator(std::string store_prefix,
                                                   DurationNs window,
                                                   JoinFn join,
                                                   DurationNs allowed_lateness)
    : store_prefix_(std::move(store_prefix)),
      window_(window),
      join_(std::move(join)),
      allowed_lateness_(allowed_lateness) {}

void StreamStreamJoinOperator::Open(OperatorContext* ctx) {
  ctx_ = ctx;
  left_ = ctx->GetStore(store_prefix_ + ".left");
  right_ = ctx->GetStore(store_prefix_ + ".right");
}

void StreamStreamJoinOperator::Process(uint32_t input, StreamRecord record,
                                       Collector* out) {
  MapStateStore* mine = (input == 0) ? left_ : right_;
  MapStateStore* other = (input == 0) ? right_ : left_;
  // Buffer key: (join key, event time | counter) — time-ordered within a
  // key so expiry and the window probe are range scans.
  uint64_t suffix = (static_cast<uint64_t>(record.event_time) << 14) |
                    (ctr_++ & 0x3FFF);
  mine->Put(EncodeCompositeKey(record.key, suffix),
            EncodeTimedValue(record.event_time, record.value));

  // Probe the other side for records within the join window.
  std::string prefix = record.key;
  prefix.push_back('\0');
  other->ScanPrefix(prefix, [&](std::string_view, std::string_view raw) {
    TimeNs other_et;
    std::string other_value;
    if (!DecodeTimedValue(raw, &other_et, &other_value)) {
      return true;
    }
    if (other_et > record.event_time - window_ &&
        other_et < record.event_time + window_) {
      StreamRecord joined;
      joined.key = record.key;
      joined.value = (input == 0) ? join_(record.value, other_value)
                                  : join_(other_value, record.value);
      joined.event_time = std::max(record.event_time, other_et);
      out->Emit(std::move(joined));
    }
    return true;
  });
}

void StreamStreamJoinOperator::ExpireSide(MapStateStore* store,
                                          TimeNs horizon) {
  std::vector<std::string> doomed;
  store->ScanPrefix("", [&](std::string_view key, std::string_view raw) {
    TimeNs et;
    std::string value;
    if (DecodeTimedValue(raw, &et, &value) && et < horizon) {
      doomed.emplace_back(key);
    }
    return true;
  });
  for (const auto& key : doomed) {
    store->Delete(key);
  }
}

void StreamStreamJoinOperator::OnTimer(TimeNs now, Collector* out) {
  TimeNs horizon = ctx_->max_event_time() - allowed_lateness_ - window_;
  ExpireSide(left_, horizon);
  ExpireSide(right_, horizon);
}

// --- StreamTableJoinOperator ---

void StreamTableJoinOperator::Open(OperatorContext* ctx) {
  table_ = ctx->GetStore(store_name_);
}

void StreamTableJoinOperator::Process(uint32_t input, StreamRecord record,
                                      Collector* out) {
  if (input == 1) {
    // Table side: materialize the update; empty value is a tombstone.
    if (record.value.empty()) {
      table_->Delete(record.key);
    } else {
      table_->Put(record.key, record.value);
    }
    return;
  }
  std::optional<std::string> row = table_->Get(record.key);
  if (!row) {
    return;  // inner join: no match, no output
  }
  StreamRecord joined;
  joined.key = std::move(record.key);
  joined.value = join_(record.value, *row);
  joined.event_time = record.event_time;
  out->Emit(std::move(joined));
}

// --- TableTableJoinOperator ---

void TableTableJoinOperator::Open(OperatorContext* ctx) {
  left_ = ctx->GetStore(store_prefix_ + ".left");
  right_ = ctx->GetStore(store_prefix_ + ".right");
}

void TableTableJoinOperator::Process(uint32_t input, StreamRecord record,
                                     Collector* out) {
  MapStateStore* mine = (input == 0) ? left_ : right_;
  MapStateStore* other = (input == 0) ? right_ : left_;
  if (record.value.empty()) {
    mine->Delete(record.key);
    return;
  }
  mine->Put(record.key, EncodeTimedValue(record.event_time, record.value));
  std::optional<std::string> match = other->Get(record.key);
  if (!match) {
    return;
  }
  TimeNs other_et;
  std::string other_value;
  if (!DecodeTimedValue(*match, &other_et, &other_value)) {
    return;
  }
  StreamRecord joined;
  joined.key = std::move(record.key);
  joined.value = (input == 0) ? join_(record.value, other_value)
                              : join_(other_value, record.value);
  joined.event_time = record.event_time;
  out->Emit(std::move(joined));
}

}  // namespace impeller
