// Compact binary serialization used for log payloads, progress markers,
// change-log entries, and checkpoints. Integers use LEB128 varints; strings
// and blobs are length-prefixed. Readers validate bounds and report
// kDataLoss instead of crashing on corrupt input.
#ifndef IMPELLER_SRC_COMMON_SERDE_H_
#define IMPELLER_SRC_COMMON_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace impeller {

// Writes either into an internally owned buffer (default) or, in
// append-into-caller-buffer mode, onto the tail of an external std::string.
// The external mode is what lets OutputBuffer accumulate many records in one
// contiguous flush buffer without a per-record intermediate string.
class BinaryWriter {
 public:
  BinaryWriter() : buf_(&owned_) {}
  explicit BinaryWriter(size_t reserve) : buf_(&owned_) {
    owned_.reserve(reserve);
  }
  // Append mode: all writes append to *sink, which must outlive the writer.
  // Pre-existing content of *sink is left untouched.
  explicit BinaryWriter(std::string* sink) : buf_(sink) {}

  // Copying/moving would leave buf_ pointing at the source's owned buffer.
  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  void WriteU8(uint8_t v) { buf_->push_back(static_cast<char>(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteVarU64(uint64_t v);
  void WriteVarI64(int64_t v);  // zigzag encoded
  void WriteDouble(double v);
  void WriteString(std::string_view s);
  void WriteBytes(const void* data, size_t size);

  const std::string& data() const { return *buf_; }
  std::string_view view() const { return *buf_; }
  // Only meaningful for the owned-buffer mode; in append mode this moves the
  // caller's sink content out, which is almost never what you want.
  std::string Take() { return std::move(*buf_); }
  size_t size() const { return buf_->size(); }

 private:
  std::string owned_;
  std::string* buf_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Result<uint8_t> ReadU8();
  Result<bool> ReadBool();
  Result<uint64_t> ReadVarU64();
  Result<int64_t> ReadVarI64();
  Result<double> ReadDouble();
  Result<std::string> ReadString();
  // Zero-copy variant: the returned view aliases the reader's underlying
  // buffer and is valid only while that buffer is alive.
  Result<std::string_view> ReadStringView();

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }
  // The unconsumed tail of the buffer, as a view.
  std::string_view rest() const { return data_.substr(pos_); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace impeller

#endif  // IMPELLER_SRC_COMMON_SERDE_H_
