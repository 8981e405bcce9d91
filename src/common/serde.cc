#include "src/common/serde.h"

namespace impeller {

void BinaryWriter::WriteVarU64(uint64_t v) {
  while (v >= 0x80) {
    buf_->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  buf_->push_back(static_cast<char>(v));
}

void BinaryWriter::WriteVarI64(int64_t v) {
  // ZigZag: small-magnitude negatives stay small on the wire.
  uint64_t zz = (static_cast<uint64_t>(v) << 1) ^
                static_cast<uint64_t>(v >> 63);
  WriteVarU64(zz);
}

void BinaryWriter::WriteDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  char raw[8];
  for (int i = 0; i < 8; ++i) {
    raw[i] = static_cast<char>((bits >> (8 * i)) & 0xFF);
  }
  buf_->append(raw, 8);
}

void BinaryWriter::WriteString(std::string_view s) {
  WriteVarU64(s.size());
  buf_->append(s.data(), s.size());
}

void BinaryWriter::WriteBytes(const void* data, size_t size) {
  buf_->append(static_cast<const char*>(data), size);
}

Result<uint8_t> BinaryReader::ReadU8() {
  if (pos_ >= data_.size()) {
    return DataLossError("ReadU8 past end of buffer");
  }
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<bool> BinaryReader::ReadBool() {
  auto v = ReadU8();
  if (!v.ok()) {
    return v.status();
  }
  return *v != 0;
}

Result<uint64_t> BinaryReader::ReadVarU64() {
  uint64_t result = 0;
  int shift = 0;
  while (true) {
    if (pos_ >= data_.size()) {
      return DataLossError("truncated varint");
    }
    uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    if (shift >= 63 && byte > 1) {
      return DataLossError("varint overflows u64");
    }
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      return result;
    }
    shift += 7;
  }
}

Result<int64_t> BinaryReader::ReadVarI64() {
  auto zz = ReadVarU64();
  if (!zz.ok()) {
    return zz.status();
  }
  uint64_t v = *zz;
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

Result<double> BinaryReader::ReadDouble() {
  if (pos_ + 8 > data_.size()) {
    return DataLossError("truncated double");
  }
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
            << (8 * i);
  }
  pos_ += 8;
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> BinaryReader::ReadString() {
  auto v = ReadStringView();
  if (!v.ok()) {
    return v.status();
  }
  return std::string(*v);
}

Result<std::string_view> BinaryReader::ReadStringView() {
  auto len = ReadVarU64();
  if (!len.ok()) {
    return len.status();
  }
  if (*len > remaining()) {
    return DataLossError("string length exceeds buffer");
  }
  std::string_view out = data_.substr(pos_, *len);
  pos_ += *len;
  return out;
}

}  // namespace impeller
