#include "smr/executed_log.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace qsel::smr {
namespace {

constexpr std::size_t kChunkBytes = 4096;
/// Two 10-byte 64-bit varints, a 5-byte 32-bit one and the digest.
constexpr std::size_t kMaxEntryBytes = 10 + 5 + 10 + 32;

std::uint64_t zigzag(std::uint64_t delta) {
  return (delta << 1) ^ (0 - (delta >> 63));
}

std::uint64_t unzigzag(std::uint64_t v) { return (v >> 1) ^ (0 - (v & 1)); }

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t get_varint(const std::uint8_t* data, std::size_t& pos) {
  std::uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    const std::uint8_t byte = data[pos++];
    v |= std::uint64_t{byte & 0x7fu} << shift;
    if (byte < 0x80) return v;
  }
}

}  // namespace

void ExecutedLog::push_back(const ExecutedEntry& entry) {
  if (chunks_.empty() || chunks_.back().size() + kMaxEntryBytes > kChunkBytes) {
    chunks_.emplace_back();
    chunks_.back().reserve(kChunkBytes);
  }
  std::vector<std::uint8_t>& out = chunks_.back();
  put_varint(out, zigzag(entry.slot - last_.slot));
  put_varint(out, entry.client);
  put_varint(out, zigzag(entry.client_seq - last_.client_seq));
  out.insert(out.end(), entry.op_digest.bytes.begin(),
             entry.op_digest.bytes.end());
  last_ = entry;
  ++size_;
}

void ExecutedLog::clear() {
  chunks_.clear();
  size_ = 0;
  last_ = ExecutedEntry{};
}

std::size_t ExecutedLog::bytes() const {
  std::size_t total = 0;
  for (const auto& chunk : chunks_) total += chunk.capacity();
  return total;
}

ExecutedLog::Iterator::Iterator(const ExecutedLog* log, std::size_t chunk)
    : log_(log), chunk_(chunk) {
  if (chunk_ < log_->chunks_.size()) decode();
}

ExecutedLog::Iterator& ExecutedLog::Iterator::operator++() {
  pos_ = next_;
  if (pos_ == log_->chunks_[chunk_].size()) {
    ++chunk_;
    pos_ = 0;
  }
  if (chunk_ < log_->chunks_.size()) decode();
  return *this;
}

void ExecutedLog::Iterator::decode() {
  const std::vector<std::uint8_t>& chunk = log_->chunks_[chunk_];
  QSEL_ASSERT(pos_ < chunk.size());
  std::size_t at = pos_;
  entry_.slot += unzigzag(get_varint(chunk.data(), at));
  entry_.client = static_cast<std::uint32_t>(get_varint(chunk.data(), at));
  entry_.client_seq += unzigzag(get_varint(chunk.data(), at));
  std::copy_n(chunk.data() + at, entry_.op_digest.bytes.size(),
              entry_.op_digest.bytes.begin());
  next_ = at + entry_.op_digest.bytes.size();
}

}  // namespace qsel::smr
