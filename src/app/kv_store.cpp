#include "app/kv_store.hpp"

#include <iterator>

#include "net/codec.hpp"

namespace qsel::app {

std::vector<std::uint8_t> Operation::encode() const {
  net::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(type));
  enc.str(key);
  enc.str(value);
  return std::move(enc).take();
}

std::optional<Operation> Operation::decode(
    std::span<const std::uint8_t> bytes) {
  net::Decoder dec(bytes);
  Operation op;
  const std::uint8_t type = dec.u8();
  op.key = dec.str();
  op.value = dec.str();
  if (!dec.done()) return std::nullopt;
  switch (type) {
    case static_cast<std::uint8_t>(OpType::kPut):
      op.type = OpType::kPut;
      break;
    case static_cast<std::uint8_t>(OpType::kGet):
      op.type = OpType::kGet;
      break;
    case static_cast<std::uint8_t>(OpType::kDel):
      op.type = OpType::kDel;
      break;
    default:
      return std::nullopt;
  }
  return op;
}

std::string KvStore::apply(const Operation& op) {
  ++ops_applied_;
  switch (op.type) {
    case OpType::kPut: {
      auto [it, inserted] = data_.insert_or_assign(op.key, op.value);
      (void)it;
      return inserted ? "" : "replaced";
    }
    case OpType::kGet: {
      const auto it = data_.find(op.key);
      return it == data_.end() ? "" : it->second;
    }
    case OpType::kDel: {
      return data_.erase(op.key) > 0 ? "deleted" : "";
    }
  }
  return "";
}

std::string KvStore::apply_encoded(std::span<const std::uint8_t> bytes) {
  const auto op = Operation::decode(bytes);
  if (!op) {
    ++ops_applied_;
    return "<malformed>";
  }
  return apply(*op);
}

std::optional<std::string> KvStore::get(const std::string& key) const {
  const auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

namespace {

/// Iterator range [first, last) of the keys in [lo, hi); hi = "" means
/// unbounded above (the natural encoding: "" sorts before everything, so
/// it is useless as an exclusive upper bound and free to repurpose).
template <typename Map>
auto range_bounds(Map& data, const std::string& lo, const std::string& hi) {
  auto first = data.lower_bound(lo);
  auto last = hi.empty() ? data.end() : data.lower_bound(hi);
  return std::make_pair(first, last);
}

}  // namespace

std::vector<std::pair<std::string, std::string>> KvStore::range_entries(
    const std::string& lo, const std::string& hi, std::uint64_t offset,
    std::uint64_t limit) const {
  std::vector<std::pair<std::string, std::string>> out;
  auto [it, last] = range_bounds(data_, lo, hi);
  for (; it != last && offset > 0; ++it) --offset;
  for (; it != last; ++it) {
    if (limit != 0 && out.size() >= limit) break;
    out.emplace_back(it->first, it->second);
  }
  return out;
}

std::uint64_t KvStore::range_size(const std::string& lo,
                                  const std::string& hi) const {
  auto [it, last] = range_bounds(data_, lo, hi);
  return static_cast<std::uint64_t>(std::distance(it, last));
}

crypto::Digest KvStore::range_digest(const std::string& lo,
                                     const std::string& hi) const {
  net::Encoder enc;
  auto [it, last] = range_bounds(data_, lo, hi);
  for (; it != last; ++it) {
    enc.str(it->first);
    enc.str(it->second);
  }
  return crypto::sha256(enc.view());
}

std::uint64_t KvStore::erase_range(const std::string& lo,
                                   const std::string& hi) {
  auto [it, last] = range_bounds(data_, lo, hi);
  const auto count = static_cast<std::uint64_t>(std::distance(it, last));
  data_.erase(it, last);
  return count;
}

void KvStore::install(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  for (const auto& [key, value] : pairs) data_.insert_or_assign(key, value);
}

crypto::Digest KvStore::state_digest() const {
  return crypto::sha256(snapshot());
}

std::vector<std::uint8_t> KvStore::snapshot() const {
  net::Encoder enc;
  enc.u64(ops_applied_);
  enc.u64(data_.size());
  for (const auto& [key, value] : data_) {
    enc.str(key);
    enc.str(value);
  }
  return std::move(enc).take();
}

bool KvStore::restore(std::span<const std::uint8_t> bytes) {
  net::Decoder dec(bytes);
  const std::uint64_t ops_applied = dec.u64();
  const std::uint64_t size = dec.u64();
  std::map<std::string, std::string> data;
  // Each pair costs at least two length prefixes, so a lying size runs
  // the decoder off the buffer rather than looping on.
  for (std::uint64_t i = 0; i < size && dec.ok(); ++i) {
    std::string key = dec.str();
    data.insert_or_assign(std::move(key), dec.str());
  }
  if (!dec.done() || data.size() != size) return false;
  ops_applied_ = ops_applied;
  data_ = std::move(data);
  return true;
}

}  // namespace qsel::app
