#include "shard/shard_kv.hpp"

#include <algorithm>

#include "net/codec.hpp"
#include "smr/typed_result.hpp"

namespace qsel::shard {

namespace {

bool in_range(const std::string& key, const std::string& lo,
              const std::string& hi) {
  return key >= lo && (hi.empty() || key < hi);
}

}  // namespace

std::vector<std::uint8_t> ShardKvOp::encode() const {
  net::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(type));
  enc.u64(epoch);
  enc.u64(migration_id);
  enc.str(lo);
  enc.str(hi);
  enc.u64(offset);
  enc.u32(limit);
  enc.u32(chunk_seq);
  enc.u32(total_chunks);
  enc.bytes(payload);
  enc.digest(digest);
  return std::move(enc).take();
}

std::optional<ShardKvOp> ShardKvOp::decode(
    std::span<const std::uint8_t> bytes) {
  net::Decoder dec(bytes);
  ShardKvOp op;
  const std::uint8_t type = dec.u8();
  op.epoch = dec.u64();
  op.migration_id = dec.u64();
  op.lo = dec.str();
  op.hi = dec.str();
  op.offset = dec.u64();
  op.limit = dec.u32();
  op.chunk_seq = dec.u32();
  op.total_chunks = dec.u32();
  op.payload = dec.bytes();
  op.digest = dec.digest();
  if (!dec.done()) return std::nullopt;
  if (type < static_cast<std::uint8_t>(KvOpType::kClientOp) ||
      type > static_cast<std::uint8_t>(KvOpType::kDrop))
    return std::nullopt;
  op.type = static_cast<KvOpType>(type);
  return op;
}

std::vector<std::uint8_t> ShardKvOp::client_op(
    std::uint64_t epoch, std::vector<std::uint8_t> inner) {
  ShardKvOp op;
  op.type = KvOpType::kClientOp;
  op.epoch = epoch;
  op.payload = std::move(inner);
  return op.encode();
}

std::vector<std::uint8_t> ShardKvOp::freeze(std::uint64_t migration_id,
                                            std::string lo, std::string hi) {
  ShardKvOp op;
  op.type = KvOpType::kFreeze;
  op.migration_id = migration_id;
  op.lo = std::move(lo);
  op.hi = std::move(hi);
  return op.encode();
}

std::vector<std::uint8_t> ShardKvOp::range_info(std::string lo,
                                                std::string hi) {
  ShardKvOp op;
  op.type = KvOpType::kRangeInfo;
  op.lo = std::move(lo);
  op.hi = std::move(hi);
  return op.encode();
}

std::vector<std::uint8_t> ShardKvOp::snapshot_chunk(std::string lo,
                                                    std::string hi,
                                                    std::uint64_t offset,
                                                    std::uint32_t limit) {
  ShardKvOp op;
  op.type = KvOpType::kSnapshotChunk;
  op.lo = std::move(lo);
  op.hi = std::move(hi);
  op.offset = offset;
  op.limit = limit;
  return op.encode();
}

std::vector<std::uint8_t> ShardKvOp::install_chunk(
    std::uint64_t migration_id, std::uint32_t chunk_seq,
    std::vector<std::uint8_t> pairs) {
  ShardKvOp op;
  op.type = KvOpType::kInstallChunk;
  op.migration_id = migration_id;
  op.chunk_seq = chunk_seq;
  op.payload = std::move(pairs);
  return op.encode();
}

std::vector<std::uint8_t> ShardKvOp::adopt(std::uint64_t migration_id,
                                           std::uint64_t epoch_new,
                                           std::string lo, std::string hi,
                                           const crypto::Digest& digest,
                                           std::uint32_t total_chunks) {
  ShardKvOp op;
  op.type = KvOpType::kAdopt;
  op.migration_id = migration_id;
  op.epoch = epoch_new;
  op.lo = std::move(lo);
  op.hi = std::move(hi);
  op.digest = digest;
  op.total_chunks = total_chunks;
  return op.encode();
}

std::vector<std::uint8_t> ShardKvOp::drop(std::uint64_t migration_id,
                                          std::uint64_t epoch_new,
                                          std::string lo, std::string hi) {
  ShardKvOp op;
  op.type = KvOpType::kDrop;
  op.migration_id = migration_id;
  op.epoch = epoch_new;
  op.lo = std::move(lo);
  op.hi = std::move(hi);
  return op.encode();
}

std::vector<std::uint8_t> encode_pairs(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  net::Encoder enc;
  enc.u32(static_cast<std::uint32_t>(pairs.size()));
  for (const auto& [key, value] : pairs) {
    enc.str(key);
    enc.str(value);
  }
  return std::move(enc).take();
}

std::optional<std::vector<std::pair<std::string, std::string>>> decode_pairs(
    std::span<const std::uint8_t> bytes) {
  net::Decoder dec(bytes);
  const std::uint32_t count = dec.u32();
  if (!dec.ok()) return std::nullopt;
  std::vector<std::pair<std::string, std::string>> out;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string key = dec.str();
    std::string value = dec.str();
    if (!dec.ok()) return std::nullopt;
    out.emplace_back(std::move(key), std::move(value));
  }
  if (!dec.done()) return std::nullopt;
  return out;
}

// --------------------------------------------------------------------------

ShardKv::ShardKv(Config config, trace::Tracer* tracer, ProcessId self)
    : config_epoch_(config.initial_epoch),
      owned_(std::move(config.owned)),
      tracer_(tracer),
      self_(self) {
  std::sort(owned_.begin(), owned_.end());
}

bool ShardKv::owns(const std::string& key) const {
  for (const auto& [lo, hi] : owned_)
    if (in_range(key, lo, hi)) return true;
  return false;
}

bool ShardKv::is_frozen(const std::string& key) const {
  for (const auto& [id, m] : freezes_)
    if (in_range(key, m.lo, m.hi)) return true;
  return false;
}

void ShardKv::bump_epoch(std::uint64_t to) {
  if (to <= config_epoch_) return;  // F4: forward only
  if (tracer_ != nullptr) tracer_->config_epoch_bump(self_, to, config_epoch_);
  config_epoch_ = to;
}

std::string ShardKv::apply_encoded(std::span<const std::uint8_t> bytes) {
  const auto op = ShardKvOp::decode(bytes);
  if (!op) return smr::TypedResult::ok(config_epoch_, "<malformed>");
  return apply(*op);
}

std::string ShardKv::apply(const ShardKvOp& op) {
  switch (op.type) {
    case KvOpType::kClientOp: {
      // F1: epoch fencing before anything else. A *newer* epoch than ours
      // is accepted — the client refetched the map before we heard of the
      // bump; ownership below still gates it.
      if (op.epoch < config_epoch_)
        return smr::TypedResult::stale_epoch(config_epoch_);
      const auto inner = app::Operation::decode(op.payload);
      if (!inner) return smr::TypedResult::ok(config_epoch_, "<malformed>");
      if (!owns(inner->key))  // F2
        return smr::TypedResult::wrong_group(config_epoch_);
      if (is_frozen(inner->key))  // F3
        return smr::TypedResult::frozen(config_epoch_);
      return smr::TypedResult::ok(config_epoch_, kv_.apply(*inner));
    }
    case KvOpType::kFreeze: {
      const auto it = freezes_.find(op.migration_id);
      if (it == freezes_.end()) {
        freezes_[op.migration_id] = Migration{op.lo, op.hi, {}};
        if (tracer_ != nullptr)
          tracer_->shard_freeze(self_, op.migration_id, config_epoch_, op.lo);
      }
      return smr::TypedResult::ok(config_epoch_, "frozen");
    }
    case KvOpType::kRangeInfo: {
      net::Encoder enc;
      enc.u64(kv_.range_size(op.lo, op.hi));
      enc.digest(kv_.range_digest(op.lo, op.hi));
      const auto bytes = std::move(enc).take();
      return smr::TypedResult::ok(config_epoch_,
                                  std::string(bytes.begin(), bytes.end()));
    }
    case KvOpType::kSnapshotChunk: {
      // Stable only because the range is frozen; the coordinator always
      // freezes before reading.
      const auto pairs = kv_.range_entries(op.lo, op.hi, op.offset, op.limit);
      const auto bytes = encode_pairs(pairs);
      return smr::TypedResult::ok(config_epoch_,
                                  std::string(bytes.begin(), bytes.end()));
    }
    case KvOpType::kInstallChunk: {
      Migration& m = installs_[op.migration_id];
      if (m.chunks.contains(op.chunk_seq))  // duplicate: absorbed
        return smr::TypedResult::ok(config_epoch_, "dup");
      const auto pairs = decode_pairs(op.payload);
      if (!pairs) return smr::TypedResult::ok(config_epoch_, "<malformed>");
      kv_.install(*pairs);
      m.chunks.insert(op.chunk_seq);
      if (tracer_ != nullptr)
        tracer_->shard_install(self_, op.migration_id, op.chunk_seq, op.lo);
      return smr::TypedResult::ok(config_epoch_, "installed");
    }
    case KvOpType::kAdopt: {
      const auto it = installs_.find(op.migration_id);
      const std::size_t have = it == installs_.end() ? 0 : it->second.chunks.size();
      if (have != op.total_chunks)
        return smr::TypedResult::ok(config_epoch_, "adopt-missing-chunks");
      if (kv_.range_digest(op.lo, op.hi) != op.digest)
        return smr::TypedResult::ok(config_epoch_, "adopt-digest-mismatch");
      owned_.emplace_back(op.lo, op.hi);
      std::sort(owned_.begin(), owned_.end());
      installs_.erase(op.migration_id);
      bump_epoch(op.epoch);
      if (tracer_ != nullptr)
        tracer_->shard_install(self_, op.migration_id,
                               ~std::uint64_t{0}, op.lo);
      return smr::TypedResult::ok(config_epoch_, "adopted");
    }
    case KvOpType::kDrop: {
      // Subtract [lo, hi) from the owned set: an exact-match range
      // disappears, a subrange drop leaves the remainders so the group
      // keeps serving the keys it still holds.
      std::vector<std::pair<std::string, std::string>> kept;
      for (const auto& [l, h] : owned_) {
        const bool overlap = (op.hi.empty() || l < op.hi) &&
                             (h.empty() || op.lo < h);
        if (!overlap) {
          kept.emplace_back(l, h);
          continue;
        }
        if (l < op.lo) kept.emplace_back(l, op.lo);
        if (!op.hi.empty() && (h.empty() || op.hi < h))
          kept.emplace_back(op.hi, h);
      }
      std::sort(kept.begin(), kept.end());
      owned_ = std::move(kept);
      freezes_.erase(op.migration_id);
      kv_.erase_range(op.lo, op.hi);
      bump_epoch(op.epoch);
      return smr::TypedResult::ok(config_epoch_, "dropped");
    }
  }
  return smr::TypedResult::ok(config_epoch_, "<malformed>");
}

crypto::Digest ShardKv::state_digest() const {
  return crypto::sha256(snapshot());
}

void ShardKv::encode_migrations(
    net::Encoder& enc, const std::map<std::uint64_t, Migration>& ms) {
  enc.u32(static_cast<std::uint32_t>(ms.size()));
  for (const auto& [id, m] : ms) {
    enc.u64(id);
    enc.str(m.lo);
    enc.str(m.hi);
    enc.u32(static_cast<std::uint32_t>(m.chunks.size()));
    for (const std::uint32_t chunk : m.chunks) enc.u32(chunk);
  }
}

bool ShardKv::decode_migrations(net::Decoder& dec,
                                std::map<std::uint64_t, Migration>& out) {
  const std::uint32_t count = dec.u32();
  for (std::uint32_t i = 0; i < count && dec.ok(); ++i) {
    const std::uint64_t id = dec.u64();
    Migration& m = out[id];
    m.lo = dec.str();
    m.hi = dec.str();
    const std::uint32_t chunks = dec.u32();
    for (std::uint32_t c = 0; c < chunks && dec.ok(); ++c)
      m.chunks.insert(dec.u32());
  }
  return dec.ok();
}

std::vector<std::uint8_t> ShardKv::snapshot() const {
  net::Encoder enc;
  enc.u64(config_epoch_);
  enc.u32(static_cast<std::uint32_t>(owned_.size()));
  for (const auto& [lo, hi] : owned_) {
    enc.str(lo);
    enc.str(hi);
  }
  encode_migrations(enc, freezes_);
  encode_migrations(enc, installs_);
  enc.bytes(kv_.snapshot());
  return std::move(enc).take();
}

bool ShardKv::restore(std::span<const std::uint8_t> bytes) {
  net::Decoder dec(bytes);
  const std::uint64_t epoch = dec.u64();
  const std::uint32_t count = dec.u32();
  std::vector<std::pair<std::string, std::string>> owned;
  for (std::uint32_t i = 0; i < count && dec.ok(); ++i) {
    std::string lo = dec.str();
    owned.emplace_back(std::move(lo), dec.str());
  }
  std::map<std::uint64_t, Migration> freezes;
  std::map<std::uint64_t, Migration> installs;
  if (!decode_migrations(dec, freezes) || !decode_migrations(dec, installs))
    return false;
  const std::vector<std::uint8_t> kv = dec.bytes();
  if (!dec.done() || !kv_.restore(kv)) return false;
  config_epoch_ = epoch;
  owned_ = std::move(owned);
  freezes_ = std::move(freezes);
  installs_ = std::move(installs);
  return true;
}

}  // namespace qsel::shard
