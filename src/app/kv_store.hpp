// Replicated key-value state machine.
//
// The deterministic application executed by the SMR protocols (XPaxos,
// PBFT baseline, BChain baseline). Operations are encoded as byte strings
// (net::Encoder format); apply() is deterministic, and state_digest()
// lets tests assert that replicas executed identical histories without
// comparing whole states.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "app/state_machine.hpp"
#include "crypto/sha256.hpp"

namespace qsel::app {

enum class OpType : std::uint8_t { kPut = 1, kGet = 2, kDel = 3 };

struct Operation {
  OpType type = OpType::kGet;
  std::string key;
  std::string value;  // only for kPut

  std::vector<std::uint8_t> encode() const;
  /// nullopt on malformed bytes (Byzantine input).
  static std::optional<Operation> decode(
      std::span<const std::uint8_t> bytes);

  bool operator==(const Operation&) const = default;
};

class KvStore final : public StateMachine {
 public:
  /// Executes one operation, returns its result (value read, old value,
  /// or empty).
  std::string apply(const Operation& op);

  /// Executes encoded bytes; malformed operations are no-ops with the
  /// result "<malformed>" (a deterministic outcome all replicas share).
  std::string apply_encoded(std::span<const std::uint8_t> bytes) override;

  std::size_t size() const { return data_.size(); }
  std::optional<std::string> get(const std::string& key) const;

  /// Number of operations applied so far.
  std::uint64_t ops_applied() const { return ops_applied_; }

  /// Digest over (sorted contents, ops_applied): equal digests mean equal
  /// executed histories for deterministic workloads.
  crypto::Digest state_digest() const override;
  std::vector<std::uint8_t> snapshot() const override;
  bool restore(std::span<const std::uint8_t> bytes) override;

  // --- key-range accessors (shard migration snapshots) ------------------

  /// All (key, value) pairs with lo <= key < hi ("" hi = unbounded), in
  /// key order, skipping `offset` pairs and returning at most `limit`
  /// (0 = no limit). Deterministic, read-only.
  std::vector<std::pair<std::string, std::string>> range_entries(
      const std::string& lo, const std::string& hi, std::uint64_t offset = 0,
      std::uint64_t limit = 0) const;

  /// Number of keys with lo <= key < hi.
  std::uint64_t range_size(const std::string& lo, const std::string& hi) const;

  /// Digest over the sorted (key, value) pairs of the range only — no
  /// ops_applied term, so a migrated range installed on a different
  /// replica with a different history still digests equal.
  crypto::Digest range_digest(const std::string& lo,
                              const std::string& hi) const;

  /// Removes every key in [lo, hi); returns how many were erased.
  std::uint64_t erase_range(const std::string& lo, const std::string& hi);

  /// Inserts (overwriting) a batch of pairs, without counting them as
  /// applied client operations (migration chunk install).
  void install(const std::vector<std::pair<std::string, std::string>>& pairs);

 private:
  std::map<std::string, std::string> data_;
  std::uint64_t ops_applied_ = 0;
};

}  // namespace qsel::app
