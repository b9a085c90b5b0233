// StateMachine — the deterministic application an SMR replica executes.
//
// XPaxos replicas historically hardcoded KvStore; the sharded service
// needs two more applications behind the same execution loop: the
// shard-config group's ShardMap machine and the per-shard ShardKv wrapper
// that adds ownership/epoch fencing around the plain KvStore. The
// contract every implementation owes the replica is the usual SMR one:
// apply_encoded is a pure function of (current state, op bytes) — same
// history in, same results and state_digest out on every replica —
// and malformed bytes must yield a deterministic result, never a throw.
// snapshot()/restore() carry the whole state across replicas for
// checkpoint state transfer (DESIGN.md §16).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"

namespace qsel::app {

class StateMachine {
 public:
  StateMachine() = default;
  StateMachine(const StateMachine&) = delete;
  StateMachine& operator=(const StateMachine&) = delete;
  virtual ~StateMachine() = default;

  /// Executes encoded operation bytes; the returned string is the reply
  /// sent back to the client.
  virtual std::string apply_encoded(std::span<const std::uint8_t> bytes) = 0;

  /// Digest over the full machine state: equal digests mean equal
  /// executed histories for deterministic workloads.
  virtual crypto::Digest state_digest() const = 0;

  /// Canonical encoding of the full state: equal states encode equal, and
  /// restore(snapshot()) on any instance reproduces state_digest().
  virtual std::vector<std::uint8_t> snapshot() const = 0;
  /// Replaces the state with a snapshot() encoding. Malformed bytes return
  /// false and leave the state unchanged.
  virtual bool restore(std::span<const std::uint8_t> bytes) = 0;
};

}  // namespace qsel::app
