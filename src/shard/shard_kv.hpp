// ShardKv — a KvStore wrapped with shard ownership and epoch fencing.
//
// Each data group replicates one ShardKv. Every decision — is this key
// ours, is the range frozen, is the client's epoch stale — is made inside
// apply(), i.e. AFTER consensus ordered the op, never as a preflight
// check. That makes the decisions deterministic across the group: all
// correct replicas order the same ops against the same ownership state,
// so f+1 of them produce byte-identical TypedResult rejects and the
// client can trust a reject exactly like a value.
//
// Fencing invariants (DESIGN.md §12):
//   F1  op.epoch < config_epoch       -> STALE_EPOCH (never applied)
//   F2  key outside the owned ranges  -> WRONG_GROUP (never applied)
//   F3  key inside a frozen range     -> FROZEN (never applied)
//   F4  config_epoch only moves forward (max-merge on adopt/drop)
//
// Migration hand-off, source side: FREEZE (an SMR op — every client op is
// strictly before or after it in the log), then chunked SNAPSHOT reads
// (the range is immutable while frozen, so consensus reads are stable),
// then DROP at the new epoch erases the range's keys and subtracts it
// from the owned set (a subrange drop keeps the remainders). Destination side: INSTALL
// chunks (idempotent by (migration id, chunk seq), so duplicates and
// reorders are absorbed), then ADOPT verifies all chunks arrived and the
// range digest matches the source's before taking ownership at the new
// epoch. An adopt with missing chunks or a digest mismatch fails
// deterministically and leaves ownership unchanged.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "app/kv_store.hpp"
#include "app/state_machine.hpp"
#include "common/types.hpp"
#include "trace/tracer.hpp"

namespace qsel::net {
class Decoder;
class Encoder;
}

namespace qsel::shard {

/// Operations on a ShardKv, encoded as net::Encoder bytes. Client ops wrap
/// a plain app::Operation with the client's config epoch; the rest are the
/// migration-coordinator verbs.
enum class KvOpType : std::uint8_t {
  kClientOp = 1,      // epoch, app::Operation bytes
  kFreeze = 2,        // migration_id, lo, hi (source; idempotent)
  kRangeInfo = 3,     // lo, hi -> value = (count u64, range digest)
  kSnapshotChunk = 4, // lo, hi, offset, limit -> value = encoded pairs
  kInstallChunk = 5,  // migration_id, chunk_seq, pairs (dest; idempotent)
  kAdopt = 6,         // migration_id, epoch_new, lo, hi, digest, total_chunks
  kDrop = 7,          // migration_id, epoch_new, lo, hi (source)
};

struct ShardKvOp {
  KvOpType type = KvOpType::kClientOp;
  std::uint64_t epoch = 0;         // kClientOp / kAdopt / kDrop (epoch_new)
  std::uint64_t migration_id = 0;  // migration verbs
  std::string lo;
  std::string hi;
  std::uint64_t offset = 0;        // kSnapshotChunk
  std::uint32_t limit = 0;         // kSnapshotChunk
  std::uint32_t chunk_seq = 0;     // kInstallChunk
  std::uint32_t total_chunks = 0;  // kAdopt
  std::vector<std::uint8_t> payload;  // inner app op / encoded pairs
  crypto::Digest digest{};         // kAdopt: expected range digest

  std::vector<std::uint8_t> encode() const;
  static std::optional<ShardKvOp> decode(std::span<const std::uint8_t> bytes);

  // Builders returning encoded ops (what clients/coordinators submit).
  static std::vector<std::uint8_t> client_op(std::uint64_t epoch,
                                             std::vector<std::uint8_t> inner);
  static std::vector<std::uint8_t> freeze(std::uint64_t migration_id,
                                          std::string lo, std::string hi);
  static std::vector<std::uint8_t> range_info(std::string lo, std::string hi);
  static std::vector<std::uint8_t> snapshot_chunk(std::string lo,
                                                  std::string hi,
                                                  std::uint64_t offset,
                                                  std::uint32_t limit);
  static std::vector<std::uint8_t> install_chunk(
      std::uint64_t migration_id, std::uint32_t chunk_seq,
      std::vector<std::uint8_t> pairs);
  static std::vector<std::uint8_t> adopt(std::uint64_t migration_id,
                                         std::uint64_t epoch_new,
                                         std::string lo, std::string hi,
                                         const crypto::Digest& digest,
                                         std::uint32_t total_chunks);
  static std::vector<std::uint8_t> drop(std::uint64_t migration_id,
                                        std::uint64_t epoch_new,
                                        std::string lo, std::string hi);
};

/// Encodes (key, value) pairs for snapshot chunks.
std::vector<std::uint8_t> encode_pairs(
    const std::vector<std::pair<std::string, std::string>>& pairs);
std::optional<std::vector<std::pair<std::string, std::string>>> decode_pairs(
    std::span<const std::uint8_t> bytes);

class ShardKv final : public app::StateMachine {
 public:
  struct Config {
    std::uint64_t initial_epoch = 1;
    /// Ranges this group owns at the initial epoch ([lo, hi), hi "" =
    /// unbounded). Identical across the group's replicas by construction.
    std::vector<std::pair<std::string, std::string>> owned;
  };

  /// `tracer`/`self` wire the shard trace events (kShardFreeze,
  /// kShardInstall, kConfigEpochBump); nullptr disables them.
  explicit ShardKv(Config config, trace::Tracer* tracer = nullptr,
                   ProcessId self = kNoProcess);

  std::string apply_encoded(std::span<const std::uint8_t> bytes) override;
  crypto::Digest state_digest() const override;
  /// Ownership, fencing and migration bookkeeping plus the KvStore's own
  /// snapshot; the tracer wiring is per replica and not part of it.
  std::vector<std::uint8_t> snapshot() const override;
  bool restore(std::span<const std::uint8_t> bytes) override;

  const app::KvStore& kv() const { return kv_; }
  std::uint64_t config_epoch() const { return config_epoch_; }
  bool owns(const std::string& key) const;
  bool is_frozen(const std::string& key) const;
  const std::vector<std::pair<std::string, std::string>>& owned() const {
    return owned_;
  }

 private:
  struct Migration {
    std::string lo;
    std::string hi;
    std::set<std::uint32_t> chunks;  // installed chunk seqs (dest side)
  };

  static void encode_migrations(net::Encoder& enc,
                                const std::map<std::uint64_t, Migration>& ms);
  static bool decode_migrations(net::Decoder& dec,
                                std::map<std::uint64_t, Migration>& out);
  std::string apply(const ShardKvOp& op);
  void bump_epoch(std::uint64_t to);

  app::KvStore kv_;
  std::uint64_t config_epoch_;
  std::vector<std::pair<std::string, std::string>> owned_;  // sorted by lo
  /// Source-side freezes, by migration id.
  std::map<std::uint64_t, Migration> freezes_;
  /// Destination-side chunk tracking, by migration id.
  std::map<std::uint64_t, Migration> installs_;
  trace::Tracer* tracer_;
  ProcessId self_;
};

}  // namespace qsel::shard
