// Message accounting.
//
// Experiment E5 (message reduction from running on an active quorum,
// Distler et al. motivation in the paper's introduction) and E8 (UPDATE
// gossip cost) count messages by type and by link; the simulator feeds
// this sink on every send. A send is one lookup in the tag-keyed map plus
// one increment in a flat n x n link array (whose row sums are the
// per-sender totals). Tags, not net::WireType, key the map: the PBFT and
// BChain baselines and test payloads have no wire type.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace qsel::metrics {

class MessageStats {
 public:
  /// Counts links among processes 0..n-1.
  explicit MessageStats(ProcessId n);

  void record_send(ProcessId from, ProcessId to, std::string_view type,
                   std::size_t bytes);

  std::uint64_t total_messages() const { return total_messages_; }
  std::uint64_t total_bytes() const { return total_bytes_; }

  /// Messages sent with the given type tag.
  std::uint64_t by_type(std::string_view type) const;

  /// Wire bytes sent with the given type tag (E8 measures the gossip
  /// byte volume — delta UPDATEs vs digests vs full rows — not just
  /// message counts).
  std::uint64_t bytes_by_type(std::string_view type) const;

  /// Messages sent on the directed link from -> to.
  std::uint64_t by_link(ProcessId from, ProcessId to) const;

  /// Messages sent by one process (any destination).
  std::uint64_t by_sender(ProcessId from) const;

  void reset();

 private:
  struct Count {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };
  const Count* find(std::string_view type) const;

  ProcessId n_;
  std::uint64_t total_messages_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::map<std::string, Count, std::less<>> by_type_;
  std::vector<std::uint64_t> by_link_;  // [from * n + to]
};

}  // namespace qsel::metrics
