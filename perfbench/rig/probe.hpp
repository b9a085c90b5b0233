// Layer probes for the benchmark rig.
//
// Every per-layer number is taken from outside the program, at the calls
// that cross a layer boundary:
//
//   round     one EventLoop::poll_once (TCP) or one 1 ms virtual slice of
//             Simulator::run_until (sim) — the root span;
//   upcall    the transport's delivery upcall into xpaxos::Replica or
//             load::AsyncEngine;
//   submit    the rig's call into AsyncEngine::submit;
//   send      a send()/broadcast() call made by the layer above.
//
// TimedTransport is the net::Transport decorator that records the upcall
// and send spans; it forwards every call unchanged, so a traced cluster
// runs the same protocol steps as an untraced one (the parity test holds
// the rig to that). Spans live in memory; per-name totals are folded in as
// each span closes, and the log is written out when the run ends.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "net/transport.hpp"

namespace perfbench {

enum class SpanName : std::uint8_t {
  kRound,
  kXpaxosUpcall,
  kLoadUpcall,
  kLoadSubmit,
  kNetSend,
};
inline constexpr std::size_t kSpanNames = 5;
const char* span_name(SpanName name);

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t parent = 0;  // index into the log; kNoParent for roots
  SpanName name = SpanName::kRound;
};

/// Messages handed to send()/broadcast(), one per destination other than
/// the sender, by type tag.
struct MessageCounts {
  std::uint64_t prepare = 0;
  std::uint64_t commit = 0;
  std::uint64_t request = 0;
  std::uint64_t reply = 0;
  std::uint64_t viewchange = 0;
  std::uint64_t viewchange_bytes = 0;
  /// Distinct PREPARE proposals and the requests they carried.
  std::uint64_t proposals = 0;
  std::uint64_t proposal_entries = 0;
  /// wire_size() of every distinct PREPARE and COMMIT sent.
  std::vector<std::uint32_t> signed_sizes;
};

class Probe {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;
  /// Spans kept for the written log; totals keep counting past it.
  static constexpr std::size_t kMaxLoggedSpans = 2'000'000;

  struct Totals {
    std::array<std::uint64_t, kSpanNames> count{};
    std::array<std::uint64_t, kSpanNames> total_ns{};
    /// Span time minus the time its child spans cover.
    std::array<std::uint64_t, kSpanNames> self_ns{};
    /// Inclusive time of spans whose parent is a round.
    std::array<std::uint64_t, kSpanNames> under_round_ns{};
    /// Thread CPU spent inside rounds.
    std::uint64_t round_cpu_ns = 0;
  };

  /// Forgets every span and count so far; no span may be open.
  void reset();

  std::uint32_t open(SpanName name);
  void close(std::uint32_t id);
  void add_round_cpu(std::uint64_t ns) { totals_.round_cpu_ns += ns; }

  void count_send(const qsel::sim::PayloadPtr& message, std::size_t copies);

  const Totals& totals() const { return totals_; }
  const MessageCounts& counts() const { return counts_; }

  /// Writes the span log as CSV: index,name,start_ns,end_ns,parent.
  bool write(const std::string& path) const;

 private:
  struct Open {
    std::uint32_t id;
    SpanName name;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };

  std::vector<Span> log_;
  std::vector<Open> stack_;
  std::uint32_t next_id_ = 0;
  Totals totals_;
  MessageCounts counts_;
  /// Last PREPARE/COMMIT counted: a quorum send hands one message to
  /// send() once per member. Held, not just compared by address, so a
  /// freed message's address cannot alias the next one.
  qsel::sim::PayloadPtr last_signed_;
};

/// Decorates a transport: times the delivery upcall (as `upcall`) and the
/// send()/broadcast() calls of the layer installed above it, and counts
/// what those calls send.
class TimedTransport final : public qsel::net::Transport {
 public:
  TimedTransport(qsel::net::Transport& inner, SpanName upcall, Probe& probe)
      : inner_(inner), upcall_(upcall), probe_(probe) {}

  qsel::ProcessId self() const override { return inner_.self(); }
  qsel::ProcessId process_count() const override {
    return inner_.process_count();
  }
  qsel::sim::Simulator& timers() override { return inner_.timers(); }
  qsel::SimDuration round_length() const override {
    return inner_.round_length();
  }

  void set_handler(Handler handler) override;
  void send(qsel::ProcessId to, qsel::sim::PayloadPtr message) override;
  void broadcast(qsel::ProcessSet targets,
                 const qsel::sim::PayloadPtr& message) override;

 private:
  qsel::net::Transport& inner_;
  SpanName upcall_;
  Probe& probe_;
};

/// Monotonic wall clock and this thread's CPU clock, in nanoseconds.
std::uint64_t wall_ns();
std::uint64_t thread_cpu_ns();

}  // namespace perfbench
