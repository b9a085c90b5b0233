// FrameTamper — byte-level fault injection on a TcpTransport's frames.
//
// Installs the transport's write-tamper hook (see tcp_transport.hpp):
// every outgoing message frame is independently dropped, delayed
// (whole-frame re-enqueue — reorders messages, never corrupts the stream),
// duplicated, or split so the first write syscall stops mid-frame and the
// receiver exercises partial-frame reassembly. All randomness comes from
// one seeded Rng, so a loopback test's fault pattern is reproducible
// modulo socket timing.
//
// It also models partitions the way sim::Network does: partition(side_a)
// drops every frame crossing between side_a and its complement; heal()
// lifts it. LoopbackCluster applies the same partition to every node's
// tamper, so sender-side dropping is equivalent to cutting the links.
//
// The node binds to the transport itself: faults live exclusively on the
// outgoing byte path, exactly where the omission/timing faults of the
// paper's model live.
#pragma once

#include "common/rng.hpp"
#include "net/tcp_transport.hpp"

namespace qsel::net {

struct TamperConfig {
  double drop_rate = 0.0;
  double delay_rate = 0.0;
  SimDuration delay_min = 1'000'000;   // 1ms
  SimDuration delay_max = 20'000'000;  // 20ms
  double duplicate_rate = 0.0;
  double split_rate = 0.0;
  /// Bit-flip a random on-wire byte past the length prefix (a corrupting
  /// link). Only meaningful when the transport authenticates frames: the
  /// MAC check turns the flip into a detected drop. Without auth a
  /// flipped byte can silently decode as a different message — never
  /// enable this on an unauthenticated cluster whose oracles assume
  /// delivered == sent.
  double corrupt_rate = 0.0;
  std::uint64_t seed = 1;
};

class FrameTamper {
 public:
  /// Installs the hook on `transport`, which consults this tamper on every
  /// frame it sends from then on: the tamper must outlive those sends.
  FrameTamper(TcpTransport& transport, TamperConfig config);
  FrameTamper(const FrameTamper&) = delete;
  FrameTamper& operator=(const FrameTamper&) = delete;

  /// Drops frames crossing between `side_a` and its complement until
  /// heal(). Applies on top of the random faults.
  void partition(ProcessSet side_a);
  void heal();

  /// Random faults on/off (partitions keep working while disabled).
  void set_tamper_enabled(bool enabled) { tamper_enabled_ = enabled; }

  std::uint64_t frames_dropped() const { return frames_dropped_; }
  std::uint64_t frames_delayed() const { return frames_delayed_; }
  std::uint64_t frames_duplicated() const { return frames_duplicated_; }
  std::uint64_t frames_split() const { return frames_split_; }
  std::uint64_t frames_corrupted() const { return frames_corrupted_; }

 private:
  TamperPlan plan(ProcessId to, std::size_t frame_bytes);

  ProcessId self_;
  TamperConfig config_;
  Rng rng_;
  bool tamper_enabled_ = true;
  bool partitioned_ = false;
  ProcessSet side_a_;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t frames_delayed_ = 0;
  std::uint64_t frames_duplicated_ = 0;
  std::uint64_t frames_split_ = 0;
  std::uint64_t frames_corrupted_ = 0;
};

}  // namespace qsel::net
