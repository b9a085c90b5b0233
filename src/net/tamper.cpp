#include "net/tamper.hpp"

#include "common/assert.hpp"

namespace qsel::net {

FrameTamper::FrameTamper(TcpTransport& transport, TamperConfig config)
    : self_(transport.self()), config_(config), rng_(config.seed) {
  QSEL_REQUIRE(config_.delay_min <= config_.delay_max);
  transport.set_write_tamper([this](ProcessId to, std::size_t frame_bytes) {
    return plan(to, frame_bytes);
  });
}

void FrameTamper::partition(ProcessSet side_a) {
  partitioned_ = true;
  side_a_ = side_a;
}

void FrameTamper::heal() {
  partitioned_ = false;
  side_a_.clear();
}

TamperPlan FrameTamper::plan(ProcessId to, std::size_t frame_bytes) {
  TamperPlan result;
  if (partitioned_ && side_a_.contains(self_) != side_a_.contains(to)) {
    ++frames_dropped_;
    result.drop = true;
    return result;
  }
  if (!tamper_enabled_) return result;
  if (rng_.chance(config_.drop_rate)) {
    ++frames_dropped_;
    result.drop = true;
    return result;
  }
  if (rng_.chance(config_.delay_rate)) {
    ++frames_delayed_;
    result.delay_ns = rng_.between(config_.delay_min, config_.delay_max);
  }
  if (rng_.chance(config_.duplicate_rate)) {
    ++frames_duplicated_;
    result.duplicate = true;
  }
  // Splitting needs at least two bytes so head and tail are both nonempty.
  if (frame_bytes >= 2 && rng_.chance(config_.split_rate)) {
    ++frames_split_;
    result.split_at = rng_.between(1, frame_bytes - 1);
  }
  // Corruption spares the 4-byte length prefix: a flipped length desyncs
  // the stream instead of exercising the MAC check on one frame.
  if (frame_bytes >= 5 && rng_.chance(config_.corrupt_rate)) {
    ++frames_corrupted_;
    result.flip_at = rng_.between(4, frame_bytes - 1);
    result.flip_mask =
        static_cast<std::uint8_t>(1u << rng_.below(8));
  }
  return result;
}

}  // namespace qsel::net
