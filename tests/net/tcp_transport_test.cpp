// EventLoop + TcpTransport tests on real loopback sockets: timers fire on
// wall-clock time, whole messages survive the trip (including forced
// partial writes), tampering drops/duplicates frames, and outgoing
// connections reconnect with backoff after a peer restart.
//
// Real time makes "nothing arrives" assertions inherently heuristic; the
// tests only assert negatively where the transport is deterministic (a
// dropped frame is never written at all).
#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <functional>
#include <vector>

#include "crypto/signer.hpp"
#include "net/event_loop.hpp"
#include "net/loopback_mesh.hpp"
#include "runtime/heartbeat.hpp"
#include "suspect/update_message.hpp"

namespace qsel::net {
namespace {

constexpr std::uint64_t kMs = 1'000'000;

TEST(EventLoopTest, TimersFireOnRealTimeInOrder) {
  EventLoop loop;
  std::vector<int> fired;
  loop.timers().schedule_after(8 * kMs, [&] { fired.push_back(2); });
  loop.timers().schedule_after(2 * kMs, [&] { fired.push_back(1); });
  EXPECT_TRUE(loop.run_until([&] { return fired.size() == 2; }, 2'000 * kMs));
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_GE(loop.now_ns(), 8 * kMs);  // 8ms of real time really elapsed
}

TEST(EventLoopTest, RunForAdvancesClock) {
  EventLoop loop;
  const std::uint64_t before = loop.now_ns();
  loop.run_for(5 * kMs);
  EXPECT_GE(loop.now_ns() - before, 5 * kMs);
}

/// A two-node mesh, a = 0 and b = 1, recording what each end receives.
struct Pair {
  Pair() {
    record(0);
    record(1);
  }

  /// Installs the recording handler on id's current transport.
  void record(ProcessId id) {
    auto& received = id == 0 ? received_by_a : received_by_b;
    mesh.transport(id).set_handler(
        [&received](ProcessId from, const sim::PayloadPtr& message) {
          received.emplace_back(from, message);
        });
  }

  TcpTransport& a() { return mesh.transport(0); }
  TcpTransport& b() { return mesh.transport(1); }
  bool run_until(const std::function<bool()>& pred, std::uint64_t timeout_ns) {
    return mesh.loop().run_until(pred, timeout_ns);
  }

  crypto::KeyRegistry keys{2, 1};
  std::vector<std::pair<ProcessId, sim::PayloadPtr>> received_by_a;
  std::vector<std::pair<ProcessId, sim::PayloadPtr>> received_by_b;
  LoopbackMesh mesh{2, {}};  // after what its handlers record into
};

/// A two-process auth-mode transport config holding `key`.
TcpTransport::Config auth_config(ProcessId self, std::uint8_t key) {
  TcpTransport::Config config;
  config.self = self;
  config.n = 2;
  config.auth_key = std::vector<std::uint8_t>(32, key);
  return config;
}

TEST(TcpTransportTest, SendsWholeMessagesBothWays) {
  Pair pair;
  ASSERT_TRUE(pair.mesh.start(2'000 * kMs));

  const crypto::Signer signer_a(pair.keys, 0);
  const crypto::Signer signer_b(pair.keys, 1);
  pair.a().send(1, runtime::HeartbeatMessage::make(signer_a, 7));
  pair.b().send(0, suspect::UpdateMessage::make(
                       signer_b, std::vector<Epoch>{0, 3}));

  ASSERT_TRUE(pair.run_until(
      [&] {
        return pair.received_by_b.size() == 1 &&
               pair.received_by_a.size() == 1;
      },
      2'000 * kMs));

  EXPECT_EQ(pair.received_by_b[0].first, 0u);
  const auto* heartbeat = dynamic_cast<const runtime::HeartbeatMessage*>(
      pair.received_by_b[0].second.get());
  ASSERT_NE(heartbeat, nullptr);
  EXPECT_EQ(heartbeat->seq, 7u);
  EXPECT_TRUE(heartbeat->verify(signer_b, 2));

  EXPECT_EQ(pair.received_by_a[0].first, 1u);
  const auto* update = dynamic_cast<const suspect::UpdateMessage*>(
      pair.received_by_a[0].second.get());
  ASSERT_NE(update, nullptr);
  EXPECT_EQ(update->row, (std::vector<Epoch>{0, 3}));
  EXPECT_TRUE(update->verify(signer_a, 2));
}

TEST(TcpTransportTest, SelfSendDeliversLocally) {
  Pair pair;
  // Started but not yet connected: self-delivery must not wait for peers.
  pair.a().start();
  pair.b().start();
  const crypto::Signer signer(pair.keys, 0);
  pair.a().send(0, runtime::HeartbeatMessage::make(signer, 1));
  ASSERT_TRUE(pair.run_until([&] { return pair.received_by_a.size() == 1; },
                             1'000 * kMs));
  EXPECT_EQ(pair.received_by_a[0].first, 0u);
}

TEST(TcpTransportTest, SplitWritesReassembleIntoWholeFrames) {
  Pair pair;
  // Cap every first write syscall at one byte: the receiver must see the
  // length prefix and body dribble in across poll rounds.
  pair.a().set_write_tamper([](ProcessId, std::size_t) {
    TamperPlan plan;
    plan.split_at = 1;
    return plan;
  });
  ASSERT_TRUE(pair.mesh.start(2'000 * kMs));

  const crypto::Signer signer(pair.keys, 0);
  constexpr std::uint64_t kCount = 8;
  for (std::uint64_t seq = 0; seq < kCount; ++seq)
    pair.a().send(1, runtime::HeartbeatMessage::make(signer, seq));

  ASSERT_TRUE(pair.run_until(
      [&] { return pair.received_by_b.size() == kCount; }, 5'000 * kMs));
  for (std::uint64_t seq = 0; seq < kCount; ++seq) {
    const auto* heartbeat = dynamic_cast<const runtime::HeartbeatMessage*>(
        pair.received_by_b[seq].second.get());
    ASSERT_NE(heartbeat, nullptr);
    EXPECT_EQ(heartbeat->seq, seq);  // TCP keeps per-direction order
    EXPECT_TRUE(heartbeat->verify(signer, 2));
  }
}

TEST(TcpTransportTest, DropTamperSuppressesFrames) {
  Pair pair;
  ASSERT_TRUE(pair.mesh.start(2'000 * kMs));

  pair.a().set_write_tamper([](ProcessId, std::size_t) {
    TamperPlan plan;
    plan.drop = true;
    return plan;
  });
  const crypto::Signer signer(pair.keys, 0);
  pair.a().send(1, runtime::HeartbeatMessage::make(signer, 1));
  pair.mesh.loop().run_for(50 * kMs);
  EXPECT_TRUE(pair.received_by_b.empty());

  // Lifting the tamper restores delivery on the same connection.
  pair.a().set_write_tamper({});
  pair.a().send(1, runtime::HeartbeatMessage::make(signer, 2));
  ASSERT_TRUE(pair.run_until([&] { return pair.received_by_b.size() == 1; },
                             2'000 * kMs));
  const auto* heartbeat = dynamic_cast<const runtime::HeartbeatMessage*>(
      pair.received_by_b[0].second.get());
  ASSERT_NE(heartbeat, nullptr);
  EXPECT_EQ(heartbeat->seq, 2u);
}

TEST(TcpTransportTest, DuplicateTamperDeliversTwice) {
  Pair pair;
  ASSERT_TRUE(pair.mesh.start(2'000 * kMs));

  pair.a().set_write_tamper([](ProcessId, std::size_t) {
    TamperPlan plan;
    plan.duplicate = true;
    return plan;
  });
  const crypto::Signer signer(pair.keys, 0);
  pair.a().send(1, runtime::HeartbeatMessage::make(signer, 5));
  ASSERT_TRUE(pair.run_until([&] { return pair.received_by_b.size() == 2; },
                             2'000 * kMs));
  for (const auto& [from, message] : pair.received_by_b) {
    const auto* heartbeat =
        dynamic_cast<const runtime::HeartbeatMessage*>(message.get());
    ASSERT_NE(heartbeat, nullptr);
    EXPECT_EQ(heartbeat->seq, 5u);
  }
}

TEST(TcpTransportTest, ReconnectsAfterPeerRestart) {
  Pair pair;
  ASSERT_TRUE(pair.mesh.start(2'000 * kMs));
  const std::uint16_t port_b = pair.b().listen_port();

  // Kill b. a's outgoing connection dies; reconnects hit a dead port and
  // back off.
  pair.mesh.crash(1);
  ASSERT_TRUE(
      pair.run_until([&] { return !pair.a().connected_to(1); }, 2'000 * kMs));

  // Restart b on the same port (SO_REUSEADDR): a's backoff loop must find
  // it without any help and deliver a fresh send.
  pair.mesh.restart(1);
  ASSERT_EQ(pair.b().listen_port(), port_b);
  pair.record(1);

  ASSERT_TRUE(
      pair.run_until([&] { return pair.a().connected_to(1); }, 10'000 * kMs));
  const crypto::Signer signer(pair.keys, 0);
  pair.a().send(1, runtime::HeartbeatMessage::make(signer, 9));
  ASSERT_TRUE(pair.run_until([&] { return !pair.received_by_b.empty(); },
                             2'000 * kMs));
  const auto* heartbeat = dynamic_cast<const runtime::HeartbeatMessage*>(
      pair.received_by_b.back().second.get());
  ASSERT_NE(heartbeat, nullptr);
  EXPECT_EQ(heartbeat->seq, 9u);
}

// A dialer without the cluster key claims an honest peer's id, survives
// HELLO/CHALLENGE, and fails the AUTH proof. That failure must close the
// connection *anonymously*: striking the claimed-but-unproven identity
// would let any keyless attacker quarantine an honest peer by name,
// blocking its legitimate reconnects.
TEST(TcpTransportTest, KeylessDialerCannotQuarantineClaimedPeer) {
  EventLoop loop;
  TcpTransport a(loop, auth_config(0, 0x11));

  // Raw impostor socket: well-formed HELLO claiming id 1, then an AUTH
  // frame whose proof is garbage (the impostor has no key to compute it).
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(a.listen_port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::uint8_t hello[] = {13, 0, 0, 0,              // frame length
                                0,                        // HELLO tag
                                1, 0, 0, 0,               // claimed id 1
                                9, 9, 9, 9, 9, 9, 9, 9};  // client nonce
  ASSERT_EQ(::send(fd, hello, sizeof(hello), 0),
            static_cast<ssize_t>(sizeof(hello)));
  std::uint8_t auth[4 + 33] = {33, 0, 0, 0, 0xF1};  // proof left all-zero
  ASSERT_EQ(::send(fd, auth, sizeof(auth), 0),
            static_cast<ssize_t>(sizeof(auth)));

  // Drain until `a` rejects the AUTH and closes (recv sees EOF).
  ASSERT_TRUE(loop.run_until(
      [&] {
        while (true) {
          std::uint8_t buf[256];
          const ssize_t got = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
          if (got == 0) return true;  // closed by a
          if (got < 0)
            return errno != EAGAIN && errno != EWOULDBLOCK;  // reset = closed
        }
      },
      2'000 * kMs));
  ::close(fd);

  ASSERT_NE(a.quarantine(), nullptr);
  EXPECT_EQ(a.quarantine()->offenses_total(), 0u);
  EXPECT_EQ(a.quarantine()->strikes(1), 0u);

  // The honest peer 1 — never actually at fault — must connect at once.
  TcpTransport b(loop, auth_config(1, 0x11));
  b.set_peer(0, a.listen_port());
  b.start();
  EXPECT_TRUE(loop.run_until([&] { return b.connected_to(0); }, 2'000 * kMs));
}

// A listener that does not hold the cluster key (here: a different key)
// cannot satisfy the CHALLENGE proof, so the dialer must never report the
// channel connected — otherwise an impostor listener could black-hole all
// outbound traffic while suppressing reconnects. Neither side may file
// offenses: no identity in this exchange was ever proven.
TEST(TcpTransportTest, DialerRejectsListenerWithoutClusterKey) {
  EventLoop loop;
  TcpTransport a(loop, auth_config(0, 0x11));
  TcpTransport b(loop, auth_config(1, 0x22));
  a.set_peer(1, b.listen_port());
  a.start();

  // The proof check is deterministic, so "never connected" is a sound
  // negative assert: every handshake attempt fails before authenticated.
  EXPECT_FALSE(loop.run_until([&] { return a.connected_to(1); }, 300 * kMs));
  EXPECT_EQ(a.quarantine()->offenses_total(), 0u);
  EXPECT_EQ(b.quarantine()->offenses_total(), 0u);
}

TEST(TcpTransportTest, BroadcastSkipsOnlyAbsentPeers) {
  Pair pair;
  ASSERT_TRUE(pair.mesh.start(2'000 * kMs));
  const crypto::Signer signer(pair.keys, 0);
  pair.a().broadcast(ProcessSet{0, 1},
                     runtime::HeartbeatMessage::make(signer, 3));
  ASSERT_TRUE(pair.run_until(
      [&] {
        return pair.received_by_a.size() == 1 &&
               pair.received_by_b.size() == 1;
      },
      2'000 * kMs));
}

TEST(TcpTransportTest, BurstOfFramesCoalescesIntoFewWritevCalls) {
  Pair pair;
  ASSERT_TRUE(pair.mesh.start(2'000 * kMs));

  const crypto::Signer signer(pair.keys, 0);
  const IoStats before = pair.a().io_stats();

  // All 32 sends land in one poll round, so the deferred flush must gather
  // them: one (or at worst a handful of) sendmsg calls, not one per frame.
  constexpr std::uint64_t kBurst = 32;
  for (std::uint64_t seq = 0; seq < kBurst; ++seq)
    pair.a().send(1, runtime::HeartbeatMessage::make(signer, seq));
  ASSERT_TRUE(pair.run_until(
      [&] { return pair.received_by_b.size() == kBurst; }, 5'000 * kMs));

  const IoStats after = pair.a().io_stats();
  EXPECT_EQ(after.frames_sent - before.frames_sent, kBurst);
  EXPECT_LT(after.writev_calls - before.writev_calls, kBurst / 2)
      << "a same-round burst must not pay one syscall per frame";
  EXPECT_GT(after.bytes_sent, before.bytes_sent);

  // The receiver counts every frame exactly once despite the batched
  // arrival (multiple frames drained per poll wakeup).
  const IoStats b_stats = pair.b().io_stats();
  EXPECT_GE(b_stats.frames_received, kBurst);
  EXPECT_GE(b_stats.bytes_received, after.bytes_sent - before.bytes_sent);

  // Order is preserved across the batch.
  for (std::uint64_t seq = 0; seq < kBurst; ++seq) {
    const auto* heartbeat = dynamic_cast<const runtime::HeartbeatMessage*>(
        pair.received_by_b[seq].second.get());
    ASSERT_NE(heartbeat, nullptr);
    EXPECT_EQ(heartbeat->seq, seq);
  }
}

TEST(TcpTransportTest, BatchedSplitWritesStillReassemble) {
  // The split tamper caps one batched write mid-frame; the remainder must
  // go out on the next flush and every frame still arrives whole, in
  // order.
  Pair pair;
  ASSERT_TRUE(pair.mesh.start(2'000 * kMs));

  const crypto::Signer signer(pair.keys, 0);
  int frame_index = 0;
  pair.a().set_write_tamper([&](ProcessId, std::size_t) {
    TamperPlan plan;
    if (frame_index++ == 1) plan.split_at = 3;  // cap mid-way into frame 1
    return plan;
  });
  for (std::uint64_t seq = 0; seq < 4; ++seq)
    pair.a().send(1, runtime::HeartbeatMessage::make(signer, seq));
  ASSERT_TRUE(pair.run_until([&] { return pair.received_by_b.size() == 4; },
                             5'000 * kMs));
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    const auto* heartbeat = dynamic_cast<const runtime::HeartbeatMessage*>(
        pair.received_by_b[seq].second.get());
    ASSERT_NE(heartbeat, nullptr);
    EXPECT_EQ(heartbeat->seq, seq);
  }
}

}  // namespace
}  // namespace qsel::net
