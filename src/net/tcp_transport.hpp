// TcpTransport — net::Transport over real non-blocking TCP sockets.
//
// One instance hosts one process: it listens on 127.0.0.1 (ephemeral port
// by default) and dials a persistent outgoing connection to every peer.
// Sends travel only on the own outgoing connection; accepted connections
// are receive-only. This gives each ordered pair (i -> j) exactly one
// byte stream, so TCP's in-order guarantee applies per direction while
// messages may still reorder across senders — the same delivery model the
// simulated network exposes.
//
// Wire protocol, in connection order (unauthenticated / legacy mode):
//
//   frame     := u32-LE body length || body    (length <= kMaxFrameBytes)
//   1st frame := HELLO: u8 0 || u32-LE sender id     (transport-level)
//   others    := wire.hpp message bodies (u8 type tag || codec fields)
//
// With Config::auth_key set, the channel authenticates itself first. The
// handshake is a keyed challenge/response under the shared cluster key —
// the only place the otherwise unidirectional streams speak both ways:
//
//   dialer  -> HELLO:     u8 0    || u32-LE sender id || u64-LE client nonce
//   accept  -> CHALLENGE: u8 0xF0 || u64-LE server nonce ||
//                         HMAC(session key, 0x04)              (32 bytes)
//   dialer  -> AUTH:      u8 0xF1 || HMAC(session key, 0x02)   (32 bytes)
//   then       message frames: wire body || first 16 bytes of
//              HMAC(frame key, body)
//
// where session key = HMAC(auth_key, 0x01 || dialer || acceptor ||
// client nonce || server nonce) and frame key = HMAC(session key, 0x03).
// Authentication is mutual: the CHALLENGE proof (domain 0x04) shows the
// acceptor holds the cluster key, verified by the dialer before it marks
// the channel usable — an impostor listener cannot keep connected_to()
// true while black-holing traffic; the AUTH proof (domain 0x02, a
// different domain so a reflected CHALLENGE proof never passes as AUTH)
// shows the same for the dialer. Nonces are drawn from the OS entropy
// pool (getrandom), never the deterministic seed, so session keys cannot
// repeat across process restarts and recorded handshakes are worthless.
// Binding both fresh nonces and both identities into the session key
// makes the proofs unreplayable across connections and directions; a peer
// without the cluster key cannot produce either, so a lying HELLO now
// buys nothing at all — not even a routed upcall. In-session replay and
// reordering remain *accepted* by design: the tamper hook's delay fault
// legitimately reorders frames on one stream, and the protocol layer is
// replay-idempotent (the suspicion matrix is a monotone CRDT and every
// UPDATE carries its own origin signature), so the MAC deliberately
// covers bytes, not sequence position.
//
// A frame that fails to parse — oversized length, unknown tag, truncated
// or trailing bytes, bad MAC — closes the connection: a TCP stream that
// lost sync cannot be resynchronized, and the parity contract
// (transport.hpp) wants corruption surfaced as loss, never as a wrong
// message. In auth mode a close on an *authenticated* connection also
// files an offense with the QuarantinePolicy: the sender is barred
// (jittered exponential bar, bounded strike budget) and its HELLOs are
// refused until release; sustained clean frames later forgive the
// strikes (net/quarantine.hpp). Offenses attach only to identities
// proven by a completed AUTH — a failed handshake closes anonymously,
// with no strike against the merely *claimed* id, so a keyless attacker
// dialing under a victim's name can never quarantine the victim. The
// residual cost of such spam is one accept plus one HMAC per connection,
// bounded by the kernel's accept rate, not by quarantine.
//
// Outgoing connections reconnect forever with jittered exponential
// backoff (net/backoff.hpp), resetting after a successful connect.
// Messages sent while a peer is unreachable — or before its handshake
// completes — are dropped, not queued: the failure detector is the
// component that must notice silence, and the suspicion layer's
// anti-entropy resync repairs any gossip lost in the gap.
//
// Fault injection for tests: set_write_tamper installs a hook consulted
// once per outgoing frame (HELLO exempt) that may drop it, delay it
// (re-enqueued whole after the delay — reorders messages without
// corrupting the stream), duplicate it, or force the first write syscall
// to stop after `split_at` bytes so receivers exercise partial-frame
// reads. See net/tamper.hpp for the schedule-driven wrapper.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "net/backoff.hpp"
#include "net/event_loop.hpp"
#include "net/quarantine.hpp"
#include "net/transport.hpp"

namespace qsel::trace {
class Tracer;
}

namespace qsel::net {

/// Outbound/inbound I/O counters (BENCH_5 + batching tests). Frames are
/// protocol frames (handshake included); writev_calls counts flush
/// syscalls, so frames_sent / writev_calls is the realized batching
/// factor.
struct IoStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t writev_calls = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_received = 0;
  /// Frames that rode the zero-copy broadcast path: the length-prefixed
  /// body was encoded once and shared across every peer's outbound queue
  /// rather than copied per connection.
  std::uint64_t frames_shared = 0;
};

/// What to do with one outgoing frame (see set_write_tamper).
struct TamperPlan {
  bool drop = false;
  std::uint64_t delay_ns = 0;  // 0 = send now
  bool duplicate = false;
  std::size_t split_at = 0;  // 0 = none; else cap the first write syscall
  /// Nonzero: XOR the mask into on-wire byte flip_at (mod frame size),
  /// *after* the MAC is attached — a corrupting link, not a corrupting
  /// sender. With auth the receiver's MAC check must reject the frame;
  /// without it the flip can silently become a different valid message,
  /// which is exactly the failure mode channel auth exists to close.
  std::uint8_t flip_mask = 0;
  std::size_t flip_at = 0;
};

class TcpTransport final : public Transport {
 public:
  /// Failure-detector round length (transport.hpp). 20ms is a generous
  /// loopback bound: it absorbs poll quantization and scheduler jitter
  /// without making suspicion latency tests crawl.
  static constexpr SimDuration kRoundLength = 20'000'000;
  /// Largest frame body a receiver accepts; a longer length prefix closes
  /// the connection.
  static constexpr std::size_t kMaxFrameBytes = 1 << 20;

  struct Config {
    ProcessId self = 0;
    ProcessId n = 1;
    /// Port to bind; 0 picks an ephemeral port (tests), a fixed value
    /// lets qsel_node instances find each other.
    std::uint16_t listen_port = 0;
    /// Numeric IPv4 address to bind; 0.0.0.0 for multi-machine clusters.
    std::string bind_host = "127.0.0.1";
    /// Reconnect schedule: jittered exponential backoff.
    BackoffConfig reconnect{};
    /// Shared cluster key. Empty = legacy unauthenticated mode; nonempty
    /// enables the HELLO/CHALLENGE/AUTH handshake, per-frame MACs, and
    /// the offense quarantine (header comment, QuarantineConfig defaults).
    std::vector<std::uint8_t> auth_key;
    /// Seeds backoff and quarantine jitter (deterministic tests).
    /// Handshake nonces do NOT come from this seed — they are drawn from
    /// the OS entropy pool so session keys never repeat across restarts.
    std::uint64_t auth_seed = 1;
  };

  using WriteTamper =
      std::function<TamperPlan(ProcessId to, std::size_t frame_bytes)>;

  /// Binds and listens immediately (so peers can learn listen_port()
  /// before any transport starts dialing); throws std::runtime_error when
  /// the socket setup fails. `loop` must outlive the transport.
  TcpTransport(EventLoop& loop, Config config);
  ~TcpTransport() override;

  /// Boot sequence: construct all transports, exchange listen_port() via
  /// set_peer(), then start() each — which begins dialing.
  std::uint16_t listen_port() const { return listen_port_; }
  void set_peer(ProcessId id, std::uint16_t port);  // host = 127.0.0.1
  /// Multi-machine form: `host` is a numeric IPv4 address (no DNS — a
  /// cluster config that needs names resolved them before writing ips).
  void set_peer(ProcessId id, const std::string& host, std::uint16_t port);
  void start();

  /// Closes every socket and cancels reconnects. Idempotent; also run by
  /// the destructor. After shutdown the transport stays silent forever —
  /// this is how LoopbackMesh crashes a node.
  void shutdown();

  /// True when the outgoing connection to `to` is established — HELLO
  /// handed to the kernel and, in auth mode, the acceptor's CHALLENGE
  /// proof verified and our AUTH sent. Tests use this to await wiring.
  bool connected_to(ProcessId to) const;

  bool auth_enabled() const { return !config_.auth_key.empty(); }

  /// Offense/quarantine state; null in legacy (unauthenticated) mode.
  const QuarantinePolicy* quarantine() const { return quarantine_.get(); }

  /// Cumulative I/O counters since construction.
  const IoStats& io_stats() const { return io_stats_; }

  /// Trace sink for kSend/kDeliver/kDrop transport events (null detaches).
  /// The caller owns the tracer and its clock.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  /// Fault-injection hook, consulted once per outgoing message frame.
  void set_write_tamper(WriteTamper tamper) { tamper_ = std::move(tamper); }

  // --- Transport --------------------------------------------------------
  ProcessId self() const override { return config_.self; }
  ProcessId process_count() const override { return config_.n; }
  sim::Simulator& timers() override { return loop_.timers(); }
  SimDuration round_length() const override { return kRoundLength; }
  void set_handler(Handler handler) override { handler_ = std::move(handler); }
  void send(ProcessId to, sim::PayloadPtr message) override;
  void broadcast(ProcessSet targets, const sim::PayloadPtr& message) override;

 private:
  /// An immutable length-prefixed frame (u32-LE length || wire body)
  /// shared across a broadcast fan-out. In auth mode the prefix already
  /// counts the MAC, but the MAC itself is per-connection and travels as
  /// a separate owned tail chunk.
  using SharedFrame = std::shared_ptr<const std::vector<std::uint8_t>>;

  /// One queued piece of an outbound stream: pool-owned bytes, or a
  /// reference into a frame shared across a broadcast (zero-copy). Owned
  /// chunks carry MAC tails, handshake frames, unicast sends, and
  /// tampered (byte-flipped) frames, which must not corrupt siblings.
  struct OutChunk {
    std::vector<std::uint8_t> owned;
    SharedFrame shared;

    const std::uint8_t* data() const {
      return shared ? shared->data() : owned.data();
    }
    std::size_t size() const { return shared ? shared->size() : owned.size(); }
  };

  struct Connection {
    int fd = -1;
    ProcessId peer = kNoProcess;  // incoming: learned from HELLO
    bool outgoing = false;
    bool connecting = false;  // connect() still in flight
    // Auth-mode handshake state (see header comment for the protocol).
    bool authenticated = false;
    bool awaiting_auth = false;  // acceptor: CHALLENGE out, AUTH not in yet
    std::uint64_t client_nonce = 0;
    std::uint64_t server_nonce = 0;
    crypto::Digest session_key{};  // proves the handshake
    std::optional<crypto::HmacKey> frame_key;  // MACs bodies; set by handshake
    std::vector<std::uint8_t> inbuf;
    /// Outbound chunks awaiting the deferred flush, FIFO. Owned buffers
    /// come from (and return to) the transport's frame pool, so
    /// steady-state unicast sends allocate nothing; shared chunks are
    /// reference-counted broadcast frames.
    std::deque<OutChunk> outq;
    std::size_t out_total = 0;    // bytes across outq, consumed included
    std::size_t out_offset = 0;   // consumed prefix of outq.front()
    std::size_t write_cap = 0;    // pending split tamper, 0 = none
    bool flush_pending = false;   // queued in pending_flush_
  };

  void accept_ready();
  void connection_ready(Connection* conn, EventLoop::Ready ready);
  void dial(ProcessId to);
  void schedule_reconnect(ProcessId to);
  void close_connection(Connection* conn, bool reconnect);
  void read_from(Connection* conn);
  bool parse_frames(Connection* conn);  // false => connection was closed
  bool handle_frame(Connection* conn, std::span<const std::uint8_t> body);
  bool handle_hello(Connection* conn, std::span<const std::uint8_t> body);
  bool handle_challenge(Connection* conn, std::span<const std::uint8_t> body);
  bool handle_auth(Connection* conn, std::span<const std::uint8_t> body);
  crypto::Digest derive_session_key(ProcessId dialer, ProcessId acceptor,
                                    std::uint64_t client_nonce,
                                    std::uint64_t server_nonce) const;
  void note_offense(ProcessId peer);
  /// Wraps `body` in a length prefix (counting the MAC in auth mode) for
  /// sharing across a fan-out.
  SharedFrame make_framed(std::span<const std::uint8_t> body) const;
  /// Routes to the zero-copy shared path or the owned copy path (unicast,
  /// or a byte-flip tamper that must not corrupt the shared buffer).
  void enqueue_dispatch(ProcessId to, std::span<const std::uint8_t> body,
                        const SharedFrame& framed, TamperPlan plan);
  void enqueue_frame(ProcessId to, std::span<const std::uint8_t> body,
                     TamperPlan plan);
  void enqueue_shared(ProcessId to, const SharedFrame& framed,
                      TamperPlan plan);
  /// Queues raw pre-framed bytes (handshake frames: no tamper, no MAC).
  void enqueue_raw(Connection* conn, std::span<const std::uint8_t> body);
  /// Marks `conn` for the end-of-round batched flush (EventLoop::defer).
  void schedule_flush(Connection* conn);
  void flush_pending_conns();
  void flush(Connection* conn);
  std::vector<std::uint8_t> acquire_buffer();
  void release_buffer(std::vector<std::uint8_t> buffer);
  void update_interest(Connection* conn);
  void deliver_local(const sim::PayloadPtr& message);
  /// One message to one peer. Unicast passes the wire encoding in `body`
  /// (framed = null); broadcast passes the shared pre-framed bytes in
  /// `framed` (body empty) so the encode + prefix happen once per fan-out
  /// (the per-peer MAC is applied at enqueue time either way).
  void send_encoded(ProcessId to, const sim::Payload& message,
                    std::span<const std::uint8_t> body,
                    const SharedFrame& framed);

  EventLoop& loop_;
  Config config_;
  Handler handler_;
  trace::Tracer* tracer_ = nullptr;
  WriteTamper tamper_;
  Rng rng_;  // reconnect + quarantine jitter (nonces use OS entropy)
  std::unique_ptr<QuarantinePolicy> quarantine_;  // auth mode only

  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  std::vector<std::uint16_t> peer_ports_;  // 0 = unknown
  std::vector<std::string> peer_hosts_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::vector<Connection*> out_;  // per-peer outgoing connection or null
  std::vector<std::uint32_t> reconnect_attempts_;
  std::vector<sim::TimerHandle> reconnect_timers_;
  /// Connections with queued bytes awaiting the deferred batched flush.
  std::vector<Connection*> pending_flush_;
  bool flush_scheduled_ = false;
  /// Recycled frame buffers (see Connection::outq).
  std::vector<std::vector<std::uint8_t>> frame_pool_;
  /// Liveness token for callbacks deferred into the loop: the loop
  /// outlives the transport, so a deferred flush must be able to notice
  /// the transport died before it ran.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
  IoStats io_stats_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace qsel::net
