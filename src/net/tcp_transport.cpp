#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/random.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "crypto/hmac.hpp"
#include "net/codec.hpp"
#include "net/wire.hpp"
#include "trace/tracer.hpp"

namespace qsel::net {

namespace {

constexpr std::uint8_t kHelloTag = 0;
// Handshake control tags live above 0xEF; wire.hpp message tags stay
// small, so the ranges can never collide.
constexpr std::uint8_t kChallengeTag = 0xF0;
constexpr std::uint8_t kAuthTag = 0xF1;

// Domain-separation prefixes for the shared cluster key (header comment).
constexpr std::uint8_t kSessionKeyDomain = 0x01;
constexpr std::uint8_t kAuthProofDomain = 0x02;
constexpr std::uint8_t kFrameKeyDomain = 0x03;
// Acceptor's proof inside CHALLENGE; distinct from kAuthProofDomain so a
// reflected CHALLENGE proof can never pass as an AUTH proof.
constexpr std::uint8_t kChallengeProofDomain = 0x04;

constexpr std::size_t kChallengeFrameBytes = 1 + 8 + 32;  // tag|nonce|proof

// Truncated per-frame MAC length. 128 bits: forging still needs 2^64 HMAC
// evaluations online, while halving the per-heartbeat overhead.
constexpr std::size_t kMacBytes = 16;
static_assert(TcpTransport::kMaxFrameBytes >= 4 + kMacBytes);

// Per-process jitter stream: same auth_seed, distinct processes.
std::uint64_t splitmix_mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return splitmix64(state);
}

std::uint64_t load_u64_le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

// Handshake nonces come from the OS entropy pool, never the deterministic
// seed: a restarted process reusing a seeded PRNG would replay its nonce
// sequence, repeating session keys across boots and letting a recorded
// handshake impersonate a peer. Jitter stays seeded (it only shapes
// timing); nonces must be unrepeatable.
std::uint64_t os_nonce64() {
  std::uint8_t buf[8];
  std::size_t got = 0;
  while (got < sizeof(buf)) {
    const ssize_t n = ::getrandom(buf + got, sizeof(buf) - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("TcpTransport: getrandom failed: " +
                               std::string(std::strerror(errno)));
    }
    got += static_cast<std::size_t>(n);
  }
  return load_u64_le(buf);
}

crypto::Digest keyed_tag(const crypto::Digest& key, std::uint8_t domain) {
  return crypto::hmac_sha256(key.bytes, std::span(&domain, 1));
}

// Constant-time comparison: a timing oracle on MAC bytes would let an
// attacker forge one byte at a time.
bool mac_equal(std::span<const std::uint8_t> a,
               std::span<const std::uint8_t> b) {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    acc |= static_cast<std::uint8_t>(a[i] ^ b[i]);
  return acc == 0;
}

// Frames gathered into one writev. 64 covers a full heartbeat+gossip
// round for every supported n; beyond it the flush loop simply issues
// another writev.
constexpr std::size_t kMaxIov = 64;

// Recycled frame buffers kept per transport; enough for a burst flush
// without ever holding more than ~a round's worth of idle memory.
constexpr std::size_t kFramePoolMax = 128;

// recv() granularity when draining a readable socket into inbuf.
constexpr std::size_t kReadChunk = 64 * 1024;

void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> body) {
  const auto len = static_cast<std::uint32_t>(body.size());
  out.push_back(static_cast<std::uint8_t>(len & 0xff));
  out.push_back(static_cast<std::uint8_t>((len >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((len >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((len >> 24) & 0xff));
  out.insert(out.end(), body.begin(), body.end());
}

int make_nonblocking_socket() {
  return ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
}

// Every connection disables Nagle. flush() already gathers a poll round's
// frames into one writev, so Nagle only adds the stall where a small frame
// waits for the peer's delayed ACK (40 ms on Linux) behind an unacked one.
void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Builds a socket address from a numeric IPv4 string; false on a host
// that inet_pton rejects (the transport never resolves names).
bool make_address(const std::string& host, std::uint16_t port,
                  sockaddr_in* addr) {
  *addr = sockaddr_in{};
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1;
}

}  // namespace

TcpTransport::TcpTransport(EventLoop& loop, Config config)
    : loop_(loop),
      config_(config),
      rng_(splitmix_mix(config.auth_seed, config.self)),
      peer_ports_(config.n, 0),
      peer_hosts_(config.n, "127.0.0.1"),
      out_(config.n, nullptr),
      reconnect_attempts_(config.n, 0),
      reconnect_timers_(config.n) {
  QSEL_REQUIRE(config_.n >= 1 && config_.self < config_.n);
  if (auth_enabled())
    quarantine_ = std::make_unique<QuarantinePolicy>(
        config_.n, QuarantineConfig{}, rng_());

  listen_fd_ = make_nonblocking_socket();
  if (listen_fd_ < 0)
    throw std::runtime_error("TcpTransport: socket() failed: " +
                             std::string(std::strerror(errno)));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  if (!make_address(config_.bind_host, config_.listen_port, &addr)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("TcpTransport: bad bind_host: " +
                             config_.bind_host);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, SOMAXCONN) != 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("TcpTransport: bind/listen failed: " + what);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("TcpTransport: getsockname failed: " + what);
  }
  listen_port_ = ntohs(bound.sin_port);

  loop_.watch(listen_fd_, [this](EventLoop::Ready ready) {
    if (ready.readable || ready.error) accept_ready();
  });
}

TcpTransport::~TcpTransport() { shutdown(); }

void TcpTransport::set_peer(ProcessId id, std::uint16_t port) {
  set_peer(id, "127.0.0.1", port);
}

void TcpTransport::set_peer(ProcessId id, const std::string& host,
                            std::uint16_t port) {
  QSEL_REQUIRE(id < config_.n && id != config_.self);
  QSEL_REQUIRE(port != 0 && !host.empty());
  peer_ports_[id] = port;
  peer_hosts_[id] = host;
}

void TcpTransport::start() {
  QSEL_REQUIRE(!started_ && !stopped_);
  started_ = true;
  for (ProcessId id = 0; id < config_.n; ++id)
    if (id != config_.self && peer_ports_[id] != 0) dial(id);
}

void TcpTransport::shutdown() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& timer : reconnect_timers_) timer.cancel();
  while (!connections_.empty())
    close_connection(connections_.back().get(), /*reconnect=*/false);
  if (listen_fd_ >= 0) {
    loop_.unwatch(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

bool TcpTransport::connected_to(ProcessId to) const {
  QSEL_REQUIRE(to < config_.n);
  if (out_[to] == nullptr || out_[to]->connecting) return false;
  return !auth_enabled() || out_[to]->authenticated;
}

// --- outbound -------------------------------------------------------------

void TcpTransport::send(ProcessId to, sim::PayloadPtr message) {
  QSEL_REQUIRE(message != nullptr);
  QSEL_REQUIRE(to < config_.n);
  if (stopped_) return;
  if (to == config_.self) {
    deliver_local(message);
    return;
  }
  const auto body = encode_message(*message);
  // Only simulator-only test payloads lack a wire form; sending one over
  // TCP is a programming error, not a runtime condition.
  QSEL_ASSERT(body.has_value());
  send_encoded(to, *message, *body, nullptr);
}

void TcpTransport::broadcast(ProcessSet targets,
                             const sim::PayloadPtr& message) {
  QSEL_REQUIRE(message != nullptr);
  if (stopped_) return;
  // Zero-copy fan-out: encode AND frame once; every peer's outq holds the
  // same immutable length-prefixed buffer. Only the per-peer MAC tail
  // (auth mode) and tampered frames are materialized per connection.
  SharedFrame framed;
  for (ProcessId id : targets) {
    QSEL_REQUIRE(id < config_.n);
    if (id == config_.self) {
      deliver_local(message);
      continue;
    }
    if (framed == nullptr) {
      const auto body = encode_message(*message);
      QSEL_ASSERT(body.has_value());
      framed = make_framed(*body);
    }
    send_encoded(id, *message, {}, framed);
  }
}

void TcpTransport::deliver_local(const sim::PayloadPtr& message) {
  // One event-loop hop, mirroring sim::Network's self-delivery.
  loop_.timers().schedule_after(0, [this, msg = message] {
    if (stopped_ || !handler_) return;
    if (tracer_)
      tracer_->deliver(config_.self, config_.self, msg->type_tag(),
                       msg->wire_size());
    handler_(config_.self, msg);
  });
}

TcpTransport::SharedFrame TcpTransport::make_framed(
    std::span<const std::uint8_t> body) const {
  auto framed = std::make_shared<std::vector<std::uint8_t>>();
  framed->reserve(4 + body.size());
  const auto len = static_cast<std::uint32_t>(
      body.size() + (auth_enabled() ? kMacBytes : 0));
  framed->push_back(static_cast<std::uint8_t>(len & 0xff));
  framed->push_back(static_cast<std::uint8_t>((len >> 8) & 0xff));
  framed->push_back(static_cast<std::uint8_t>((len >> 16) & 0xff));
  framed->push_back(static_cast<std::uint8_t>((len >> 24) & 0xff));
  framed->insert(framed->end(), body.begin(), body.end());
  return framed;
}

void TcpTransport::send_encoded(ProcessId to, const sim::Payload& message,
                                std::span<const std::uint8_t> body,
                                const SharedFrame& framed) {
  const std::size_t body_bytes =
      framed != nullptr ? framed->size() - 4 : body.size();
  const std::size_t frame_bytes =
      4 + body_bytes + (auth_enabled() ? kMacBytes : 0);
  TamperPlan plan;
  if (tamper_) plan = tamper_(to, frame_bytes);
  const std::string tag(message.type_tag());
  const std::uint64_t wire_size = message.wire_size();
  if (plan.drop) {
    if (tracer_)
      tracer_->drop(config_.self, to, tag, trace::DropReason::kLinkDisabled,
                    wire_size);
    return;
  }
  if (plan.delay_ns > 0) {
    // Re-enqueued whole after the delay: later frames may overtake it on
    // the stream — message reordering, never stream corruption. The MAC
    // is computed at enqueue time against the connection alive *then*;
    // a reconnect in the gap means fresh nonces and a fresh frame key.
    // A shared frame stays shared across the delay (the lambda captures
    // the refcount, not a copy).
    loop_.timers().schedule_after(
        plan.delay_ns,
        [this, to,
         body = framed != nullptr
                    ? std::vector<std::uint8_t>{}
                    : std::vector<std::uint8_t>(body.begin(), body.end()),
         framed, plan, tag, wire_size] {
          if (stopped_) return;
          if (tracer_) tracer_->send(config_.self, to, tag, 0, wire_size);
          TamperPlan now = plan;
          now.delay_ns = 0;
          enqueue_dispatch(to, body, framed, now);
          if (plan.duplicate) {
            now.duplicate = false;
            now.split_at = 0;
            enqueue_dispatch(to, body, framed, now);
          }
        });
    return;
  }
  if (tracer_) tracer_->send(config_.self, to, tag, 0, wire_size);
  enqueue_dispatch(to, body, framed, plan);
  if (plan.duplicate) {
    TamperPlan dup = plan;
    dup.duplicate = false;
    dup.split_at = 0;
    enqueue_dispatch(to, body, framed, dup);
  }
}

void TcpTransport::enqueue_dispatch(ProcessId to,
                                    std::span<const std::uint8_t> body,
                                    const SharedFrame& framed,
                                    TamperPlan plan) {
  if (framed != nullptr && plan.flip_mask == 0) {
    enqueue_shared(to, framed, plan);
    return;
  }
  // Copy-on-tamper: a byte flip must corrupt this peer's stream only,
  // never the buffer its siblings share.
  if (framed != nullptr)
    body = std::span<const std::uint8_t>(framed->data() + 4,
                                         framed->size() - 4);
  enqueue_frame(to, body, plan);
}

void TcpTransport::enqueue_shared(ProcessId to, const SharedFrame& framed,
                                  TamperPlan plan) {
  Connection* conn = out_[to];
  if (conn == nullptr || (auth_enabled() && !conn->authenticated)) {
    if (tracer_)
      tracer_->drop(config_.self, to, {}, trace::DropReason::kDisconnected,
                    framed->size() - 4);
    return;
  }
  if (plan.split_at > 0)
    conn->write_cap = conn->out_total - conn->out_offset + plan.split_at;
  conn->out_total += framed->size();
  conn->outq.push_back(OutChunk{{}, framed});
  if (auth_enabled()) {
    // The shared prefix already counts the MAC; the MAC itself depends on
    // this connection's frame key, so it rides as a small owned tail.
    const std::span<const std::uint8_t> body(framed->data() + 4,
                                             framed->size() - 4);
    const crypto::Digest mac = conn->frame_key->mac(body);
    std::vector<std::uint8_t> tail = acquire_buffer();
    tail.insert(tail.end(), mac.bytes.begin(), mac.bytes.begin() + kMacBytes);
    conn->out_total += tail.size();
    conn->outq.push_back(OutChunk{std::move(tail), nullptr});
  }
  ++io_stats_.frames_sent;
  ++io_stats_.frames_shared;
  schedule_flush(conn);
}

void TcpTransport::enqueue_frame(ProcessId to,
                                 std::span<const std::uint8_t> body,
                                 TamperPlan plan) {
  Connection* conn = out_[to];
  if (conn == nullptr || (auth_enabled() && !conn->authenticated)) {
    // Unreachable, or the handshake has not finished: dropped, never
    // queued (the suspicion layer's resync repairs the gap).
    if (tracer_)
      tracer_->drop(config_.self, to, {}, trace::DropReason::kDisconnected,
                    body.size());
    return;
  }
  std::vector<std::uint8_t> frame = acquire_buffer();
  frame.reserve(4 + body.size() + kMacBytes);
  const std::size_t payload_len =
      body.size() + (auth_enabled() ? kMacBytes : 0);
  const auto len = static_cast<std::uint32_t>(payload_len);
  frame.push_back(static_cast<std::uint8_t>(len & 0xff));
  frame.push_back(static_cast<std::uint8_t>((len >> 8) & 0xff));
  frame.push_back(static_cast<std::uint8_t>((len >> 16) & 0xff));
  frame.push_back(static_cast<std::uint8_t>((len >> 24) & 0xff));
  frame.insert(frame.end(), body.begin(), body.end());
  if (auth_enabled()) {
    const crypto::Digest mac = conn->frame_key->mac(body);
    frame.insert(frame.end(), mac.bytes.begin(),
                 mac.bytes.begin() + kMacBytes);
  }
  if (plan.flip_mask != 0 && !frame.empty()) {
    // Corrupting-link fault: flips bytes already sealed under the MAC.
    frame[plan.flip_at % frame.size()] ^= plan.flip_mask;
  }
  if (plan.split_at > 0) {
    // Cap the next write syscall at split_at bytes past what is already
    // queued, so this frame's head and tail leave in separate writes.
    conn->write_cap = conn->out_total - conn->out_offset + plan.split_at;
  }
  conn->out_total += frame.size();
  conn->outq.push_back(OutChunk{std::move(frame), nullptr});
  ++io_stats_.frames_sent;
  schedule_flush(conn);
}

void TcpTransport::enqueue_raw(Connection* conn,
                               std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> frame = acquire_buffer();
  append_frame(frame, body);
  conn->out_total += frame.size();
  conn->outq.push_back(OutChunk{std::move(frame), nullptr});
  ++io_stats_.frames_sent;
  schedule_flush(conn);
}

void TcpTransport::schedule_flush(Connection* conn) {
  if (!conn->flush_pending) {
    conn->flush_pending = true;
    pending_flush_.push_back(conn);
  }
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  // One deferred callback per loop round covers every connection that
  // queued bytes during it. The weak token guards against the transport
  // being destroyed before the round ends (the loop outlives us).
  loop_.defer([this, token = std::weak_ptr<char>(alive_)] {
    if (token.expired()) return;
    flush_pending_conns();
  });
}

void TcpTransport::flush_pending_conns() {
  flush_scheduled_ = false;
  // Pop before flushing: flush may close the connection, and
  // close_connection erases it from pending_flush_ only while the flag
  // is still set.
  while (!pending_flush_.empty()) {
    Connection* conn = pending_flush_.back();
    pending_flush_.pop_back();
    conn->flush_pending = false;
    flush(conn);
  }
}

void TcpTransport::flush(Connection* conn) {
  if (conn->connecting) return;
  while (conn->out_total > conn->out_offset) {
    // Gather queued frames into one vectored write, honoring a pending
    // split tamper by truncating the batch at the cap.
    iovec iov[kMaxIov];
    std::size_t iov_count = 0;
    std::size_t batched = 0;
    std::size_t budget = conn->out_total - conn->out_offset;
    bool capped = false;
    if (conn->write_cap > 0 && conn->write_cap < budget) {
      budget = conn->write_cap;
      capped = true;
    }
    std::size_t skip = conn->out_offset;
    for (auto& chunk : conn->outq) {
      if (iov_count == kMaxIov || batched == budget) break;
      if (skip >= chunk.size()) {
        skip -= chunk.size();
        continue;
      }
      const std::size_t take =
          std::min(chunk.size() - skip, budget - batched);
      // The iovec is read-only (sendmsg); casting away const from a
      // shared chunk never writes through it.
      iov[iov_count].iov_base = const_cast<std::uint8_t*>(chunk.data()) + skip;
      iov[iov_count].iov_len = take;
      ++iov_count;
      batched += take;
      skip = 0;
    }
    // sendmsg rather than writev purely for MSG_NOSIGNAL: a peer that
    // closed mid-flush must surface as EPIPE, not kill the process.
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iov_count;
    const ssize_t sent = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    ++io_stats_.writev_calls;
    if (sent > 0) {
      io_stats_.bytes_sent += static_cast<std::uint64_t>(sent);
      conn->out_offset += static_cast<std::size_t>(sent);
      while (!conn->outq.empty() &&
             conn->out_offset >= conn->outq.front().size()) {
        OutChunk& front = conn->outq.front();
        conn->out_offset -= front.size();
        conn->out_total -= front.size();
        if (front.shared == nullptr) release_buffer(std::move(front.owned));
        conn->outq.pop_front();
      }
      if (conn->write_cap > 0) {
        conn->write_cap -= std::min(conn->write_cap,
                                    static_cast<std::size_t>(sent));
        if (capped && conn->write_cap == 0) break;  // forced split point
      }
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close_connection(conn, conn->outgoing);
    return;
  }
  update_interest(conn);
}

std::vector<std::uint8_t> TcpTransport::acquire_buffer() {
  if (frame_pool_.empty()) return {};
  std::vector<std::uint8_t> buf = std::move(frame_pool_.back());
  frame_pool_.pop_back();
  buf.clear();
  return buf;
}

void TcpTransport::release_buffer(std::vector<std::uint8_t> buffer) {
  if (frame_pool_.size() < kFramePoolMax)
    frame_pool_.push_back(std::move(buffer));
}

void TcpTransport::update_interest(Connection* conn) {
  const bool want_write =
      conn->connecting || conn->out_total > conn->out_offset;
  loop_.set_interest(conn->fd, /*read=*/true, want_write);
}

// --- connection lifecycle -------------------------------------------------

void TcpTransport::dial(ProcessId to) {
  QSEL_REQUIRE(peer_ports_[to] != 0);
  if (stopped_ || out_[to] != nullptr) return;
  const int fd = make_nonblocking_socket();
  if (fd < 0) {
    schedule_reconnect(to);
    return;
  }
  set_nodelay(fd);
  sockaddr_in addr{};
  if (!make_address(peer_hosts_[to], peer_ports_[to], &addr)) {
    ::close(fd);
    schedule_reconnect(to);
    return;
  }
  bool connecting = false;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (errno == EINPROGRESS) {
      connecting = true;
    } else {
      ::close(fd);
      schedule_reconnect(to);
      return;
    }
  }

  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  conn->peer = to;
  conn->outgoing = true;
  conn->connecting = connecting;
  Connection* raw = conn.get();
  connections_.push_back(std::move(conn));
  out_[to] = raw;
  // HELLO goes first on the stream, queued before connect even completes
  // (flush waits for writability). It bypasses the tamper hook: a dropped
  // HELLO would poison the whole connection, which models a fault the
  // schedule never asked for. In auth mode it opens the handshake with a
  // fresh client nonce; the connection only carries messages once the
  // CHALLENGE comes back and AUTH goes out.
  Encoder hello;
  hello.u8(kHelloTag);
  hello.u32(config_.self);
  if (auth_enabled()) {
    raw->client_nonce = os_nonce64();
    hello.u64(raw->client_nonce);
  }
  enqueue_raw(raw, hello.view());
  loop_.watch(fd, [this, raw](EventLoop::Ready ready) {
    connection_ready(raw, ready);
  });
  update_interest(raw);
  if (!connecting) {
    reconnect_attempts_[to] = 0;
    flush(raw);
  }
}

void TcpTransport::schedule_reconnect(ProcessId to) {
  if (stopped_) return;
  const std::uint32_t attempt = reconnect_attempts_[to];
  if (reconnect_attempts_[to] < config_.reconnect.max_exponent)
    ++reconnect_attempts_[to];
  const SimDuration delay = backoff_delay(config_.reconnect, attempt, rng_);
  reconnect_timers_[to] = loop_.timers().schedule_timer(delay, [this, to] {
    if (!stopped_ && out_[to] == nullptr) dial(to);
  });
}

void TcpTransport::accept_ready() {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error; poll will re-arm
    }
    set_nodelay(fd);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    connections_.push_back(std::move(conn));
    loop_.watch(fd, [this, raw](EventLoop::Ready ready) {
      connection_ready(raw, ready);
    });
  }
}

void TcpTransport::connection_ready(Connection* conn,
                                    EventLoop::Ready ready) {
  if (ready.error) {
    close_connection(conn, conn->outgoing);
    return;
  }
  if (ready.writable) {
    if (conn->connecting) {
      int err = 0;
      socklen_t err_len = sizeof(err);
      ::getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &err, &err_len);
      if (err != 0) {
        close_connection(conn, conn->outgoing);
        return;
      }
      conn->connecting = false;
      reconnect_attempts_[conn->peer] = 0;
    }
    const std::size_t before = connections_.size();
    flush(conn);
    if (connections_.size() != before) return;  // flush closed it
  }
  if (ready.readable) read_from(conn);
}

void TcpTransport::close_connection(Connection* conn, bool reconnect) {
  const ProcessId peer = conn->peer;
  const bool outgoing = conn->outgoing;
  loop_.unwatch(conn->fd);
  ::close(conn->fd);
  if (conn->flush_pending) std::erase(pending_flush_, conn);
  while (!conn->outq.empty()) {
    if (conn->outq.front().shared == nullptr)
      release_buffer(std::move(conn->outq.front().owned));
    conn->outq.pop_front();
  }
  if (outgoing && peer != kNoProcess && out_[peer] == conn)
    out_[peer] = nullptr;
  std::erase_if(connections_,
                [conn](const auto& owned) { return owned.get() == conn; });
  if (reconnect && outgoing && peer != kNoProcess) schedule_reconnect(peer);
}

// --- inbound --------------------------------------------------------------

void TcpTransport::read_from(Connection* conn) {
  bool eof = false;
  while (true) {
    // recv straight into inbuf's tail: one resize instead of a stack
    // bounce-buffer copy per chunk; capacity stays warm across wakeups.
    const std::size_t used = conn->inbuf.size();
    conn->inbuf.resize(used + kReadChunk);
    const ssize_t got =
        ::recv(conn->fd, conn->inbuf.data() + used, kReadChunk, 0);
    if (got > 0) {
      conn->inbuf.resize(used + static_cast<std::size_t>(got));
      io_stats_.bytes_received += static_cast<std::uint64_t>(got);
      continue;
    }
    conn->inbuf.resize(used);
    if (got == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_connection(conn, conn->outgoing);
    return;
  }
  if (!parse_frames(conn)) return;  // closed on a framing error
  if (eof) close_connection(conn, conn->outgoing);
}

bool TcpTransport::parse_frames(Connection* conn) {
  std::size_t pos = 0;
  while (conn->inbuf.size() - pos >= 4) {
    const std::uint8_t* p = conn->inbuf.data() + pos;
    const std::uint32_t len =
        static_cast<std::uint32_t>(p[0]) |
        (static_cast<std::uint32_t>(p[1]) << 8) |
        (static_cast<std::uint32_t>(p[2]) << 16) |
        (static_cast<std::uint32_t>(p[3]) << 24);
    if (len > kMaxFrameBytes) {
      QSEL_LOG(kWarn, "net") << "p" << config_.self
                             << " closing connection: oversized frame ("
                             << len << " bytes)";
      if (tracer_)
        tracer_->drop(conn->peer, config_.self, {},
                      trace::DropReason::kMalformed, len);
      // Strikes only attach to identities proven by a completed AUTH;
      // before that, conn->peer is merely claimed.
      if (!conn->outgoing && conn->authenticated) note_offense(conn->peer);
      close_connection(conn, conn->outgoing);
      return false;
    }
    if (conn->inbuf.size() - pos - 4 < len) break;  // incomplete frame
    const std::span<const std::uint8_t> body(conn->inbuf.data() + pos + 4,
                                             len);
    if (!handle_frame(conn, body)) {
      close_connection(conn, conn->outgoing);
      return false;
    }
    pos += 4 + len;
  }
  if (pos > 0)
    conn->inbuf.erase(conn->inbuf.begin(),
                      conn->inbuf.begin() + static_cast<std::ptrdiff_t>(pos));
  if (conn->inbuf.size() > kMaxFrameBytes + 4) {
    // A frame header promised more than the cap admits in one piece; the
    // oversize check above already caught that, so this is unreachable
    // unless inbuf grows without a parsable header — treat as garbage.
    close_connection(conn, conn->outgoing);
    return false;
  }
  return true;
}

bool TcpTransport::handle_frame(Connection* conn,
                                std::span<const std::uint8_t> body) {
  ++io_stats_.frames_received;
  if (conn->peer == kNoProcess) return handle_hello(conn, body);
  if (conn->outgoing) {
    // The dial side reads exactly one frame ever: the auth CHALLENGE.
    if (!auth_enabled() || conn->authenticated) return false;
    return handle_challenge(conn, body);
  }
  if (auth_enabled() && conn->awaiting_auth) return handle_auth(conn, body);

  std::span<const std::uint8_t> payload = body;
  if (auth_enabled()) {
    const bool long_enough = body.size() >= kMacBytes + 1;
    const crypto::Digest expect = conn->frame_key->mac(
        long_enough ? body.first(body.size() - kMacBytes) : body);
    if (!long_enough ||
        !mac_equal(body.last(kMacBytes),
                   std::span(expect.bytes.data(), kMacBytes))) {
      QSEL_LOG(kWarn, "net") << "p" << config_.self
                             << " rejecting frame from p" << conn->peer
                             << ": bad MAC (" << body.size() << " bytes)";
      if (tracer_)
        tracer_->drop(conn->peer, config_.self, {},
                      trace::DropReason::kMalformed, body.size());
      note_offense(conn->peer);
      return false;
    }
    payload = body.first(body.size() - kMacBytes);
  }
  const sim::PayloadPtr message = decode_message(payload, config_.n);
  if (message == nullptr) {
    QSEL_LOG(kWarn, "net") << "p" << config_.self
                           << " closing connection from p" << conn->peer
                           << ": malformed frame (" << body.size()
                           << " bytes)";
    if (tracer_)
      tracer_->drop(conn->peer, config_.self, {},
                    trace::DropReason::kMalformed, body.size());
    note_offense(conn->peer);
    return false;
  }
  if (quarantine_) quarantine_->good_frame(conn->peer);
  if (tracer_)
    tracer_->deliver(config_.self, conn->peer, message->type_tag(),
                     message->wire_size());
  if (handler_) handler_(conn->peer, message);
  return true;
}

bool TcpTransport::handle_hello(Connection* conn,
                                std::span<const std::uint8_t> body) {
  // First frame of an accepted connection must be HELLO.
  Decoder dec(body);
  if (dec.u8() != kHelloTag) return false;
  const ProcessId claimed = dec.process_id();
  if (claimed >= config_.n || claimed == config_.self) return false;
  if (!auth_enabled()) {
    if (!dec.done()) return false;
    conn->peer = claimed;
    return true;
  }
  const std::uint64_t client_nonce = dec.u64();
  if (!dec.done()) return false;  // pre-id: anonymous garbage, no strike
  if (quarantine_ && !quarantine_->admitted(claimed, loop_.timers().now())) {
    // Barred peers get closed, not re-struck: the strike already priced
    // the offense, and re-striking every retry would never release them.
    QSEL_LOG(kInfo, "net") << "p" << config_.self << " refusing p" << claimed
                           << ": quarantined";
    return false;
  }
  conn->peer = claimed;
  conn->client_nonce = client_nonce;
  conn->server_nonce = os_nonce64();
  conn->session_key = derive_session_key(claimed, config_.self, client_nonce,
                                         conn->server_nonce);
  conn->frame_key.emplace(
      keyed_tag(conn->session_key, kFrameKeyDomain).bytes);
  conn->awaiting_auth = true;
  // CHALLENGE carries the acceptor's own proof of key possession over the
  // freshly derived session key (both nonces, both identities), so the
  // dialer authenticates us before it trusts the channel — without it an
  // impostor listener could hold connected_to() true while black-holing
  // every frame.
  const crypto::Digest server_proof =
      keyed_tag(conn->session_key, kChallengeProofDomain);
  Encoder challenge;
  challenge.u8(kChallengeTag);
  challenge.u64(conn->server_nonce);
  challenge.digest(server_proof);
  QSEL_ASSERT(challenge.size() == kChallengeFrameBytes);
  // No direct flush from inside the parse loop (flush may close the
  // connection out from under parse_frames); the deferred end-of-round
  // flush runs after parsing finishes, which is exactly the safe point.
  enqueue_raw(conn, challenge.view());
  return true;
}

bool TcpTransport::handle_challenge(Connection* conn,
                                    std::span<const std::uint8_t> body) {
  // A malformed or unproven CHALLENGE is not attributed to the peer: the
  // listener at the peer's address has not proven it holds the cluster
  // key, and striking the configured identity would let an impostor
  // listener quarantine the honest peer. Close and let backoff retry.
  if (body.size() != kChallengeFrameBytes || body[0] != kChallengeTag)
    return false;
  conn->server_nonce = load_u64_le(body.data() + 1);
  conn->session_key = derive_session_key(config_.self, conn->peer,
                                         conn->client_nonce,
                                         conn->server_nonce);
  conn->frame_key.emplace(
      keyed_tag(conn->session_key, kFrameKeyDomain).bytes);
  const crypto::Digest server_proof =
      keyed_tag(conn->session_key, kChallengeProofDomain);
  if (!mac_equal(body.subspan(1 + 8), server_proof.bytes)) {
    QSEL_LOG(kWarn, "net") << "p" << config_.self
                           << " rejecting CHALLENGE from p" << conn->peer
                           << ": bad acceptor proof";
    return false;
  }
  const crypto::Digest proof = keyed_tag(conn->session_key, kAuthProofDomain);
  std::vector<std::uint8_t> auth;
  auth.reserve(33);
  auth.push_back(kAuthTag);
  auth.insert(auth.end(), proof.bytes.begin(), proof.bytes.end());
  enqueue_raw(conn, auth);
  conn->authenticated = true;
  reconnect_attempts_[conn->peer] = 0;
  return true;
}

bool TcpTransport::handle_auth(Connection* conn,
                               std::span<const std::uint8_t> body) {
  const crypto::Digest proof = keyed_tag(conn->session_key, kAuthProofDomain);
  if (body.size() != 33 || body[0] != kAuthTag ||
      !mac_equal(body.subspan(1), proof.bytes)) {
    QSEL_LOG(kWarn, "net") << "p" << config_.self
                           << " rejecting handshake claiming p" << conn->peer
                           << ": bad AUTH proof";
    // No strike: the claimed identity was never proven, so filing an
    // offense here would let a keyless dialer quarantine any honest peer
    // just by claiming its id. Treated like pre-id garbage — closed only.
    return false;
  }
  conn->awaiting_auth = false;
  conn->authenticated = true;
  return true;
}

crypto::Digest TcpTransport::derive_session_key(
    ProcessId dialer, ProcessId acceptor, std::uint64_t client_nonce,
    std::uint64_t server_nonce) const {
  Encoder enc;
  enc.u8(kSessionKeyDomain);
  enc.u32(dialer);
  enc.u32(acceptor);
  enc.u64(client_nonce);
  enc.u64(server_nonce);
  return crypto::hmac_sha256(config_.auth_key, enc.view());
}

void TcpTransport::note_offense(ProcessId peer) {
  if (quarantine_ && peer != kNoProcess)
    quarantine_->offense(peer, loop_.timers().now());
}

}  // namespace qsel::net
