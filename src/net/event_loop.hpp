// EventLoop — single-threaded, poll(2)-based reactor with timers.
//
// The real-network twin of sim::Simulator's event queue. File descriptors
// register interest callbacks; timers reuse sim::Simulator itself as a
// priority queue whose clock is *advanced to real elapsed time* after
// every poll round:
//
//     poll(fds, min(next timer deadline, cap));
//     dispatch ready fds;
//     timers().run_until(monotonic nanoseconds since loop start);
//
// so the whole protocol stack (failure-detector timeouts, heartbeat ticks,
// reconnect backoff) runs unchanged on either substrate — virtual time in
// simulation, wall-clock time here. This is the keystone of the
// simulator-vs-TCP parity contract (net/transport.hpp).
//
// Single-threaded by design: every TcpTransport of a LoopbackMesh and
// every callback runs on the thread that calls run()/run_for(), so no
// protocol state needs locks and sanitizer runs stay race-free.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"

namespace qsel::net {

class EventLoop {
 public:
  /// Readiness upcall. `error` covers POLLERR/POLLHUP/POLLNVAL; the owner
  /// decides whether that means close-and-reconnect.
  struct Ready {
    bool readable = false;
    bool writable = false;
    bool error = false;
  };
  using IoCallback = std::function<void(Ready ready)>;

  EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;
  ~EventLoop();

  /// Registers `fd` with its callback; interest starts as read-only.
  /// The loop never closes fds — ownership stays with the caller.
  void watch(int fd, IoCallback callback);

  /// Updates poll interest for a watched fd.
  void set_interest(int fd, bool read, bool write);

  /// Deregisters `fd`. Safe to call from inside a callback (including the
  /// fd's own): the watch is only reaped after the dispatch pass.
  void unwatch(int fd);

  /// Timer queue; schedule with timers().schedule_after(ns, fn) exactly as
  /// under simulation. Fires on the loop thread during run()/run_for().
  sim::Simulator& timers() { return timers_; }

  /// Runs `fn` once at the END of the current poll round, after fd
  /// dispatch and timers — or at the end of the next round when no round
  /// is in flight. This is the batching point: producers enqueue bytes
  /// from fd and timer callbacks all through one iteration, and a single
  /// deferred flush coalesces them into one writev per connection.
  /// Callbacks deferred from within a deferred callback run next round.
  void defer(std::function<void()> fn);

  /// Monotonic nanoseconds since the loop was constructed — the value the
  /// timer clock is advanced to. Also serves as the trace clock.
  std::uint64_t now_ns() const;

  /// One poll round: waits at most `max_wait_ns` (bounded further by the
  /// next timer deadline), dispatches ready fds, then fires due timers.
  void poll_once(std::uint64_t max_wait_ns);

  /// Pumps poll rounds until `duration_ns` of real time has elapsed.
  void run_for(std::uint64_t duration_ns);

  /// Pumps poll rounds (at most 5 ms each) until `pred` holds; false if
  /// `timeout_ns` of real time passed first.
  bool run_until(const std::function<bool()>& pred, std::uint64_t timeout_ns);

  /// Pumps until stop() is called (from a callback or timer).
  void run();
  void stop() { stopped_ = true; }

 private:
  struct Watch {
    int fd;
    short events;  // POLLIN/POLLOUT interest
    IoCallback callback;
    bool dead = false;
  };

  Watch* find(int fd);

  sim::Simulator timers_;
  std::vector<std::unique_ptr<Watch>> watches_;
  std::vector<std::function<void()>> deferred_;
  std::uint64_t start_ns_ = 0;
  bool stopped_ = false;
};

}  // namespace qsel::net
