#include "net/event_loop.hpp"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/assert.hpp"

namespace qsel::net {

namespace {

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

EventLoop::EventLoop() : start_ns_(monotonic_ns()) {}

EventLoop::~EventLoop() = default;

std::uint64_t EventLoop::now_ns() const { return monotonic_ns() - start_ns_; }

EventLoop::Watch* EventLoop::find(int fd) {
  for (auto& watch : watches_)
    if (watch->fd == fd && !watch->dead) return watch.get();
  return nullptr;
}

void EventLoop::watch(int fd, IoCallback callback) {
  QSEL_REQUIRE(fd >= 0);
  QSEL_REQUIRE(callback != nullptr);
  QSEL_REQUIRE(find(fd) == nullptr);
  auto entry = std::make_unique<Watch>();
  entry->fd = fd;
  entry->events = POLLIN;
  entry->callback = std::move(callback);
  watches_.push_back(std::move(entry));
}

void EventLoop::set_interest(int fd, bool read, bool write) {
  Watch* entry = find(fd);
  QSEL_REQUIRE(entry != nullptr);
  entry->events = static_cast<short>((read ? POLLIN : 0) |  //
                                     (write ? POLLOUT : 0));
}

void EventLoop::unwatch(int fd) {
  // Only flag here; the entry is reaped after the dispatch pass so a
  // callback may unwatch any fd (its own included) without invalidating
  // the iteration in poll_once.
  if (Watch* entry = find(fd)) entry->dead = true;
}

void EventLoop::poll_once(std::uint64_t max_wait_ns) {
  std::uint64_t wait_ns = max_wait_ns;
  if (const auto next = timers_.next_event_time()) {
    const std::uint64_t now = now_ns();
    wait_ns = *next <= now ? 0 : std::min<std::uint64_t>(wait_ns, *next - now);
  }
  // poll has millisecond resolution; round up so we never spin hot while a
  // sub-millisecond deadline approaches, and cap to keep the loop
  // responsive to stop() even when no timer is pending.
  const std::uint64_t wait_ms =
      std::min<std::uint64_t>((wait_ns + 999'999) / 1'000'000, 1000);

  std::vector<pollfd> fds;
  fds.reserve(watches_.size());
  std::vector<Watch*> polled;
  polled.reserve(watches_.size());
  for (auto& entry : watches_) {
    if (entry->dead) continue;
    fds.push_back(pollfd{entry->fd, entry->events, 0});
    polled.push_back(entry.get());
  }

  const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                           static_cast<int>(wait_ms));
  if (ready > 0) {
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (polled[i]->dead || fds[i].revents == 0) continue;
      Ready r;
      r.readable = (fds[i].revents & POLLIN) != 0;
      r.writable = (fds[i].revents & POLLOUT) != 0;
      r.error = (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
      polled[i]->callback(r);
    }
  }

  std::erase_if(watches_, [](const auto& entry) { return entry->dead; });

  // Advance virtual time to real elapsed time: every timer whose deadline
  // has passed fires now, in deadline order, exactly as under simulation.
  timers_.run_until(now_ns());

  // End-of-round phase: one drain pass, so a callback that defers again
  // lands in the next round instead of spinning this one.
  if (!deferred_.empty()) {
    std::vector<std::function<void()>> run;
    run.swap(deferred_);
    for (auto& fn : run) fn();
  }
}

void EventLoop::defer(std::function<void()> fn) {
  QSEL_REQUIRE(fn != nullptr);
  deferred_.push_back(std::move(fn));
}

void EventLoop::run_for(std::uint64_t duration_ns) {
  const std::uint64_t deadline = now_ns() + duration_ns;
  stopped_ = false;
  while (!stopped_) {
    const std::uint64_t now = now_ns();
    if (now >= deadline) break;
    poll_once(deadline - now);
  }
}

bool EventLoop::run_until(const std::function<bool()>& pred,
                          std::uint64_t timeout_ns) {
  const std::uint64_t deadline = now_ns() + timeout_ns;
  while (!pred()) {
    const std::uint64_t now = now_ns();
    if (now >= deadline) return false;
    poll_once(std::min<std::uint64_t>(deadline - now, 5'000'000));
  }
  return true;
}

void EventLoop::run() {
  stopped_ = false;
  while (!stopped_) poll_once(1'000'000'000);
}

}  // namespace qsel::net
