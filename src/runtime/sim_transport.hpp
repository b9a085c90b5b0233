// SimTransport — one process's view of the simulated network as a
// net::Transport.
//
// Adapts (sim::Network&, self) to the per-node Transport interface every
// protocol node is written against. Delivery stays synchronous with the
// simulator's event loop: the adapter registers itself as the process's
// sim::Actor (the only one in src/) and forwards on_message straight into
// the handler, so a node over SimTransport produces exactly the event
// order of a node attached to the network directly (the pinned-digest
// corpus depends on it).
#pragma once

#include "net/transport.hpp"
#include "sim/network.hpp"

namespace qsel::runtime {

class SimTransport final : public net::Transport, public sim::Actor {
 public:
  SimTransport(sim::Network& network, ProcessId self)
      : network_(network), self_(self) {
    network_.attach(self, *this);
  }

  ProcessId self() const override { return self_; }
  ProcessId process_count() const override {
    return network_.process_count();
  }
  sim::Simulator& timers() override { return network_.simulator(); }
  SimDuration round_length() const override {
    return network_.round_length();
  }

  void set_handler(Handler handler) override {
    handler_ = std::move(handler);
  }

  void send(ProcessId to, sim::PayloadPtr message) override {
    network_.send(self_, to, std::move(message));
  }

  void broadcast(ProcessSet targets, const sim::PayloadPtr& message) override {
    network_.broadcast(self_, targets, message);
  }

  void on_message(ProcessId from, const sim::PayloadPtr& message) override {
    if (handler_) handler_(from, message);
  }

 private:
  sim::Network& network_;
  ProcessId self_;
  Handler handler_;
};

}  // namespace qsel::runtime
