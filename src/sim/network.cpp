#include "sim/network.hpp"

#include "common/logging.hpp"

namespace qsel::sim {

Network::Network(Simulator& simulator, ProcessId n, NetworkConfig config,
                 std::uint64_t seed)
    : sim_(simulator),
      n_(n),
      config_(config),
      rng_(seed ^ 0x6e6574776f726bULL),
      actors_(n, nullptr),
      link_disabled_(static_cast<std::size_t>(n) * n, false),
      link_duplicate_(static_cast<std::size_t>(n) * n, false),
      link_extra_delay_(static_cast<std::size_t>(n) * n, 0),
      link_last_delivery_(static_cast<std::size_t>(n) * n, 0),
      stats_(n) {
  QSEL_REQUIRE(n > 0 && n <= kMaxProcesses);
}

void Network::attach(ProcessId id, Actor& actor) {
  QSEL_REQUIRE(id < n_);
  QSEL_REQUIRE_MSG(actors_[id] == nullptr, "process already attached");
  actors_[id] = &actor;
}

SimDuration Network::sample_latency(ProcessId from, ProcessId to) {
  SimDuration latency = config_.base_latency;
  if (config_.jitter > 0) latency += rng_.below(config_.jitter + 1);
  if (sim_.now() < config_.gst && config_.pre_gst_extra > 0)
    latency += rng_.below(config_.pre_gst_extra + 1);
  latency += link_extra_delay_[link_index(from, to)];
  return latency;
}

void Network::send(ProcessId from, ProcessId to, PayloadPtr message) {
  QSEL_REQUIRE(from < n_ && to < n_);
  QSEL_REQUIRE(message != nullptr);
  if (crashed_.contains(from)) return;
  stats_.record_send(from, to, message->type_tag(), message->wire_size());

  if (link_disabled_[link_index(from, to)]) {
    QSEL_LOG(kTrace, "net") << "drop " << from << "->" << to << " "
                            << message->type_tag();
    if (tracer_)
      tracer_->drop(from, to, message->type_tag(),
                    trace::DropReason::kLinkDisabled, message->wire_size());
    return;
  }

  const bool duplicate = link_duplicate_[link_index(from, to)];
  schedule_delivery(from, to, message);
  if (duplicate) schedule_delivery(from, to, std::move(message));
}

void Network::schedule_delivery(ProcessId from, ProcessId to,
                                PayloadPtr message) {
  SimTime deliver_at = sim_.now() + sample_latency(from, to);
  if (config_.fifo_links) {
    SimTime& last = link_last_delivery_[link_index(from, to)];
    if (deliver_at <= last) deliver_at = last + 1;
    last = deliver_at;
  }
  if (send_hook_) send_hook_(from, to, message, deliver_at);
  if (tracer_)
    tracer_->send(from, to, message->type_tag(), deliver_at,
                  message->wire_size());

  sim_.schedule_at(deliver_at, [this, from, to, msg = std::move(message)] {
    if (crashed_.contains(to)) {
      if (tracer_)
        tracer_->drop(from, to, msg->type_tag(),
                      trace::DropReason::kReceiverCrashed, msg->wire_size());
      return;
    }
    // No actor attached models a process that is down from the start
    // (e.g. a slot reserved for a Byzantine actor a test never installs).
    if (Actor* actor = actors_[to]) {
      if (tracer_)
        tracer_->deliver(to, from, msg->type_tag(), msg->wire_size());
      actor->on_message(from, msg);
    } else if (tracer_) {
      tracer_->drop(from, to, msg->type_tag(),
                    trace::DropReason::kReceiverUnattached, msg->wire_size());
    }
  });
}

void Network::broadcast(ProcessId from, ProcessSet targets,
                        const PayloadPtr& message) {
  for (ProcessId to : targets) {
    if (to == from) {
      // Local self-delivery: skip the wire but keep asynchronous semantics
      // (handled as its own event, after the current handler returns).
      if (crashed_.contains(from)) continue;
      sim_.schedule_after(0, [this, from, msg = message] {
        if (crashed_.contains(from)) return;
        if (tracer_)
          tracer_->deliver(from, from, msg->type_tag(), msg->wire_size());
        actors_[from]->on_message(from, msg);
      });
    } else {
      send(from, to, message);
    }
  }
}

void Network::crash(ProcessId id) {
  QSEL_REQUIRE(id < n_);
  crashed_.insert(id);
  if (tracer_) tracer_->crash(id);
}

void Network::restart(ProcessId id) {
  QSEL_REQUIRE(id < n_);
  QSEL_REQUIRE_MSG(crashed_.contains(id), "restart() needs a prior crash()");
  crashed_.erase(id);
  if (tracer_) tracer_->restart(id);
}

void Network::set_link_enabled(ProcessId from, ProcessId to, bool enabled) {
  QSEL_REQUIRE(from < n_ && to < n_);
  link_disabled_[link_index(from, to)] = !enabled;
  if (tracer_)
    tracer_->link_fault(from, to,
                        enabled ? trace::LinkFaultKind::kEnable
                                : trace::LinkFaultKind::kDisable,
                        0);
}

bool Network::link_enabled(ProcessId from, ProcessId to) const {
  QSEL_REQUIRE(from < n_ && to < n_);
  return !link_disabled_[link_index(from, to)];
}

void Network::set_link_extra_delay(ProcessId from, ProcessId to,
                                   SimDuration extra) {
  QSEL_REQUIRE(from < n_ && to < n_);
  link_extra_delay_[link_index(from, to)] = extra;
  if (tracer_)
    tracer_->link_fault(from, to, trace::LinkFaultKind::kExtraDelay, extra);
}

void Network::set_link_duplicate(ProcessId from, ProcessId to,
                                 bool duplicate) {
  QSEL_REQUIRE(from < n_ && to < n_);
  link_duplicate_[link_index(from, to)] = duplicate;
}

void Network::partition(ProcessSet side_a, ProcessSet side_b) {
  QSEL_REQUIRE(!side_a.intersects(side_b));
  for (ProcessId a : side_a)
    for (ProcessId b : side_b) {
      set_link_enabled(a, b, false);
      set_link_enabled(b, a, false);
    }
}

void Network::heal_partition() {
  // Per-link (not a bulk fill) so each healed link lands in the trace.
  for (ProcessId from = 0; from < n_; ++from)
    for (ProcessId to = 0; to < n_; ++to)
      if (link_disabled_[link_index(from, to)])
        set_link_enabled(from, to, true);
}

}  // namespace qsel::sim
