#include "runtime/node_process.hpp"

namespace qsel::runtime {

NodeProcess::NodeProcess(net::Transport& transport,
                         const crypto::KeyRegistry& keys,
                         const NodeProcessConfig& config,
                         store::NodeStore* store)
    : transport_(transport),
      signer_(keys, transport.self()),
      heartbeat_period_(config.heartbeat_period),
      plane_(transport, signer_,
             {config.n, config.f, config.fd, suspect::GossipMode::kDelta,
              store},
             [](ProcessSet) { /* application consumes the quorum */ }) {
  transport_.set_handler([this](ProcessId from, const sim::PayloadPtr& msg) {
    on_message(from, msg);
  });
  plane_.recover();
}

void NodeProcess::start() {
  if (heartbeat_period_ == 0) return;
  stopped_ = false;
  tick();
}

void NodeProcess::stop() { stopped_ = true; }

void NodeProcess::tick() {
  if (stopped_) return;
  const ProcessSet others = plane_.others();
  transport_.broadcast(others,
                       HeartbeatMessage::make(signer_, heartbeat_seq_++));
  for (ProcessId peer : others)
    expect_heartbeat(plane_.failure_detector(), peer);
  plane_.tick();
  transport_.timers().schedule_after(heartbeat_period_,
                                     plane_.guard([this] { tick(); }));
}

void NodeProcess::on_message(ProcessId from, const sim::PayloadPtr& message) {
  if (plane_.on_message(from, message)) return;
  if (auto heartbeat =
          std::dynamic_pointer_cast<const HeartbeatMessage>(message)) {
    if (!heartbeat->verify(signer_, plane_.n())) return;
    // Expectations target the *origin*: a heartbeat only counts for the
    // process that signed it.
    plane_.failure_detector().on_receive(heartbeat->origin, message);
    return;
  }
  // Unknown payloads are ignored (Byzantine noise).
}

}  // namespace qsel::runtime
