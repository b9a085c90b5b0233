#include "runtime/follower_cluster.hpp"

#include "common/assert.hpp"
#include "runtime/heartbeat.hpp"

namespace qsel::runtime {

FollowerProcess::FollowerProcess(net::Transport& transport,
                                 const crypto::KeyRegistry& keys,
                                 const NodeProcessConfig& config)
    : transport_(transport),
      signer_(keys, transport.self()),
      heartbeat_period_(config.heartbeat_period),
      plane_(transport, signer_,
             {config.n, config.f, config.fd, suspect::GossipMode::kDelta},
             [](ProcessId, ProcessSet) { /* application consumes quorum */ }) {
  transport_.set_handler([this](ProcessId from, const sim::PayloadPtr& msg) {
    on_message(from, msg);
  });
}

void FollowerProcess::start() {
  if (heartbeat_period_ == 0) return;
  tick();
}

void FollowerProcess::tick() {
  const auto heartbeat = HeartbeatMessage::make(signer_, heartbeat_seq_++);
  const ProcessId lead = selector().leader();
  if (lead == self()) {
    // The leader heartbeats everyone and expects heartbeats back from its
    // quorum (the processes whose liveness the application depends on).
    transport_.broadcast(plane_.others(), heartbeat);
    for (ProcessId peer : selector().quorum())
      if (peer != self()) expect_heartbeat(plane_.failure_detector(), peer);
  } else {
    // Followers (and bystanders) heartbeat the leader and expect the
    // leader's heartbeat; they do not monitor each other.
    transport_.send(lead, heartbeat);
    expect_heartbeat(plane_.failure_detector(), lead);
  }
  plane_.tick();
  transport_.timers().schedule_after(heartbeat_period_,
                                     plane_.guard([this] { tick(); }));
}

void FollowerProcess::on_message(ProcessId from,
                                 const sim::PayloadPtr& message) {
  if (plane_.on_message(from, message)) return;
  fd::FailureDetector& fd = plane_.failure_detector();
  if (auto followers =
          std::dynamic_pointer_cast<const fs::FollowersMessage>(message)) {
    if (!followers->verify(signer_, plane_.n())) return;
    // The expectation targets the leader that signed the message, not the
    // forwarder it happened to arrive from.
    fd.on_receive(followers->leader, message);
    selector().on_followers(followers);
    return;
  }
  if (auto heartbeat =
          std::dynamic_pointer_cast<const HeartbeatMessage>(message)) {
    if (!heartbeat->verify(signer_, plane_.n())) return;
    fd.on_receive(heartbeat->origin, message);
    // Every process heartbeats the leader it believes in, so a heartbeat
    // reaching the stable leader from outside its quorum marks a sender
    // whose view may be stale (it missed the FOLLOWERS broadcast, e.g.
    // across a partition). Retransmit the announcement verbatim so one
    // lost broadcast cannot wedge the sender forever; duplicates are
    // idempotent and never read as equivocation.
    if (auto announcement = selector().announcement();
        announcement != nullptr &&
        !selector().quorum().contains(heartbeat->origin))
      transport_.send(heartbeat->origin, announcement);
    return;
  }
}

FollowerCluster::FollowerCluster(FollowerClusterConfig config,
                                 ProcessSet byzantine)
    : config_([&] {
        config.network.fifo_links = true;  // Section VIII assumption
        return config;
      }()),
      keys_(config_.n, config_.seed),
      network_(std::make_unique<sim::Network>(sim_, config_.n, config_.network,
                                              config_.seed)),
      correct_(ProcessSet::full(config_.n) - byzantine),
      transports_(config_.n),
      processes_(config_.n) {
  QSEL_REQUIRE(byzantine.is_subset_of(ProcessSet::full(config_.n)));
  const NodeProcessConfig node_config{config_.n, config_.f, config_.fd,
                                      config_.heartbeat_period};
  for (ProcessId id : correct_) {
    transports_[id] = std::make_unique<SimTransport>(*network_, id);
    processes_[id] =
        std::make_unique<FollowerProcess>(*transports_[id], keys_, node_config);
  }
}

FollowerProcess& FollowerCluster::process(ProcessId id) {
  QSEL_REQUIRE(id < config_.n && processes_[id] != nullptr);
  return *processes_[id];
}

void FollowerCluster::attach_tracer(trace::Tracer& tracer) {
  tracer.set_clock([this] { return sim_.now(); });
  network_->set_tracer(&tracer);
  for (ProcessId id : correct_) processes_[id]->selector().set_tracer(&tracer);
}

void FollowerCluster::start() {
  for (ProcessId id : correct_) processes_[id]->start();
}

ProcessSet FollowerCluster::alive() const {
  ProcessSet result;
  for (ProcessId id : correct_)
    if (!network_->is_crashed(id)) result.insert(id);
  return result;
}

std::optional<std::pair<ProcessId, ProcessSet>>
FollowerCluster::agreed_leader_quorum() const {
  std::optional<std::pair<ProcessId, ProcessSet>> agreed;
  for (ProcessId id : alive()) {
    const auto current = std::make_pair(processes_[id]->leader(),
                                        processes_[id]->quorum());
    if (!agreed) {
      agreed = current;
    } else if (*agreed != current) {
      return std::nullopt;
    }
  }
  return agreed;
}

std::uint64_t FollowerCluster::total_quorums_issued() const {
  std::uint64_t total = 0;
  for (ProcessId id : alive())
    total += processes_[id]->selector().quorums_issued();
  return total;
}

std::uint64_t FollowerCluster::max_quorums_issued() const {
  std::uint64_t most = 0;
  for (ProcessId id : alive())
    most = std::max(most, processes_[id]->selector().quorums_issued());
  return most;
}

}  // namespace qsel::runtime
