#include "scenario/runner.hpp"

#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "bchain/cluster.hpp"
#include "common/assert.hpp"
#include "pbft/cluster.hpp"
#include "runtime/follower_cluster.hpp"
#include "runtime/quorum_cluster.hpp"
#include "shard/group_transport.hpp"
#include "suspect/update_message.hpp"
#include "trace/tracer.hpp"
#include "xpaxos/cluster.hpp"

namespace qsel::scenario {

namespace {

constexpr SimDuration kMs = 1'000'000;

sim::NetworkConfig network_config(const Schedule& schedule) {
  sim::NetworkConfig config;
  config.base_latency = 1 * kMs;
  // Synchronous-optimized mode: zero jitter, so delivery order is a pure
  // function of send order and the fault timeline. Schedules use it to
  // probe behaviour that only shows under (or only under the absence of)
  // timing noise.
  config.jitter = schedule.synchronous ? 0 : 200'000;
  config.gst = schedule.gst;
  config.pre_gst_extra = schedule.pre_gst_extra;
  return config;
}

/// FD expectation timeout for a schedule: the historical 12 ms against
/// the 5 ms heartbeat cadence, scaled proportionally when the generator
/// widened the cadence for n > 64 (generator.cpp). Every n <= 64
/// schedule — the pinned corpus included — keeps 12 ms exactly.
SimDuration fd_timeout_for(const Schedule& schedule) {
  if (schedule.heartbeat_period <= 5 * kMs) return 12 * kMs;
  return schedule.heartbeat_period / 5 * 12;
}

trace::TracerConfig tracer_config(const RunOptions& options) {
  trace::TracerConfig config;
  config.enabled = options.trace;
  config.ring_capacity = options.ring_capacity;
  config.jsonl_path = options.trace_jsonl_path;
  return config;
}

/// Applies the fault timeline plus per-author adversary rows to whichever
/// cluster is running; `honest` is where injected UPDATEs are gossiped.
class ActionApplier {
 public:
  using InjectSend =
      std::function<void(ProcessId from, ProcessId to, sim::PayloadPtr)>;

  /// `row_width` is the protocol's process count n — injected suspicion
  /// rows must be n wide even when the network has extra client slots.
  /// `restart` rebuilds a crashed process from its durable store; only the
  /// quorum-selection cluster supplies one (Schedule::validate rejects
  /// kRestart for the other protocols). `inject_send`, when set, routes
  /// injected UPDATEs through the author's own transport stack instead of
  /// raw network sends (the GroupMux cluster needs the GroupFrame wrap).
  ActionApplier(sim::Network& network, const crypto::KeyRegistry& keys,
                ProcessSet honest, ProcessId row_width,
                std::function<void(ProcessId)> restart = {},
                InjectSend inject_send = {})
      : network_(network),
        keys_(keys),
        honest_(honest),
        row_width_(row_width),
        restart_(std::move(restart)),
        inject_send_(std::move(inject_send)) {}

  void apply(const FaultAction& action) {
    const ProcessId n = network_.process_count();
    switch (action.kind) {
      case FaultKind::kCrash:
        network_.crash(action.a);
        break;
      case FaultKind::kLinkDown:
        network_.set_link_enabled(action.a, action.b, false);
        break;
      case FaultKind::kLinkUp:
        network_.set_link_enabled(action.a, action.b, true);
        break;
      case FaultKind::kLinkDelay:
        network_.set_link_extra_delay(action.a, action.b, action.value);
        break;
      case FaultKind::kPartition: {
        const ProcessSet side_a = action.side;
        network_.partition(side_a, ProcessSet::full(n) - side_a);
        break;
      }
      case FaultKind::kHeal:
        network_.heal_partition();
        break;
      case FaultKind::kInjectSuspicion: {
        auto& row = rows_[action.a];
        if (row.empty()) row.assign(row_width_, 0);
        row[action.b] = 1;  // epoch-1 suspicion stamp
        const crypto::Signer signer(keys_, action.a);
        const auto update = suspect::UpdateMessage::make(signer, row);
        for (ProcessId to : honest_) {
          if (inject_send_ != nullptr)
            inject_send_(action.a, to, update);
          else
            network_.send(action.a, to, update);
        }
        break;
      }
      case FaultKind::kRestart:
        QSEL_REQUIRE_MSG(restart_ != nullptr,
                         "restart action on a cluster without recovery");
        restart_(action.a);
        break;
    }
  }

 private:
  sim::Network& network_;
  const crypto::KeyRegistry& keys_;
  ProcessSet honest_;
  ProcessId row_width_;
  std::function<void(ProcessId)> restart_;
  InjectSend inject_send_;
  std::map<ProcessId, std::vector<Epoch>> rows_;
};

void run_timeline(const Schedule& schedule, sim::Simulator& sim,
                  ActionApplier& applier) {
  for (const FaultAction& action : schedule.actions) {
    sim.run_until(action.at);
    applier.apply(action);
  }
}

std::vector<std::pair<Epoch, std::uint64_t>> per_epoch_counts(
    const auto& history) {
  std::map<Epoch, std::uint64_t> counts;
  for (const auto& record : history) ++counts[record.epoch];
  return {counts.begin(), counts.end()};
}

/// Test-only corruption (see TestBug): the lowest-id live process reports
/// its initial default configuration instead of its real one.
void apply_test_bug(const Schedule& schedule, Observations& obs) {
  for (ProcessObservation& process : obs.processes) {
    if (!process.alive) continue;
    if (process.quorums_issued == 0) return;  // bug needs a quorum change
    process.quorum = ProcessSet::range(
        0, static_cast<ProcessId>(static_cast<int>(schedule.n) - schedule.f));
    process.leader = 0;
    return;
  }
}

template <class Cluster>
void finish(const Schedule& schedule, const RunOptions& options,
            Cluster& cluster, const trace::Tracer& tracer,
            Observations& obs, RunResult& result) {
  if (options.test_bug == TestBug::kStuckQuorum)
    apply_test_bug(schedule, obs);
  result.observations = obs;
  result.report = check_oracles(schedule, result.observations);
  if (options.trace) {
    result.digest = tracer.digest();
    result.coverage = trace::coverage_of(tracer.type_counts());
    if (options.keep_events) result.events = tracer.events();
  }
  result.events_processed = cluster.simulator().events_processed();
  const auto& stats = cluster.network().stats();
  result.messages_sent = stats.total_messages();
  result.gossip_bytes = stats.bytes_by_type("suspect.update") +
                        stats.bytes_by_type("suspect.delta") +
                        stats.bytes_by_type("suspect.digest");
  result.view_changes = obs.view_changes;
}

/// The quorum-selection stack behind a GroupMux: every member gets a
/// SimTransport slot, a GroupMux, and one group whose id space is widened
/// by `mux_clients` client slots (members keep global == local ids). The
/// honest members run a plain NodeProcess over the group slice, so all
/// suspicion gossip crosses the GroupFrame wrap/decode path — the layer PR
/// 7's wedge lived in. Client slots stay unattached; Byzantine members
/// keep their transport stack so injected UPDATEs are framed like any
/// member's.
class MuxQuorumCluster {
 public:
  MuxQuorumCluster(const Schedule& schedule,
                   const runtime::QuorumClusterConfig& config)
      : total_(static_cast<ProcessId>(schedule.n + schedule.mux_clients)),
        keys_(total_, config.seed),
        network_(std::make_unique<sim::Network>(sim_, total_, config.network,
                                                config.seed)),
        correct_(ProcessSet::full(schedule.n) - schedule.byzantine),
        stores_(schedule.n),
        processes_(schedule.n) {
    shard::GroupSpec spec;
    spec.id = 0;
    for (ProcessId id = 0; id < schedule.n; ++id) spec.members.push_back(id);
    for (ProcessId id = schedule.n; id < total_; ++id)
      spec.clients.push_back(id);

    const runtime::NodeProcessConfig node_config{
        config.n, config.f, config.fd, config.heartbeat_period};
    for (ProcessId id = 0; id < schedule.n; ++id) {
      transports_.push_back(
          std::make_unique<runtime::SimTransport>(*network_, id));
      muxes_.push_back(std::make_unique<shard::GroupMux>(*transports_.back()));
      groups_.push_back(&muxes_.back()->add_group(spec));
    }
    for (ProcessId id : correct_) {
      stores_[id] = std::make_unique<store::MemoryNodeStore>();
      processes_[id] = std::make_unique<runtime::NodeProcess>(
          *groups_[id], keys_, node_config, stores_[id].get());
    }
  }

  sim::Simulator& simulator() { return sim_; }
  sim::Network& network() { return *network_; }
  const crypto::KeyRegistry& keys() const { return keys_; }
  ProcessSet correct() const { return correct_; }

  runtime::NodeProcess& process(ProcessId id) {
    QSEL_REQUIRE(id < processes_.size() && processes_[id] != nullptr);
    return *processes_[id];
  }

  shard::GroupTransport& group(ProcessId id) {
    QSEL_REQUIRE(id < groups_.size());
    return *groups_[id];
  }

  void attach_tracer(trace::Tracer& tracer) {
    tracer.set_clock([this] { return sim_.now(); });
    network_->set_tracer(&tracer);
    for (ProcessId id : correct_)
      processes_[id]->selector().set_tracer(&tracer);
  }

  void start() {
    for (ProcessId id : correct_) processes_[id]->start();
  }

  std::uint64_t total_quorums_issued() const {
    std::uint64_t total = 0;
    for (ProcessId id : correct_)
      if (!network_->is_crashed(id))
        total += processes_[id]->selector().quorums_issued();
    return total;
  }

 private:
  ProcessId total_;
  sim::Simulator sim_;
  crypto::KeyRegistry keys_;
  std::unique_ptr<sim::Network> network_;
  ProcessSet correct_;
  std::vector<std::unique_ptr<runtime::SimTransport>> transports_;
  std::vector<std::unique_ptr<shard::GroupMux>> muxes_;
  std::vector<shard::GroupTransport*> groups_;  // owned by muxes_
  std::vector<std::unique_ptr<store::NodeStore>> stores_;
  std::vector<std::unique_ptr<runtime::NodeProcess>> processes_;
};

/// Cluster configuration shared by the selection-only protocols.
runtime::QuorumClusterConfig selection_config(const Schedule& schedule) {
  runtime::QuorumClusterConfig config;
  config.n = schedule.n;
  config.f = schedule.f;
  config.seed = schedule.seed;
  config.network = network_config(schedule);
  config.fd.initial_timeout = fd_timeout_for(schedule);
  config.heartbeat_period = schedule.heartbeat_period;
  return config;
}

/// Shared tail of the selection-only protocols (Quorum Selection, plain or
/// behind a GroupMux, and Follower Selection): replay the timeline,
/// observe every correct process, check oracles.
template <class Cluster>
RunResult run_selection_tail(const Schedule& schedule,
                             const RunOptions& options, trace::Tracer& tracer,
                             Cluster& cluster, ActionApplier& applier) {
  run_timeline(schedule, cluster.simulator(), applier);
  cluster.simulator().run_until(schedule.quiet_start);

  RunResult result;
  Observations obs;
  obs.issued_at_quiet = cluster.total_quorums_issued();
  cluster.simulator().run_until(schedule.quiet_start + schedule.quiet_window);
  obs.issued_at_end = cluster.total_quorums_issued();

  const ProcessSet culprits = schedule.culprits();
  for (ProcessId id : cluster.correct()) {
    auto& process = cluster.process(id);
    ProcessObservation po;
    po.id = id;
    po.alive = !cluster.network().is_crashed(id);
    po.culprit = culprits.contains(id);
    po.quorum = process.quorum();
    if constexpr (requires { process.leader(); }) po.leader = process.leader();
    po.suspected = process.failure_detector().suspected();
    po.epoch = process.selector().epoch();
    po.quorums_issued = process.selector().quorums_issued();
    po.quorums_per_epoch = per_epoch_counts(process.selector().history());
    po.matrix = process.selector().core().matrix();
    result.max_epoch = std::max(result.max_epoch, po.epoch);
    result.total_quorums += po.quorums_issued;
    obs.processes.push_back(std::move(po));
  }
  finish(schedule, options, cluster, tracer, obs, result);
  return result;
}

RunResult run_quorum_selection(const Schedule& schedule,
                               const RunOptions& options) {
  const auto config = selection_config(schedule);
  trace::Tracer tracer(tracer_config(options));
  if (schedule.mux_clients == 0) {
    runtime::QuorumCluster cluster(config, schedule.byzantine);
    if (options.trace) cluster.attach_tracer(tracer);
    cluster.start();
    ActionApplier applier(
        cluster.network(), cluster.keys(), cluster.correct(), schedule.n,
        [&cluster](ProcessId id) { cluster.restart(id); });
    return run_selection_tail(schedule, options, tracer, cluster, applier);
  }
  MuxQuorumCluster cluster(schedule, config);
  if (options.trace) cluster.attach_tracer(tracer);
  cluster.start();
  ActionApplier applier(
      cluster.network(), cluster.keys(), cluster.correct(), schedule.n, {},
      [&cluster](ProcessId from, ProcessId to, sim::PayloadPtr message) {
        cluster.group(from).send(to, std::move(message));
      });
  return run_selection_tail(schedule, options, tracer, cluster, applier);
}

RunResult run_follower_selection(const Schedule& schedule,
                                 const RunOptions& options) {
  trace::Tracer tracer(tracer_config(options));
  runtime::FollowerCluster cluster(selection_config(schedule),
                                   schedule.byzantine);
  if (options.trace) cluster.attach_tracer(tracer);
  cluster.start();
  ActionApplier applier(cluster.network(), cluster.keys(), cluster.correct(),
                        schedule.n);
  return run_selection_tail(schedule, options, tracer, cluster, applier);
}

/// The SMR bake-off (XPaxos, PBFT, BChain): one client issuing
/// schedule.requests against the fault timeline, then history consistency,
/// completed requests and `view_changes` — each protocol's own count of
/// view changes or reconfigurations.
template <class Cluster>
RunResult run_smr(const Schedule& schedule, const RunOptions& options,
                  typename Cluster::Config config,
                  std::uint64_t (Cluster::*view_changes)() const) {
  config.n = schedule.n;
  config.f = schedule.f;
  config.clients = 1;
  config.seed = schedule.seed;
  config.network = network_config(schedule);

  trace::Tracer tracer(tracer_config(options));
  Cluster cluster(config);
  if (options.trace) cluster.attach_tracer(tracer);
  cluster.start_clients(schedule.requests);

  ActionApplier applier(cluster.network(), cluster.keys(), {}, schedule.n);
  run_timeline(schedule, cluster.simulator(), applier);
  cluster.simulator().run_until(schedule.quiet_start);

  RunResult result;
  Observations obs;
  cluster.simulator().run_until(schedule.quiet_start + schedule.quiet_window);
  obs.histories_consistent = cluster.histories_consistent();
  obs.completed_requests = cluster.total_completed();
  obs.view_changes = (cluster.*view_changes)();
  finish(schedule, options, cluster, tracer, obs, result);
  return result;
}

}  // namespace

RunResult run_schedule(const Schedule& schedule, const RunOptions& options) {
  const auto error = schedule.validate();
  QSEL_REQUIRE_MSG(!error.has_value(), "invalid schedule");
  switch (schedule.protocol) {
    case Protocol::kQuorumSelection:
      return run_quorum_selection(schedule, options);
    case Protocol::kFollowerSelection:
      return run_follower_selection(schedule, options);
    case Protocol::kXPaxos: {
      xpaxos::ClusterConfig config;  // quorum-selection policy
      config.fd.initial_timeout = fd_timeout_for(schedule);
      return run_smr<xpaxos::Cluster>(schedule, options, config,
                                      &xpaxos::Cluster::total_view_changes);
    }
    case Protocol::kPbft:
      return run_smr<pbft::Cluster>(schedule, options, {},
                                    &pbft::Cluster::total_view_changes);
    case Protocol::kBChain:
      return run_smr<bchain::Cluster>(schedule, options, {},
                                      &bchain::Cluster::max_reconfigurations);
  }
  QSEL_ASSERT_MSG(false, "unreachable");
  return {};
}

}  // namespace qsel::scenario
