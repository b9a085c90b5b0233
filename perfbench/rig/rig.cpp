#include "rig/rig.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "app/workload.hpp"
#include "common/rng.hpp"
#include "load/async_engine.hpp"
#include "net/event_loop.hpp"
#include "runtime/sim_transport.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "smr/typed_result.hpp"
#include "xpaxos/replica.hpp"

namespace perfbench {

using namespace qsel;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"tcp_serial", true, 1, 1, 0, 0, 100'000'000},
      {"tcp_window", true, 1, 16, 0, 0, 1'000'000'000},
      {"sim_leader_crash", false, 8, 16, 500'000'000, 2'000'000'000,
       2'000'000'000},
  };
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

load::LoadConfig load_config(const Workload& w, std::uint64_t seed) {
  load::LoadConfig config;
  config.seed = seed;
  config.clients = w.clients;
  config.outstanding = w.outstanding;
  config.duration_ms = w.virtual_ns / 1'000'000;
  if (w.crash_leader_at > 0) {
    const SimDuration at = w.crash_leader_at;
    config.sim_faults = [at](sim::Simulator& sim, sim::Network& network) {
      sim.schedule_after(at, [&network] { network.crash(0); });
    };
  }
  return config;
}

Observed Observed::operator-(const Observed& before) const {
  Observed d = *this;
  d.view_changes -= before.view_changes;
  d.fd_expectations -= before.fd_expectations;
  d.fd_suspicions -= before.fd_suspicions;
  d.qs_quorums -= before.qs_quorums;
  d.qs_solver_runs -= before.qs_solver_runs;
  d.qs_cache_hits -= before.qs_cache_hits;
  d.retransmissions -= before.retransmissions;
  d.timer_events -= before.timer_events;
  d.sim_messages -= before.sim_messages;
  d.sim_bytes -= before.sim_bytes;
  d.io.frames_sent -= before.io.frames_sent;
  d.io.bytes_sent -= before.io.bytes_sent;
  d.io.writev_calls -= before.io.writev_calls;
  d.io.frames_received -= before.io.frames_received;
  d.io.bytes_received -= before.io.bytes_received;
  d.io.frames_shared -= before.io.frames_shared;
  return d;
}

namespace {

/// Sim rounds are 1 ms virtual slices of Simulator::run_until.
constexpr SimDuration kSimSlice = 1'000'000;

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// The next two mirror the private helpers of load/driver.cpp: the rig must
// build the same replicas and client streams as load::run_sim.
app::WorkloadConfig client_workload(const load::LoadConfig& config,
                                    std::uint32_t i) {
  app::WorkloadConfig w;
  w.seed = config.seed * 1000003 + i;
  w.key_space = config.key_space;
  w.value_bytes = config.value_bytes;
  w.put_fraction = config.put_fraction;
  w.get_fraction = config.get_fraction;
  w.zipf_theta = config.zipf_theta;
  w.key_offset = i * config.key_space;
  return w;
}

xpaxos::ReplicaConfig replica_config(const load::LoadConfig& config,
                                     bool tcp) {
  xpaxos::ReplicaConfig rc;
  rc.n = config.n;
  rc.f = config.f;
  rc.policy = config.policy;
  rc.view_change_retry = config.view_change_retry;
  rc.pipeline_window = config.pipeline_window;
  rc.max_batch = config.max_batch;
  // Real-time pacing, as load::run_loopback sets it.
  if (tcp)
    rc.fd = fd::FailureDetectorConfig{/*initial_timeout=*/40'000'000,
                                      /*max_timeout=*/1'000'000'000,
                                      /*adaptive=*/true};
  return rc;
}

struct Client {
  ProcessId id = 0;
  std::unique_ptr<load::AsyncEngine> engine;
  std::unique_ptr<app::Workload> workload;
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t rejected = 0;
  /// Chained digest over (client_seq, response value), as load::run_sim
  /// computes it.
  std::uint64_t response_chain = 0;
};

class Cluster {
 public:
  Cluster(const Workload& w, const load::LoadConfig& config, Probe* probe);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Wall nanoseconds on TCP, virtual on sim.
  SimTime now() const { return loop_ ? loop_->now_ns() : sim_->now(); }

  void start_load();
  void advance_to(SimTime deadline) {
    while (now() < deadline) round(deadline);
  }
  /// Closes the measured interval: records what it produced into `e`.
  void end_interval(Episode& e, const Observed& before);
  /// Stops submitting, waits for every outstanding op, then for the live
  /// replicas to reach the same slot.
  void drain();
  /// Op accounting and the correctness gate, after the drain.
  void finish(Episode& e);

  Observed observe();

 private:
  net::Transport& layer(ProcessId id, SpanName upcall);
  void round(SimTime deadline);
  void sample_leader();
  void pump(Client& client);
  void settle(Client& client, const smr::Outcome& outcome);
  bool live(ProcessId id) const {
    return !network_ || !network_->is_crashed(id);
  }
  const xpaxos::Replica& furthest() const;
  bool replicas_agree() const;
  std::string check() const;

  load::LoadConfig config_;
  SimDuration gap_window_;
  Probe* probe_;
  std::unique_ptr<net::EventLoop> loop_;  // TCP
  std::unique_ptr<sim::Simulator> sim_;   // sim
  sim::Simulator& clock_;                 // the timer queue either way
  crypto::KeyRegistry keys_;
  std::unique_ptr<sim::Network> network_;  // sim
  std::vector<std::unique_ptr<net::Transport>> substrate_;
  std::vector<net::TcpTransport*> tcp_;
  std::vector<std::unique_ptr<TimedTransport>> timed_;
  std::vector<std::unique_ptr<xpaxos::Replica>> replicas_;
  std::vector<Client> clients_;

  bool measuring_ = false;
  bool draining_ = false;
  SimTime interval_start_ = 0;  // now()
  SimTime first_ack_window_ = 0;  // clock_, the engines' latency clock
  SimTime last_ack_ = 0;          // clock_
  std::vector<std::uint64_t> window_gaps_;
  std::uint64_t committed_in_interval_ = 0;
  std::uint64_t rounds_ = 0;
  std::vector<std::uint64_t> latencies_;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> acked_;
  QueueSamples queue_;
};

Cluster::Cluster(const Workload& w, const load::LoadConfig& config,
                 Probe* probe)
    : config_(config),
      gap_window_(w.gap_window_ns),
      probe_(probe),
      loop_(w.tcp ? std::make_unique<net::EventLoop>() : nullptr),
      sim_(w.tcp ? nullptr : std::make_unique<sim::Simulator>()),
      clock_(loop_ ? loop_->timers() : *sim_),
      keys_(static_cast<ProcessId>(config.n + config.clients), config.seed) {
  const auto total = static_cast<ProcessId>(config.n + config.clients);
  const xpaxos::ReplicaConfig rc = replica_config(config, w.tcp);
  load::AsyncEngineConfig ec;
  ec.replicas = config.n;
  ec.f = config.f;
  ec.retry_timeout = config.client_retry;
  clients_.resize(config.clients);

  if (w.tcp) {
    // load::run_loopback's boot order: every transport, then the peer
    // table, replicas, clients, start.
    std::vector<std::uint16_t> ports(total, 0);
    for (ProcessId id = 0; id < total; ++id) {
      net::TcpTransport::Config tcp;
      tcp.self = id;
      tcp.n = total;
      tcp.auth_seed = config.seed;
      auto transport = std::make_unique<net::TcpTransport>(*loop_, tcp);
      ports[id] = transport->listen_port();
      tcp_.push_back(transport.get());
      substrate_.push_back(std::move(transport));
    }
    for (ProcessId from = 0; from < total; ++from)
      for (ProcessId to = 0; to < total; ++to)
        if (from != to) tcp_[from]->set_peer(to, ports[to]);
    for (ProcessId id = 0; id < config.n; ++id)
      replicas_.push_back(std::make_unique<xpaxos::Replica>(
          layer(id, SpanName::kXpaxosUpcall), keys_, rc));
  } else {
    // load::run_sim's order: each replica right after its transport.
    network_ = std::make_unique<sim::Network>(*sim_, total, config.network,
                                              config.seed);
    for (ProcessId id = 0; id < config.n; ++id) {
      substrate_.push_back(
          std::make_unique<runtime::SimTransport>(*network_, id));
      replicas_.push_back(std::make_unique<xpaxos::Replica>(
          layer(id, SpanName::kXpaxosUpcall), keys_, rc));
    }
  }
  for (std::uint32_t i = 0; i < config.clients; ++i) {
    const auto id = static_cast<ProcessId>(config.n + i);
    if (!w.tcp)
      substrate_.push_back(
          std::make_unique<runtime::SimTransport>(*network_, id));
    Client& client = clients_[i];
    client.id = id;
    client.engine = std::make_unique<load::AsyncEngine>(
        layer(id, SpanName::kLoadUpcall), keys_, ec);
    client.workload =
        std::make_unique<app::Workload>(client_workload(config, i));
    client.response_chain = id;
  }

  if (w.tcp) {
    for (net::TcpTransport* transport : tcp_) transport->start();
    const auto connected = [&] {
      for (ProcessId from = 0; from < total; ++from)
        for (ProcessId to = 0; to < total; ++to)
          if (from != to && !tcp_[from]->connected_to(to)) return false;
      return true;
    };
    const SimTime deadline = now() + 10'000'000'000ULL;
    while (!connected()) {
      if (now() >= deadline)
        throw std::runtime_error("loopback mesh did not connect");
      round(std::min(deadline, now() + 5'000'000));
    }
  } else if (config.sim_faults) {
    config.sim_faults(*sim_, *network_);
  }
}

net::Transport& Cluster::layer(ProcessId id, SpanName upcall) {
  if (probe_ == nullptr) return *substrate_[id];
  timed_.push_back(
      std::make_unique<TimedTransport>(*substrate_[id], upcall, *probe_));
  return *timed_.back();
}

void Cluster::round(SimTime deadline) {
  const bool traced = probe_ != nullptr && measuring_;
  std::uint32_t span = 0;
  std::uint64_t cpu = 0;
  if (traced) {
    span = probe_->open(SpanName::kRound);
    cpu = thread_cpu_ns();
  }
  if (loop_) {
    loop_->poll_once(deadline - std::min(deadline, loop_->now_ns()));
  } else {
    sim_->run_until(std::min(deadline, sim_->now() + kSimSlice));
  }
  if (traced) {
    probe_->add_round_cpu(thread_cpu_ns() - cpu);
    probe_->close(span);
    sample_leader();
  }
  if (measuring_) ++rounds_;
}

void Cluster::sample_leader() {
  const xpaxos::Replica* leader = nullptr;
  for (ProcessId id = 0; id < replicas_.size(); ++id) {
    const xpaxos::Replica& r = *replicas_[id];
    if (!live(id) || !r.is_leader() ||
        r.status() != xpaxos::Replica::Status::kNormal)
      continue;
    if (leader == nullptr || r.view() > leader->view()) leader = &r;
  }
  if (leader == nullptr) return;
  ++queue_.samples;
  queue_.pending_max =
      std::max<std::uint64_t>(queue_.pending_max, leader->pending_proposals());
  queue_.in_flight_sum += leader->in_flight_instances();
}

void Cluster::start_load() {
  if (probe_ != nullptr) probe_->reset();
  measuring_ = true;
  interval_start_ = now();
  first_ack_window_ = clock_.now();
  last_ack_ = first_ack_window_;
  for (Client& client : clients_) pump(client);
}

void Cluster::pump(Client& client) {
  while (!draining_ && client.engine->outstanding() < config_.outstanding) {
    ++client.submitted;
    std::vector<std::uint8_t> op = client.workload->next().encode();
    auto done = [this, &client](const smr::Outcome& outcome) {
      settle(client, outcome);
      pump(client);
    };
    if (probe_ == nullptr) {
      client.engine->submit(std::move(op), std::move(done));
    } else {
      const std::uint32_t span = probe_->open(SpanName::kLoadSubmit);
      client.engine->submit(std::move(op), std::move(done));
      probe_->close(span);
    }
  }
}

void Cluster::settle(Client& client, const smr::Outcome& outcome) {
  if (outcome.status != smr::ResultStatus::kOk) {
    ++client.rejected;
    return;
  }
  ++client.committed;
  std::uint64_t value_hash = 1469598103934665603ULL;  // FNV-1a
  for (const char c : outcome.value)
    value_hash =
        (value_hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  std::uint64_t state =
      client.response_chain ^ outcome.client_seq ^ value_hash;
  client.response_chain = splitmix64(state);
  acked_.emplace_back(client.id, outcome.client_seq);
  if (!measuring_) return;
  ++committed_in_interval_;
  latencies_.push_back(static_cast<std::uint64_t>(outcome.latency));
  const SimTime t = clock_.now();
  const auto window =
      static_cast<std::size_t>((t - first_ack_window_) / gap_window_);
  if (window >= window_gaps_.size()) window_gaps_.resize(window + 1, 0);
  window_gaps_[window] = std::max(window_gaps_[window], t - last_ack_);
  last_ack_ = t;
}

Observed Cluster::observe() {
  Observed o;
  for (const auto& replica : replicas_) {
    o.view_changes += replica->view_changes();
    const fd::FailureDetector& fd = replica->failure_detector();
    o.fd_expectations += fd.expectations_issued();
    o.fd_suspicions += fd.suspicions_raised();
    if (const qs::QuorumSelector* selector = replica->selector()) {
      o.qs_quorums += selector->quorums_issued();
      o.qs_solver_runs += selector->solver_runs();
      o.qs_cache_hits += selector->cache_hits();
    }
  }
  for (const Client& client : clients_)
    o.retransmissions += client.engine->retransmissions();
  o.timer_events = clock_.events_processed();
  if (network_) {
    o.sim_messages = network_->stats().total_messages();
    o.sim_bytes = network_->stats().total_bytes();
  }
  for (const net::TcpTransport* transport : tcp_) {
    const net::IoStats& io = transport->io_stats();
    o.io.frames_sent += io.frames_sent;
    o.io.bytes_sent += io.bytes_sent;
    o.io.writev_calls += io.writev_calls;
    o.io.frames_received += io.frames_received;
    o.io.bytes_received += io.bytes_received;
    o.io.frames_shared += io.frames_shared;
  }
  return o;
}

const xpaxos::Replica& Cluster::furthest() const {
  const xpaxos::Replica* best = nullptr;
  for (ProcessId id = 0; id < replicas_.size(); ++id) {
    if (!live(id)) continue;
    if (best == nullptr || replicas_[id]->last_executed() > best->last_executed())
      best = replicas_[id].get();
  }
  if (best == nullptr) throw std::runtime_error("no live replica");
  return *best;
}

void Cluster::end_interval(Episode& e, const Observed& before) {
  measuring_ = false;
  e.interval_ns = now() - interval_start_;
  e.committed = committed_in_interval_;
  e.latencies_ns = std::move(latencies_);
  e.window_gaps_ns = std::move(window_gaps_);
  e.app_digest = furthest().store().state_digest();
  for (const Client& client : clients_)
    e.responses_digest ^= client.response_chain;
  e.observed = observe() - before;
  e.queue = queue_;
  e.rounds = rounds_;
  e.history_len = furthest().executed_history().size();
  if (probe_ != nullptr) {
    e.spans = probe_->totals();
    e.messages = probe_->counts();
  }
}

bool Cluster::replicas_agree() const {
  SeqNum executed = 0;
  for (ProcessId id = 0; id < replicas_.size(); ++id) {
    const SeqNum slot = replicas_[id]->last_executed();
    if (!live(id) || slot == 0) continue;
    if (executed != 0 && slot != executed) return false;
    executed = slot;
  }
  return true;
}

void Cluster::drain() {
  draining_ = true;
  const auto settled = [&] {
    for (const Client& client : clients_)
      if (client.engine->outstanding() > 0) return false;
    return true;
  };
  constexpr SimDuration kStep = 10'000'000;
  SimTime deadline = now() + 10'000'000'000ULL;
  while (!settled() && now() < deadline)
    round(std::min(deadline, now() + kStep));
  deadline = now() + 2'000'000'000ULL;
  while (!replicas_agree() && now() < deadline)
    round(std::min(deadline, now() + kStep));
}

std::string Cluster::check() const {
  for (const Client& client : clients_) {
    const std::uint64_t open = client.engine->outstanding();
    if (client.committed + client.rejected + open != client.submitted)
      return "client " + std::to_string(client.id) +
             ": acked + rejected + open != submitted";
  }

  // Slots contiguous from 1 (batch entries share a slot), each request
  // executed at most once.
  const xpaxos::Replica& best = furthest();
  std::vector<std::pair<std::uint32_t, std::uint64_t>> executed;
  SeqNum prev_slot = 0;
  for (const auto& e : best.executed_history()) {
    if (e.slot != prev_slot && e.slot != prev_slot + 1)
      return "slot gap: executed " + std::to_string(e.slot) + " after " +
             std::to_string(prev_slot);
    prev_slot = e.slot;
    if (e.client >= config_.n) executed.emplace_back(e.client, e.client_seq);
  }
  std::sort(executed.begin(), executed.end());
  if (const auto dup = std::adjacent_find(executed.begin(), executed.end());
      dup != executed.end())
    return "duplicate execution: client " + std::to_string(dup->first) +
           " seq " + std::to_string(dup->second);
  for (const auto& op : acked_)
    if (!std::binary_search(executed.begin(), executed.end(), op))
      return "acked op missing from history: client " +
             std::to_string(op.first) + " seq " + std::to_string(op.second);

  std::map<SeqNum, crypto::Digest> digest_at;
  for (ProcessId id = 0; id < replicas_.size(); ++id) {
    if (!live(id)) continue;
    const xpaxos::Replica& r = *replicas_[id];
    const auto [it, fresh] =
        digest_at.emplace(r.last_executed(), r.store().state_digest());
    if (!fresh && it->second != r.store().state_digest())
      return "replicas diverge at slot " + std::to_string(r.last_executed());
  }
  return {};
}

void Cluster::finish(Episode& e) {
  for (const Client& client : clients_) {
    e.attempted += client.submitted;
    e.failed += client.rejected + client.engine->outstanding();
  }
  e.error = check();
}

}  // namespace

Episode run_episode(const Workload& w, std::uint64_t seed,
                    std::uint64_t tcp_interval_ns, Probe* probe) {
  const load::LoadConfig config = load_config(w, seed);
  Episode e;
  const std::uint64_t build = wall_ns();
  Cluster cluster(w, config, probe);
  e.setup_s = static_cast<double>(wall_ns() - build) * 1e-9;

  const Observed before = cluster.observe();
  const double cpu = process_cpu_s();
  const std::uint64_t wall = wall_ns();
  cluster.start_load();
  cluster.advance_to(cluster.now() + (w.tcp ? tcp_interval_ns : w.virtual_ns));
  e.cpu_s = process_cpu_s() - cpu;
  e.wall_s = static_cast<double>(wall_ns() - wall) * 1e-9;
  cluster.end_interval(e, before);
  cluster.drain();
  cluster.finish(e);
  return e;
}

double time_setup(const Workload& w, std::uint64_t seed) {
  const load::LoadConfig config = load_config(w, seed);
  const std::uint64_t build = wall_ns();
  const Cluster cluster(w, config, nullptr);
  return static_cast<double>(wall_ns() - build) * 1e-9;
}

}  // namespace perfbench
