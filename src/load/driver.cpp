#include "load/driver.hpp"

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "net/loopback_mesh.hpp"
#include "runtime/sim_transport.hpp"
#include "sim/simulator.hpp"
#include "smr/client.hpp"

namespace qsel::load {
namespace {

/// One load client: engine + its private workload stream + counters.
struct ClientRig {
  net::Transport* transport = nullptr;
  std::unique_ptr<smr::RequestEngine> engine;
  std::unique_ptr<app::Workload> workload;
  std::uint64_t target = 0;  // 0 = unbounded
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t shed = 0;
  /// Chained digest over (client_seq, response value) in settle order.
  std::uint64_t response_chain = 0;
  sim::TimerHandle pacer;
};

app::WorkloadConfig client_workload(const LoadConfig& config,
                                    std::uint32_t i) {
  app::WorkloadConfig w;
  w.seed = config.seed * 1000003 + i;
  w.key_space = config.key_space;
  w.value_bytes = config.value_bytes;
  w.put_fraction = config.put_fraction;
  w.get_fraction = config.get_fraction;
  w.zipf_theta = config.zipf_theta;
  w.key_offset = i * config.key_space;  // disjoint per-client key ranges
  return w;
}

/// Client `i`'s rig over its own transport (which the engine takes over).
ClientRig make_rig(net::Transport& transport, const crypto::KeyRegistry& keys,
                   const LoadConfig& config, std::uint32_t i) {
  ClientRig rig;
  rig.transport = &transport;
  rig.engine = std::make_unique<smr::RequestEngine>(
      transport, keys,
      smr::RequestEngineConfig{config.n, config.f, {}, config.client_retry});
  rig.workload = std::make_unique<app::Workload>(client_workload(config, i));
  rig.target = config.requests_per_client;
  rig.response_chain = transport.self();
  return rig;
}

void settle(ClientRig& rig, metrics::LatencyHistogram& hist,
            const smr::Outcome& outcome) {
  if (outcome.status != smr::ResultStatus::kOk) return;
  ++rig.committed;
  hist.record(static_cast<std::uint64_t>(outcome.latency));
  std::uint64_t value_hash = 1469598103934665603ULL;  // FNV-1a
  for (const char c : outcome.value)
    value_hash = (value_hash ^ static_cast<unsigned char>(c)) *
                 1099511628211ULL;
  std::uint64_t state =
      rig.response_chain ^ outcome.client_seq ^ value_hash;
  rig.response_chain = splitmix64(state);
}

/// Closed loop: keep the window full until the target (if any) is met.
void pump_closed(ClientRig& rig, const LoadConfig& config,
                 metrics::LatencyHistogram& hist) {
  while (rig.engine->outstanding() < config.outstanding &&
         (rig.target == 0 || rig.submitted < rig.target)) {
    ++rig.submitted;
    rig.engine->submit(rig.workload->next().encode(),
                       [&rig, &config, &hist](const smr::Outcome& outcome) {
                         settle(rig, hist, outcome);
                         pump_closed(rig, config, hist);
                       });
  }
}

/// Open loop: submit on a fixed cadence regardless of completions; shed
/// (and count) arrivals past the in-flight cap.
void arm_pacer(ClientRig& rig, const LoadConfig& config,
               metrics::LatencyHistogram& hist, SimDuration interval) {
  rig.pacer = rig.transport->timers().schedule_timer(
      interval, [&rig, &config, &hist, interval] {
        if (rig.target != 0 && rig.submitted >= rig.target) return;
        if (rig.engine->outstanding() >= config.max_outstanding) {
          ++rig.shed;
        } else {
          ++rig.submitted;
          rig.engine->submit(rig.workload->next().encode(),
                             [&rig, &hist](const smr::Outcome& outcome) {
                               settle(rig, hist, outcome);
                             });
        }
        arm_pacer(rig, config, hist, interval);
      });
}

void start_load(std::vector<ClientRig>& rigs, const LoadConfig& config,
                metrics::LatencyHistogram& hist) {
  if (config.open_rate_per_sec > 0) {
    const auto interval = static_cast<SimDuration>(
        1'000'000'000ULL * config.clients / config.open_rate_per_sec);
    QSEL_REQUIRE(interval >= 1);
    for (auto& rig : rigs) arm_pacer(rig, config, hist, interval);
  } else {
    QSEL_REQUIRE(config.outstanding >= 1);
    for (auto& rig : rigs) pump_closed(rig, config, hist);
  }
}

bool all_done(const std::vector<ClientRig>& rigs) {
  for (const auto& rig : rigs)
    if (rig.committed < rig.target) return false;
  return true;
}

xpaxos::ReplicaConfig replica_config(const LoadConfig& config) {
  xpaxos::ReplicaConfig rc;
  rc.n = config.n;
  rc.f = config.f;
  rc.policy = config.policy;
  rc.view_change_retry = config.view_change_retry;
  rc.pipeline_window = config.pipeline_window;
  rc.max_batch = config.max_batch;
  return rc;
}

void harvest_clients(const std::vector<ClientRig>& rigs, LoadReport& report) {
  for (const auto& rig : rigs) {
    report.committed += rig.committed;
    report.submitted += rig.submitted;
    report.shed += rig.shed;
    report.retransmissions += rig.engine->retransmissions();
    report.responses_digest ^= rig.response_chain;
  }
}

/// Ordering oracle over one replica's executed history: slots contiguous
/// (batch entries share their slot), no client request executed twice,
/// and — when clients are serial — per-client seqs ascending. The history
/// starts at slot 1, or just above the checkpoint the replica installed by
/// state transfer.
std::string check_history(const xpaxos::Replica& replica, ProcessId n,
                          bool serial_clients) {
  const auto& history = replica.executed_history();
  SeqNum prev_slot = history.empty() ? 0 : history.front().slot - 1;
  std::set<std::pair<std::uint32_t, std::uint64_t>> seen;
  std::map<std::uint32_t, std::uint64_t> last_seq;
  for (const auto& e : history) {
    if (e.slot != prev_slot && e.slot != prev_slot + 1)
      return "slot gap: executed " + std::to_string(e.slot) + " after " +
             std::to_string(prev_slot);
    prev_slot = e.slot;
    if (e.client < n) continue;  // no-op filler (replica-id client)
    if (!seen.insert({e.client, e.client_seq}).second)
      return "duplicate execution: client " + std::to_string(e.client) +
             " seq " + std::to_string(e.client_seq);
    if (serial_clients) {
      std::uint64_t& last = last_seq[e.client];
      if (e.client_seq <= last)
        return "out-of-order execution: client " + std::to_string(e.client) +
               " seq " + std::to_string(e.client_seq) + " after " +
               std::to_string(last);
      last = e.client_seq;
    }
  }
  return {};
}

}  // namespace

LoadReport run_sim(const LoadConfig& config) {
  QSEL_REQUIRE(config.n >= 1 && config.clients >= 1);
  sim::Simulator sim;
  const auto total = static_cast<ProcessId>(config.n + config.clients);
  crypto::KeyRegistry keys(total, config.seed);
  sim::Network network(sim, total, config.network, config.seed);

  std::vector<std::unique_ptr<runtime::SimTransport>> transports;
  std::vector<std::unique_ptr<xpaxos::Replica>> replicas;
  const xpaxos::ReplicaConfig rc = replica_config(config);
  for (ProcessId id = 0; id < config.n; ++id) {
    transports.push_back(
        std::make_unique<runtime::SimTransport>(network, id));
    replicas.push_back(
        std::make_unique<xpaxos::Replica>(*transports.back(), keys, rc));
  }

  LoadReport report;
  std::vector<ClientRig> rigs;
  for (std::uint32_t i = 0; i < config.clients; ++i) {
    const auto id = static_cast<ProcessId>(config.n + i);
    transports.push_back(
        std::make_unique<runtime::SimTransport>(network, id));
    rigs.push_back(make_rig(*transports.back(), keys, config, i));
  }

  if (config.sim_faults) config.sim_faults(sim, network);
  start_load(rigs, config, report.latency);
  if (config.requests_per_client > 0) {
    // Run until every client's target committed; the cap only bounds a
    // run that has genuinely wedged (a liveness bug the caller asserts
    // on via committed != expected).
    constexpr SimDuration kCap = 300'000'000'000;  // 300 virtual seconds
    while (!all_done(rigs) && sim.now() < kCap)
      sim.run_for(10'000'000);  // 10 ms slices
    report.duration_ns = static_cast<std::uint64_t>(sim.now());
  } else {
    sim.run_for(static_cast<SimDuration>(config.duration_ms) * 1'000'000);
    report.duration_ns = config.duration_ms * 1'000'000;
  }
  for (auto& rig : rigs) rig.pacer.cancel();

  harvest_clients(rigs, report);
  for (const auto& replica : replicas)
    report.view_changes += replica->view_changes();
  // Digest the most-executed surviving replica: every replica that
  // executed through slot S applied the identical prefix, and the
  // furthest one has applied every committed request (fault schedules may
  // leave crashed or lagging peers behind).
  const xpaxos::Replica* best = nullptr;
  for (ProcessId id = 0; id < config.n; ++id) {
    if (network.is_crashed(id)) continue;
    if (best == nullptr || replicas[id]->last_executed() > best->last_executed())
      best = replicas[id].get();
  }
  QSEL_REQUIRE(best != nullptr);
  report.app_digest = best->store().state_digest();
  report.history_error = check_history(
      *best, config.n,
      config.outstanding == 1 && config.open_rate_per_sec == 0);
  report.net_messages = network.stats().total_messages();
  report.net_bytes = network.stats().total_bytes();
  report.prepares = network.stats().by_type("xpaxos.prepare");
  return report;
}

LoadReport run_loopback(const LoadConfig& config) {
  QSEL_REQUIRE(config.n >= 1 && config.clients >= 1);
  const auto total = static_cast<ProcessId>(config.n + config.clients);
  crypto::KeyRegistry keys(total, config.seed);
  net::TcpTransport::Config tcp;
  tcp.auth_seed = config.seed;
  net::LoopbackMesh mesh(total, tcp);

  // Real-time failure-detector pacing (loopback_mesh.hpp): virtual-time
  // defaults would suspect healthy peers on scheduler jitter.
  xpaxos::ReplicaConfig rc = replica_config(config);
  rc.fd = net::kRealTimeFd;
  std::vector<std::unique_ptr<xpaxos::Replica>> replicas;
  for (ProcessId id = 0; id < config.n; ++id)
    replicas.push_back(
        std::make_unique<xpaxos::Replica>(mesh.transport(id), keys, rc));

  LoadReport report;
  std::vector<ClientRig> rigs;
  for (std::uint32_t i = 0; i < config.clients; ++i)
    rigs.push_back(make_rig(mesh.transport(config.n + i), keys, config, i));

  QSEL_REQUIRE_MSG(mesh.start(10'000'000'000), "loopback mesh did not connect");

  const auto started = std::chrono::steady_clock::now();
  start_load(rigs, config, report.latency);
  if (config.requests_per_client > 0) {
    mesh.loop().run_until([&] { return all_done(rigs); }, 120'000'000'000ULL);
  } else {
    mesh.loop().run_for(config.duration_ms * 1'000'000);
  }
  for (auto& rig : rigs) rig.pacer.cancel();
  report.duration_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - started)
          .count());

  harvest_clients(rigs, report);
  for (const auto& replica : replicas)
    report.view_changes += replica->view_changes();
  report.app_digest = replicas[0]->store().state_digest();
  for (ProcessId id = 0; id < total; ++id) {
    const net::IoStats& io = mesh.transport(id).io_stats();
    report.net_messages += io.frames_sent;
    report.net_bytes += io.bytes_sent;
    report.frames_shared += io.frames_shared;
  }
  // PREPARE counting is a sim-substrate metric (per-type tags live in
  // sim::Network's MessageStats); the loopback report leaves it 0.
  return report;
}

double LoadReport::throughput_per_sec() const {
  if (duration_ns == 0) return 0.0;
  return static_cast<double>(committed) * 1e9 /
         static_cast<double>(duration_ns);
}

std::string LoadReport::to_json() const {
  char buf[128];
  std::string json = "{";
  const auto field = [&](const char* key, std::uint64_t value,
                         bool comma = true) {
    json += '"';
    json += key;
    json += "\":";
    json += std::to_string(value);
    if (comma) json += ',';
  };
  field("committed", committed);
  field("submitted", submitted);
  field("shed", shed);
  field("retransmissions", retransmissions);
  field("view_changes", view_changes);
  field("duration_ns", duration_ns);
  std::snprintf(buf, sizeof buf, "\"throughput_per_sec\":%.3f,",
                throughput_per_sec());
  json += buf;
  json += "\"latency_ns\":{";
  field("count", latency.count());
  field("min", latency.min());
  field("mean", latency.mean());
  field("p50", latency.p50());
  field("p99", latency.p99());
  field("p999", latency.p999());
  field("max", latency.max());
  std::snprintf(buf, sizeof buf, "\"digest\":\"%016llx\"},",
                static_cast<unsigned long long>(latency.digest()));
  json += buf;
  json += "\"app_digest\":\"" + app_digest.to_hex() + "\",";
  std::snprintf(buf, sizeof buf, "\"responses_digest\":\"%016llx\",",
                static_cast<unsigned long long>(responses_digest));
  json += buf;
  json += "\"history_error\":\"" + history_error + "\",";
  json += "\"net\":{";
  field("messages", net_messages);
  field("bytes", net_bytes);
  field("frames_shared", frames_shared);
  field("prepares", prepares, /*comma=*/false);
  json += "}}";
  return json;
}

}  // namespace qsel::load
