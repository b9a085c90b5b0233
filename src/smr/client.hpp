// Generic SMR client machinery used against every protocol in the repo.
//
// RequestEngine is the one client engine: it signs each operation,
// broadcasts it to a *replica set* (any subset of the transport's id
// space — a shard group, not necessarily processes 0..n-1; leader/primary
// tracking is unnecessary because non-leaders relay and the retransmission
// timer rides out view changes), and accepts an outcome once f+1 replicas
// replied with the same result bytes — at least one of them is correct.
// Any number of requests may be in flight: each pending request, keyed by
// client_seq, has its own retransmission timer and reply tally, so
// outcomes settle independently and in any order. Protocol harnesses and
// routing clients keep one request in flight; the load generator keeps a
// window so the leader's pipeline fills. Outcomes are surfaced typed:
// results carrying a smr::TypedResult envelope (WRONG_GROUP / FROZEN /
// STALE_EPOCH with the replier's config epoch) are parsed and reported as
// such instead of being mistaken for data or silently never matching.
//
// Client wraps one engine with a synthetic workload and completion
// counters — the closed-loop driver the protocol experiments use. Both
// run over net::Transport, so the same code drives the simulator (via
// runtime::SimTransport) and real TCP (via net::TcpTransport or a
// shard::GroupTransport view of one).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "app/workload.hpp"
#include "common/process_set.hpp"
#include "common/types.hpp"
#include "crypto/signer.hpp"
#include "metrics/histogram.hpp"
#include "net/transport.hpp"
#include "smr/client_messages.hpp"
#include "smr/typed_result.hpp"

namespace qsel::smr {

/// The settled result of one submitted operation.
struct Outcome {
  std::uint64_t client_seq = 0;
  ResultStatus status = ResultStatus::kOk;
  /// The replier's config epoch (0 when the result was untyped).
  std::uint64_t config_epoch = 0;
  /// Application-level result value: the TypedResult payload when the
  /// result was typed, the raw result string otherwise.
  std::string value;
  SimDuration latency = 0;
};

struct RequestEngineConfig {
  /// Replica id upper bound in this transport's id space (reply signer
  /// ids are validated against it).
  ProcessId replicas = 4;
  int f = 1;
  /// The replicas to address. Empty = all of 0..replicas-1; a shard
  /// client sets the group's member set.
  ProcessSet replica_set;
  SimDuration retry_timeout = 50'000'000;  // 50 ms
};

class RequestEngine {
 public:
  using Callback = std::function<void(const Outcome&)>;

  /// Installs itself as `transport`'s handler; self() = transport.self().
  /// The transport must be this engine's own (its slot of the simulated
  /// network, a dedicated TCP transport, or one group's view of a mux).
  RequestEngine(net::Transport& transport, const crypto::KeyRegistry& keys,
                RequestEngineConfig config);
  RequestEngine(const RequestEngine&) = delete;
  RequestEngine& operator=(const RequestEngine&) = delete;

  /// Signs and broadcasts `op`; `done` fires exactly once, when f+1
  /// matching replies are in. `done` may submit again. Requires fewer than
  /// kReplyWindow requests in flight (replicas bound their reply table).
  /// A request kReplyWindow or more seqs above the oldest unsettled one is
  /// held back until that one settles.
  void submit(std::vector<std::uint8_t> op, Callback done);

  std::size_t outstanding() const { return pending_.size(); }
  ProcessId self() const { return signer_.self(); }
  std::uint64_t retransmissions() const { return retransmissions_; }

 private:
  struct Pending {
    std::shared_ptr<const ClientRequest> request;
    Callback done;
    SimTime issued_at = 0;
    sim::TimerHandle retry;
    std::map<std::string, ProcessSet> replies;  // result -> voters
  };

  void on_message(ProcessId from, const sim::PayloadPtr& message);
  /// Sends the held requests that are now within the reply window.
  void send_ready();
  void arm_retry(std::uint64_t client_seq);

  net::Transport& transport_;
  crypto::Signer signer_;
  RequestEngineConfig config_;
  std::uint64_t next_seq_ = 1;
  /// Pending seqs below this have been sent; the ones from it are held.
  std::uint64_t next_unsent_ = 1;
  std::uint64_t retransmissions_ = 0;
  std::map<std::uint64_t, Pending> pending_;  // by client_seq
};

struct ClientConfig : RequestEngineConfig {
  app::WorkloadConfig workload;
};

class Client {
 public:
  /// The engine installs itself as `transport`'s handler; the transport
  /// must be this client's own (its slot of the simulated network, or a
  /// dedicated TCP transport).
  Client(net::Transport& transport, const crypto::KeyRegistry& keys,
         ClientConfig config);

  /// Issues `count` requests back to back; 0 = keep issuing forever.
  void start(std::uint64_t count);

  ProcessId self() const { return engine_.self(); }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t retransmissions() const { return engine_.retransmissions(); }
  /// Typed rejects seen, by status (kWrongGroup / kFrozen / kStaleEpoch).
  std::uint64_t rejects(ResultStatus status) const;
  const metrics::LatencyHistogram& latencies() const { return latencies_; }

 private:
  void issue_next();

  RequestEngine engine_;
  app::Workload workload_;
  std::uint64_t target_ = 0;
  std::uint64_t completed_ = 0;
  std::map<ResultStatus, std::uint64_t> rejects_;
  metrics::LatencyHistogram latencies_;
};

}  // namespace qsel::smr
