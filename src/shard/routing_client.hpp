// RoutingClient — a shard-aware key-value client.
//
// Caches the ShardMap fetched from the shard-config group, routes each
// operation to the data group owning the key, and stamps it with the
// cached config epoch. Typed rejects drive the cache: WRONG_GROUP,
// STALE_EPOCH and FROZEN all mean "my view of the world is (or is about
// to be) outdated", so the client refetches the map and RESUBMITS the
// operation as a fresh request — a fresh client_seq, because replicas
// de-duplicate by (client, seq) and would forever replay the cached
// reject for a retried one — after a jittered exponential backoff so a
// fleet of clients bounced by the same migration doesn't retry in
// lockstep. An operation is never abandoned: a freeze window lasts until
// the migration commits, at which point the refreshed map points at the
// destination group and the retry lands.
//
// GroupEngines is the shared substrate (also used by the migration
// coordinator): one GroupMux over the client's own transport, and per
// group a GroupTransport slice, the group's KeyRegistry, and an
// smr::RequestEngine installed on that slice.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "app/kv_store.hpp"
#include "crypto/signer.hpp"
#include "shard/group_transport.hpp"
#include "smr/client.hpp"

namespace qsel::shard {

/// One group a client can talk to: the spec plus the group's fault bound.
struct GroupEndpoint {
  GroupSpec spec;
  int f = 1;
};

/// Per-group request machinery over one client process's transport.
class GroupEngines {
 public:
  /// base.self() must appear as a CLIENT slot in every endpoint's spec.
  GroupEngines(net::Transport& base, std::vector<GroupEndpoint> endpoints,
               std::uint64_t key_seed, SimDuration retry_timeout);

  smr::RequestEngine* engine(GroupId id);
  sim::Simulator& timers() { return base_.timers(); }

 private:
  struct Entry {
    std::unique_ptr<crypto::KeyRegistry> keys;
    std::unique_ptr<smr::RequestEngine> engine;  // over mux_'s group view
  };

  net::Transport& base_;
  GroupMux mux_;
  std::map<GroupId, Entry> entries_;
};

class RoutingClient {
 public:
  struct Config {
    GroupId config_group = 0;
    /// Every group this client addresses, the config group included.
    std::vector<GroupEndpoint> endpoints;
    std::uint64_t key_seed = 0;
    SimDuration retry_timeout = 50'000'000;  // per-request retransmit
    SimDuration backoff_base = 5'000'000;    // reject backoff: 5 ms ...
    SimDuration backoff_cap = 200'000'000;   // ... doubling up to 200 ms
    std::uint64_t jitter_seed = 1;
  };

  using Done = std::function<void(const smr::Outcome&)>;

  RoutingClient(net::Transport& base, Config config);

  /// One operation in flight at a time; `done` fires exactly once, when
  /// the op committed on the owning group (rejects are retried inside).
  void put(std::string key, std::string value, Done done);
  void get(std::string key, Done done);
  void del(std::string key, Done done);

  /// Forces a map refetch (normally triggered by rejects).
  void refresh_map(std::function<void()> done = nullptr);

  bool has_map() const { return has_map_; }
  const ShardMap& map() const { return map_; }
  bool idle() const { return !busy_; }

  std::uint64_t completed() const { return completed_; }
  std::uint64_t rejects(smr::ResultStatus status) const;
  std::uint64_t map_refreshes() const { return map_refreshes_; }
  std::uint64_t retries() const { return retries_; }

 private:
  void start(app::Operation op, Done done);
  void attempt();
  void on_outcome(const smr::Outcome& outcome);
  /// Clears busy state and fires the callback (moved out first — the
  /// callback may submit the next operation reentrantly).
  void finish(const smr::Outcome& outcome);
  void backoff_then_retry();
  std::uint64_t next_jitter();

  GroupEngines engines_;
  GroupId config_group_;
  SimDuration backoff_base_;
  SimDuration backoff_cap_;
  std::uint64_t jitter_state_;

  ShardMap map_;
  bool has_map_ = false;
  bool refresh_in_flight_ = false;
  std::vector<std::function<void()>> refresh_waiters_;

  bool busy_ = false;
  app::Operation current_op_;
  Done done_;
  std::uint32_t attempt_ = 0;

  std::uint64_t completed_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t map_refreshes_ = 0;
  std::map<smr::ResultStatus, std::uint64_t> rejects_;
};

}  // namespace qsel::shard
