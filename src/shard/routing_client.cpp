#include "shard/routing_client.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "shard/shard_kv.hpp"

namespace qsel::shard {

GroupEngines::GroupEngines(net::Transport& base,
                           std::vector<GroupEndpoint> endpoints,
                           std::uint64_t key_seed, SimDuration retry_timeout)
    : base_(base), mux_(base) {
  for (GroupEndpoint& endpoint : endpoints) {
    const GroupId id = endpoint.spec.id;
    const auto self_local = endpoint.spec.local_of(base_.self());
    QSEL_ASSERT_MSG(
        self_local.has_value() &&
            *self_local >= endpoint.spec.members.size(),
        "GroupEngines: base.self() must be a client slot of every group");

    Entry entry;
    entry.keys = std::make_unique<crypto::KeyRegistry>(
        endpoint.spec.local_count(), endpoint.spec.key_seed(key_seed));

    smr::RequestEngineConfig engine_config;
    engine_config.replicas =
        static_cast<ProcessId>(endpoint.spec.members.size());
    engine_config.f = endpoint.f;
    engine_config.retry_timeout = retry_timeout;
    entry.engine = std::make_unique<smr::RequestEngine>(
        mux_.add_group(endpoint.spec), *entry.keys, engine_config);
    entries_.emplace(id, std::move(entry));
  }
}

smr::RequestEngine* GroupEngines::engine(GroupId id) {
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : it->second.engine.get();
}

RoutingClient::RoutingClient(net::Transport& base, Config config)
    : engines_(base, std::move(config.endpoints), config.key_seed,
               config.retry_timeout),
      config_group_(config.config_group),
      backoff_base_(config.backoff_base),
      backoff_cap_(config.backoff_cap),
      jitter_state_(config.jitter_seed | 1) {
  QSEL_ASSERT_MSG(engines_.engine(config_group_) != nullptr,
                  "RoutingClient: endpoints must include the config group");
}

void RoutingClient::put(std::string key, std::string value, Done done) {
  start(app::Operation{app::OpType::kPut, std::move(key), std::move(value)},
        std::move(done));
}

void RoutingClient::get(std::string key, Done done) {
  start(app::Operation{app::OpType::kGet, std::move(key), {}},
        std::move(done));
}

void RoutingClient::del(std::string key, Done done) {
  start(app::Operation{app::OpType::kDel, std::move(key), {}},
        std::move(done));
}

std::uint64_t RoutingClient::rejects(smr::ResultStatus status) const {
  const auto it = rejects_.find(status);
  return it == rejects_.end() ? 0 : it->second;
}

void RoutingClient::refresh_map(std::function<void()> done) {
  if (done) refresh_waiters_.push_back(std::move(done));
  if (refresh_in_flight_) return;
  refresh_in_flight_ = true;
  ++map_refreshes_;
  engines_.engine(config_group_)
      ->submit(MapOp{MapOpType::kGet, {}, {}, 0}.encode(),
               [this](const smr::Outcome& outcome) {
                 refresh_in_flight_ = false;
                 if (outcome.status == smr::ResultStatus::kOk) {
                   if (auto map = ShardMap::decode_from_string(outcome.value);
                       map && map->epoch >= map_.epoch) {
                     map_ = std::move(*map);
                     has_map_ = true;
                   }
                 }
                 std::vector<std::function<void()>> waiters;
                 waiters.swap(refresh_waiters_);
                 for (auto& waiter : waiters) waiter();
               });
}

void RoutingClient::start(app::Operation op, Done done) {
  QSEL_ASSERT_MSG(!busy_, "RoutingClient: one operation at a time");
  busy_ = true;
  current_op_ = std::move(op);
  done_ = std::move(done);
  attempt_ = 0;
  if (!has_map_) {
    refresh_map([this] { attempt(); });
    return;
  }
  attempt();
}

void RoutingClient::attempt() {
  if (!has_map_) {  // refresh failed to produce a map; try again
    backoff_then_retry();
    return;
  }
  const ShardRange* range = map_.lookup(current_op_.key);
  if (range == nullptr) {
    // No group serves the key yet (bootstrap race): treat like a stale
    // map and retry.
    backoff_then_retry();
    return;
  }
  smr::RequestEngine* engine = engines_.engine(range->group);
  if (engine == nullptr) {
    // The map moved the key to a group this client has no endpoint for;
    // surface that as a terminal outcome rather than spinning.
    smr::Outcome outcome;
    outcome.status = smr::ResultStatus::kWrongGroup;
    outcome.config_epoch = map_.epoch;
    outcome.value = "no endpoint for group";
    finish(outcome);
    return;
  }
  engine->submit(
      ShardKvOp::client_op(map_.epoch, current_op_.encode()),
      [this](const smr::Outcome& outcome) { on_outcome(outcome); });
}

void RoutingClient::on_outcome(const smr::Outcome& outcome) {
  if (outcome.status == smr::ResultStatus::kOk) {
    ++completed_;
    finish(outcome);
    return;
  }
  ++rejects_[outcome.status];
  backoff_then_retry();
}

void RoutingClient::finish(const smr::Outcome& outcome) {
  // Move the callback out before invoking it: `done` may start the next
  // operation reentrantly, which reassigns done_.
  Done done = std::move(done_);
  done_ = nullptr;
  busy_ = false;
  if (done) done(outcome);
}

void RoutingClient::backoff_then_retry() {
  ++retries_;
  const std::uint32_t shift = std::min<std::uint32_t>(attempt_, 10);
  ++attempt_;
  const SimDuration exp =
      std::min(backoff_cap_, backoff_base_ << shift);
  const SimDuration delay =
      exp + next_jitter() % (backoff_base_ == 0 ? 1 : backoff_base_);
  engines_.timers().schedule_after(delay, [this] {
    // Rejects mean the cached map is stale (or about to be): refetch
    // before retrying, then resubmit as a FRESH request.
    refresh_map([this] { attempt(); });
  });
}

std::uint64_t RoutingClient::next_jitter() {
  // xorshift64: deterministic per-client jitter, no global state.
  jitter_state_ ^= jitter_state_ << 13;
  jitter_state_ ^= jitter_state_ >> 7;
  jitter_state_ ^= jitter_state_ << 17;
  return jitter_state_;
}

}  // namespace qsel::shard
