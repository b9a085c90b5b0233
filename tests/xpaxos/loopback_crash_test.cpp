// XPaxos over loopback TCP: crash the leader after a long uptime, with one
// client keeping 16 requests in flight. A VIEWCHANGE that carried every
// prepared slot since boot would outgrow the transport's 1 MiB frame
// limit at this uptime (about 103 B per batch-1 PREPARE), and the view
// change could not complete; with checkpoints it carries a certificate
// plus at most about K + pipeline_window prepares. The test is sized by
// executed slots rather than seconds so it holds under sanitizers too.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "app/workload.hpp"
#include "net/loopback_mesh.hpp"
#include "smr/client.hpp"
#include "xpaxos/replica.hpp"

namespace qsel::xpaxos {
namespace {

constexpr ProcessId kReplicas = 4;
constexpr ProcessId kClient = kReplicas;
constexpr std::size_t kInFlight = 16;
constexpr SeqNum kSlotsBeforeCrash = 15'000;
constexpr std::uint64_t kSecond = 1'000'000'000;

TEST(XpaxosLoopbackCrashTest, LeaderCrashAfterLongUptimeLosesNoAckedOp) {
  constexpr std::uint64_t kSeed = 5;
  constexpr ProcessId kTotal = kReplicas + 1;
  const crypto::KeyRegistry keys(kTotal, kSeed);
  net::TcpTransport::Config tcp;
  tcp.auth_seed = kSeed;
  net::LoopbackMesh mesh(kTotal, tcp);
  net::EventLoop& loop = mesh.loop();

  ReplicaConfig config;
  config.fd = net::kRealTimeFd;
  std::vector<std::unique_ptr<Replica>> replicas;
  for (ProcessId id = 0; id < kReplicas; ++id)
    replicas.push_back(
        std::make_unique<Replica>(mesh.transport(id), keys, config));
  smr::RequestEngine engine(
      mesh.transport(kClient), keys,
      smr::RequestEngineConfig{kReplicas, 1, {}, 50'000'000});
  app::Workload workload(app::WorkloadConfig{});
  ASSERT_TRUE(mesh.start(10 * kSecond));

  std::set<std::uint64_t> acked;
  bool submitting = true;
  std::function<void()> pump = [&] {
    while (submitting && engine.outstanding() < kInFlight)
      engine.submit(workload.next().encode(), [&](const smr::Outcome& done) {
        if (done.status == smr::ResultStatus::kOk)
          acked.insert(done.client_seq);
        pump();
      });
  };
  pump();
  ASSERT_TRUE(loop.run_until(
      [&] { return replicas[1]->last_executed() >= kSlotsBeforeCrash; },
      600 * kSecond));

  const ProcessId crashed = replicas[1]->leader();
  replicas[crashed].reset();
  mesh.crash(crashed);
  const auto live = [&] {
    std::vector<const Replica*> out;
    for (const auto& replica : replicas)
      if (replica != nullptr) out.push_back(replica.get());
    return out;
  };

  // A view without the old leader is installed and commits resume.
  const std::size_t acked_at_crash = acked.size();
  ASSERT_TRUE(loop.run_until(
      [&] {
        if (acked.size() < acked_at_crash + 1000) return false;
        for (const Replica* r : live())
          if (r->status() != Replica::Status::kNormal ||
              r->active_quorum().contains(crashed))
            return false;
        return true;
      },
      120 * kSecond))
      << "acked " << acked.size() - acked_at_crash << " since the crash";

  submitting = false;
  ASSERT_TRUE(
      loop.run_until([&] { return engine.outstanding() == 0; }, 60 * kSecond));
  loop.run_until(
      [&] {
        for (const Replica* r : live())
          if (r->last_executed() != live().front()->last_executed())
            return false;
        return true;
      },
      10 * kSecond);

  // No acknowledged op is lost: each executed on some live replica (one
  // that installed a checkpoint by transfer holds only the slots after it).
  std::set<std::uint64_t> executed;
  for (const Replica* r : live())
    for (const smr::ExecutedEntry& e : r->executed_history())
      if (e.client == kClient) executed.insert(e.client_seq);
  for (const std::uint64_t seq : acked)
    ASSERT_TRUE(executed.contains(seq)) << "acked seq " << seq << " lost";

  // Replicas at equal last_executed() have equal digests, and none keeps
  // more than about K + pipeline_window slots of log.
  std::map<SeqNum, crypto::Digest> digest_at;
  for (const Replica* r : live()) {
    const auto [it, fresh] =
        digest_at.emplace(r->last_executed(), r->store().state_digest());
    EXPECT_TRUE(fresh || it->second == r->store().state_digest())
        << "replicas diverge at slot " << r->last_executed();
    EXPECT_LE(r->retained_log_slots(),
              Replica::kCheckpointInterval + 2 * config.pipeline_window);
  }
}

}  // namespace
}  // namespace qsel::xpaxos
