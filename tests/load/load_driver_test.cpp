// End-to-end SMR correctness battery for the pipelined/batched XPaxos
// commit path, driven through the deterministic load generator.
//
//  * Pipelining equivalence: across seeds and fault schedules (drop /
//    dup / reorder / partition), pipeline windows 1 (serial), 4 and 16
//    must commit every request exactly once and reach bit-identical
//    application state and per-client response sequences.
//  * Batching equivalence: many-request PREPAREs vs one-request-per-
//    instance give the same state and responses, while the batched arm
//    provably amortizes (fewer PREPAREs than commits).
//  * View change under load: killing the leader with a full pipeline
//    window loses nothing — every request still commits exactly once —
//    and the new leader serves the outstanding requests before any
//    client's retry timer fires.
//  * Determinism: same (config, seed) on the sim substrate produces a
//    bit-identical JSON report.
#include "load/driver.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace qsel::load {
namespace {

// Serial-client equivalence configuration: outstanding = 1 keeps each
// client's operation order fixed, and disjoint key ranges (driver default)
// make the final state independent of cross-client interleaving — so
// every arm must reach the SAME state, not merely a consistent one.
LoadConfig equivalence_config(std::uint64_t seed) {
  LoadConfig config;
  config.seed = seed;
  config.clients = 3;
  config.outstanding = 1;
  config.requests_per_client = 12;
  config.key_space = 16;
  return config;
}

struct Arm {
  std::size_t window;
  std::size_t batch;
};
constexpr Arm kArms[] = {{1, 1}, {4, 4}, {16, 8}};

void expect_equivalent_arms(LoadConfig config, const std::string& label) {
  const std::uint64_t expected =
      std::uint64_t{config.clients} * config.requests_per_client;
  std::vector<LoadReport> reports;
  for (const Arm& arm : kArms) {
    config.pipeline_window = arm.window;
    config.max_batch = arm.batch;
    reports.push_back(run_sim(config));
    const LoadReport& r = reports.back();
    ASSERT_EQ(r.committed, expected)
        << label << " window=" << arm.window << ": lost or stuck requests";
    EXPECT_TRUE(r.history_error.empty())
        << label << " window=" << arm.window << ": " << r.history_error;
  }
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[0].app_digest.to_hex(), reports[i].app_digest.to_hex())
        << label << ": window " << kArms[i].window
        << " diverged from serial state";
    EXPECT_EQ(reports[0].responses_digest, reports[i].responses_digest)
        << label << ": window " << kArms[i].window
        << " told clients something different";
  }
}

TEST(LoadDriverTest, PipeliningEquivalenceCleanNetwork) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull})
    expect_equivalent_arms(equivalence_config(seed),
                           "clean seed " + std::to_string(seed));
}

TEST(LoadDriverTest, PipeliningEquivalenceUnderDrops) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    LoadConfig config = equivalence_config(seed);
    // A replica-to-replica link blacks out mid-run and comes back; the
    // failure detector's view change must not lose or duplicate anything.
    // Fault-free runs last ~60ms of virtual time, so the blackout starts
    // at 10ms to be sure it lands mid-pipeline.
    config.sim_faults = [](sim::Simulator& sim, sim::Network& network) {
      sim.schedule_after(10'000'000, [&network] {
        network.set_link_enabled(0, 1, false);
        network.set_link_enabled(1, 0, false);
      });
      sim.schedule_after(150'000'000, [&network] {
        network.set_link_enabled(0, 1, true);
        network.set_link_enabled(1, 0, true);
      });
    };
    expect_equivalent_arms(config, "drop seed " + std::to_string(seed));
  }
}

TEST(LoadDriverTest, PipeliningEquivalenceUnderDuplication) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    LoadConfig config = equivalence_config(seed);
    // Every replica-to-replica link delivers twice for the whole run:
    // duplicated PREPAREs/COMMITs/requests must all be idempotent.
    config.sim_faults = [&config](sim::Simulator&, sim::Network& network) {
      for (ProcessId a = 0; a < config.n; ++a)
        for (ProcessId b = 0; b < config.n; ++b)
          if (a != b) network.set_link_duplicate(a, b, true);
    };
    expect_equivalent_arms(config, "dup seed " + std::to_string(seed));
  }
}

TEST(LoadDriverTest, PipeliningEquivalenceUnderReordering) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    LoadConfig config = equivalence_config(seed);
    // Jitter several times the base latency: messages overtake each other
    // freely (links are not FIFO), including COMMIT-before-PREPARE.
    config.network.jitter = 4'000'000;
    expect_equivalent_arms(config, "reorder seed " + std::to_string(seed));
  }
}

TEST(LoadDriverTest, PipeliningEquivalenceUnderPartition) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    LoadConfig config = equivalence_config(seed);
    // A 2-2 split leaves no quorum at all for 250ms; progress must stall
    // cleanly and resume exactly-once after the heal.
    config.sim_faults = [](sim::Simulator& sim, sim::Network& network) {
      sim.schedule_after(15'000'000, [&network] {
        network.partition(ProcessSet{0, 1}, ProcessSet{2, 3});
      });
      sim.schedule_after(150'000'000,
                         [&network] { network.heal_partition(); });
    };
    expect_equivalent_arms(config, "partition seed " + std::to_string(seed));
  }
}

TEST(LoadDriverTest, BatchingEquivalenceAndAmortization) {
  // Six serial clients behind a window of 2 force a queue, so the batched
  // arm genuinely packs multiple requests per PREPARE; the unbatched arm
  // proposes one per instance. State and responses must match anyway.
  LoadConfig config;
  config.seed = 11;
  config.clients = 6;
  config.outstanding = 1;
  config.requests_per_client = 20;
  config.key_space = 16;
  config.pipeline_window = 2;

  config.max_batch = 8;
  const LoadReport batched = run_sim(config);
  config.max_batch = 1;
  const LoadReport unbatched = run_sim(config);

  const std::uint64_t expected = 6 * 20;
  ASSERT_EQ(batched.committed, expected);
  ASSERT_EQ(unbatched.committed, expected);
  EXPECT_TRUE(batched.history_error.empty()) << batched.history_error;
  EXPECT_TRUE(unbatched.history_error.empty()) << unbatched.history_error;
  EXPECT_EQ(batched.app_digest.to_hex(), unbatched.app_digest.to_hex());
  EXPECT_EQ(batched.responses_digest, unbatched.responses_digest);
  // Amortization, in consensus instances. `prepares` counts wire
  // messages and each instance fans a PREPARE out to the other
  // kFanout = 2f quorum members (n=4, f=1: quorum of 3, leader + 2), so
  // instances = prepares / kFanout. The batched arm needed strictly
  // fewer instances than requests; the unbatched arm needed one each.
  const std::uint64_t kFanout = 2;
  EXPECT_LT(batched.prepares, kFanout * batched.committed);
  EXPECT_GE(unbatched.prepares, kFanout * unbatched.committed);
  EXPECT_LT(batched.prepares, unbatched.prepares);
}

TEST(LoadDriverTest, ViewChangeUnderLoadLosesNothing) {
  // Kill the initial leader while the pipeline window is full (4 clients
  // x 4 outstanding against window 16). Acked operations must survive
  // into the new view and every request must still commit exactly once.
  LoadConfig config;
  config.seed = 21;
  config.clients = 4;
  config.outstanding = 4;
  config.requests_per_client = 25;
  // The fault-free run lasts ~40ms of virtual time, so crash at 10ms —
  // well before the last commit — to guarantee the window is full.
  config.sim_faults = [](sim::Simulator& sim, sim::Network& network) {
    sim.schedule_after(10'000'000, [&network] { network.crash(0); });
  };
  const LoadReport report = run_sim(config);
  EXPECT_EQ(report.committed, 4u * 25u);
  EXPECT_TRUE(report.history_error.empty()) << report.history_error;
  EXPECT_GT(report.view_changes, 0u) << "crash never forced a view change";
}

TEST(LoadDriverTest, LeaderCrashNeedsNoClientRetry) {
  // perfbench's sim_leader_crash shape, 8 clients x 16 outstanding. Every
  // request outstanding at the crash already reached the new quorum,
  // whose members keep it and hand it to the new leader as its view
  // installs (DESIGN.md §18): no client retries, and no op waits even half
  // a retry timeout.
  LoadConfig config;
  config.seed = 1;
  config.clients = 8;
  config.outstanding = 16;
  config.requests_per_client = 600;
  // The fault-free run lasts ~180 ms of virtual time.
  config.sim_faults = [](sim::Simulator& sim, sim::Network& network) {
    sim.schedule_after(60'000'000, [&network] { network.crash(0); });
  };
  const LoadReport report = run_sim(config);
  EXPECT_EQ(report.committed, 8u * 600u);
  EXPECT_TRUE(report.history_error.empty()) << report.history_error;
  EXPECT_GT(report.view_changes, 0u) << "crash never forced a view change";
  EXPECT_EQ(report.retransmissions, 0u);
  EXPECT_LT(report.latency.max(),
            static_cast<std::uint64_t>(config.client_retry / 2));
}

TEST(LoadDriverTest, SimReportIsBitIdenticalAcrossRuns) {
  LoadConfig config;
  config.seed = 33;
  config.clients = 4;
  config.outstanding = 4;
  config.requests_per_client = 15;
  config.zipf_theta = 0.99;
  const LoadReport a = run_sim(config);
  const LoadReport b = run_sim(config);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.latency.digest(), b.latency.digest());
  EXPECT_GT(a.committed, 0u);
}

TEST(LoadDriverTest, OpenLoopShedsBeyondOutstandingCap) {
  LoadConfig config;
  config.seed = 5;
  config.clients = 2;
  config.open_rate_per_sec = 20'000;  // far beyond what commits allow
  config.max_outstanding = 2;
  config.duration_ms = 300;
  const LoadReport report = run_sim(config);
  EXPECT_GT(report.committed, 0u);
  EXPECT_GT(report.shed, 0u) << "open loop never hit the in-flight cap";
  EXPECT_EQ(report.duration_ns, 300'000'000u);
}

TEST(LoadDriverTest, PipelineBeatsSerialThroughputInSim) {
  // The BENCH_6 headline ratio, asserted at test scale: with 8 eager
  // clients, the pipelined+batched path commits at least twice as many
  // requests as the serial path in the same virtual duration.
  LoadConfig config;
  config.seed = 3;
  config.clients = 8;
  config.outstanding = 8;
  config.duration_ms = 400;

  config.pipeline_window = 1;
  config.max_batch = 1;
  const LoadReport serial = run_sim(config);
  config.pipeline_window = 16;
  config.max_batch = 8;
  const LoadReport pipelined = run_sim(config);

  ASSERT_GT(serial.committed, 0u);
  EXPECT_GE(pipelined.committed, 2 * serial.committed)
      << "pipelined " << pipelined.committed << " vs serial "
      << serial.committed;
}

}  // namespace
}  // namespace qsel::load
