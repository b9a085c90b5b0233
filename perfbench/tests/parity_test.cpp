// The benchmark rig measures the program load::run_sim runs (qsel_load,
// BENCH_6): sim_leader_crash untraced, traced (every node behind a
// TimedTransport) and through load::run_sim with the same LoadConfig, seed
// and fault schedule must commit the same ops with the same replicated
// state and the same client responses.
#include <gtest/gtest.h>

#include "load/driver.hpp"
#include "rig/probe.hpp"
#include "rig/rig.hpp"

namespace perfbench {
namespace {

TEST(PerfbenchParity, SimLeaderCrashMatchesRunSim) {
  const Workload* w = find_workload("sim_leader_crash");
  ASSERT_NE(w, nullptr);
  constexpr std::uint64_t kSeed = 3;

  const Episode untraced = run_episode(*w, kSeed, 0, nullptr);
  Probe probe;
  const Episode traced = run_episode(*w, kSeed, 0, &probe);
  const qsel::load::LoadReport reference =
      qsel::load::run_sim(load_config(*w, kSeed));

  EXPECT_TRUE(untraced.error.empty()) << untraced.error;
  EXPECT_TRUE(traced.error.empty()) << traced.error;
  EXPECT_TRUE(reference.history_error.empty()) << reference.history_error;
  ASSERT_GT(reference.committed, 0u);
  EXPECT_GT(reference.view_changes, 0u) << "the crash forced no view change";

  for (const Episode* e : {&untraced, &traced}) {
    EXPECT_EQ(e->committed, reference.committed);
    EXPECT_EQ(e->app_digest, reference.app_digest);
    EXPECT_EQ(e->responses_digest, reference.responses_digest);
    EXPECT_EQ(e->observed.view_changes, reference.view_changes);
    EXPECT_EQ(e->latencies_ns.size(), reference.latency.count());
  }
  // The probe saw the protocol it was wrapped around.
  EXPECT_GT(traced.messages.prepare, 0u);
  EXPECT_GT(traced.messages.viewchange, 0u);
}

}  // namespace
}  // namespace perfbench
