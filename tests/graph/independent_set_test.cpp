#include "graph/independent_set.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <tuple>

#include "common/rng.hpp"

namespace qsel::graph {
namespace {

/// Brute force: lexicographically first independent set of size q by
/// enumerating subsets in lexicographic (sorted-sequence) order.
std::optional<ProcessSet> brute_first_is(const SimpleGraph& g, int q) {
  const ProcessId n = g.node_count();
  std::optional<ProcessSet> best;
  // Enumerate all masks; pick independent ones of size q; compare lexico.
  auto lex_less = [](ProcessSet a, ProcessSet b) {
    // Compare as increasing sequences.
    auto ita = a.begin();
    auto itb = b.begin();
    while (ita != a.end() && itb != b.end()) {
      if (*ita != *itb) return *ita < *itb;
      ++ita;
      ++itb;
    }
    return false;  // same size by construction
  };
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    const ProcessSet s(mask);
    if (s.size() != q || !is_independent_set(g, s)) continue;
    if (!best || lex_less(s, *best)) best = s;
  }
  return best;
}

SimpleGraph random_graph(ProcessId n, double p, Rng& rng) {
  SimpleGraph g(n);
  for (ProcessId u = 0; u < n; ++u)
    for (ProcessId v = u + 1; v < n; ++v)
      if (rng.chance(p)) g.add_edge(u, v);
  return g;
}

TEST(IndependentSetTest, Definitions) {
  const auto g = SimpleGraph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_TRUE(is_independent_set(g, ProcessSet{0, 2}));
  EXPECT_TRUE(is_independent_set(g, ProcessSet{}));
  EXPECT_FALSE(is_independent_set(g, ProcessSet{0, 1}));
  EXPECT_TRUE(is_vertex_cover(g, ProcessSet{0, 2}));
  EXPECT_FALSE(is_vertex_cover(g, ProcessSet{0}));
}

TEST(IndependentSetTest, VertexCoverBudget) {
  // A triangle needs a cover of 2.
  const auto triangle = SimpleGraph::from_edges(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_FALSE(vertex_cover_within(triangle, 1).has_value());
  const auto cover = vertex_cover_within(triangle, 2);
  ASSERT_TRUE(cover.has_value());
  EXPECT_LE(cover->size(), 2);
  EXPECT_TRUE(is_vertex_cover(triangle, *cover));
}

TEST(IndependentSetTest, EmptyGraphFirstSetIsPrefix) {
  const SimpleGraph g(6);
  EXPECT_EQ(first_independent_set(g, 4), (ProcessSet{0, 1, 2, 3}));
  EXPECT_EQ(first_independent_set(g, 0), ProcessSet{});
}

TEST(IndependentSetTest, StarGraphExcludesCenter) {
  // Star around node 0: any independent set of size >= 2 avoids 0.
  const auto g =
      SimpleGraph::from_edges(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  EXPECT_EQ(first_independent_set(g, 4), (ProcessSet{1, 2, 3, 4}));
  EXPECT_FALSE(first_independent_set(g, 5).has_value());
  EXPECT_EQ(first_independent_set(g, 1), ProcessSet{0});
}

TEST(IndependentSetTest, Figure4Scenario) {
  // Figure 4 of the paper (5 processes; our ids are 0-based, p_k = k-1).
  // Epoch-2 graph: suspicions (p1,p2), (p1,p5), (p2,p5) from epoch 3 and
  // (p3,p4) from epoch 2 — no independent set of size 3 exists.
  auto epoch2 = SimpleGraph::from_edges(5, {{0, 1}, {0, 4}, {1, 4}, {2, 3}});
  EXPECT_FALSE(has_independent_set(epoch2, 3));
  // Epoch 3 removes the (p3,p4) edge; {p1,p3,p4} and {p3,p4,p5} become
  // independent sets; the lexicographically first is {p1,p3,p4}.
  auto epoch3 = SimpleGraph::from_edges(5, {{0, 1}, {0, 4}, {1, 4}});
  EXPECT_TRUE(has_independent_set(epoch3, 3));
  EXPECT_TRUE(is_independent_set(epoch3, ProcessSet{0, 2, 3}));  // p1 p3 p4
  EXPECT_TRUE(is_independent_set(epoch3, ProcessSet{2, 3, 4}));  // p3 p4 p5
  EXPECT_EQ(first_independent_set(epoch3, 3), (ProcessSet{0, 2, 3}));
}

TEST(IndependentSetTest, FirstMatchesBruteForceOnRandomGraphs) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const ProcessId n = static_cast<ProcessId>(rng.between(2, 10));
    const auto g = random_graph(n, rng.uniform01() * 0.7, rng);
    for (int q = 0; q <= static_cast<int>(n); ++q) {
      const auto expected = brute_first_is(g, q);
      const auto actual = first_independent_set(g, q);
      EXPECT_EQ(actual, expected) << "n=" << n << " q=" << q;
      EXPECT_EQ(has_independent_set(g, q), expected.has_value());
      if (actual) {
        EXPECT_EQ(actual->size(), q);
        EXPECT_TRUE(is_independent_set(g, *actual));
      }
    }
  }
}

TEST(IndependentSetTest, AllIndependentSetsEnumerated) {
  const auto g = SimpleGraph::from_edges(4, {{0, 1}});
  const auto sets = all_independent_sets(g, 2);
  // Pairs without the edge (0,1): {0,2},{0,3},{1,2},{1,3},{2,3}.
  ASSERT_EQ(sets.size(), 5u);
  EXPECT_EQ(sets.front(), (ProcessSet{0, 2}));
  EXPECT_EQ(sets.back(), (ProcessSet{2, 3}));
  for (ProcessSet s : sets) EXPECT_TRUE(is_independent_set(g, s));
}

TEST(IndependentSetTest, CliqueHasOnlySingletons) {
  SimpleGraph clique(5);
  for (ProcessId u = 0; u < 5; ++u)
    for (ProcessId v = u + 1; v < 5; ++v) clique.add_edge(u, v);
  EXPECT_TRUE(has_independent_set(clique, 1));
  EXPECT_FALSE(has_independent_set(clique, 2));
  EXPECT_EQ(all_independent_sets(clique, 1).size(), 5u);
}

// The paper's key degree observation (Theorem 3 proof): with |Pi| = f + q,
// a node of degree f + 1 cannot be in an independent set of size q.
TEST(IndependentSetTest, HighDegreeNodeExcluded) {
  const ProcessId n = 7;
  const int f = 2;
  const int q = static_cast<int>(n) - f;
  SimpleGraph g(n);
  for (ProcessId v = 1; v <= static_cast<ProcessId>(f) + 1; ++v)
    g.add_edge(0, v);  // degree f+1 at node 0
  const auto is = first_independent_set(g, q);
  ASSERT_TRUE(is.has_value());
  EXPECT_FALSE(is->contains(0));
}

struct SweepParam {
  ProcessId n;
  int f;
};

class IndependentSetSweep : public ::testing::TestWithParam<SweepParam> {};

// Property: any graph whose edges are confined to f+1 nodes admits an
// independent set of size q = n - f (those f+1 nodes minus one form a
// vertex cover of size f). This is why suspicions touching only the f
// faulty processes can never exhaust the epoch (Section VI-C).
TEST_P(IndependentSetSweep, EdgesConfinedToFPlusOneNodesAdmitQuorum) {
  const auto [n, f] = GetParam();
  const int q = static_cast<int>(n) - f;
  Rng rng(17 * n + static_cast<unsigned>(f));
  for (int trial = 0; trial < 50; ++trial) {
    SimpleGraph g(n);
    const auto core = static_cast<ProcessId>(f + 1);
    for (ProcessId u = 0; u < core; ++u)
      for (ProcessId v = u + 1; v < core; ++v)
        if (rng.chance(0.5)) g.add_edge(u, v);
    const auto is = first_independent_set(g, q);
    ASSERT_TRUE(is.has_value())
        << "edges confined to f+1 nodes admit a cover of size <= f";
    EXPECT_TRUE(is_independent_set(g, *is));
  }
}

INSTANTIATE_TEST_SUITE_P(NandF, IndependentSetSweep,
                         ::testing::Values(SweepParam{4, 1}, SweepParam{7, 2},
                                           SweepParam{10, 3}, SweepParam{13, 4},
                                           SweepParam{9, 2}, SweepParam{16, 5},
                                           SweepParam{21, 6}, SweepParam{25, 8}),
                         [](const auto& param_info) {
                           std::string name = "n";
                           name.append(std::to_string(param_info.param.n))
                               .append("_f")
                               .append(std::to_string(param_info.param.f));
                           return name;
                         });

}  // namespace
}  // namespace qsel::graph
