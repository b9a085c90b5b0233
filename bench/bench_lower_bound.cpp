// Experiment E2 — the Theorem 4 lower bound, constructively: replay an
// optimal adversary run against Algorithm 1 and print the full
// quorum/suspicion trace (the Figure 5 scenario generalized). Every
// suspicion hits two members of the current quorum; the run reaches
// C(f+2,2) quorums and the final suspicion set is attributable to f
// faulty processes (a vertex cover of size f exists).
#include <cstdint>
#include <iostream>
#include <string>

#include "adversary/quorum_game.hpp"
#include "common/combinatorics.hpp"
#include "graph/independent_set.hpp"
#include "metrics/table.hpp"

using namespace qsel;

int main() {
  std::cout << "E2: constructive Theorem 4 adversary vs Algorithm 1\n\n";
  for (int f = 1; f <= 3; ++f) {
    const auto n = static_cast<ProcessId>(3 * f + 1);
    adversary::QuorumGame game(adversary::QuorumGameConfig{n, f, 0});
    const auto result = game.max_changes();
    std::cout << "f = " << f << ", n = " << n << ": " << result.changes + 1
              << " quorums (bound C(f+2,2) = "
              << binomial(static_cast<std::uint64_t>(f) + 2, 2) << ")\n";
    metrics::Table table({"step", "suspicion", "new quorum"});
    graph::SimpleGraph g(n);
    table.row(0, "(initial)", game.quorum_for(g).to_string());
    int step = 1;
    for (auto [u, v] : result.suspicions) {
      g.add_edge(u, v);
      std::string label = "p";
      label.append(std::to_string(u)).append(" ~ p").append(std::to_string(v));
      table.row(step++, label, game.quorum_for(g).to_string());
    }
    table.print(std::cout);
    const auto cover = graph::vertex_cover_within(g, f);
    std::cout << "faulty set attribution F = "
              << (cover ? cover->to_string() : "(none)") << "\n\n";
  }
  return 0;
}
