// pbft::Cluster — the PBFT baseline over the simulated network, with the
// same observation surface as xpaxos::Cluster (runtime::SmrCluster), so
// experiment E5 can compare the two side by side.
#pragma once

#include "pbft/replica.hpp"
#include "runtime/smr_cluster.hpp"

namespace qsel::pbft {

using ClusterConfig = runtime::SmrClusterConfig<ReplicaConfig>;
using Cluster = runtime::SmrCluster<Replica, ReplicaConfig>;

}  // namespace qsel::pbft
