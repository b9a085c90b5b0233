// xpaxos::Cluster — XPaxos replicas + clients over the simulated network
// (runtime::SmrCluster).
#pragma once

#include "runtime/smr_cluster.hpp"
#include "xpaxos/replica.hpp"

namespace qsel::xpaxos {

using ClusterConfig = runtime::SmrClusterConfig<ReplicaConfig>;
using Cluster = runtime::SmrCluster<Replica, ReplicaConfig>;

}  // namespace qsel::xpaxos
