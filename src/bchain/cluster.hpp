// The chain protocols over the simulated network (runtime::SmrCluster):
// the BChain baseline (Cluster) and chain replication with
// Quorum-Selection-driven reconfiguration (QsChainCluster, the paper's
// future-work integration, Section X).
#pragma once

#include "bchain/qs_replica.hpp"
#include "bchain/replica.hpp"
#include "runtime/smr_cluster.hpp"

namespace qsel::bchain {

using ClusterConfig = runtime::SmrClusterConfig<ReplicaConfig>;
using Cluster = runtime::SmrCluster<Replica, ReplicaConfig>;

using QsClusterConfig = runtime::SmrClusterConfig<QsReplicaConfig>;
using QsChainCluster = runtime::SmrCluster<QsReplica, QsReplicaConfig>;

}  // namespace qsel::bchain
