#pragma once

/// @file
/// Discrete-time dynamic graph (DTDG): an ordered sequence of snapshots, as
/// consumed by EvolveGCN, MolDGNN, and ASTGNN.

#include <memory>
#include <vector>

#include "graph/snapshot.hpp"

namespace dgnn::graph {

/// Time-ordered snapshot sequence with shared node id space.
class SnapshotSequence {
  public:
    SnapshotSequence(int64_t num_nodes, std::vector<GraphSnapshot> snapshots);

    int64_t NumNodes() const { return num_nodes_; }
    int64_t NumSteps() const { return static_cast<int64_t>(snapshots_.size()); }

    const GraphSnapshot& Step(int64_t t) const;

    /// Total edges across all snapshots.
    int64_t TotalEdges() const;

    /// Mean Jaccard-style similarity of adjacent snapshots t and t+1,
    /// |E_t ∩ E_{t+1}| / |E_t ∪ E_{t+1}| (0 for < 2 steps). Drives the
    /// delta-transfer optimization study (paper section 5.2.2).
    double MeanOverlap() const;

  private:
    int64_t num_nodes_;
    std::vector<GraphSnapshot> snapshots_;
};

}  // namespace dgnn::graph
