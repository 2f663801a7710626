#include "graph/snapshot_sequence.hpp"

#include "support/check.hpp"

namespace dgnn::graph {

SnapshotSequence::SnapshotSequence(int64_t num_nodes,
                                   std::vector<GraphSnapshot> snapshots)
    : num_nodes_(num_nodes), snapshots_(std::move(snapshots))
{
    for (const GraphSnapshot& s : snapshots_) {
        DGNN_CHECK(s.NumNodes() == num_nodes, "snapshot node count ", s.NumNodes(),
                   " != sequence node count ", num_nodes);
    }
}

const GraphSnapshot&
SnapshotSequence::Step(int64_t t) const
{
    DGNN_CHECK(t >= 0 && t < NumSteps(), "step ", t, " out of range for ", NumSteps(),
               " steps");
    return snapshots_[static_cast<size_t>(t)];
}

int64_t
SnapshotSequence::TotalEdges() const
{
    int64_t total = 0;
    for (const GraphSnapshot& s : snapshots_) {
        total += s.NumEdges();
    }
    return total;
}

double
SnapshotSequence::MeanOverlap() const
{
    if (NumSteps() < 2) {
        return 0.0;
    }
    double sum = 0.0;
    for (size_t t = 0; t + 1 < snapshots_.size(); ++t) {
        const GraphSnapshot& a = snapshots_[t];
        const GraphSnapshot& b = snapshots_[t + 1];
        const int64_t common = a.CommonEdges(b);
        const int64_t union_size = a.NumEdges() + b.NumEdges() - common;
        sum += union_size > 0 ? static_cast<double>(common) /
                                    static_cast<double>(union_size)
                              : 0.0;
    }
    return sum / static_cast<double>(NumSteps() - 1);
}

}  // namespace dgnn::graph
