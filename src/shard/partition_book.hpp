#pragma once

/// @file
/// Node-to-shard partitioning for scale-out serving. A PartitionBook maps
/// every node of a dataset to exactly one shard (the shard OWNS the node's
/// mutable state: TGN memory row, JODIE embedding, TGAT feature rows).
/// Two seeded, deterministic partitioners:
///
///   * HashPartition          — splitmix64 of (node ^ seed) mod shards;
///                              balance is near-perfect, edge locality is
///                              whatever chance provides
///   * GreedyEdgeCutPartition — LDG-style streaming greedy: nodes placed in
///                              id order on the shard holding most of their
///                              already-placed neighbors, discounted by a
///                              capacity penalty so shards stay balanced
///
/// Both are bit-deterministic in (num_nodes, num_shards, seed[, edges]) —
/// the same seed always reproduces the same assignment, which the shard
/// determinism suite asserts. EdgeCut counts the interactions whose
/// endpoints land on different shards: the direct predictor of the
/// alltoall exchange volume the serving bench measures.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dgnn::shard {

/// Which partitioner produced an assignment.
enum class PartitionerKind {
    kHash,
    kGreedy,
};

const char* ToString(PartitionerKind kind);

/// Immutable node -> shard assignment. Every node id in [0, NumNodes())
/// belongs to exactly one shard in [0, NumShards()).
class PartitionBook {
  public:
    /// @p assignment[i] is the owning shard of node i; every entry must lie
    /// in [0, num_shards).
    PartitionBook(int32_t num_shards, std::vector<int32_t> assignment);

    int32_t NumShards() const { return num_shards_; }
    int64_t NumNodes() const
    {
        return static_cast<int64_t>(assignment_.size());
    }

    /// Owning shard of @p node. Nodes outside the book (negative ids from
    /// node-blind generators, or ids past the dataset) fold deterministically
    /// onto a shard so routing never dead-ends.
    [[nodiscard]] int32_t ShardOf(int64_t node) const
    {
        if (node >= 0 && node < NumNodes()) {
            return assignment_[static_cast<size_t>(node)];
        }
        // Out-of-book fold: deterministic, id-only (no seed is stored), so
        // node-blind requests (src = -1) and past-the-dataset ids still
        // route.
        const int64_t shards = num_shards_;
        return static_cast<int32_t>(((node % shards) + shards) % shards);
    }

    /// Whether the interaction (@p u, @p v) crosses shards: the one
    /// definition of a cut edge, shared by EdgeCut and the cluster's
    /// routing pass.
    [[nodiscard]] bool Cuts(int64_t u, int64_t v) const
    {
        return ShardOf(u) != ShardOf(v);
    }

    /// Nodes owned by each shard, indexed by shard id.
    [[nodiscard]] std::vector<int64_t> ShardSizes() const;

    /// Largest shard relative to the ideal NumNodes()/NumShards() size.
    /// 1.0 = perfectly balanced; 2.0 = the worst shard carries twice its
    /// fair share (and its cache is half as effective per node).
    [[nodiscard]] double BalanceFactor() const;

    bool operator==(const PartitionBook& other) const
    {
        return num_shards_ == other.num_shards_ &&
               assignment_ == other.assignment_;
    }

  private:
    int32_t num_shards_;
    std::vector<int32_t> assignment_;
};

/// Seeded hash assignment: splitmix64(node ^ seed) mod shards.
[[nodiscard]] PartitionBook HashPartition(int64_t num_nodes, int32_t num_shards,
                            uint64_t seed);

/// LDG-style streaming greedy edge-cut minimizer. Nodes are placed in id
/// order; each goes to the shard maximizing
///   |already-placed neighbors on shard| * (1 - size/capacity)
/// with capacity = ceil(num_nodes/num_shards) * 1.1 slack. Ties (including
/// the no-placed-neighbor case, where every score is 0) fall back to the
/// node's HashPartition shard, unless that shard is full — then the lowest
/// non-full shard. Placed neighbors are counted with multiplicity over the
/// in-book, non-self edges; in id order they are exactly the lower-id
/// neighbors. Deterministic in all arguments.
[[nodiscard]] PartitionBook GreedyEdgeCutPartition(
    int64_t num_nodes, int32_t num_shards,
    const std::vector<std::pair<int64_t, int64_t>>& edges, uint64_t seed);

/// Interactions in @p edges whose endpoints live on different shards.
/// Self-loops and out-of-book endpoints count through ShardOf like any
/// other node.
[[nodiscard]] int64_t EdgeCut(const PartitionBook& book,
                const std::vector<std::pair<int64_t, int64_t>>& edges);

}  // namespace dgnn::shard
