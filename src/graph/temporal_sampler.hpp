#pragma once

/// @file
/// Temporal neighborhood sampling (TGAT/TGN style): for a target node at
/// time t, pick k neighbors among interactions strictly before t, either the
/// k most recent or uniformly at random. The sampler reports an operation
/// count (bisection probes, sort comparisons, gathered bytes) that feeds the
/// CPU cost model — this is the paper's workload-imbalance bottleneck.

#include <cstdint>
#include <vector>

#include "graph/event_stream.hpp"
#include "tensor/random.hpp"

namespace dgnn::graph {

/// Sampling strategy.
enum class SamplingStrategy {
    kMostRecent,
    kUniform,
};

/// Result of sampling one target node.
struct SampledNeighborhood {
    std::vector<int64_t> neighbors;        ///< padded with -1 when history short
    std::vector<double> times;             ///< interaction times (0 for padding)
    std::vector<int64_t> feature_indices;  ///< -1 for padding
};

/// Cost accounting of a sampling call, consumed by the CPU cost model.
struct SamplingCost {
    int64_t bisection_probes = 0;  ///< binary-search comparisons
    int64_t sort_ops = 0;          ///< comparisons in candidate sorting
    int64_t gathered_bytes = 0;    ///< bytes touched via random access
    int64_t candidates_scanned = 0;
};

/// Samples temporal neighborhoods over a TemporalAdjacency.
class TemporalNeighborSampler {
  public:
    TemporalNeighborSampler(const TemporalAdjacency& adjacency,
                            SamplingStrategy strategy, uint64_t seed);

    /// Samples @p k neighbors of @p node before @p time; accumulates cost.
    SampledNeighborhood Sample(int64_t node, double time, int64_t k);

    /// Batch variant: one neighborhood per (node, time) pair.
    std::vector<SampledNeighborhood> SampleBatch(const std::vector<int64_t>& nodes,
                                                 const std::vector<double>& times,
                                                 int64_t k);

    /// Cost accumulated since the last TakeCost() call.
    SamplingCost TakeCost();

    SamplingStrategy Strategy() const { return strategy_; }

  private:
    const TemporalAdjacency& adjacency_;
    SamplingStrategy strategy_;
    Rng rng_;
    SamplingCost cost_;
};

}  // namespace dgnn::graph
