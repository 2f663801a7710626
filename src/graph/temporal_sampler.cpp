#include "graph/temporal_sampler.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "support/check.hpp"

namespace dgnn::graph {

TemporalNeighborSampler::TemporalNeighborSampler(const TemporalAdjacency& adjacency,
                                                 SamplingStrategy strategy,
                                                 uint64_t seed)
    : adjacency_(adjacency), strategy_(strategy), rng_(seed)
{
}

SampledNeighborhood
TemporalNeighborSampler::Sample(int64_t node, double time, int64_t k)
{
    DGNN_CHECK(k > 0, "sample size must be positive, got ", k);
    const auto history = adjacency_.History(node);
    const int64_t valid = adjacency_.CountBefore(node, time);

    // Bisection over the node's time-sorted history.
    cost_.bisection_probes +=
        valid > 0 ? static_cast<int64_t>(std::ceil(std::log2(
                        static_cast<double>(history.size()) + 1.0))) + 1
                  : 1;

    SampledNeighborhood out;
    out.neighbors.assign(static_cast<size_t>(k), -1);
    out.times.assign(static_cast<size_t>(k), 0.0);
    out.feature_indices.assign(static_cast<size_t>(k), -1);

    if (valid == 0) {
        return out;
    }

    std::vector<int64_t> picked;
    picked.reserve(static_cast<size_t>(k));
    if (strategy_ == SamplingStrategy::kMostRecent) {
        const int64_t take = std::min<int64_t>(k, valid);
        for (int64_t i = 0; i < take; ++i) {
            picked.push_back(valid - take + i);
        }
        cost_.candidates_scanned += take;
    } else {
        // Uniform over [0, valid) WITHOUT replacement (Floyd's algorithm:
        // `take` distinct positions, one RNG draw per position — the same
        // stream consumption as the old with-replacement draw, but no
        // duplicate neighbors when the history has enough distinct
        // entries); then sort indices so the neighborhood stays
        // time-ordered (the index sort the paper mentions).
        const int64_t take = std::min<int64_t>(k, valid);
        std::unordered_set<int64_t> chosen;
        chosen.reserve(static_cast<size_t>(take));
        for (int64_t i = valid - take; i < valid; ++i) {
            const int64_t j = rng_.UniformInt(0, i);
            const int64_t pick = chosen.insert(j).second ? j : i;
            if (pick != j) {
                chosen.insert(pick);
            }
            picked.push_back(pick);
        }
        std::sort(picked.begin(), picked.end());
        cost_.sort_ops += static_cast<int64_t>(
            static_cast<double>(take) *
            std::max(1.0, std::log2(static_cast<double>(take) + 1.0)));
        cost_.candidates_scanned += take;
    }

    for (size_t i = 0; i < picked.size(); ++i) {
        const auto& entry = history[static_cast<size_t>(picked[i])];
        // Fill from the back so padding sits at the front (TGAT convention).
        const size_t slot = static_cast<size_t>(k) - picked.size() + i;
        out.neighbors[slot] = entry.neighbor;
        out.times[slot] = entry.time;
        out.feature_indices[slot] = entry.feature_index;
        // Each gathered entry is a random access into the history arrays.
        cost_.gathered_bytes += static_cast<int64_t>(sizeof(TemporalAdjacency::Entry));
    }
    return out;
}

std::vector<SampledNeighborhood>
TemporalNeighborSampler::SampleBatch(const std::vector<int64_t>& nodes,
                                     const std::vector<double>& times, int64_t k)
{
    DGNN_CHECK(nodes.size() == times.size(), "nodes/times size mismatch: ",
               nodes.size(), " vs ", times.size());
    std::vector<SampledNeighborhood> result;
    result.reserve(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
        result.push_back(Sample(nodes[i], times[i], k));
    }
    return result;
}

SamplingCost
TemporalNeighborSampler::TakeCost()
{
    SamplingCost c = cost_;
    cost_ = SamplingCost{};
    return c;
}

}  // namespace dgnn::graph
