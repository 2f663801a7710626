#pragma once

/// @file
/// TGAT — Temporal Graph Attention Network (Xu et al., ICLR'20), inference
/// path as profiled by the paper (Figs 2b, 6a-b, 7e-h, 8a):
///
///   per mini-batch of events:
///     [Sampling (CPU)]   temporal neighbor sampling with bisection + sort
///     [Memory Copy]      gathered features + time deltas H2D
///     [Time Encoding]    Bochner harmonic encoding of relative times
///     [Attention Layer]  feature projection + per-target attention + merge
///     [Cuda Synchronization] tail sync
///     [Memory Copy]      embeddings D2H
///
/// The CPU-side sampling is the dominant cost (workload-imbalance
/// bottleneck); attention work grows with the sampled-neighbor count, which
/// drives the GPU-utilization trend of Fig 6(a).
///
/// The host numerics embed a whole batch at once (ComputeEmbeddings) over
/// the neighborhoods the charged sampling returned, so the checksum covers
/// exactly what the cost model priced. They project each distinct node
/// once, then run one attention call and one merge GEMM per layer,
/// bottom-up. Each query's empty slots share one key/value row. The result
/// is bit-identical to embedding one target at a time.

#include <memory>
#include <span>
#include <vector>

#include "data/temporal_interactions.hpp"
#include "models/dgnn_model.hpp"

namespace dgnn::models {

/// TGAT hyper-parameters.
struct TgatConfig {
    int64_t embed_dim = 64;
    int64_t num_heads = 2;
    int64_t num_layers = 1;          ///< attention hops: 1 or 2
    int64_t second_hop_neighbors = 10;  ///< neighbors per node at layer >= 2
    uint64_t seed = 7;

    /// Paper section 5.1.1: overlap the CPU-side neighborhood sampling of
    /// the *next* mini-batch with the GPU compute of the current one. The
    /// sampling order (and therefore every numeric result) is unchanged;
    /// only the host stops stalling on the device between batches.
    bool overlap_sampling = false;
};

/// TGAT model bound to one interaction dataset.
class Tgat : public DgnnModel {
  public:
    Tgat(const data::InteractionDataset& dataset, TgatConfig config);

    std::string Name() const override { return "TGAT"; }

    RunResult RunInference(sim::Runtime& runtime, const RunConfig& config) override;

    /// Pure host-math embeddings of @p nodes at @p times through every
    /// attention layer: [nodes.size(), embed_dim], one row per target.
    /// @p hoods holds each target's sampled neighborhood; with two layers
    /// @p inner_hoods holds one per filled slot of @p hoods, in order (one
    /// layer: none). Throws a dgnn::Error if the counts disagree.
    Tensor ComputeEmbeddings(std::span<const int64_t> nodes,
                             std::span<const double> times,
                             std::span<const graph::SampledNeighborhood> hoods,
                             std::span<const graph::SampledNeighborhood> inner_hoods) const;

    int64_t WeightBytes() const;

    /// One node-feature row: what the shard exchange moves for a
    /// remote-owned node. The rows are read-only and the table stays
    /// resident, so the device cache never holds them.
    int64_t CacheRowBytes() const override
    {
        return dataset_.spec.edge_feature_dim * 4;
    }

  private:
    const data::InteractionDataset& dataset_;
    TgatConfig config_;
    graph::TemporalAdjacency adjacency_;
    std::unique_ptr<nn::Linear> feature_proj_;
    std::unique_ptr<nn::BochnerTimeEncoder> time_encoder_;
    std::vector<std::unique_ptr<nn::MultiHeadAttention>> attention_layers_;
    std::vector<std::unique_ptr<nn::Linear>> merge_layers_;
};

}  // namespace dgnn::models
