#pragma once

/// @file
/// TGN — Temporal Graph Networks (Rossi et al., 2020), inference path as
/// profiled by the paper (Figs 3b, 5b, 6c, 7a, 8b; Table 2):
///
///   per mini-batch of events:
///     [Aggregate Messages Passing]  raw messages built on CPU, batched H2D,
///                                   per-node "last" aggregation kernel
///     [Update Memory]               GRU memory update + memory row D2H/H2D
///                                   (the frequent exchange of Fig 5b)
///     [Compute Embedding]           temporal attention over sampled
///                                   neighbors using node memory, edge
///                                   probability decoder, predictions D2H
///
/// TGN's transfer volume scales with batch size, producing the decreasing
/// GPU utilization of Fig 6(c) and the message-passing-dominated breakdown
/// at 64K batch of Fig 7(a).

#include <memory>
#include <vector>

#include "data/temporal_interactions.hpp"
#include "models/dgnn_model.hpp"
#include "nn/embedding.hpp"

namespace dgnn::models {

/// TGN hyper-parameters.
struct TgnConfig {
    int64_t memory_dim = 64;
    int64_t time_dim = 64;
    int64_t num_heads = 2;
    uint64_t seed = 11;
};

/// TGN model bound to one interaction dataset.
class Tgn : public DgnnModel {
  public:
    Tgn(const data::InteractionDataset& dataset, TgnConfig config);

    std::string Name() const override { return "TGN"; }

    RunResult RunInference(sim::Runtime& runtime, const RunConfig& config) override;

    int64_t WeightBytes() const;

    /// Raw message width: [mem_src || mem_dst || time_enc || edge_feat].
    int64_t MessageDim() const;

    /// One node-memory row — the state the device cache holds. Cached rows
    /// are mutated by the GRU update, so they carry dirty bits; the rows a
    /// batch gathers are exactly its event endpoints.
    int64_t CacheRowBytes() const override { return config_.memory_dim * 4; }
    bool CacheRowsMutable() const override { return true; }

    /// Read access to the node memory (tests assert update semantics).
    const nn::Embedding& Memory() const { return *memory_; }

  private:
    const data::InteractionDataset& dataset_;
    TgnConfig config_;
    graph::TemporalAdjacency adjacency_;
    std::unique_ptr<nn::Embedding> memory_;
    std::vector<double> last_update_;
    std::unique_ptr<nn::BochnerTimeEncoder> time_encoder_;
    std::unique_ptr<nn::GruCell> memory_updater_;
    std::unique_ptr<nn::MultiHeadAttention> embedding_attention_;
    std::unique_ptr<nn::Linear> feature_proj_;
    std::unique_ptr<nn::Mlp> edge_decoder_;
};

}  // namespace dgnn::models
