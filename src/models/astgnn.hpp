#pragma once

/// @file
/// ASTGNN (Guo et al., TKDE'21), inference path as profiled by the paper
/// (Figs 3d, 7c, 9):
///
///   per batch of traffic windows:
///     [Etc(data loading, cuda sync)]  window gather on CPU + tail syncs
///     [Memory Copy]                   signal windows H2D, predictions D2H
///     [Position Encoding]             temporal position encoding
///     encoder layers:
///       [Temporal Attention]          self-attention over the history axis
///       [Spatial-attention GCN]       dynamic GCN over the sensor graph
///     decoder layers:
///       [Temporal Attention] x2       masked + cross attention
///       [Spatial-attention GCN]
///
/// Temporal attention totals > 3x the spatial GCN (paper 4.2.2); large
/// batches saturate the GPU and delay the next iteration's encoder (Fig 9).

#include <memory>
#include <vector>

#include "data/traffic_gen.hpp"
#include "models/dgnn_model.hpp"

namespace dgnn::models {

/// ASTGNN hyper-parameters.
struct AstgnnConfig {
    int64_t model_dim = 32;
    int64_t num_heads = 2;
    int64_t encoder_layers = 2;
    int64_t decoder_layers = 2;
    uint64_t seed = 23;
};

/// ASTGNN model bound to one traffic dataset.
class Astgnn : public DgnnModel {
  public:
    Astgnn(const data::TrafficDataset& dataset, AstgnnConfig config);

    std::string Name() const override { return "ASTGNN"; }

    RunResult RunInference(sim::Runtime& runtime, const RunConfig& config) override;

    int64_t WeightBytes() const;

  private:
    /// One temporal-attention block over [steps, dim] per sensor.
    void TemporalAttentionPhase(sim::Runtime& runtime, int64_t batch, int64_t steps,
                                int64_t numeric_cap, const Tensor& window,
                                Checksum& checksum);

    /// One spatial dynamic-GCN block over the sensor graph.
    void SpatialGcnPhase(sim::Runtime& runtime, int64_t batch, int64_t steps,
                         int64_t numeric_cap, Checksum& checksum);

    const data::TrafficDataset& dataset_;
    AstgnnConfig config_;
    nn::SparseMatrix road_csr_;
    std::unique_ptr<nn::Linear> input_proj_;
    std::unique_ptr<nn::MultiHeadAttention> temporal_attention_;
    std::unique_ptr<nn::GcnLayer> spatial_gcn_;
    std::unique_ptr<nn::Linear> output_proj_;
};

}  // namespace dgnn::models
