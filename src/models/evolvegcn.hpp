#pragma once

/// @file
/// EvolveGCN (Pareja et al., AAAI'20), -O and -H variants, inference path as
/// profiled by the paper (Figs 2a, 7i-j, 10):
///
///   per snapshot (sequential — weights evolve across time steps):
///     [Memory Copy]  snapshot CSR + node features H2D (the paper notes
///                    EvolveGCN reloads each snapshot rather than updating
///                    on-chip, so this repeats every step)
///     [RNN]          GRU evolves each GCN layer's weight matrix
///     [top-k]        (-H only) node-embedding top-k selection to match the
///                    weight matrix dimensions
///     [GNN]          two GCN layers with the evolved weights
///     [Memory Copy]  output embeddings D2H
///
/// The RNN -> GNN chain inside a step and the step -> step chain are the
/// temporal-dependency bottleneck (GPU utilization < 1 %).

#include <memory>
#include <vector>

#include "data/snapshot_seq_gen.hpp"
#include "models/dgnn_model.hpp"

namespace dgnn::models {

/// EvolveGCN variant selector.
enum class EvolveGcnVariant {
    kO,  ///< weights-only recurrence
    kH,  ///< recurrence driven by top-k node embeddings
};

const char* ToString(EvolveGcnVariant variant);

/// EvolveGCN hyper-parameters.
struct EvolveGcnConfig {
    EvolveGcnVariant variant = EvolveGcnVariant::kO;
    int64_t hidden_dim = 64;
    uint64_t seed = 17;

    /// Paper section 5.2.1 / Fig 10: pipeline RNN and GNN across adjacent
    /// time steps instead of synchronizing inside every step. Numerics are
    /// unchanged (the compute stream still orders the work); the host no
    /// longer stalls per step, overlapping CPU preprocessing with GPU work.
    bool pipelined = false;

    /// Paper section 5.2.2: exploit sliding-window snapshot overlap and
    /// transfer only the changed part of each snapshot (plus the static
    /// node features once) instead of reloading everything per step.
    bool delta_transfer = false;
};

/// EvolveGCN model bound to one snapshot-sequence dataset.
class EvolveGcn : public DgnnModel {
  public:
    EvolveGcn(const data::SnapshotDataset& dataset, EvolveGcnConfig config);

    std::string Name() const override;

    RunResult RunInference(sim::Runtime& runtime, const RunConfig& config) override;

    int64_t WeightBytes() const;

    /// Current evolved weight of layer @p layer (tests assert evolution).
    const Tensor& LayerWeight(int64_t layer) const;

  private:
    /// Evolves layer weights for one step; returns top-k host cost (H only).
    void EvolveWeights(sim::Runtime& runtime, const Tensor& node_embeddings);

    const data::SnapshotDataset& dataset_;
    EvolveGcnConfig config_;
    std::vector<int64_t> layer_in_;
    std::vector<int64_t> layer_out_;
    std::vector<Tensor> weights_;  ///< evolved [out, in] per layer
    std::vector<std::unique_ptr<nn::GruCell>> weight_rnn_;
    std::vector<std::unique_ptr<nn::GcnLayer>> gcn_layers_;
    std::vector<Tensor> topk_scorer_;  ///< -H: per-layer score vector [in]
};

/// Converts a snapshot to a row-normalized CSR for GCN aggregation.
nn::SparseMatrix ToNormalizedCsr(const graph::GraphSnapshot& snapshot);

}  // namespace dgnn::models
