#pragma once

/// @file
/// JODIE (Kumar et al., KDD'19), inference path as profiled by the paper
/// (Figs 3a, 5a, 7d):
///
///   per outer chunk of events:
///     [Load Embedding]            t-batch creation on CPU + embeddings H2D
///     per t-batch (sequential — mutually-recursive RNNs):
///       [Project User Embedding]  u(t+Δ) = (1 + Δt·w) ⊙ u
///       [Predict Item Embedding]  linear prediction of the next item
///       [Update Embedding]        user RNN + item RNN updates
///     [Update Embedding]          updated embeddings D2H
///
/// The RNN chain across t-batches is the temporal-dependency bottleneck
/// (GPU utilization ~1.5-2.5 % even with t-batching).

#include <memory>
#include <vector>

#include "data/temporal_interactions.hpp"
#include "models/dgnn_model.hpp"
#include "nn/embedding.hpp"

namespace dgnn::models {

/// JODIE hyper-parameters.
struct JodieConfig {
    int64_t embed_dim = 64;
    uint64_t seed = 13;

    /// The t-batch algorithm of the JODIE paper (reported 9.2x training
    /// speedup). Disable to process every interaction individually — the
    /// ablation bench quantifies what t-batching buys at inference time.
    bool use_tbatch = true;
};

/// JODIE model bound to one interaction dataset.
class Jodie : public DgnnModel {
  public:
    Jodie(const data::InteractionDataset& dataset, JodieConfig config);

    std::string Name() const override { return "JODIE"; }

    RunResult RunInference(sim::Runtime& runtime, const RunConfig& config) override;

    int64_t WeightBytes() const;

    /// The project_user kernel over @p rows rows of @p embed_dim floats:
    /// u' = (1 + dt * w) * u reads and writes each row. Its d-float
    /// projection vector is not charged.
    static sim::KernelDesc ProjectUserCost(int64_t rows, int64_t embed_dim);

    /// One user/item embedding row (keyed by global node id). Rows are
    /// rewritten by the RNN updates, so they carry dirty bits; the rows a
    /// chunk gathers are exactly its event endpoints.
    int64_t CacheRowBytes() const override { return config_.embed_dim * 4; }
    bool CacheRowsMutable() const override { return true; }

    const nn::Embedding& UserEmbeddings() const { return *user_embeddings_; }

  private:
    const data::InteractionDataset& dataset_;
    JodieConfig config_;
    std::unique_ptr<nn::Embedding> user_embeddings_;
    std::unique_ptr<nn::Embedding> item_embeddings_;
    std::vector<double> user_last_update_;
    std::unique_ptr<nn::RnnCell> user_rnn_;
    std::unique_ptr<nn::RnnCell> item_rnn_;
    std::unique_ptr<nn::Linear> item_predictor_;
    Tensor projection_w_;  ///< [embed_dim] time-projection weights
};

}  // namespace dgnn::models
