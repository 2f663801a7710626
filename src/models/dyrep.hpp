#pragma once

/// @file
/// DyRep (Trivedi et al., ICLR'19), inference path as profiled by the paper
/// (Figs 4a, 8c):
///
///   per event (strictly sequential — each conditional-intensity evaluation
///   needs the most recent embeddings):
///     [Temporal Attention]     attention over the endpoints' neighborhoods
///     [Node Embedding Update]  RNN combining localized embedding,
///                              self-propagation and exogenous drive
///     [Conditional Intensity]  softplus(w·[z_u || z_v]) decoder
///
/// Kernels are tiny and serialized, so GPU inference is *slower* than CPU
/// at every batch size (Fig 8c: 0.5x - 0.78x) — launch overhead dominates.

#include <memory>
#include <vector>

#include "data/social_evolution_gen.hpp"
#include "models/dgnn_model.hpp"
#include "nn/embedding.hpp"

namespace dgnn::models {

/// DyRep hyper-parameters.
struct DyRepConfig {
    int64_t embed_dim = 32;
    int64_t attention_neighbors = 5;
    uint64_t seed = 29;
};

/// DyRep model bound to one point-process dataset.
class DyRep : public DgnnModel {
  public:
    DyRep(const data::PointProcessDataset& dataset, DyRepConfig config);

    std::string Name() const override { return "DyRep"; }

    RunResult RunInference(sim::Runtime& runtime, const RunConfig& config) override;

    int64_t WeightBytes() const;

    /// Conditional intensity for a node pair (pure host math, for tests).
    double Intensity(int64_t u, int64_t v) const;

    /// Table-1 "time prediction" task: expected waiting time until the
    /// next (u, v) event under the current conditional intensity (the
    /// mean of an exponential with rate lambda_uv).
    double ExpectedNextEventTime(int64_t u, int64_t v) const;

  private:
    const data::PointProcessDataset& dataset_;
    graph::TemporalAdjacency adjacency_;
    std::unique_ptr<nn::Embedding> embeddings_;
    std::unique_ptr<nn::MultiHeadAttention> attention_;
    std::unique_ptr<nn::RnnCell> update_rnn_;
    std::unique_ptr<nn::Linear> intensity_head_;
    Tensor exogenous_;  ///< [embed_dim] drive vector
    DyRepConfig config_;
};

/// Attended neighborhoods of one event's two endpoints.
struct EndpointAttention {
    Tensor src;
    Tensor dst;
};

/// DyRep's per-endpoint attention step, which LDG shares: for each of
/// @p event's endpoints, samples its @p k most recent neighbors and
/// launches one single-head attention kernel named @p kernel; with
/// @p numeric set, also attends both endpoints' embeddings over their
/// neighbors' rows on the host, in one attention call (the result stays
/// empty otherwise).
EndpointAttention AttendEndpoints(sim::Runtime& runtime,
                                  graph::TemporalNeighborSampler& sampler,
                                  const nn::MultiHeadAttention& attention,
                                  const nn::Embedding& embeddings,
                                  const graph::TemporalEvent& event, int64_t k,
                                  const std::string& kernel, bool numeric);

}  // namespace dgnn::models
