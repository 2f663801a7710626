#include "models/evolvegcn.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tensor/ops.hpp"

namespace dgnn::models {

namespace {

/// h' = cell(x, h) on the host, launched as one device kernel.
Tensor
GruStep(sim::Runtime& runtime, const nn::GruCell& cell, const Tensor& x,
        const Tensor& h)
{
    Tensor y = cell.Forward(x, h);
    sim::KernelDesc k;
    k.name = "gru_cell";
    k.flops = cell.ForwardFlops(x.Dim(0));
    k.bytes = x.NumBytes() + h.NumBytes() + y.NumBytes() + cell.ParameterBytes();
    k.parallel_items = x.Dim(0) * cell.HiddenSize();
    runtime.Launch(k);
    return y;
}

/// One GCN layer with evolved weights on the host, launched as the
/// irregular SpMM aggregation kernel plus the dense transform kernel.
Tensor
GcnStep(sim::Runtime& runtime, const nn::GcnLayer& layer,
        const nn::SparseMatrix& a_hat, const Tensor& h, const Tensor& weight)
{
    Tensor y = layer.ForwardWithWeight(a_hat, h, weight);
    // The aggregated intermediate A_hat · h is [n, h.Dim(1)].
    const int64_t aggregated_bytes =
        a_hat.n * h.Dim(1) * static_cast<int64_t>(sizeof(float));
    sim::KernelDesc spmm;
    spmm.name = "spmm";
    spmm.flops = 2 * a_hat.Nnz() * h.Dim(1);
    spmm.bytes = h.NumBytes() + aggregated_bytes +
                 a_hat.Nnz() * static_cast<int64_t>(sizeof(int64_t) + sizeof(float));
    spmm.parallel_items = a_hat.n * h.Dim(1);
    spmm.irregular = true;
    runtime.Launch(spmm);
    sim::KernelDesc transform;
    transform.name = "gcn_transform";
    transform.flops = ops::MatMulFlops(a_hat.n, weight.Dim(1), weight.Dim(0));
    transform.bytes = aggregated_bytes + y.NumBytes() + weight.NumBytes();
    transform.parallel_items = a_hat.n * weight.Dim(0);
    runtime.Launch(transform);
    return y;
}

}  // namespace

const char*
ToString(EvolveGcnVariant variant)
{
    switch (variant) {
      case EvolveGcnVariant::kO:
        return "EvolveGCN-O";
      case EvolveGcnVariant::kH:
        return "EvolveGCN-H";
    }
    return "?";
}

nn::SparseMatrix
ToNormalizedCsr(const graph::GraphSnapshot& snapshot)
{
    nn::SparseMatrix m;
    m.n = snapshot.NumNodes();
    m.row_offsets = snapshot.RowOffsets();
    m.col_indices = snapshot.ColIndices();
    m.values.assign(snapshot.Values().begin(), snapshot.Values().end());
    // Use |w| for normalization so signed (Bitcoin) graphs stay stable.
    for (float& v : m.values) {
        v = std::fabs(v);
    }
    nn::RowNormalize(m);
    return m;
}

EvolveGcn::EvolveGcn(const data::SnapshotDataset& dataset, EvolveGcnConfig config)
    : dataset_(dataset), config_(config)
{
    Rng rng(config_.seed);
    const int64_t f = dataset_.spec.node_feature_dim;
    const int64_t h = config_.hidden_dim;
    layer_in_ = {f, h};
    layer_out_ = {h, h};
    for (size_t l = 0; l < layer_in_.size(); ++l) {
        weights_.push_back(init::XavierUniform(layer_out_[l], layer_in_[l], rng));
        // The GRU evolves weight rows: input and hidden width = in_features.
        weight_rnn_.push_back(
            std::make_unique<nn::GruCell>(layer_in_[l], layer_in_[l], rng));
        gcn_layers_.push_back(std::make_unique<nn::GcnLayer>(
            layer_in_[l], layer_out_[l], rng));
        topk_scorer_.push_back(
            init::Uniform(Shape({layer_in_[l]}), rng, -1.0f, 1.0f));
    }
}

std::string
EvolveGcn::Name() const
{
    return ToString(config_.variant);
}

int64_t
EvolveGcn::WeightBytes() const
{
    int64_t bytes = 0;
    for (size_t l = 0; l < weights_.size(); ++l) {
        bytes += weights_[l].NumBytes();
        bytes += weight_rnn_[l]->ParameterBytes();
        bytes += gcn_layers_[l]->ParameterBytes();
        bytes += topk_scorer_[l].NumBytes();
    }
    return bytes;
}

const Tensor&
EvolveGcn::LayerWeight(int64_t layer) const
{
    DGNN_CHECK(layer >= 0 && layer < static_cast<int64_t>(weights_.size()),
               "layer ", layer, " out of range");
    return weights_[static_cast<size_t>(layer)];
}

void
EvolveGcn::EvolveWeights(sim::Runtime& runtime, const Tensor& node_embeddings)
{
    for (size_t l = 0; l < weights_.size(); ++l) {
        Tensor rnn_input;
        if (config_.variant == EvolveGcnVariant::kH) {
            // [top-k]: score nodes, pick out_l rows to drive the GRU. The
            // paper singles this phase out as a sampling-style overhead.
            sim::CategoryScope scope(runtime, "top-k");
            const Tensor& x = l == 0 ? node_embeddings : node_embeddings;
            const int64_t n = x.Dim(0);
            const int64_t k = layer_out_[l];
            std::vector<float> scores(static_cast<size_t>(n));
            for (int64_t i = 0; i < n; ++i) {
                double s = 0.0;
                const int64_t w = std::min<int64_t>(x.Dim(1), layer_in_[l]);
                for (int64_t j = 0; j < w; ++j) {
                    s += x.At(i, j) * topk_scorer_[l].At(j);
                }
                scores[static_cast<size_t>(i)] = static_cast<float>(s);
            }
            std::vector<int64_t> order(static_cast<size_t>(n));
            std::iota(order.begin(), order.end(), 0);
            std::partial_sort(order.begin(),
                              order.begin() + std::min<int64_t>(k, n), order.end(),
                              [&](int64_t a, int64_t b) {
                                  return scores[static_cast<size_t>(a)] >
                                         scores[static_cast<size_t>(b)];
                              });
            rnn_input = Tensor(Shape({layer_out_[l], layer_in_[l]}));
            for (int64_t r = 0; r < std::min<int64_t>(k, n); ++r) {
                const int64_t src = order[static_cast<size_t>(r)];
                const int64_t w = std::min<int64_t>(x.Dim(1), layer_in_[l]);
                for (int64_t j = 0; j < w; ++j) {
                    rnn_input.At(r, j) = x.At(src, j);
                }
            }
            // Host-side scoring + partial sort cost.
            sim::KernelDesc topk;
            topk.name = "topk_select";
            topk.flops = 2 * n * layer_in_[l];
            topk.bytes = n * (layer_in_[l] * 4 + 64);
            topk.parallel_items = 1;
            topk.irregular = true;
            runtime.RunHost(topk);
            // Gather kernel for the selected rows.
            sim::KernelDesc gather;
            gather.name = "topk_gather";
            gather.flops = 0;
            gather.bytes = 2 * k * layer_in_[l] * 4;
            gather.parallel_items = k;
            gather.irregular = true;
            runtime.Launch(gather);
        } else {
            rnn_input = weights_[l];
        }

        {
            sim::CategoryScope scope(runtime, "RNN");
            // GRU expects matching row counts: -O uses the weight itself,
            // -H uses the top-k rows (shaped [out_l, in_l] above).
            weights_[l] = GruStep(runtime, *weight_rnn_[l], rnn_input, weights_[l]);
            // GCN needs the fresh weights (Fig 2a). The in-order compute
            // stream already enforces the data dependency; the baseline
            // additionally stalls the host here (eager-mode behaviour),
            // while the pipelined variant (Fig 10) lets the host run ahead.
            if (!config_.pipelined) {
                (void)runtime.Synchronize();
            }
        }
    }
}

RunResult
EvolveGcn::RunInference(sim::Runtime& runtime, const RunConfig& run)
{
    ValidateRunConfig(runtime, run);
    const RunWarmup warmup =
        WarmUp(runtime, run, WeightBytes(),
               dataset_.node_features.NumBytes() +
                   dataset_.sequence.Step(0).TopologyBytes());

    sim::DeviceBuffer weight_buf =
        runtime.AllocDevice(WeightBytes(), "evolvegcn_weights");

    runtime.ResetMeasurementWindow();

    const int64_t steps = Capped(dataset_.sequence.NumSteps(), run.max_events);
    Checksum checksum;

    for (int64_t t = 0; t < steps; ++t) {
        const graph::GraphSnapshot& snap = dataset_.sequence.Step(t);

        // --- Memory Copy: baseline reloads the full snapshot every step;
        // delta transfer (paper 5.2.2) sends only the edges that changed
        // relative to the previous snapshot, and the node features once.
        sim::DeviceBuffer snap_buf = runtime.AllocDevice(
            snap.TopologyBytes() + dataset_.node_features.NumBytes(),
            "evolvegcn_snapshot");
        {
            sim::CategoryScope scope(runtime, "Memory Copy");
            ChargeBatchOverhead(runtime);
            int64_t copy_bytes =
                snap.TopologyBytes() + dataset_.node_features.NumBytes();
            if (config_.delta_transfer) {
                if (t == 0) {
                    // First step: everything moves once.
                } else {
                    const graph::GraphSnapshot& prev =
                        dataset_.sequence.Step(t - 1);
                    const int64_t common = snap.CommonEdges(prev);
                    const double changed_frac =
                        snap.NumEdges() > 0
                            ? 1.0 - static_cast<double>(common) /
                                        static_cast<double>(snap.NumEdges())
                            : 0.0;
                    copy_bytes = static_cast<int64_t>(
                        static_cast<double>(snap.TopologyBytes()) * changed_frac);
                }
            }
            runtime.CopyToDevice(copy_bytes, "snapshot_h2d");
        }

        // --- RNN (+ top-k for -H): evolve the GCN weights.
        EvolveWeights(runtime, dataset_.node_features);

        // --- GNN: two GCN layers with the evolved weights.
        Tensor h = dataset_.node_features;
        {
            sim::CategoryScope scope(runtime, "GNN");
            const nn::SparseMatrix a_hat = ToNormalizedCsr(snap);
            for (size_t l = 0; l < gcn_layers_.size(); ++l) {
                h = GcnStep(runtime, *gcn_layers_[l], a_hat, h, weights_[l]);
            }
            if (!config_.pipelined) {
                (void)runtime.Synchronize();
            }
        }
        checksum.Add(h.RowSlice(0, std::min<int64_t>(4, h.Dim(0))));

        // --- Memory Copy: step outputs D2H.
        {
            sim::CategoryScope scope(runtime, "Memory Copy");
            runtime.CopyToHost(h.NumBytes(), "embeddings_d2h");
        }
    }

    return CollectRunStats(runtime, Name(), dataset_.spec.name, steps, warmup,
                           checksum);
}

}  // namespace dgnn::models
