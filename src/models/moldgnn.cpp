#include "models/moldgnn.hpp"

#include <algorithm>

#include "tensor/ops.hpp"

namespace dgnn::models {

nn::SparseMatrix
DenseToNormalizedCsr(const Tensor& adjacency)
{
    DGNN_CHECK(adjacency.Rank() == 2 && adjacency.Dim(0) == adjacency.Dim(1),
               "adjacency must be square, got ", adjacency.GetShape().ToString());
    nn::SparseMatrix m;
    m.n = adjacency.Dim(0);
    m.row_offsets.assign(static_cast<size_t>(m.n) + 1, 0);
    for (int64_t i = 0; i < m.n; ++i) {
        for (int64_t j = 0; j < m.n; ++j) {
            if (adjacency.At(i, j) != 0.0f) {
                m.col_indices.push_back(j);
                m.values.push_back(adjacency.At(i, j));
            }
        }
        m.row_offsets[static_cast<size_t>(i) + 1] =
            static_cast<int64_t>(m.col_indices.size());
    }
    nn::RowNormalize(m);
    return m;
}

MolDgnn::MolDgnn(const data::MolecularDataset& dataset, MolDgnnConfig config)
    : dataset_(dataset), config_(config)
{
    Rng rng(config_.seed);
    const int64_t atoms = dataset_.spec.num_atoms;
    gcn_ = std::make_unique<nn::GcnLayer>(dataset_.spec.atom_feature_dim,
                                          config_.gcn_dim, rng);
    // LSTM consumes a flattened per-frame graph embedding.
    lstm_ = std::make_unique<nn::LstmCell>(config_.gcn_dim, config_.lstm_dim, rng);
    // FFN maps the LSTM state to a predicted adjacency matrix.
    ffn_ = std::make_unique<nn::Mlp>(
        std::vector<int64_t>{config_.lstm_dim, 2 * config_.lstm_dim, atoms * atoms},
        rng);
}

int64_t
MolDgnn::WeightBytes() const
{
    return gcn_->ParameterBytes() + lstm_->ParameterBytes() + ffn_->ParameterBytes();
}

RunResult
MolDgnn::RunInference(sim::Runtime& runtime, const RunConfig& run)
{
    ValidateRunConfig(runtime, run);
    const int64_t atoms = dataset_.spec.num_atoms;
    const int64_t frame_bytes = dataset_.FrameBytes();

    const RunWarmup warmup =
        WarmUp(runtime, run, WeightBytes(), run.batch_size * frame_bytes);

    sim::DeviceBuffer weights = runtime.AllocDevice(WeightBytes(), "moldgnn_weights");

    runtime.ResetMeasurementWindow();

    const int64_t total_frames = Capped(dataset_.NumFrames(), run.max_events);
    const int64_t bs = run.batch_size;
    Checksum checksum;
    int64_t iterations = 0;

    for (int64_t begin = 0; begin < total_frames; begin += bs) {
        const int64_t end = std::min(begin + bs, total_frames);
        const int64_t nf = end - begin;

        // --- Memory Copy: concatenate + H2D all adjacency matrices.
        sim::DeviceBuffer batch_buf =
            runtime.AllocDevice(nf * frame_bytes, "moldgnn_batch");
        {
            sim::CategoryScope scope(runtime, "Memory Copy");
            ChargeBatchOverhead(runtime);
            runtime.RunHost({.name = "concat_adjacency", .bytes = 2 * nf * frame_bytes});
            // The reference implementation moves every frame's adjacency
            // (plus its feature view) as an individual pageable copy; the
            // per-transfer latency is what makes MolDGNN movement-bound.
            for (int64_t f = 0; f < nf; ++f) {
                runtime.CopyToDevice(frame_bytes +
                                         dataset_.atom_features.NumBytes(),
                                     "adjacency_h2d");
            }
        }

        const int64_t cap = Capped(nf, run.numeric_cap);

        // --- GCN: per-frame graph convolution (batched cost, capped math).
        std::vector<Tensor> frame_embeddings;
        {
            sim::CategoryScope scope(runtime, "GCN");
            for (int64_t f = 0; f < cap; ++f) {
                const nn::SparseMatrix a = DenseToNormalizedCsr(
                    dataset_.adjacency[static_cast<size_t>(begin + f)]);
                const Tensor h = gcn_->Forward(a, dataset_.atom_features);
                frame_embeddings.push_back(
                    ops::MeanRows(h).Reshape(Shape({1, config_.gcn_dim})));
            }
            // Audit override (DESIGN.md section 2): each frame reads its
            // dense adjacency and writes the output, not the input features.
            sim::KernelDesc gcn = gcn_->FusedCost("gcn_frames", nf, atoms, atoms * 4);
            gcn.bytes = nf * (frame_bytes + atoms * config_.gcn_dim * 4);
            runtime.Launch(gcn);
            (void)runtime.Synchronize();
        }

        // --- LSTM: one fused (cuDNN-style) kernel per batch; the sequence
        // is processed step-by-step inside the kernel, so its parallelism is
        // limited to the hidden width — the temporal data dependency.
        nn::LstmState state = lstm_->InitialState(1);
        {
            sim::CategoryScope scope(runtime, "LSTM");
            for (int64_t f = 0; f < cap; ++f) {
                state = lstm_->Forward(
                    frame_embeddings[static_cast<size_t>(f)], state);
            }
            runtime.Launch(lstm_->SequenceCost("lstm_sequence", nf));
            (void)runtime.Synchronize();
        }

        // --- FFN: predict the next adjacency matrix.
        {
            sim::CategoryScope scope(runtime, "FFN");
            const Tensor pred = ffn_->Forward(state.h);
            checksum.Add(ops::Sigmoid(pred));
            runtime.Launch(ffn_->Cost("ffn_predict", nf));
            (void)runtime.Synchronize();
        }

        // --- Memory Copy: predicted (symmetric) matrices D2H (Fig 5c).
        {
            sim::CategoryScope scope(runtime, "Memory Copy");
            for (int64_t f = 0; f < nf; ++f) {
                runtime.CopyToHost(frame_bytes, "predictions_d2h");
            }
        }
        ++iterations;
    }

    return CollectRunStats(runtime, Name(), dataset_.spec.name, iterations, warmup,
                           checksum);
}

}  // namespace dgnn::models
