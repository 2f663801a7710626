#include "models/astgnn.hpp"

#include <algorithm>

#include "models/evolvegcn.hpp"  // ToNormalizedCsr
#include "tensor/ops.hpp"

namespace dgnn::models {

Astgnn::Astgnn(const data::TrafficDataset& dataset, AstgnnConfig config)
    : dataset_(dataset), config_(config), road_csr_(ToNormalizedCsr(dataset.road_graph))
{
    Rng rng(config_.seed);
    input_proj_ =
        std::make_unique<nn::Linear>(dataset_.spec.channels, config_.model_dim, rng);
    temporal_attention_ = std::make_unique<nn::MultiHeadAttention>(
        config_.model_dim, config_.num_heads, rng);
    spatial_gcn_ = std::make_unique<nn::GcnLayer>(config_.model_dim,
                                                  config_.model_dim, rng);
    output_proj_ =
        std::make_unique<nn::Linear>(config_.model_dim, dataset_.spec.channels, rng);
}

int64_t
Astgnn::WeightBytes() const
{
    return input_proj_->ParameterBytes() + temporal_attention_->ParameterBytes() +
           spatial_gcn_->ParameterBytes() + output_proj_->ParameterBytes();
}

void
Astgnn::TemporalAttentionPhase(sim::Runtime& runtime, int64_t batch, int64_t steps,
                               int64_t numeric_cap, const Tensor& window,
                               Checksum& checksum)
{
    sim::CategoryScope scope(runtime, "Temporal Attention");
    const int64_t sensors = dataset_.spec.num_sensors;
    const int64_t channels = dataset_.spec.channels;
    const int64_t d = config_.model_dim;

    // One batched kernel: every (window, sensor) pair runs self-attention
    // over its `steps` history positions.
    sim::KernelDesc attn;
    attn.name = "temporal_attention";
    attn.flops =
        batch * sensors * temporal_attention_->ForwardFlops(steps, steps);
    attn.bytes = batch * sensors * steps * d * 4 * 4;
    attn.parallel_items = batch * sensors * steps * d;
    runtime.Launch(attn);
    (void)runtime.Synchronize();

    // Numeric path: real attention over real sensor histories, capped.
    const int64_t cap = numeric_cap > 0 ? std::min(numeric_cap, sensors)
                                        : std::min<int64_t>(4, sensors);
    const int64_t rows = std::min<int64_t>(steps, window.Dim(0));
    for (int64_t s = 0; s < std::min<int64_t>(cap, 4); ++s) {
        // [steps, channels] history of sensor s from the real signal.
        Tensor x(Shape({rows, channels}));
        for (int64_t t = 0; t < rows; ++t) {
            for (int64_t c = 0; c < channels; ++c) {
                x.At(t, c) = window.At(t, s * channels + c);
            }
        }
        const Tensor projected = input_proj_->Forward(x);
        const Tensor y = temporal_attention_->SelfAttention(projected);
        checksum.Add(y.RowSlice(0, 1));
    }
}

void
Astgnn::SpatialGcnPhase(sim::Runtime& runtime, int64_t batch, int64_t steps,
                        int64_t numeric_cap, Checksum& checksum)
{
    sim::CategoryScope scope(runtime, "Spatial-attention GCN");
    const int64_t d = config_.model_dim;
    const int64_t cap = Capped(steps, numeric_cap);

    // Cost: one fused aggregate+transform kernel over all (window, step)
    // pairs. The road graph is static and preprocessed, so accesses are
    // coalesced (no irregular derating).
    sim::KernelDesc gcn;
    gcn.name = "spatial_gcn";
    gcn.flops = batch * steps *
                (2 * road_csr_.Nnz() * d + ops::MatMulFlops(road_csr_.n, d, d));
    gcn.bytes = batch * steps *
                (road_csr_.Nnz() * 12 + 2 * road_csr_.n * d * 4);
    gcn.parallel_items = batch * steps * road_csr_.n * d;
    runtime.Launch(gcn);
    (void)runtime.Synchronize();

    // Numeric path: real spatial convolution over the per-sensor means of
    // the real signal, for one capped step.
    for (int64_t i = 0; i < std::min<int64_t>(cap, 1); ++i) {
        Tensor h(Shape({road_csr_.n, d}));
        for (int64_t sn = 0; sn < road_csr_.n; ++sn) {
            const float base = dataset_.signal.At(
                std::min<int64_t>(i, dataset_.spec.num_timesteps - 1),
                sn * dataset_.spec.channels);
            for (int64_t j = 0; j < d; ++j) {
                h.At(sn, j) = base * (1.0f + 0.01f * static_cast<float>(j));
            }
        }
        const Tensor y = spatial_gcn_->Forward(road_csr_, h);
        checksum.Add(y.RowSlice(0, 1));
    }
}

RunResult
Astgnn::RunInference(sim::Runtime& runtime, const RunConfig& run)
{
    ValidateRunConfig(runtime, run);
    const int64_t sensors = dataset_.spec.num_sensors;
    const int64_t hist = dataset_.spec.history_len;
    const int64_t horizon = dataset_.spec.horizon;
    const int64_t d = config_.model_dim;

    const RunWarmup warmup = WarmUp(runtime, run, WeightBytes(),
                                    run.batch_size * sensors * (hist + horizon) * d * 4);

    sim::DeviceBuffer weights = runtime.AllocDevice(WeightBytes(), "astgnn_weights");
    sim::DeviceBuffer graph_buf = runtime.AllocDevice(
        dataset_.road_graph.TopologyBytes(), "astgnn_road_graph");

    runtime.ResetMeasurementWindow();

    const int64_t samples = Capped(dataset_.NumSamples(), run.max_events);
    const int64_t bs = run.batch_size;
    Checksum checksum;
    int64_t iterations = 0;

    for (int64_t begin = 0; begin < samples; begin += bs) {
        const int64_t end = std::min(begin + bs, samples);
        const int64_t nb = end - begin;
        const int64_t window_bytes =
            sensors * dataset_.spec.channels * (hist + horizon) * 4;

        // --- Etc: CPU-side window gather (data loading).
        {
            sim::CategoryScope scope(runtime, "Etc(data loading, cuda sync)");
            ChargeBatchOverhead(runtime);
            sim::KernelDesc load;
            load.name = "window_gather";
            load.flops = 0;
            load.bytes = 2 * nb * window_bytes;
            load.parallel_items = 1;
            runtime.RunHost(load);
        }

        // --- Memory Copy: windows H2D.
        sim::DeviceBuffer act = runtime.AllocDevice(
            nb * sensors * (hist + horizon) * d * 4, "astgnn_batch");
        {
            sim::CategoryScope scope(runtime, "Memory Copy");
            runtime.CopyToDevice(nb * window_bytes, "windows_h2d");
        }

        // --- Position Encoding.
        {
            sim::CategoryScope scope(runtime, "Position Encoding");
            sim::KernelDesc pe;
            pe.name = "position_encoding";
            pe.flops = nb * sensors * hist * d * 3;
            pe.bytes = nb * sensors * hist * d * 4 * 2;
            pe.parallel_items = nb * sensors * hist * d;
            runtime.Launch(pe);
        }

        // --- Encoder.
        runtime.Marker("encoder_begin");
        const Tensor window = dataset_.Window(begin, hist);
        for (int64_t l = 0; l < config_.encoder_layers; ++l) {
            TemporalAttentionPhase(runtime, nb, hist, run.numeric_cap, window, checksum);
            SpatialGcnPhase(runtime, nb, hist, run.numeric_cap, checksum);
        }
        (void)runtime.Synchronize();
        runtime.Marker("encoder_end");

        // --- Decoder.
        runtime.Marker("decoder_begin");
        for (int64_t l = 0; l < config_.decoder_layers; ++l) {
            TemporalAttentionPhase(runtime, nb, horizon, run.numeric_cap, window,
                                   checksum);
            TemporalAttentionPhase(runtime, nb, horizon, run.numeric_cap, window,
                                   checksum);
            SpatialGcnPhase(runtime, nb, horizon, run.numeric_cap, checksum);
        }
        runtime.Marker("decoder_end");

        // --- Etc: end-of-iteration CUDA synchronization.
        {
            sim::CategoryScope scope(runtime, "Etc(data loading, cuda sync)");
            (void)runtime.Synchronize();
        }

        // --- Memory Copy: predictions D2H.
        {
            sim::CategoryScope scope(runtime, "Memory Copy");
            runtime.CopyToHost(nb * sensors * dataset_.spec.channels * horizon * 4,
                               "predictions_d2h");
        }
        ++iterations;
    }

    return CollectRunStats(runtime, Name(), dataset_.spec.name, iterations, warmup,
                           checksum);
}

}  // namespace dgnn::models
