#include "models/ldg.hpp"

#include <algorithm>
#include <cmath>

#include "models/dyrep.hpp"
#include "tensor/ops.hpp"

namespace dgnn::models {

const char*
ToString(LdgEncoder encoder)
{
    switch (encoder) {
      case LdgEncoder::kMlp:
        return "LDG-MLP";
      case LdgEncoder::kBilinear:
        return "LDG-bilinear";
    }
    return "?";
}

Ldg::Ldg(const data::PointProcessDataset& dataset, LdgConfig config)
    : dataset_(dataset), config_(config), adjacency_(dataset.stream)
{
    Rng rng(config_.seed);
    const int64_t d = config_.embed_dim;
    embeddings_ = std::make_unique<nn::Embedding>(dataset_.spec.num_actors, d, rng);
    nri_encoder_ = std::make_unique<nn::Mlp>(
        std::vector<int64_t>{2 * d, 2 * config_.latent_edge_dim,
                             config_.latent_edge_dim},
        rng);
    attention_ = std::make_unique<nn::MultiHeadAttention>(d, 1, rng);
    update_rnn_ = std::make_unique<nn::RnnCell>(2 * d, d, rng);
    bilinear_w_ = init::XavierUniform(d, d, rng);
}

std::string
Ldg::Name() const
{
    return ToString(config_.encoder);
}

int64_t
Ldg::WeightBytes() const
{
    int64_t bytes = attention_->ParameterBytes() + update_rnn_->ParameterBytes() +
                    bilinear_w_.NumBytes();
    if (config_.encoder == LdgEncoder::kMlp) {
        bytes += nri_encoder_->ParameterBytes();
    }
    return bytes;
}

double
Ldg::PairScore(int64_t u, int64_t v) const
{
    const int64_t d = config_.embed_dim;
    const Tensor zu = embeddings_->Row(u).Reshape(Shape({1, d}));
    const Tensor zv = embeddings_->Row(v).Reshape(Shape({1, d}));
    const Tensor wzv = ops::MatMul(bilinear_w_, ops::Transpose(zv));
    return ops::MatMul(zu, wzv).At(0);
}

RunResult
Ldg::RunInference(sim::Runtime& runtime, const RunConfig& run)
{
    ValidateRunConfig(runtime, run);
    const int64_t d = config_.embed_dim;
    const int64_t k = config_.attention_neighbors;

    const RunWarmup warmup =
        WarmUp(runtime, run, WeightBytes(), dataset_.spec.num_actors * d * 4);

    sim::DeviceBuffer weights = runtime.AllocDevice(WeightBytes(), "ldg_weights");
    sim::DeviceBuffer emb_buf = runtime.AllocDevice(
        embeddings_->Count() * embeddings_->Dim() * 4, "ldg_embeddings");

    runtime.ResetMeasurementWindow();

    graph::TemporalNeighborSampler sampler(
        adjacency_, graph::SamplingStrategy::kMostRecent, config_.seed + 1);

    const int64_t total_events = Capped(dataset_.stream.NumEvents(), run.max_events);
    Checksum checksum;

    for (int64_t i = 0; i < total_events; ++i) {
        const graph::TemporalEvent& e = dataset_.stream.Event(i);
        const bool numeric = run.numeric_cap <= 0 || i < run.numeric_cap;

        // --- Encoder (NRI): latent edge embedding for the event pair plus
        // the pair's sampled context edges.
        Tensor latent_edge;
        {
            sim::CategoryScope scope(runtime, "Encoder (NRI)");
            if (config_.encoder == LdgEncoder::kMlp) {
                // Audit override (DESIGN.md section 2): its bytes leave out
                // the output rows.
                sim::KernelDesc enc = nri_encoder_->Cost("nri_encoder", 1 + k);
                enc.bytes -= (1 + k) * nri_encoder_->OutFeatures() * 4;
                runtime.Launch(enc);
            } else {
                runtime.Launch({.name = "bilinear_encoder",
                                .flops = (1 + k) * 2 * d * d,
                                .bytes = (1 + k) * 2 * d * 4 + bilinear_w_.NumBytes(),
                                .parallel_items = 1 + k});
            }
            if (numeric && config_.encoder == LdgEncoder::kMlp) {
                const Tensor pair = ops::ConcatCols(
                    embeddings_->Row(e.src).Reshape(Shape({1, d})),
                    embeddings_->Row(e.dst).Reshape(Shape({1, d})));
                latent_edge = nri_encoder_->Forward(pair);
                checksum.Add(latent_edge);
            }
        }

        // --- Temporal Attention over the endpoints' neighborhoods
        // (DyRep's step).
        EndpointAttention attended;
        {
            sim::CategoryScope scope(runtime, "Temporal Attention");
            attended = AttendEndpoints(runtime, sampler, *attention_, *embeddings_, e,
                                       k, "latent_attention", numeric);
        }

        // --- Node Embedding Update.
        {
            sim::CategoryScope scope(runtime, "Node Embedding Update");
            for (const int64_t node : {e.src, e.dst}) {
                runtime.Launch(update_rnn_->Cost("embedding_rnn", 1));

                if (numeric) {
                    const int64_t other = node == e.src ? e.dst : e.src;
                    const Tensor input = ops::ConcatCols(
                        node == e.src ? attended.src : attended.dst,
                        embeddings_->Row(other).Reshape(Shape({1, d})));
                    const Tensor h =
                        embeddings_->Row(node).Reshape(Shape({1, d}));
                    const Tensor updated = update_rnn_->Forward(input, h);
                    embeddings_->SetRow(node, updated.Reshape(Shape({d})));
                }
            }
        }

        // --- Bilinear Decoder + per-event sync.
        {
            sim::CategoryScope scope(runtime, "Bilinear Decoder");
            runtime.Launch({.name = "bilinear_decoder",
                            .flops = 2 * d * d + 2 * d,
                            .bytes = 2 * d * 4 + bilinear_w_.NumBytes(),
                            .parallel_items = d});
            (void)runtime.Synchronize();

            if (numeric) {
                checksum.Add(PairScore(e.src, e.dst));
            }
        }
    }

    return CollectRunStats(runtime, Name(), dataset_.spec.name, total_events, warmup,
                           checksum);
}

}  // namespace dgnn::models
