#include "models/dyrep.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/ops.hpp"

namespace dgnn::models {

DyRep::DyRep(const data::PointProcessDataset& dataset, DyRepConfig config)
    : dataset_(dataset), adjacency_(dataset.stream), config_(config)
{
    Rng rng(config_.seed);
    const int64_t d = config_.embed_dim;
    embeddings_ = std::make_unique<nn::Embedding>(dataset_.spec.num_actors, d, rng);
    attention_ = std::make_unique<nn::MultiHeadAttention>(d, 1, rng);
    // RNN input: [attended neighborhood || other endpoint || exogenous].
    update_rnn_ = std::make_unique<nn::RnnCell>(3 * d, d, rng);
    intensity_head_ = std::make_unique<nn::Linear>(2 * d, 1, rng);
    exogenous_ = init::Uniform(Shape({d}), rng, -0.05f, 0.05f);
}

int64_t
DyRep::WeightBytes() const
{
    return attention_->ParameterBytes() + update_rnn_->ParameterBytes() +
           intensity_head_->ParameterBytes() + exogenous_.NumBytes();
}

double
DyRep::Intensity(int64_t u, int64_t v) const
{
    const int64_t d = config_.embed_dim;
    const Tensor zu = embeddings_->Row(u).Reshape(Shape({1, d}));
    const Tensor zv = embeddings_->Row(v).Reshape(Shape({1, d}));
    const Tensor pair = ops::ConcatCols(zu, zv);
    const double raw = intensity_head_->Forward(pair).At(0);
    // softplus keeps the intensity positive.
    return std::log1p(std::exp(raw));
}

double
DyRep::ExpectedNextEventTime(int64_t u, int64_t v) const
{
    const double lambda = Intensity(u, v);
    DGNN_CHECK(lambda > 0.0, "non-positive intensity for pair (", u, ", ", v, ")");
    return 1.0 / lambda;
}

EndpointAttention
AttendEndpoints(sim::Runtime& runtime, graph::TemporalNeighborSampler& sampler,
                const nn::MultiHeadAttention& attention, const nn::Embedding& embeddings,
                const graph::TemporalEvent& event, int64_t k, const std::string& kernel,
                bool numeric)
{
    const int64_t d = embeddings.Dim();
    std::vector<float> kv;
    std::vector<int64_t> slots;
    for (const int64_t node : {event.src, event.dst}) {
        const graph::SampledNeighborhood nbh = sampler.Sample(node, event.time, k);
        sim::KernelDesc attn;
        attn.name = kernel;
        attn.flops = attention.ForwardFlops(1, k);
        attn.bytes = (k + 2) * d * 4 * 3;
        attn.parallel_items = k;
        runtime.Launch(attn);

        if (numeric) {
            AppendNeighborRows(embeddings.Table(), nbh.neighbors, kv, slots);
        }
    }
    if (!numeric) {
        return {};
    }
    const std::vector<int64_t> endpoints = {event.src, event.dst};
    const auto rows = static_cast<int64_t>(kv.size()) / d;
    const Tensor attended =
        attention.Forward(embeddings.Lookup(endpoints),
                          Tensor(Shape({rows, d}), std::move(kv)), slots, k);
    return {attended.RowSlice(0, 1), attended.RowSlice(1, 2)};
}

RunResult
DyRep::RunInference(sim::Runtime& runtime, const RunConfig& run)
{
    ValidateRunConfig(runtime, run);
    const int64_t d = config_.embed_dim;
    const int64_t k = config_.attention_neighbors;

    const RunWarmup warmup =
        WarmUp(runtime, run, WeightBytes(), dataset_.spec.num_actors * d * 4);

    sim::DeviceBuffer weights = runtime.AllocDevice(WeightBytes(), "dyrep_weights");
    sim::DeviceBuffer emb_buf = runtime.AllocDevice(
        embeddings_->Count() * embeddings_->Dim() * 4, "dyrep_embeddings");

    runtime.ResetMeasurementWindow();

    graph::TemporalNeighborSampler sampler(
        adjacency_, graph::SamplingStrategy::kMostRecent, config_.seed + 1);

    const int64_t total_events = Capped(dataset_.stream.NumEvents(), run.max_events);
    Checksum checksum;

    // Strictly sequential event loop: this IS the bottleneck.
    for (int64_t i = 0; i < total_events; ++i) {
        const graph::TemporalEvent& e = dataset_.stream.Event(i);
        const bool numeric =
            run.numeric_cap <= 0 || i < run.numeric_cap;

        // --- Temporal Attention over both endpoints' neighborhoods.
        EndpointAttention attended;
        {
            sim::CategoryScope scope(runtime, "Temporal Attention");
            attended = AttendEndpoints(runtime, sampler, *attention_, *embeddings_, e,
                                       k, "local_attention", numeric);
        }

        // --- Node Embedding Update (RNN per endpoint).
        {
            sim::CategoryScope scope(runtime, "Node Embedding Update");
            for (const int64_t node : {e.src, e.dst}) {
                sim::KernelDesc rnn;
                rnn.name = "embedding_rnn";
                rnn.flops = update_rnn_->ForwardFlops(1);
                rnn.bytes = 4 * d * 4 + update_rnn_->ParameterBytes();
                rnn.parallel_items = d;
                runtime.Launch(rnn);

                if (numeric) {
                    const int64_t other = node == e.src ? e.dst : e.src;
                    const Tensor input = ops::ConcatCols(
                        ops::ConcatCols(
                            node == e.src ? attended.src : attended.dst,
                            embeddings_->Row(other).Reshape(Shape({1, d}))),
                        exogenous_.Reshape(Shape({1, d})));
                    const Tensor h =
                        embeddings_->Row(node).Reshape(Shape({1, d}));
                    const Tensor updated = update_rnn_->Forward(input, h);
                    embeddings_->SetRow(node,
                                        updated.Reshape(Shape({d})));
                }
            }
        }

        // --- Conditional Intensity (decoder) + hard sync: the next event
        // depends on this one's updates.
        {
            sim::CategoryScope scope(runtime, "Conditional Intensity");
            sim::KernelDesc head;
            head.name = "conditional_intensity";
            head.flops = intensity_head_->ForwardFlops(1) + 4;
            head.bytes = 2 * d * 4 + intensity_head_->ParameterBytes();
            head.parallel_items = 1;
            runtime.Launch(head);
            (void)runtime.Synchronize();

            if (numeric) {
                checksum.Add(Intensity(e.src, e.dst));
            }
        }
    }

    return CollectRunStats(runtime, Name(), dataset_.spec.name, total_events, warmup,
                           checksum);
}

}  // namespace dgnn::models
