#include "models/tgat.hpp"

#include <algorithm>

#include "models/fusion_catalog.hpp"
#include "tensor/ops.hpp"

namespace dgnn::models {

Tgat::Tgat(const data::InteractionDataset& dataset, TgatConfig config)
    : dataset_(dataset), config_(config), adjacency_(dataset.stream)
{
    DGNN_CHECK(config_.num_layers >= 1, "TGAT needs at least one layer");
    Rng rng(config_.seed);
    const int64_t feat_dim = dataset_.spec.edge_feature_dim;
    feature_proj_ =
        std::make_unique<nn::Linear>(feat_dim, config_.embed_dim, rng);
    time_encoder_ =
        std::make_unique<nn::BochnerTimeEncoder>(config_.embed_dim, rng);
    for (int64_t l = 0; l < config_.num_layers; ++l) {
        attention_layers_.push_back(std::make_unique<nn::MultiHeadAttention>(
            config_.embed_dim, config_.num_heads, rng));
        merge_layers_.push_back(std::make_unique<nn::Linear>(
            2 * config_.embed_dim, config_.embed_dim, rng));
    }
}

int64_t
Tgat::WeightBytes() const
{
    int64_t bytes = feature_proj_->ParameterBytes() + time_encoder_->ParameterBytes();
    for (size_t l = 0; l < attention_layers_.size(); ++l) {
        bytes += attention_layers_[l]->ParameterBytes();
        bytes += merge_layers_[l]->ParameterBytes();
    }
    return bytes;
}

Tensor
Tgat::ComputeEmbedding(graph::TemporalNeighborSampler& sampler, int64_t node,
                       double time, int64_t num_neighbors, int64_t layer) const
{
    const Tensor raw = dataset_.node_features.Row(node).Reshape(
        Shape({1, dataset_.spec.edge_feature_dim}));
    Tensor h = feature_proj_->Forward(raw);
    if (layer == 0) {
        return h;
    }
    const graph::SampledNeighborhood nbh = sampler.Sample(node, time, num_neighbors);

    // Neighbor embeddings at the previous layer (recursive).
    const int64_t k = num_neighbors;
    Tensor keys(Shape({k, config_.embed_dim}));
    Tensor deltas(Shape({k}));
    const int64_t inner_k =
        layer >= 2 ? config_.second_hop_neighbors : num_neighbors;
    for (int64_t j = 0; j < k; ++j) {
        const int64_t nb = nbh.neighbors[static_cast<size_t>(j)];
        Tensor nb_embed;
        if (nb < 0) {
            nb_embed = Tensor(Shape({1, config_.embed_dim}));
        } else {
            nb_embed = ComputeEmbedding(sampler, nb, nbh.times[static_cast<size_t>(j)],
                                        inner_k, layer - 1);
        }
        keys.SetRow(j, nb_embed.Reshape(Shape({config_.embed_dim})));
        deltas.At(j) = static_cast<float>(time - nbh.times[static_cast<size_t>(j)]);
    }
    const Tensor time_feats = time_encoder_->Forward(deltas);
    const Tensor kv = ops::Add(keys, time_feats);

    Tensor zero_delta(Shape({1}));
    const Tensor q = ops::Add(h, time_encoder_->Forward(zero_delta));
    const size_t li = static_cast<size_t>(layer - 1);
    const Tensor attended = attention_layers_[li]->Forward(q, kv, kv);
    const Tensor merged =
        merge_layers_[li]->Forward(ops::ConcatCols(attended, h));
    return ops::Relu(merged);
}

RunResult
Tgat::RunInference(sim::Runtime& runtime, const RunConfig& run)
{
    ValidateRunConfig(runtime, run, /*min_neighbors=*/1);
    graph::TemporalNeighborSampler sampler(adjacency_,
                                           graph::SamplingStrategy::kUniform,
                                           config_.seed + 1);

    const RunWarmup warmup =
        WarmUp(runtime, run, WeightBytes(),
               run.batch_size * run.num_neighbors * config_.embed_dim * 4);

    // Device-resident node-feature cache. Uncached baseline: the whole
    // node-feature table is assumed resident (it fits comfortably), paid
    // once before the measurement window. Cached: the node table does NOT
    // reside; each batch gathers its touched node rows through the cache
    // instead — the realistic regime once feature tables outgrow device
    // memory. The edge-feature table is keyed per event, not per node, so
    // it stays resident either way.
    cache::DeviceCache feature_cache =
        MakeRunCache(runtime, run, CacheRowBytes());

    // Model weights and resident tables occupy the device for the whole
    // run; the one-time transfers happen before the measurement window.
    sim::DeviceBuffer weights =
        runtime.AllocDevice(WeightBytes(), "tgat_weights");
    int64_t resident_table_bytes = dataset_.edge_features.NumBytes();
    sim::DeviceBuffer cache_buf = AllocCacheBuffer(
        runtime, feature_cache, dataset_.NumNodes(), "tgat_feature_cache");
    if (!feature_cache.Enabled()) {
        resident_table_bytes += dataset_.node_features.NumBytes();
    }
    sim::DeviceBuffer feature_tables =
        runtime.AllocDevice(resident_table_bytes, "tgat_feature_tables");
    runtime.CopyToDevice(resident_table_bytes, "tgat_feature_tables_h2d");

    runtime.ResetMeasurementWindow();

    const int64_t total_events = Capped(dataset_.stream.NumEvents(), run.max_events);
    const int64_t bs = run.batch_size;
    const int64_t k = run.num_neighbors;
    const int64_t d = config_.embed_dim;
    Checksum checksum;
    int64_t iterations = 0;

    for (int64_t begin = 0; begin < total_events; begin += bs) {
        const int64_t end = std::min(begin + bs, total_events);
        const auto batch = dataset_.stream.Slice(begin, end);

        // Targets: both endpoints of every event, processed at event time.
        std::vector<int64_t> nodes;
        std::vector<double> times;
        nodes.reserve(batch.size() * 2);
        for (const graph::TemporalEvent& e : batch) {
            nodes.push_back(e.src);
            times.push_back(e.time);
            nodes.push_back(e.dst);
            times.push_back(e.time);
        }
        const int64_t n = static_cast<int64_t>(nodes.size());

        // --- Sampling (CPU): L1 neighborhoods; L2 recursion samples for
        // every sampled neighbor. With the cache on, `touched` accumulates
        // every node whose feature row the batch reads (targets + all
        // sampled hops) — the cache-key set of the gather below.
        std::vector<graph::SampledNeighborhood> hoods;
        std::vector<int64_t> touched;
        if (feature_cache.Enabled()) {
            touched = nodes;
        }
        {
            sim::CategoryScope scope(runtime, "Sampling (CPU)");
            ChargeBatchOverhead(runtime);
            hoods = SampleOnCpu(runtime, sampler, nodes, times, k);
            if (feature_cache.Enabled()) {
                for (const auto& h : hoods) {
                    for (const int64_t nbr : h.neighbors) {
                        if (nbr >= 0) {
                            touched.push_back(nbr);
                        }
                    }
                }
            }
            if (config_.num_layers >= 2) {
                std::vector<int64_t> inner_nodes;
                std::vector<double> inner_times;
                for (const auto& h : hoods) {
                    for (size_t j = 0; j < h.neighbors.size(); ++j) {
                        if (h.neighbors[j] >= 0) {
                            inner_nodes.push_back(h.neighbors[j]);
                            inner_times.push_back(h.times[j]);
                        }
                    }
                }
                if (!inner_nodes.empty()) {
                    const auto inner_hoods = SampleOnCpu(
                        runtime, sampler, inner_nodes, inner_times,
                        config_.second_hop_neighbors);
                    if (feature_cache.Enabled()) {
                        for (const auto& h : inner_hoods) {
                            for (const int64_t nbr : h.neighbors) {
                                if (nbr >= 0) {
                                    touched.push_back(nbr);
                                }
                            }
                        }
                    }
                }
            }
        }

        // --- Memory Copy: sampled neighbor indices and time deltas (the
        // feature tables already live on the device).
        const int64_t gathered_nodes = n * (1 + k);
        const int64_t index_bytes = gathered_nodes * 8;
        const int64_t delta_bytes = n * k * 8;
        sim::DeviceBuffer activations = runtime.AllocDevice(
            gathered_nodes * d * 4 * 2, "tgat_batch");
        {
            sim::CategoryScope scope(runtime, "Memory Copy");
            runtime.CopyToDevice(index_bytes + delta_bytes, "tgat_batch_h2d");
            if (feature_cache.Enabled()) {
                // Feature rows of every touched node (targets + every
                // sampled hop, deduplicated) come through the cache.
                // Read-only rows: nothing is dirty, so nothing writes back.
                cache::SortUnique(touched);
                GatherThroughCache(runtime, feature_cache, touched,
                                   /*mark_dirty=*/false, "tgat_features");
            }
        }

        // --- Time Encoding: one kernel over all deltas. Under fusion the
        // launch is deferred into the projection launch (tgat_encode_fused),
        // so the descriptor outlives this phase scope.
        sim::KernelDesc tenc;
        {
            sim::CategoryScope scope(runtime, "Time Encoding");
            tenc.name = "time_encoding";
            tenc.flops = time_encoder_->ForwardFlops(n * k);
            tenc.bytes = n * k * (8 + d * 4);
            tenc.parallel_items = n * k * d;
            if (!run.fuse_kernels) {
                runtime.Launch(tenc);
            }
            (void)runtime.Synchronize();
        }

        // --- Attention Layer: projection + attention + merge, batched.
        {
            sim::CategoryScope scope(runtime, "Attention Layer");
            // Feature projection of all gathered nodes (one GEMM).
            sim::KernelDesc proj;
            proj.name = "feature_projection";
            proj.flops = feature_proj_->ForwardFlops(gathered_nodes);
            proj.bytes = gathered_nodes *
                             (dataset_.spec.edge_feature_dim + d) * 4 +
                         feature_proj_->ParameterBytes();
            proj.parallel_items = gathered_nodes * d;
            proj.irregular = true;  // gather from the resident table
            if (run.fuse_kernels) {
                // Horizontal fusion: the encoding and projection read
                // disjoint inputs, so one launch covers both (no shared
                // intermediate, boundary bytes 0).
                runtime.Launch(sim::Collapse(MakeRegisteredChain(
                    "tgat_encode_fused", {tenc, proj}, {0})));
            } else {
                runtime.Launch(proj);
            }

            for (int64_t l = 0; l < config_.num_layers; ++l) {
                // Layers apply bottom-up: inner layers embed every sampled
                // neighbor (n*k query rows over second-hop neighborhoods),
                // the final layer embeds the n targets over k neighbors.
                const bool is_final = l + 1 == config_.num_layers;
                const int64_t q_rows = is_final ? n : n * k;
                const int64_t kv_per_target =
                    is_final ? k : config_.second_hop_neighbors;
                sim::KernelDesc attn;
                attn.name = "attention";
                attn.flops =
                    q_rows * attention_layers_[static_cast<size_t>(l)]->ForwardFlops(
                                 1, kv_per_target);
                attn.bytes = q_rows * (kv_per_target + 1) * d * 4 * 3;
                attn.parallel_items = q_rows * kv_per_target * d;

                sim::KernelDesc merge;
                merge.name = "merge_ffn";
                merge.flops =
                    merge_layers_[static_cast<size_t>(l)]->ForwardFlops(q_rows);
                merge.bytes = q_rows * 3 * d * 4;
                merge.parallel_items = q_rows * d;

                if (run.fuse_kernels) {
                    // Attention + merge FFN in one launch; the attended
                    // rows stay on-chip at the boundary.
                    runtime.Launch(sim::Collapse(MakeRegisteredChain(
                        "tgat_attention_fused", {attn, merge},
                        {q_rows * d * 4})));
                    (void)runtime.Synchronize();
                } else {
                    runtime.Launch(attn);

                    // Attention execution is attributed to this module scope
                    // (PyTorch-profiler convention); the merge FFN drains
                    // later in the explicit synchronization phase.
                    (void)runtime.Synchronize();
                    runtime.Launch(merge);
                }
            }

            // Real numerics for up to numeric_cap targets (0 = all).
            const int64_t cap = Capped(n, run.numeric_cap);
            graph::TemporalNeighborSampler numeric_sampler(
                adjacency_, graph::SamplingStrategy::kUniform, config_.seed + 2);
            for (int64_t i = 0; i < cap; ++i) {
                const Tensor emb = ComputeEmbedding(
                    numeric_sampler, nodes[static_cast<size_t>(i)],
                    times[static_cast<size_t>(i)], k, config_.num_layers);
                checksum.Add(emb);
            }
        }

        if (!config_.overlap_sampling) {
            // --- Cuda Synchronization: drain the tail of the compute
            // stream, then fetch results (the eager baseline).
            {
                sim::CategoryScope scope(runtime, "Cuda Synchronization");
                (void)runtime.Synchronize();
            }
            sim::CategoryScope scope(runtime, "Memory Copy");
            runtime.CopyToHost(n * d * 4, "tgat_embeddings_d2h");
        } else {
            // --- Overlapped variant (paper 5.1.1): do not stall; the next
            // iteration's CPU sampling proceeds while the device drains.
            // Results are fetched lazily; the deferred D2H pays the wait
            // only if the device is still behind by then.
            sim::CategoryScope scope(runtime, "Memory Copy");
            runtime.CopyToHost(n * d * 4, "tgat_embeddings_d2h_async");
        }
        ++iterations;
    }

    return CollectRunStats(runtime, Name(), dataset_.spec.name, iterations, warmup,
                           checksum, feature_cache);
}

}  // namespace dgnn::models
