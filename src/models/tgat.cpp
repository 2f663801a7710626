#include "models/tgat.hpp"

#include <algorithm>

#include "tensor/ops.hpp"

namespace dgnn::models {

Tgat::Tgat(const data::InteractionDataset& dataset, TgatConfig config)
    : dataset_(dataset), config_(config), adjacency_(dataset.stream)
{
    // The charged path samples at most two hops and prices every inner
    // layer at n*k query rows, so deeper stacks would be mispriced.
    DGNN_CHECK(config_.num_layers >= 1 && config_.num_layers <= 2,
               "TGAT needs one or two layers (TgatConfig::num_layers), got ",
               config_.num_layers);
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

namespace {

/// The filled slots of @p hoods in sampling order, target by target and
/// slot by slot: the targets of the next hop's sampling, cache keys of the
/// batch's feature gather, and the visits of the numerics' level below.
struct FilledSlots {
    std::vector<int64_t> nodes;
    std::vector<double> times;
};

FilledSlots
Filled(std::span<const graph::SampledNeighborhood> hoods)
{
    FilledSlots filled;
    for (const graph::SampledNeighborhood& h : hoods) {
        for (size_t j = 0; j < h.neighbors.size(); ++j) {
            if (h.neighbors[j] >= 0) {
                filled.nodes.push_back(h.neighbors[j]);
                filled.times.push_back(h.times[j]);
            }
        }
    }
    return filled;
}

/// One level of a batch's sampled neighborhoods. Level 0 lists only the
/// visited nodes; every higher level's queries attend their neighborhoods,
/// whose filled slots are the level below's visits, in order.
struct VisitLevel {
    std::span<const int64_t> nodes;
    std::span<const double> times;
    std::span<const graph::SampledNeighborhood> hoods;
};

}  // namespace

Tensor
Tgat::ComputeEmbeddings(std::span<const int64_t> nodes, std::span<const double> times,
                        std::span<const graph::SampledNeighborhood> hoods,
                        std::span<const graph::SampledNeighborhood> inner_hoods) const
{
    DGNN_CHECK(nodes.size() == times.size() && nodes.size() == hoods.size(),
               "ComputeEmbeddings: ", nodes.size(), " nodes, ", times.size(),
               " times, ", hoods.size(), " neighborhoods");
    const FilledSlots first = Filled(hoods);
    const FilledSlots second = Filled(inner_hoods);
    const size_t expected_inner = config_.num_layers == 1 ? 0 : first.nodes.size();
    DGNN_CHECK(inner_hoods.size() == expected_inner, "ComputeEmbeddings: ",
               inner_hoods.size(), " second-hop neighborhoods for ", expected_inner,
               " filled first-hop slots at ", config_.num_layers, " layers");
    const std::vector<VisitLevel> levels =
        config_.num_layers == 1
            ? std::vector<VisitLevel>{{first.nodes, {}, {}}, {nodes, times, hoods}}
            : std::vector<VisitLevel>{{second.nodes, {}, {}},
                                      {first.nodes, first.times, inner_hoods},
                                      {nodes, times, hoods}};

    // Every visited node's feature projection, once per distinct node.
    std::vector<int64_t> distinct;
    for (const VisitLevel& level : levels) {
        distinct.insert(distinct.end(), level.nodes.begin(), level.nodes.end());
    }
    cache::SortUnique(distinct);
    const Tensor projected =
        feature_proj_->Forward(ops::GatherRows(dataset_.node_features, distinct));
    const auto own_projections = [&](const VisitLevel& level) {
        std::vector<int64_t> rows;
        rows.reserve(level.nodes.size());
        for (const int64_t node : level.nodes) {
            rows.push_back(std::lower_bound(distinct.begin(), distinct.end(), node) -
                           distinct.begin());
        }
        return ops::GatherRows(projected, rows);
    };

    const int64_t d = config_.embed_dim;
    const Tensor enc_zero =
        time_encoder_->Forward(Tensor(Shape({1}))).Reshape(Shape({d}));
    Tensor below = own_projections(levels[0]);
    for (size_t l = 1; l < levels.size(); ++l) {
        const VisitLevel& level = levels[l];
        // One kv row per filled slot, whose child is the next visit of the
        // level below. An empty slot holds a zero key at the sampler's
        // empty-slot time, so a run of empty slots at one delta holds one
        // row: a query's empty slots share it, and so do the next query's
        // at the same time (an event's other endpoint).
        std::vector<int64_t> slots;
        std::vector<int64_t> keys;
        std::vector<float> deltas;
        int64_t next_child = 0;
        int64_t shared = -1;
        for (size_t q = 0; q < level.nodes.size(); ++q) {
            const graph::SampledNeighborhood& h = level.hoods[q];
            for (size_t j = 0; j < h.neighbors.size(); ++j) {
                const auto delta = static_cast<float>(level.times[q] - h.times[j]);
                const bool empty = h.neighbors[j] < 0;
                if (empty && shared >= 0 && deltas[static_cast<size_t>(shared)] == delta) {
                    slots.push_back(shared);
                    continue;
                }
                slots.push_back(static_cast<int64_t>(keys.size()));
                if (empty) {
                    shared = slots.back();
                }
                keys.push_back(empty ? -1 : next_child++);
                deltas.push_back(delta);
            }
        }
        const auto r_rows = static_cast<int64_t>(keys.size());
        Tensor kv = time_encoder_->Forward(Tensor(Shape({r_rows}), std::move(deltas)));
        for (int64_t r = 0; r < r_rows; ++r) {
            const int64_t child = keys[static_cast<size_t>(r)];
            float* row = kv.Data() + r * d;
            for (int64_t c = 0; c < d; ++c) {
                row[c] = (child < 0 ? 0.0f : below.Data()[child * d + c]) + row[c];
            }
        }

        // Every query of a level samples the same slot count (Forward
        // checks the table); a level without queries attends nothing.
        const int64_t g =
            level.hoods.empty() ? 1 : std::ssize(level.hoods.front().neighbors);
        const Tensor own = own_projections(level);
        const Tensor attended = attention_layers_[l - 1]->Forward(
            ops::AddRowBroadcast(own, enc_zero), kv, slots, g);
        below = ops::Relu(merge_layers_[l - 1]->Forward(ops::ConcatCols(attended, own)));
    }
    return below;
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

        // --- Sampling (CPU): the targets' neighborhoods, then (two layers)
        // one per filled first-hop slot. With the cache on, `touched`
        // collects every node whose feature row the batch reads (targets +
        // all sampled hops) — the cache-key set of the gather below.
        std::vector<graph::SampledNeighborhood> hoods;
        std::vector<graph::SampledNeighborhood> inner_hoods;
        std::vector<int64_t> touched;
        {
            sim::CategoryScope scope(runtime, "Sampling (CPU)");
            ChargeBatchOverhead(runtime);
            hoods = SampleOnCpu(runtime, sampler, nodes, times, k);
            const FilledSlots first = Filled(hoods);
            if (config_.num_layers >= 2 && !first.nodes.empty()) {
                inner_hoods = SampleOnCpu(runtime, sampler, first.nodes, first.times,
                                          config_.second_hop_neighbors);
            }
            if (feature_cache.Enabled()) {
                const std::vector<int64_t> second = Filled(inner_hoods).nodes;
                touched = nodes;
                touched.insert(touched.end(), first.nodes.begin(), first.nodes.end());
                touched.insert(touched.end(), second.begin(), second.end());
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

        // --- Time Encoding: one kernel over all deltas.
        {
            sim::CategoryScope scope(runtime, "Time Encoding");
            runtime.Launch(time_encoder_->Cost("time_encoding", n * k));
            (void)runtime.Synchronize();
        }

        // --- Attention Layer: projection + attention + merge, batched.
        {
            sim::CategoryScope scope(runtime, "Attention Layer");
            // Feature projection of all gathered nodes (one GEMM).
            sim::KernelDesc proj =
                feature_proj_->Cost("feature_projection", gathered_nodes);
            proj.irregular = true;  // gather from the resident table
            runtime.Launch(proj);

            for (int64_t l = 0; l < config_.num_layers; ++l) {
                // Layers apply bottom-up: inner layers embed every sampled
                // neighbor (n*k query rows over second-hop neighborhoods),
                // the final layer embeds the n targets over k neighbors.
                const bool is_final = l + 1 == config_.num_layers;
                const int64_t q_rows = is_final ? n : n * k;
                const int64_t kv_per_target =
                    is_final ? k : config_.second_hop_neighbors;
                runtime.Launch(attention_layers_[static_cast<size_t>(l)]->Cost(
                    "attention", q_rows, kv_per_target));

                // Attention execution is attributed to this module scope
                // (PyTorch-profiler convention); the merge FFN drains later
                // in the explicit synchronization phase.
                (void)runtime.Synchronize();

                // Audit override (DESIGN.md section 2): its bytes leave out
                // the parameters.
                sim::KernelDesc merge =
                    merge_layers_[static_cast<size_t>(l)]->Cost("merge_ffn", q_rows);
                merge.bytes = q_rows * 3 * d * 4;
                runtime.Launch(merge);
            }

            // Real numerics for up to numeric_cap targets (0 = all), over
            // the neighborhoods sampled above.
            const auto cap = static_cast<size_t>(Capped(n, run.numeric_cap));
            const auto top = std::span(hoods).first(cap);
            const size_t inner_cap = inner_hoods.empty() ? 0 : Filled(top).nodes.size();
            const Tensor emb = ComputeEmbeddings(
                std::span(nodes).first(cap), std::span(times).first(cap), top,
                std::span(inner_hoods).first(inner_cap));
            for (int64_t i = 0; i < emb.Dim(0); ++i) {
                checksum.Add(emb.RowSlice(i, i + 1));
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
