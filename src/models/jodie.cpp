#include "models/jodie.hpp"

#include <algorithm>

#include "graph/tbatch.hpp"
#include "tensor/ops.hpp"

namespace dgnn::models {

Jodie::Jodie(const data::InteractionDataset& dataset, JodieConfig config)
    : dataset_(dataset), config_(config)
{
    Rng rng(config_.seed);
    const int64_t d = config_.embed_dim;
    user_embeddings_ = std::make_unique<nn::Embedding>(dataset_.spec.num_users, d, rng);
    item_embeddings_ = std::make_unique<nn::Embedding>(dataset_.spec.num_items, d, rng);
    user_last_update_.assign(static_cast<size_t>(dataset_.spec.num_users), 0.0);
    // User RNN consumes the interacted item's embedding; item RNN the user's.
    user_rnn_ = std::make_unique<nn::RnnCell>(d, d, rng);
    item_rnn_ = std::make_unique<nn::RnnCell>(d, d, rng);
    item_predictor_ = std::make_unique<nn::Linear>(d, d, rng);
    projection_w_ = init::Uniform(Shape({d}), rng, -0.01f, 0.01f);
}

int64_t
Jodie::WeightBytes() const
{
    return user_rnn_->ParameterBytes() + item_rnn_->ParameterBytes() +
           item_predictor_->ParameterBytes() + projection_w_.NumBytes();
}

RunResult
Jodie::RunInference(sim::Runtime& runtime, const RunConfig& run)
{
    ValidateRunConfig(runtime, run);
    const int64_t d = config_.embed_dim;
    // Device-resident embedding cache keyed by global node id (users and
    // items share one id space). Hits keep rows on the device across
    // chunks; updates mark them dirty and write back on eviction/flush.
    cache::DeviceCache embedding_cache =
        MakeRunCache(runtime, run, CacheRowBytes());

    const RunWarmup warmup =
        WarmUp(runtime, run, WeightBytes(), run.batch_size * d * 4);

    sim::DeviceBuffer weights = runtime.AllocDevice(WeightBytes(), "jodie_weights");
    sim::DeviceBuffer cache_buf = AllocCacheBuffer(
        runtime, embedding_cache, dataset_.NumNodes(), "jodie_embedding_cache");

    runtime.ResetMeasurementWindow();

    const int64_t total_events = Capped(dataset_.stream.NumEvents(), run.max_events);
    const int64_t bs = run.batch_size;
    Checksum checksum;
    int64_t iterations = 0;

    for (int64_t begin = 0; begin < total_events; begin += bs) {
        const int64_t end = std::min(begin + bs, total_events);
        const int64_t chunk_events = end - begin;

        // Unique endpoints of the chunk, in event order (cache keys).
        std::vector<int64_t> chunk_nodes;
        if (embedding_cache.Enabled()) {
            for (int64_t i = begin; i < end; ++i) {
                const auto& e = dataset_.stream.Event(i);
                chunk_nodes.push_back(e.src);
                chunk_nodes.push_back(e.dst);
            }
            cache::SortUnique(chunk_nodes);
        }

        // --- Load Embedding: t-batch creation (CPU) + embeddings H2D.
        std::vector<graph::TBatch> tbatches;
        {
            sim::CategoryScope scope(runtime, "Load Embedding");
            ChargeBatchOverhead(runtime);
            if (config_.use_tbatch) {
                tbatches = graph::BuildTBatches(dataset_.stream, begin, end);
            } else {
                // Ablation: one event per "batch" — fully sequential RNNs.
                tbatches.resize(static_cast<size_t>(end - begin));
                for (int64_t i = begin; i < end; ++i) {
                    tbatches[static_cast<size_t>(i - begin)].event_indices = {i};
                }
            }
            // 128 bytes of hash-map traffic per event.
            runtime.RunHost({.name = "tbatch_build",
                             .flops = chunk_events * 8,
                             .bytes = chunk_events * 128,
                             .irregular = true});
            // Embedding rows for every event endpoint. Cached: unique rows
            // come through the device cache (hits stay resident across
            // chunks — LastFM-style streams revisit the same users/items).
            if (embedding_cache.Enabled()) {
                // Every gathered row is rewritten by the RNN updates:
                // dirty at gather time, so same-chunk evictions still owe
                // their write-back.
                GatherThroughCache(runtime, embedding_cache, chunk_nodes,
                                   /*mark_dirty=*/true, "jodie_embeddings");
            } else {
                runtime.CopyToDevice(2 * chunk_events * d * 4,
                                     "jodie_embeddings_h2d");
            }
            sim::DeviceBuffer batch_buf =
                runtime.AllocDevice(2 * chunk_events * d * 4, "jodie_chunk");
            // Buffer freed at scope end: JODIE reuses one staging area.
        }

        // --- Per t-batch sequential processing (mutually recursive RNNs).
        for (const graph::TBatch& tb : tbatches) {
            const int64_t m = static_cast<int64_t>(tb.event_indices.size());
            const int64_t cap = Capped(m, run.numeric_cap);

            // Gather the real rows for the numeric path.
            std::vector<int64_t> users;
            std::vector<int64_t> items;
            std::vector<float> deltas;
            for (int64_t i = 0; i < cap; ++i) {
                const auto& e =
                    dataset_.stream.Event(tb.event_indices[static_cast<size_t>(i)]);
                users.push_back(e.src);
                items.push_back(e.dst - dataset_.ItemOffset());
                deltas.push_back(static_cast<float>(
                    e.time - user_last_update_[static_cast<size_t>(e.src)]));
            }
            Tensor u = user_embeddings_->Lookup(users);
            Tensor v = item_embeddings_->Lookup(items);

            // [Project User Embedding]: u' = (1 + Δt*w) ⊙ u.
            Tensor projected(u.GetShape());
            {
                sim::CategoryScope scope(runtime, "Project User Embedding");
                for (int64_t i = 0; i < cap; ++i) {
                    for (int64_t j = 0; j < d; ++j) {
                        projected.At(i, j) =
                            (1.0f + deltas[static_cast<size_t>(i)] *
                                        projection_w_.At(j)) *
                            u.At(i, j);
                    }
                }
                runtime.Launch({.name = "project_user",
                                .flops = 3 * m * d,
                                .bytes = 2 * m * d * 4,
                                .parallel_items = m * d});
            }

            // [Predict Item Embedding]: linear head on projected users.
            Tensor predicted;
            {
                sim::CategoryScope scope(runtime, "Predict Item Embedding");
                predicted = item_predictor_->Forward(projected);
                runtime.Launch(item_predictor_->Cost("predict_item", m));
            }

            // [Update Embedding]: mutually-recursive user and item RNNs.
            {
                sim::CategoryScope scope(runtime, "Update Embedding");
                const Tensor new_u = user_rnn_->Forward(v, u);
                const Tensor new_v = item_rnn_->Forward(u, v);
                user_embeddings_->Update(users, new_u);
                item_embeddings_->Update(items, new_v);
                checksum.Add(predicted);
                checksum.Add(new_u);

                for (const nn::RnnCell* cell : {user_rnn_.get(), item_rnn_.get()}) {
                    runtime.Launch(cell->Cost("rnn_update", m));
                }
                // The next t-batch depends on these updates: hard sync.
                (void)runtime.Synchronize();
            }

            for (int64_t i = 0; i < cap; ++i) {
                const auto& e =
                    dataset_.stream.Event(tb.event_indices[static_cast<size_t>(i)]);
                user_last_update_[static_cast<size_t>(e.src)] = e.time;
            }
        }

        // --- Updated embeddings D2H (Fig 5a final step). Cached: the
        // updated rows stay device-resident (marked dirty at gather time)
        // and write back only on eviction or the end-of-run flush.
        if (!embedding_cache.Enabled()) {
            sim::CategoryScope scope(runtime, "Update Embedding");
            runtime.CopyToHost(2 * chunk_events * d * 4,
                               "jodie_embeddings_d2h");
        }
        ++iterations;
    }

    FlushCache(runtime, embedding_cache, "jodie_embeddings_flush");
    return CollectRunStats(runtime, Name(), dataset_.spec.name, iterations, warmup,
                           checksum, embedding_cache);
}

}  // namespace dgnn::models
