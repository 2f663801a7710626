// End-to-end tests for the eight DGNN models: every model runs on both the
// CPU-only and CPU+GPU simulated systems on a tiny dataset with full
// numerics, produces a deterministic checksum, and reports the breakdown
// categories the paper's Fig 7 names.

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "models/astgnn.hpp"
#include "models/dyrep.hpp"
#include "models/evolvegcn.hpp"
#include "models/jodie.hpp"
#include "models/ldg.hpp"
#include "models/moldgnn.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"
#include "tensor/random.hpp"
#include "tiny_datasets.hpp"

namespace dgnn::models {
namespace {

/// Runs a model twice with fresh runtimes; both runs must agree exactly.
template <typename ModelFactory>
void
ExpectDeterministic(ModelFactory make_model, const RunConfig& run)
{
    auto m1 = make_model();
    sim::Runtime r1 = MakeRuntime(run.mode);
    const RunResult a = m1->RunInference(r1, run);

    auto m2 = make_model();
    sim::Runtime r2 = MakeRuntime(run.mode);
    const RunResult b = m2->RunInference(r2, run);

    EXPECT_DOUBLE_EQ(a.total_us, b.total_us);
    EXPECT_DOUBLE_EQ(a.output_checksum, b.output_checksum);
    EXPECT_EQ(a.iterations, b.iterations);
}

/// The tiny datasets and the eight models on the configs the pins below
/// use. Models keep state across runs, so every call builds fresh ones.
struct TinyZoo {
    data::InteractionDataset interactions = TinyInteractions();
    data::SnapshotDataset snapshots = TinySnapshots();
    data::MolecularDataset molecular = TinyMolecular();
    data::TrafficDataset traffic = TinyTraffic();
    data::PointProcessDataset point_process = TinyPointProcess();

    /// JODIE, TGAT and TGN first: the three models with per-node rows
    /// (CacheRowBytes); TGAT's are read-only, the other two cache theirs.
    std::vector<std::unique_ptr<DgnnModel>> Models() const
    {
        std::vector<std::unique_ptr<DgnnModel>> all;
        all.push_back(std::make_unique<Jodie>(interactions, JodieConfig{16, 13}));
        all.push_back(
            std::make_unique<Tgat>(interactions, TgatConfig{16, 2, 1, 4, 7}));
        all.push_back(std::make_unique<Tgn>(interactions, TgnConfig{16, 16, 2, 11}));
        all.push_back(std::make_unique<DyRep>(point_process, DyRepConfig{8, 3, 29}));
        all.push_back(std::make_unique<Ldg>(
            point_process, LdgConfig{LdgEncoder::kMlp, 8, 4, 3, 31}));
        all.push_back(std::make_unique<EvolveGcn>(
            snapshots, EvolveGcnConfig{EvolveGcnVariant::kO, 8, 17}));
        all.push_back(
            std::make_unique<Astgnn>(traffic, AstgnnConfig{8, 2, 1, 1, 23}));
        all.push_back(std::make_unique<MolDgnn>(molecular, MolDgnnConfig{8, 16, 19}));
        return all;
    }
};

TEST(SampleOnCpuTest, ReturnsTheSamplerBatchAndChargesItsSamplingKernel)
{
    const auto ds = TinyInteractions();
    const graph::TemporalAdjacency adjacency(ds.stream);
    std::vector<int64_t> nodes;
    std::vector<double> times;
    for (int64_t i = 40; i < 60; ++i) {
        const graph::TemporalEvent& e = ds.stream.Event(i);
        nodes.push_back(e.src);
        times.push_back(e.time);
        nodes.push_back(e.dst);
        times.push_back(e.time);
    }
    const int64_t k = 5;
    for (const graph::SamplingStrategy strategy :
         {graph::SamplingStrategy::kMostRecent, graph::SamplingStrategy::kUniform}) {
        SCOPED_TRACE(strategy == graph::SamplingStrategy::kUniform ? "uniform"
                                                                   : "most-recent");
        graph::TemporalNeighborSampler sampler(adjacency, strategy, 7);
        graph::TemporalNeighborSampler reference(adjacency, strategy, 7);
        sim::Runtime runtime = MakeRuntime(sim::ExecMode::kHybrid);
        sim::Runtime expected_runtime = MakeRuntime(sim::ExecMode::kHybrid);

        const auto hoods = SampleOnCpu(runtime, sampler, nodes, times, k);
        const auto expected = reference.SampleBatch(nodes, times, k);
        ASSERT_EQ(hoods.size(), expected.size());
        for (size_t i = 0; i < hoods.size(); ++i) {
            EXPECT_EQ(hoods[i].neighbors, expected[i].neighbors);
            EXPECT_EQ(hoods[i].times, expected[i].times);
            EXPECT_EQ(hoods[i].feature_indices, expected[i].feature_indices);
        }
        // The accumulated cost is consumed by the charge.
        EXPECT_EQ(sampler.TakeCost().bisection_probes, 0);

        expected_runtime.RunHost(SamplingKernel(reference.TakeCost(),
                                                static_cast<int64_t>(nodes.size()),
                                                k, strategy));
        EXPECT_GT(runtime.Now(), 0.0);
        EXPECT_EQ(runtime.Now(), expected_runtime.Now());
        EXPECT_EQ(runtime.Cpu().BusyTime(), expected_runtime.Cpu().BusyTime());
        const auto& got = runtime.GetTrace().Events();
        const auto& want = expected_runtime.GetTrace().Events();
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].name, want[i].name);
            EXPECT_EQ(got[i].device, want[i].device);
            EXPECT_EQ(got[i].start_us, want[i].start_us);
            EXPECT_EQ(got[i].end_us, want[i].end_us);
            EXPECT_EQ(got[i].flops, want[i].flops);
            EXPECT_EQ(got[i].bytes, want[i].bytes);
        }
    }
}

TEST(TgatTest, RunsOnBothModesWithExpectedCategories)
{
    const auto ds = TinyInteractions();
    for (const auto mode : {sim::ExecMode::kHybrid, sim::ExecMode::kCpuOnly}) {
        Tgat model(ds, TgatConfig{16, 2, 1, 4, 7});
        sim::Runtime rt = MakeRuntime(mode);
        const RunResult r = model.RunInference(rt, SmallRun(mode));
        EXPECT_GT(r.total_us, 0.0);
        EXPECT_EQ(r.iterations, (120 + 15) / 16);
        EXPECT_GT(r.breakdown.SharePct("Sampling (CPU)"), 0.0);
        EXPECT_GT(r.breakdown.SharePct("Attention Layer"), 0.0);
        EXPECT_GT(r.breakdown.SharePct("Time Encoding"), 0.0);
        if (mode == sim::ExecMode::kHybrid) {
            EXPECT_GT(r.breakdown.SharePct("Memory Copy"), 0.0);
            EXPECT_GT(r.h2d_bytes, 0);
            EXPECT_GT(r.compute_peak_bytes, 0);
        } else {
            EXPECT_EQ(r.h2d_bytes, 0);
        }
        EXPECT_NE(r.output_checksum, 0.0);
    }
}

TEST(TgatTest, Deterministic)
{
    const auto ds = TinyInteractions();
    ExpectDeterministic(
        [&] { return std::make_unique<Tgat>(ds, TgatConfig{16, 2, 1, 4, 7}); },
        SmallRun(sim::ExecMode::kHybrid));
}

TEST(TgatTest, TwoLayerRecursionRuns)
{
    const auto ds = TinyInteractions();
    Tgat model(ds, TgatConfig{8, 2, 2, 2, 7});
    sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
    RunConfig run = SmallRun(sim::ExecMode::kHybrid);
    run.max_events = 32;
    const RunResult r = model.RunInference(rt, run);
    EXPECT_GT(r.total_us, 0.0);
    EXPECT_NE(r.output_checksum, 0.0);
}

TEST(TgatTest, TwoLayerChecksumsArePinned)
{
    // Hex-float pins on 2-layer TGAT, generated with the per-target
    // recursion the batched numerics replaced, then re-pinned from the
    // batched build when Rng::Normal began to draw normals in pairs (which
    // moved the weights and features, not the numerics). The first pin
    // moved again when the numerics began to read the neighborhoods the
    // charged sampling returned instead of sampling their own. The second
    // run samples more slots than any node's history holds, so every
    // neighborhood has empty slots and the whole history, whatever the
    // sampler draws (its pin held across that change).
    const auto ds = TinyInteractions();
    graph::TemporalAdjacency adj(ds.stream);
    for (int64_t node = 0; node < ds.NumNodes(); ++node) {
        ASSERT_LT(static_cast<int64_t>(adj.History(node).size()), 40) << node;
    }
    struct Pin {
        TgatConfig config;
        int64_t num_neighbors;
        int64_t max_events;
        double expected;
    };
    const std::array<Pin, 2> pins = {{
        {TgatConfig{8, 2, 2, 2, 7}, 4, 32, 0x1.adf80a80e1989p+7},
        {TgatConfig{8, 2, 2, 40, 7}, 40, 48, 0x1.2ffd0694d6089p+8},
    }};
    for (const Pin& pin : pins) {
        Tgat model(ds, pin.config);
        sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
        RunConfig run = SmallRun(sim::ExecMode::kHybrid);
        run.num_neighbors = pin.num_neighbors;
        run.max_events = pin.max_events;
        const RunResult r = model.RunInference(rt, run);
        EXPECT_EQ(HexFloat(r.output_checksum), HexFloat(pin.expected))
            << "k " << pin.num_neighbors;
    }
}

/// TGAT's neighborhoods sampled in its charged path's order: the targets'
/// first, then, with two layers, one per filled first-hop slot, target by
/// target. inner_begin[i] is target i's first second-hop neighborhood.
struct TgatHoods {
    std::vector<graph::SampledNeighborhood> hoods;
    std::vector<graph::SampledNeighborhood> inner;
    std::vector<size_t> inner_begin{0};

    TgatHoods(graph::TemporalNeighborSampler& sampler, const std::vector<int64_t>& nodes,
              const std::vector<double>& times, int64_t k, const TgatConfig& config)
        : hoods(sampler.SampleBatch(nodes, times, k))
    {
        std::vector<int64_t> filled;
        std::vector<double> filled_times;
        for (const graph::SampledNeighborhood& h : hoods) {
            for (size_t j = 0; j < h.neighbors.size(); ++j) {
                if (h.neighbors[j] >= 0) {
                    filled.push_back(h.neighbors[j]);
                    filled_times.push_back(h.times[j]);
                }
            }
            inner_begin.push_back(filled.size());
        }
        if (config.num_layers == 2 && !filled.empty()) {
            inner = sampler.SampleBatch(filled, filled_times, config.second_hop_neighbors);
        }
    }

    /// The second-hop neighborhoods of targets [first, last).
    std::span<const graph::SampledNeighborhood> Inner(size_t first, size_t last) const
    {
        if (inner.empty()) {
            return {};
        }
        return std::span(inner).subspan(inner_begin[first],
                                        inner_begin[last] - inner_begin[first]);
    }
};

TEST(TgatTest, ChecksumCoversTheChargedNeighborhoods)
{
    // RunInference embeds the neighborhoods its charged sampling returned:
    // replaying that sampling on an independent sampler (seed + 1,
    // uniform, batch by batch) and embedding the first numeric_cap targets
    // over it reproduces the run's checksum bit for bit.
    const auto ds = TinyInteractions();
    const graph::TemporalAdjacency adj(ds.stream);
    for (const int64_t layers : {1, 2}) {
        for (const int64_t numeric_cap : {0, 5}) {
            const TgatConfig config{16, 2, layers, 3, 7};
            Tgat model(ds, config);
            sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
            RunConfig run = SmallRun(sim::ExecMode::kHybrid);
            run.numeric_cap = numeric_cap;
            ASSERT_LT(numeric_cap, 2 * run.batch_size);
            const RunResult r = model.RunInference(rt, run);

            graph::TemporalNeighborSampler sampler(
                adj, graph::SamplingStrategy::kUniform, config.seed + 1);
            Checksum checksum;
            for (int64_t begin = 0; begin < ds.stream.NumEvents();
                 begin += run.batch_size) {
                std::vector<int64_t> nodes;
                std::vector<double> times;
                for (const graph::TemporalEvent& e : ds.stream.Slice(
                         begin, std::min(begin + run.batch_size, ds.stream.NumEvents()))) {
                    nodes.insert(nodes.end(), {e.src, e.dst});
                    times.insert(times.end(), {e.time, e.time});
                }
                const TgatHoods sampled(sampler, nodes, times, run.num_neighbors, config);
                const auto cap = static_cast<size_t>(Capped(
                    static_cast<int64_t>(nodes.size()), run.numeric_cap));
                const Tensor emb = model.ComputeEmbeddings(
                    std::span(nodes).first(cap), std::span(times).first(cap),
                    std::span(sampled.hoods).first(cap), sampled.Inner(0, cap));
                for (int64_t i = 0; i < emb.Dim(0); ++i) {
                    checksum.Add(emb.RowSlice(i, i + 1));
                }
            }
            EXPECT_EQ(HexFloat(r.output_checksum), HexFloat(checksum.Value()))
                << layers << " layers, numeric_cap " << numeric_cap;
        }
    }
}

TEST(TgatTest, BatchedEmbeddingsMatchOneTargetCalls)
{
    // A batch of targets embeds bit for bit as one call per target over
    // the same sampled neighborhoods.
    const auto ds = TinyInteractions();
    graph::TemporalAdjacency adj(ds.stream);
    std::vector<int64_t> nodes;
    std::vector<double> times;
    for (int64_t i = 60; i < 80; ++i) {
        const graph::TemporalEvent& e = ds.stream.Event(i);
        nodes.insert(nodes.end(), {e.src, e.dst});
        times.insert(times.end(), {e.time, e.time});
    }
    for (const int64_t layers : {1, 2}) {
        const TgatConfig config{16, 2, layers, 3, 7};
        const Tgat model(ds, config);
        graph::TemporalNeighborSampler sampler(adj, graph::SamplingStrategy::kUniform, 3);
        const TgatHoods sampled(sampler, nodes, times, 5, config);
        const Tensor all = model.ComputeEmbeddings(nodes, times, sampled.hoods,
                                                   sampled.Inner(0, nodes.size()));
        ASSERT_EQ(all.GetShape(), Shape({static_cast<int64_t>(nodes.size()), 16}));
        for (size_t i = 0; i < nodes.size(); ++i) {
            const Tensor one = model.ComputeEmbeddings(
                std::span(nodes).subspan(i, 1), std::span(times).subspan(i, 1),
                std::span(sampled.hoods).subspan(i, 1), sampled.Inner(i, i + 1));
            EXPECT_EQ(std::memcmp(all.Data() + i * 16, one.Data(), 16 * sizeof(float)), 0)
                << layers << " layers, target " << i;
        }
    }
}

TEST(TgatTest, EmbeddingIsTimeDependent)
{
    const auto ds = TinyInteractions();
    Tgat model(ds, TgatConfig{16, 2, 1, 4, 7});
    graph::TemporalAdjacency adj(ds.stream);
    graph::TemporalNeighborSampler sampler(
        adj, graph::SamplingStrategy::kMostRecent, 3);
    const auto embed = [&](double time) {
        const std::vector<int64_t> node = {0};
        const std::vector<double> at = {time};
        return model.ComputeEmbeddings(node, at, sampler.SampleBatch(node, at, 4), {});
    };
    const double t_mid = (ds.stream.StartTime() + ds.stream.EndTime()) / 2.0;
    const Tensor early = embed(t_mid);
    const Tensor late = embed(ds.stream.EndTime() + 1.0);
    EXPECT_EQ(early.GetShape(), late.GetShape());
    // A node's temporal embedding must evolve as history accumulates.
    double diff = 0.0;
    for (int64_t i = 0; i < early.NumElements(); ++i) {
        diff += std::fabs(early.At(i) - late.At(i));
    }
    EXPECT_GT(diff, 1e-6);
}

TEST(TgnTest, RunsAndUpdatesMemory)
{
    const auto ds = TinyInteractions();
    Tgn model(ds, TgnConfig{16, 16, 2, 11});
    const Tensor before = model.Memory().Table();
    sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
    const RunResult r = model.RunInference(rt, SmallRun(sim::ExecMode::kHybrid));
    EXPECT_GT(r.total_us, 0.0);
    EXPECT_GT(r.breakdown.SharePct("Update Memory"), 0.0);
    EXPECT_GT(r.breakdown.SharePct("Compute Embedding"), 0.0);
    EXPECT_GT(r.breakdown.SharePct("Aggregate Messages Passing"), 0.0);
    // Node memory must actually change during inference.
    const Tensor after = model.Memory().Table();
    double diff = 0.0;
    for (int64_t i = 0; i < before.NumElements(); ++i) {
        diff += std::fabs(before.At(i) - after.At(i));
    }
    EXPECT_GT(diff, 1e-3);
}

TEST(TgnTest, Deterministic)
{
    const auto ds = TinyInteractions();
    ExpectDeterministic(
        [&] { return std::make_unique<Tgn>(ds, TgnConfig{16, 16, 2, 11}); },
        SmallRun(sim::ExecMode::kHybrid));
}

TEST(TgnTest, MessageDimComposition)
{
    const auto ds = TinyInteractions();
    Tgn model(ds, TgnConfig{16, 16, 2, 11});
    EXPECT_EQ(model.MessageDim(), 16 + 16 + 16 + 8);
    EXPECT_GT(model.WeightBytes(), 0);
}

/// The bytes of every host message build and every message H2D copy a TGN
/// run issues, in issue order.
struct TgnMessageBytes final : sim::RuntimeObserver {
    void OnOp(const sim::OpRecord& op) override
    {
        if (*op.name == "build_raw_messages") {
            built.push_back(op.bytes);
        } else if (*op.name == "tgn_messages_h2d") {
            shipped.push_back(op.bytes);
        }
    }
    std::vector<int64_t> built;
    std::vector<int64_t> shipped;
};

TEST(TgnTest, HostBuildsOnlyTheMessagesItShips)
{
    // Each batch's host message build covers exactly the payload it ships:
    // the full message uncached; with the device cache only the time
    // encoding and edge features, since the two memory slices are
    // assembled on the device from cache-resident rows. The numerics do not
    // change.
    const auto ds = TinyInteractions();
    const auto run_with = [&](int64_t cache_rows) {
        Tgn model(ds, TgnConfig{16, 16, 2, 11});
        RunConfig run = SmallRun(sim::ExecMode::kHybrid);
        run.cache.capacity_bytes = cache_rows * model.CacheRowBytes();
        TgnMessageBytes bytes;
        sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
        rt.SetObserver(&bytes);
        const RunResult result = model.RunInference(rt, run);
        EXPECT_EQ(static_cast<int64_t>(bytes.built.size()), result.iterations);
        EXPECT_EQ(bytes.built, bytes.shipped);
        return std::pair{bytes.built, result.output_checksum};
    };
    const auto [uncached, uncached_checksum] = run_with(0);
    const auto [cached, cached_checksum] = run_with(20);
    ASSERT_EQ(uncached.size(), cached.size());
    for (size_t batch = 0; batch < cached.size(); ++batch) {
        EXPECT_LT(cached[batch], uncached[batch]) << "batch " << batch;
    }
    EXPECT_EQ(cached_checksum, uncached_checksum);
}

TEST(JodieTest, RunsWithPaperCategories)
{
    const auto ds = TinyInteractions();
    Jodie model(ds, JodieConfig{16, 13});
    sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
    const RunResult r = model.RunInference(rt, SmallRun(sim::ExecMode::kHybrid));
    EXPECT_GT(r.total_us, 0.0);
    EXPECT_GT(r.breakdown.SharePct("Load Embedding"), 0.0);
    EXPECT_GT(r.breakdown.SharePct("Project User Embedding"), 0.0);
    EXPECT_GT(r.breakdown.SharePct("Predict Item Embedding"), 0.0);
    EXPECT_GT(r.breakdown.SharePct("Update Embedding"), 0.0);
}

TEST(JodieTest, DeterministicAndEmbeddingsEvolve)
{
    const auto ds = TinyInteractions();
    ExpectDeterministic(
        [&] { return std::make_unique<Jodie>(ds, JodieConfig{16, 13}); },
        SmallRun(sim::ExecMode::kCpuOnly));

    Jodie model(ds, JodieConfig{16, 13});
    const Tensor before = model.UserEmbeddings().Table();
    sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
    model.RunInference(rt, SmallRun(sim::ExecMode::kHybrid));
    const Tensor after = model.UserEmbeddings().Table();
    double diff = 0.0;
    for (int64_t i = 0; i < before.NumElements(); ++i) {
        diff += std::fabs(before.At(i) - after.At(i));
    }
    EXPECT_GT(diff, 1e-3);
}

TEST(EvolveGcnTest, BothVariantsRun)
{
    const auto ds = TinySnapshots();
    for (const auto variant : {EvolveGcnVariant::kO, EvolveGcnVariant::kH}) {
        EvolveGcn model(ds, EvolveGcnConfig{variant, 8, 17});
        sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
        const RunResult r =
            model.RunInference(rt, SmallRun(sim::ExecMode::kHybrid));
        EXPECT_EQ(r.iterations, 4);  // one per snapshot
        EXPECT_GT(r.breakdown.SharePct("GNN"), 0.0);
        EXPECT_GT(r.breakdown.SharePct("RNN"), 0.0);
        EXPECT_GT(r.breakdown.SharePct("Memory Copy"), 0.0);
        if (variant == EvolveGcnVariant::kH) {
            EXPECT_GT(r.breakdown.SharePct("top-k"), 0.0);
            EXPECT_EQ(r.model, "EvolveGCN-H");
        } else {
            EXPECT_EQ(r.breakdown.SharePct("top-k"), 0.0);
            EXPECT_EQ(r.model, "EvolveGCN-O");
        }
    }
}

TEST(EvolveGcnTest, WeightsEvolveAcrossSteps)
{
    const auto ds = TinySnapshots();
    EvolveGcn model(ds, EvolveGcnConfig{EvolveGcnVariant::kO, 8, 17});
    const Tensor w_before = model.LayerWeight(0);
    sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
    model.RunInference(rt, SmallRun(sim::ExecMode::kHybrid));
    const Tensor w_after = model.LayerWeight(0);
    double diff = 0.0;
    for (int64_t i = 0; i < w_before.NumElements(); ++i) {
        diff += std::fabs(w_before.At(i) - w_after.At(i));
    }
    EXPECT_GT(diff, 1e-3);
    EXPECT_THROW(model.LayerWeight(5), Error);
}

TEST(MolDgnnTest, RunsWithMemoryCopyDominant)
{
    const auto ds = TinyMolecular();
    MolDgnn model(ds, MolDgnnConfig{8, 16, 19});
    sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
    RunConfig run = SmallRun(sim::ExecMode::kHybrid);
    run.batch_size = 8;
    const RunResult r = model.RunInference(rt, run);
    EXPECT_EQ(r.iterations, 3);  // 24 frames / 8
    EXPECT_GT(r.breakdown.SharePct("Memory Copy"), 0.0);
    EXPECT_GT(r.breakdown.SharePct("GCN"), 0.0);
    EXPECT_GT(r.breakdown.SharePct("LSTM"), 0.0);
    EXPECT_GT(r.breakdown.SharePct("FFN"), 0.0);
}

TEST(MolDgnnTest, Deterministic)
{
    const auto ds = TinyMolecular();
    ExpectDeterministic(
        [&] { return std::make_unique<MolDgnn>(ds, MolDgnnConfig{8, 16, 19}); },
        SmallRun(sim::ExecMode::kHybrid));
}

TEST(AstgnnTest, RunsWithPaperCategories)
{
    const auto ds = TinyTraffic();
    Astgnn model(ds, AstgnnConfig{8, 2, 1, 1, 23});
    sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
    RunConfig run = SmallRun(sim::ExecMode::kHybrid);
    run.batch_size = 4;
    const RunResult r = model.RunInference(rt, run);
    EXPECT_GT(r.total_us, 0.0);
    EXPECT_GT(r.breakdown.SharePct("Temporal Attention"), 0.0);
    EXPECT_GT(r.breakdown.SharePct("Spatial-attention GCN"), 0.0);
    EXPECT_GT(r.breakdown.SharePct("Position Encoding"), 0.0);
    EXPECT_GT(r.breakdown.SharePct("Memory Copy"), 0.0);
    EXPECT_GT(r.breakdown.SharePct("Etc(data loading, cuda sync)"), 0.0);
}

TEST(AstgnnTest, TemporalAttentionDominatesSpatial)
{
    // Paper 4.2.2: temporal attention > 3x spatial GCN.
    const auto ds = TinyTraffic();
    Astgnn model(ds, AstgnnConfig{8, 2, 2, 2, 23});
    sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
    RunConfig run = SmallRun(sim::ExecMode::kHybrid);
    run.batch_size = 8;
    const RunResult r = model.RunInference(rt, run);
    EXPECT_GT(r.breakdown.TimeUs("Temporal Attention"),
              r.breakdown.TimeUs("Spatial-attention GCN"));
}

TEST(DyRepTest, SequentialEventsAndIntensity)
{
    const auto ds = TinyPointProcess();
    DyRep model(ds, DyRepConfig{8, 3, 29});
    sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
    const RunResult r = model.RunInference(rt, SmallRun(sim::ExecMode::kHybrid));
    EXPECT_EQ(r.iterations, 60);  // one per event
    EXPECT_GT(r.breakdown.SharePct("Temporal Attention"), 0.0);
    EXPECT_GT(r.breakdown.SharePct("Node Embedding Update"), 0.0);
    EXPECT_GT(r.breakdown.SharePct("Conditional Intensity"), 0.0);
    // Intensities are positive (softplus).
    EXPECT_GT(model.Intensity(0, 1), 0.0);
}

TEST(DyRepTest, ExpectedNextEventTimeIsInverseIntensity)
{
    const auto ds = TinyPointProcess();
    DyRep model(ds, DyRepConfig{8, 3, 29});
    const double lambda = model.Intensity(0, 1);
    EXPECT_GT(lambda, 0.0);
    EXPECT_NEAR(model.ExpectedNextEventTime(0, 1), 1.0 / lambda, 1e-12);
    // Hotter pairs (higher intensity) are expected sooner.
    const double t01 = model.ExpectedNextEventTime(0, 1);
    const double t23 = model.ExpectedNextEventTime(2, 3);
    EXPECT_NE(t01, t23);
}

TEST(DyRepTest, Deterministic)
{
    const auto ds = TinyPointProcess();
    ExpectDeterministic(
        [&] { return std::make_unique<DyRep>(ds, DyRepConfig{8, 3, 29}); },
        SmallRun(sim::ExecMode::kHybrid));
}

TEST(LdgTest, BothEncodersRun)
{
    const auto ds = TinyPointProcess();
    for (const auto enc : {LdgEncoder::kMlp, LdgEncoder::kBilinear}) {
        Ldg model(ds, LdgConfig{enc, 8, 4, 3, 31});
        sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
        const RunResult r =
            model.RunInference(rt, SmallRun(sim::ExecMode::kHybrid));
        EXPECT_EQ(r.iterations, 60);
        EXPECT_GT(r.breakdown.SharePct("Encoder (NRI)"), 0.0);
        EXPECT_GT(r.breakdown.SharePct("Bilinear Decoder"), 0.0);
        if (enc == LdgEncoder::kMlp) {
            EXPECT_EQ(r.model, "LDG-MLP");
        } else {
            EXPECT_EQ(r.model, "LDG-bilinear");
        }
    }
}

TEST(LdgTest, PairScoreIsBilinear)
{
    const auto ds = TinyPointProcess();
    Ldg model(ds, LdgConfig{LdgEncoder::kMlp, 8, 4, 3, 31});
    // Bilinear form: score depends on both arguments.
    const double s01 = model.PairScore(0, 1);
    const double s02 = model.PairScore(0, 2);
    EXPECT_NE(s01, s02);
}

TEST(AllModelsTest, WarmupReportedOnGpuRuns)
{
    const TinyZoo zoo;
    for (const auto& model : zoo.Models()) {
        sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
        const RunResult r = model->RunInference(rt, SmallRun(sim::ExecMode::kHybrid));
        EXPECT_GT(r.warmup_one_time_us, 1e6) << model->Name();  // seconds
        EXPECT_GT(r.warmup_per_run_us, 0.0) << model->Name();
        // Warm-up is outside the measured window.
        EXPECT_LT(r.total_us, r.warmup_one_time_us) << model->Name();
        EXPECT_TRUE(rt.IsWarm()) << model->Name();
    }
    // The serving probe turns warm-up off: nothing is charged or reported.
    for (const auto& model : zoo.Models()) {
        sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
        const RunResult r =
            model->RunInference(rt, SingleBatchProbe(sim::ExecMode::kHybrid, 16, 4));
        EXPECT_EQ(r.warmup_one_time_us, 0.0) << model->Name();
        EXPECT_EQ(r.warmup_per_run_us, 0.0) << model->Name();
        EXPECT_FALSE(rt.IsWarm()) << model->Name();
    }
}

TEST(AllModelsTest, SampledModelsRejectZeroNeighborsBeforeWarmup)
{
    const TinyZoo zoo;
    RunConfig run = SmallRun(sim::ExecMode::kHybrid);
    run.num_neighbors = 0;
    for (const auto& model : zoo.Models()) {
        const std::string name = model->Name();
        sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
        if (name != "TGAT" && name != "TGN") {
            // The other six sample no per-run temporal neighbors.
            EXPECT_NO_THROW(model->RunInference(rt, run)) << name;
            continue;
        }
        try {
            model->RunInference(rt, run);
            ADD_FAILURE() << name << " accepted num_neighbors = 0";
        } catch (const Error& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("RunConfig::num_neighbors"), std::string::npos)
                << what;
        }
        EXPECT_EQ(rt.Now(), 0.0) << name << " charged time before rejecting";
    }
}

TEST(AllModelsTest, AttentionModelsRejectZeroHeadsAtConstruction)
{
    const TinyZoo zoo;
    TgatConfig tgat{16, 2, 1, 4, 7};
    tgat.num_heads = 0;
    EXPECT_THROW(Tgat(zoo.interactions, tgat), Error);
    TgnConfig tgn{16, 16, 2, 11};
    tgn.num_heads = 0;
    EXPECT_THROW(Tgn(zoo.interactions, tgn), Error);
    AstgnnConfig astgnn{8, 2, 1, 1, 23};
    astgnn.num_heads = 0;
    EXPECT_THROW(Astgnn(zoo.traffic, astgnn), Error);
}

TEST(AllModelsTest, NumericCapKeepsCostAccountingIdentical)
{
    // With a numeric cap the simulated run must not change — only the
    // host-side math volume does: every RunResult field but the checksum is
    // identical, for all eight models in both modes.
    const TinyZoo zoo;
    for (const sim::ExecMode mode : {sim::ExecMode::kCpuOnly, sim::ExecMode::kHybrid}) {
        RunConfig capped = SmallRun(mode);
        capped.numeric_cap = 1;
        const auto full_models = zoo.Models();
        const auto capped_models = zoo.Models();
        ASSERT_EQ(full_models.size(), 8u);
        for (size_t i = 0; i < full_models.size(); ++i) {
            sim::Runtime rt_full = MakeRuntime(mode);
            sim::Runtime rt_capped = MakeRuntime(mode);
            RunResult a = full_models[i]->RunInference(rt_full, SmallRun(mode));
            RunResult b = capped_models[i]->RunInference(rt_capped, capped);
            a.output_checksum = 0.0;
            b.output_checksum = 0.0;
            EXPECT_EQ(RenderRun(a), RenderRun(b));
        }
    }
}

TEST(AllModelsTest, CategoryTimesPartitionElapsedWindow)
{
    // Invariant the Fig 7 breakdowns rely on: after a full run, the
    // per-category host times partition the measured window exactly —
    // every microsecond the host spends is attributed to exactly one
    // category (async kernel time is captured through the Synchronize
    // waits the models perform).
    const TinyZoo zoo;
    const auto all = zoo.Models();
    ASSERT_EQ(all.size(), 8u);  // every model in models/

    for (const auto& model : all) {
        for (const sim::ExecMode mode :
             {sim::ExecMode::kCpuOnly, sim::ExecMode::kHybrid}) {
            sim::Runtime rt = MakeRuntime(mode);
            model->RunInference(rt, SmallRun(mode));
            double category_sum = 0.0;
            for (const auto& [category, time_us] : rt.CategoryTimes()) {
                category_sum += time_us;
            }
            // Exact partition up to double rounding: the same host-time
            // deltas are summed in different association orders, so allow
            // a 1e-9 relative slack (sub-nanosecond here).
            const double tolerance =
                1e-9 * std::max(1.0, rt.ElapsedInWindow());
            EXPECT_NEAR(category_sum, rt.ElapsedInWindow(), tolerance)
                << model->Name() << " in mode " << sim::ToString(mode);
        }
    }
}

TEST(AllModelsTest, HybridChecksumsArePinned)
{
    // Absolute pins on every model's hybrid output checksum: any change to
    // the host numerics (summation order in a kernel, a reordered op) moves
    // the last bits and fails here. The tiny configs (embed dims 8/16) hit
    // the GEMM kernel's row and column tails; the default TGAT and TGN run
    // the full 172 -> 64 feature projections.
    const TinyZoo zoo;
    data::InteractionSpec wide_spec;
    wide_spec.name = "tiny-172";
    wide_spec.num_users = 20;
    wide_spec.num_items = 12;
    wide_spec.num_events = 120;
    wide_spec.seed = 5;
    const auto wide = data::GenerateInteractions(wide_spec);
    ASSERT_EQ(wide.edge_features.Dim(1), 172);

    // Literals generated with the plain scalar GEMM loop, before blocking,
    // then re-pinned when Rng::Normal began to draw normals in pairs (which
    // moved the weights and features; every GEMM kernel matches that loop
    // bit for bit).
    // JODIE, TGAT, TGN, DyRep, LDG-MLP, EvolveGCN-O, ASTGNN, MolDGNN.
    const std::array<double, 8> tiny_pins = {
        0x1.c5242f859f192p+4,  0x1.40337e656dd3ep+10, 0x1.a332ac551c888p+7,
        0x1.9c1d91d073674p+5,  -0x1.25e87a7005553p+4, 0x1.9235896f71693p-1,
        -0x1.02060a3f8d6b6p+5, 0x1.68f4acd591844p+8};
    std::vector<std::pair<std::unique_ptr<DgnnModel>, double>> pins;
    auto tiny = zoo.Models();
    ASSERT_EQ(tiny.size(), tiny_pins.size());
    for (size_t i = 0; i < tiny.size(); ++i) {
        pins.emplace_back(std::move(tiny[i]), tiny_pins[i]);
    }
    pins.emplace_back(std::make_unique<Tgat>(wide, TgatConfig{}), 0x1.c53b9a16dff2ep+11);
    pins.emplace_back(std::make_unique<Tgn>(wide, TgnConfig{}), -0x1.14763679966e1p+8);

    for (const auto& [model, expected] : pins) {
        sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
        const RunResult r = model->RunInference(rt, SmallRun(sim::ExecMode::kHybrid));
        EXPECT_EQ(HexFloat(r.output_checksum), HexFloat(expected)) << model->Name();
    }
}

TEST(AllModelsTest, FeatureValuesNeverReachTheSimulatedClock)
{
    // The generators draw structure (events, edges, atom motion) before
    // their Normal features, so a change in how normals are drawn moves
    // feature values only. This holds the other half: no model lets a
    // feature value reach the simulated clock. Every feature tensor is
    // redrawn from another seed at the same shape; every RunResult field
    // but the output checksum must stay bit-identical.
    const TinyZoo zoo;
    TinyZoo redrawn;
    Rng rng(2027);
    for (Tensor* features :
         {&redrawn.interactions.edge_features, &redrawn.interactions.node_features,
          &redrawn.snapshots.node_features, &redrawn.traffic.signal,
          &redrawn.molecular.atom_features}) {
        *features = init::Normal(features->GetShape(), rng, 0.3f);
    }

    for (const sim::ExecMode mode : {sim::ExecMode::kCpuOnly, sim::ExecMode::kHybrid}) {
        const auto base = zoo.Models();
        const auto other = redrawn.Models();
        ASSERT_EQ(base.size(), 8u);
        for (size_t i = 0; i < base.size(); ++i) {
            sim::Runtime rt_base = MakeRuntime(mode);
            sim::Runtime rt_other = MakeRuntime(mode);
            RunResult a = base[i]->RunInference(rt_base, SmallRun(mode));
            RunResult b = other[i]->RunInference(rt_other, SmallRun(mode));
            // JODIE, DyRep and LDG read no dataset features; every other
            // model must see the redrawn values, or this test proves nothing.
            const bool reads_features = i != 0 && i != 3 && i != 4;
            EXPECT_EQ(a.output_checksum != b.output_checksum, reads_features)
                << a.model << " " << a.mode;
            a.output_checksum = 0.0;
            b.output_checksum = 0.0;
            EXPECT_EQ(RenderRun(a), RenderRun(b));
        }
    }
}

/// Records every op a run issues without its timing: kind, name, bytes,
/// stream, blocking flag, cache tag and issuing descriptor, one line each.
struct OpStructureRecorder final : sim::RuntimeObserver {
    void OnOp(const sim::OpRecord& op) override
    {
        std::ostringstream line;
        line << static_cast<int>(op.kind) << " " << *op.name << " " << op.bytes
             << " host " << op.on_host << " stream "
             << static_cast<int>(op.stream) << " blocking " << op.blocking
             << " cache " << static_cast<int>(op.cache);
        if (op.kernel != nullptr) {
            line << " {" << op.kernel->name << " " << op.kernel->flops << " "
                 << op.kernel->bytes << " " << op.kernel->parallel_items << " "
                 << op.kernel->irregular << "}";
        }
        ops.push_back(line.str());
    }
    std::vector<std::string> ops;
};

TEST(AllModelsTest, OpStructureNeverDependsOnCost)
{
    // Structure never depends on cost (DESIGN.md §2): every model issues
    // the same ops — kind, name, bytes, stream, blocking flag, cache tag and
    // descriptor — under any hardware description; only the timing moves.
    // Two perturbed nodes against the default, in both modes, with the
    // cache off and on (the pins' 20-row cache: hits, misses, evictions and
    // write-backs).
    std::vector<sim::TopologyNode> nodes(3);
    nodes[1].gpu.peak_gflops *= 2.0;
    nodes[1].host_link.bandwidth_gbps *= 0.5;
    nodes[1].cpu.launch_overhead_us *= 3.0;
    nodes[2].gpu.launch_overhead_us *= 4.0;
    nodes[2].cpu.peak_gflops *= 0.3;
    nodes[2].gpu.irregular_penalty *= 2.0;
    nodes[2].host_link.latency_us *= 3.0;

    const TinyZoo zoo;
    for (const sim::ExecMode mode : {sim::ExecMode::kCpuOnly, sim::ExecMode::kHybrid}) {
        for (const bool cached : {false, true}) {
            std::vector<std::vector<std::string>> default_ops;
            std::vector<double> default_windows;
            for (size_t n = 0; n < nodes.size(); ++n) {
                sim::RuntimeConfig config;
                config.mode = mode;
                config.topology = sim::Topology{};
                config.topology.AddNode(nodes[n]);
                const auto models = zoo.Models();
                size_t moved = 0;
                for (size_t i = 0; i < models.size(); ++i) {
                    RunConfig run = SmallRun(mode);
                    run.numeric_cap = 1;
                    run.cache.capacity_bytes =
                        cached ? 20 * models[i]->CacheRowBytes() : 0;
                    sim::Runtime rt(config);
                    OpStructureRecorder recorder;
                    rt.SetObserver(&recorder);
                    const double window = models[i]->RunInference(rt, run).total_us;
                    if (n == 0) {
                        default_ops.push_back(std::move(recorder.ops));
                        default_windows.push_back(window);
                        continue;
                    }
                    SCOPED_TRACE(models[i]->Name() + " " + sim::ToString(mode) +
                                 (cached ? " cached" : "") + " node " +
                                 std::to_string(n));
                    EXPECT_FALSE(recorder.ops.empty());
                    EXPECT_EQ(recorder.ops, default_ops[i]);
                    moved += window != default_windows[i] ? 1 : 0;
                }
                // The perturbation bites: the same ops take other times in
                // most runs (DyRep's and LDG's launch-bound hybrid windows
                // ignore the first node's changes).
                if (n > 0) {
                    EXPECT_GE(moved, models.size() / 2) << "node " << n;
                }
            }
        }
    }
}

TEST(AllModelsTest, SimulatedWindowsArePinned)
{
    // Goldens print 2-decimal ms, so drift below print precision slips past
    // them; these pins catch it. Rows: the eight models CPU-only, then
    // hybrid, then cached hybrid runs of JODIE and TGN. A 20-row cache
    // holds fewer rows than the 32 nodes, so gathers hit, miss, evict and
    // write back. TGN's rows were
    // re-pinned when its numerics stopped re-sampling neighborhoods that the
    // next batch's sampling kernel was charged for; its cached row again
    // when the host stopped building the memory slices the cache assembles
    // on the device.
    const TinyZoo zoo;
    std::vector<std::string> runs;
    for (const sim::ExecMode mode : {sim::ExecMode::kCpuOnly, sim::ExecMode::kHybrid}) {
        for (const auto& model : zoo.Models()) {
            sim::Runtime rt = MakeRuntime(mode);
            runs.push_back(RenderRun(model->RunInference(rt, SmallRun(mode))));
        }
    }
    const auto cached = zoo.Models();
    for (size_t i = 0; i < 3; ++i) {
        ASSERT_GT(cached[i]->CacheRowBytes(), 0) << cached[i]->Name();
        if (!cached[i]->CacheRowsMutable()) {
            continue;  // TGAT ignores RunConfig::cache (ModelCacheTest)
        }
        RunConfig run = SmallRun(sim::ExecMode::kHybrid);
        run.cache.capacity_bytes = 20 * cached[i]->CacheRowBytes();
        sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
        runs.push_back(RenderRun(cached[i]->RunInference(rt, run)));
    }

    const std::vector<std::string> pins = {
    R"(JODIE tiny CPU
window 0x1.3002ecfb9c898p+11 per_iteration 0x1.3002ecfb9c898p+8 iterations 8
compute util_pct 0x1.58bd29d58f378p+6 busy_us 0x1.0602ecfb9c86ap+11
peak_bytes compute 7552 cpu 7552
transfer h2d 0 d2h 0 count 0 time_us 0x0p+0
warmup one_time 0x1.77050ap+12 per_run 0x1.80028f5c28f5cp+1
checksum 0x1.c5242f859f192p+4
breakdown 0x1.3002ecfb9c86ap+11
  Load Embedding 0x1.f926e978d4fdfp+10 0x1.4c53088458586p+6
  Update Embedding 0x1.c75e802572fb9p+7 0x1.2b92de04cae85p+3
  Predict Item Embedding 0x1.89eddc4e68bd7p+6 0x1.0327777f59b3bp+2
  Project User Embedding 0x1.55442b4cf23fbp+6 0x1.c104886315e99p+1
cache lookups 0 hits 0 misses 0 insertions 0 evictions 0
cache writeback_rows 0 hit_bytes 0 miss_bytes 0 runtime_hit_bytes 0
)",
    R"(TGAT tiny CPU
window 0x1.20d355d728336p+12 per_iteration 0x1.20d355d728336p+9 iterations 8
compute util_pct 0x1.8a75d7c2655d5p+6 busy_us 0x1.1cd355d728331p+12
peak_bytes compute 32512 cpu 32512
transfer h2d 0 d2h 0 count 0 time_us 0x0p+0
warmup one_time 0x1.77069p+12 per_run 0x1.800a3d70a3d71p+1
checksum 0x1.40337e656dd3ep+10
breakdown 0x1.20d355d728331p+12
  Sampling (CPU) 0x1.17b4a2339c0ecp+12 0x1.835ea07e8d48bp+6
  Attention Layer 0x1.01076e6a9cef7p+7 0x1.63f6e427742bap+1
  Time Encoding 0x1.167830373ccbfp+4 0x1.81a8603715ef5p-2
cache lookups 0 hits 0 misses 0 insertions 0 evictions 0
cache writeback_rows 0 hit_bytes 0 miss_bytes 0 runtime_hit_bytes 0
)",
    R"(TGN tiny CPU
window 0x1.2f3d8e535da16p+11 per_iteration 0x1.2f3d8e535da16p+8 iterations 8
compute util_pct 0x1.8572837290131p+6 busy_us 0x1.273d8e535da2p+11
peak_bytes compute 40900 cpu 40900
transfer h2d 0 d2h 0 count 0 time_us 0x0p+0
warmup one_time 0x1.7713a1fp+12 per_run 0x1.8008f5c28f5c3p+1
checksum 0x1.a332ac551c888p+7
breakdown 0x1.2f3d8e535da2p+11
  Update Memory 0x1.b9469675b1158p+9 0x1.230a473756eb4p+5
  Compute Embedding 0x1.9ad09f788f163p+9 0x1.0ef330290c1eap+5
  Aggregate Messages Passing 0x1.68df035f365c5p+9 0x1.dc05113f39ec5p+4
cache lookups 0 hits 0 misses 0 insertions 0 evictions 0
cache writeback_rows 0 hit_bytes 0 miss_bytes 0 runtime_hit_bytes 0
)",
    R"(DyRep social_evolution CPU
window 0x1.441dd7a0093ap+9 per_iteration 0x1.59b96e88926p+3 iterations 60
compute util_pct 0x1.dc3494345cf16p+2 busy_us 0x1.81dd7a0095cbcp+5
peak_bytes compute 2820 cpu 2820
transfer h2d 0 d2h 0 count 0 time_us 0x0p+0
warmup one_time 0x1.7702247p+12 per_run 0x1.8001333333333p+1
checksum 0x1.9c1d91d073674p+5
breakdown 0x1.441dd7a0095d1p+9
  Temporal Attention 0x1.10cdf864a502dp+8 0x1.50acb4eadc77p+5
  Node Embedding Update 0x1.fdd7a0095ccp+7 0x1.3a9ab165a1cb9p+5
  Conditional Intensity 0x1.e2079b5afd5d4p+6 0x1.2971335f037adp+4
cache lookups 0 hits 0 misses 0 insertions 0 evictions 0
cache writeback_rows 0 hit_bytes 0 miss_bytes 0 runtime_hit_bytes 0
)",
    R"(LDG-MLP social_evolution CPU
window 0x1.88337e192964p+9 per_iteration 0x1.a2590f09c5cp+3 iterations 60
compute util_pct 0x1.06bb4e0a6b5e2p+3 busy_us 0x1.019bf0c94a065p+6
peak_bytes compute 3408 cpu 3408
transfer h2d 0 d2h 0 count 0 time_us 0x0p+0
warmup one_time 0x1.7702ae4p+12 per_run 0x1.8001333333333p+1
checksum -0x1.25e87a7005553p+4
breakdown 0x1.88337e192940cp+9
  Temporal Attention 0x1.10cdf864a502dp+8 0x1.163aafeb16c17p+5
  Node Embedding Update 0x1.f6d210f819bf7p+7 0x1.0068d78e6bd08p+5
  Encoder (NRI) 0x1.146cd6298b8e7p+7 0x1.19ebfbeb046bfp+4
  Bilinear Decoder 0x1.e7e640f36b5f5p+6 0x1.f199ea43ece09p+3
cache lookups 0 hits 0 misses 0 insertions 0 evictions 0
cache writeback_rows 0 hit_bytes 0 miss_bytes 0 runtime_hit_bytes 0
)",
    R"(EvolveGCN-O tiny CPU
window 0x1.0d3df774f856p+10 per_iteration 0x1.0d3df774f856p+8 iterations 4
compute util_pct 0x1.7e2c13ba73044p+6 busy_us 0x1.013df774f855ap+10
peak_bytes compute 8016 cpu 8016
transfer h2d 0 d2h 0 count 0 time_us 0x0p+0
warmup one_time 0x1.770438p+12 per_run 0x1.8008851eb851fp+1
checksum 0x1.9235896f71693p-1
breakdown 0x1.0d3df774f855ap+10
  Memory Copy 0x1.f4p+9 0x1.7369ba53a3c71p+6
  GNN 0x1.7ee362f299a89p+5 0x1.1c6b59435042bp+2
  RNN 0x1.d1b71758e2197p+4 0x1.59f20304e699ep+1
cache lookups 0 hits 0 misses 0 insertions 0 evictions 0
cache writeback_rows 0 hit_bytes 0 miss_bytes 0 runtime_hit_bytes 0
)",
    R"(ASTGNN pems CPU
window 0x1.861a54d880bb8p+9 per_iteration 0x1.861a54d880bb8p+8 iterations 2
compute util_pct 0x1.83b20fbfebd6fp+6 busy_us 0x1.7a1a54d880bb4p+9
peak_bytes compute 199176 cpu 199176
transfer h2d 0 d2h 0 count 0 time_us 0x0p+0
warmup one_time 0x1.770188dp+12 per_run 0x1.81eb851eb851fp+1
checksum -0x1.02060a3f8d6b6p+5
breakdown 0x1.861a54d880bb4p+9
  Etc(data loading, cuda sync) 0x1.01c28f5c28f5cp+9 0x1.084cadb254de5p+6
  Temporal Attention 0x1.bd4d880bb3ee7p+7 0x1.c899b78d2988bp+4
  Spatial-attention GCN 0x1.118de5ab277f4p+5 0x1.187e98f78e1f4p+2
  Position Encoding 0x1.f5c28f5c28f5cp+2 0x1.013eb6b9f763ep+0
cache lookups 0 hits 0 misses 0 insertions 0 evictions 0
cache writeback_rows 0 hit_bytes 0 miss_bytes 0 runtime_hit_bytes 0
)",
    R"(MolDGNN iso17 CPU
window 0x1.14a28c634f42p+9 per_iteration 0x1.14a28c634f42p+8 iterations 2
compute util_pct 0x1.875305c4ed455p+6 busy_us 0x1.0ea28c634f422p+9
peak_bytes compute 80132 cpu 80132
transfer h2d 0 d2h 0 count 0 time_us 0x0p+0
warmup one_time 0x1.773435fp+12 per_run 0x1.8039c28f5c28fp+1
checksum 0x1.68f4acd591844p+8
breakdown 0x1.14a28c634f422p+9
  Memory Copy 0x1.fb77318fc5047p+8 0x1.6ee278c63aadp+6
  LSTM 0x1.69b87edbe58d4p+4 0x1.0583ca7a90cd3p+2
  FFN 0x1.b28a67697e7fp+3 0x1.3a296a04758f5p+1
  GCN 0x1.33c181b9e65eep+3 0x1.bcffd07e26676p+0
cache lookups 0 hits 0 misses 0 insertions 0 evictions 0
cache writeback_rows 0 hit_bytes 0 miss_bytes 0 runtime_hit_bytes 0
)",
    R"(JODIE tiny GPU
window 0x1.981b4a2331p+11 per_iteration 0x1.981b4a2331p+8 iterations 8
compute util_pct 0x1.4f1f31c192b79p-2 busy_us 0x1.55e9e1b0899fep+3
peak_bytes compute 7552 cpu 0
transfer h2d 15360 d2h 15360 count 16 time_us 0x1.451eb851fp+7
warmup one_time 0x1.6e36e6ccacb6fp+22 per_run 0x1.4b464p+12
checksum 0x1.c5242f859f192p+4
breakdown 0x1.981b4a232fffp+11
  Load Embedding 0x1.06bc6a7ef9ffp+11 0x1.01845c264a651p+6
  Update Embedding 0x1.033dbf486cp+10 0x1.fc2eecf3656c6p+4
  Predict Item Embedding 0x1.f8p+5 0x1.edfd139b87fa1p+0
  Project User Embedding 0x1.f8p+5 0x1.edfd139b87fa1p+0
cache lookups 0 hits 0 misses 0 insertions 0 evictions 0
cache writeback_rows 0 hit_bytes 0 miss_bytes 0 runtime_hit_bytes 0
)",
    R"(TGAT tiny GPU
window 0x1.31567fb698cp+12 per_iteration 0x1.31567fb698cp+9 iterations 8
compute util_pct 0x1.968f4f7d44ffap-2 busy_us 0x1.3658644523f6ap+4
peak_bytes compute 32512 cpu 0
transfer h2d 17280 d2h 15360 count 16 time_us 0x1.4570a3d7p+7
warmup one_time 0x1.6e37207bab597p+22 per_run 0x1.4b59p+12
checksum 0x1.40337e656dd3ep+10
breakdown 0x1.31567fb6988ecp+12
  Sampling (CPU) 0x1.17b4a2339c0ecp+12 0x1.6e6bcc518ec1fp+6
  Memory Copy 0x1.4570a3d7p+7 0x1.aa5591ae2103bp+1
  Attention Layer 0x1.0f0b851ea8p+7 0x1.631353674410ep+1
  Time Encoding 0x1.f21719f7cp+5 0x1.46414f63b22a7p+0
  Cuda Synchronization 0x1.8ce703afep+5 0x1.03f9d20dd3312p+0
cache lookups 0 hits 0 misses 0 insertions 0 evictions 0
cache writeback_rows 0 hit_bytes 0 miss_bytes 0 runtime_hit_bytes 0
)",
    R"(TGN tiny GPU
window 0x1.4c94d898aep+11 per_iteration 0x1.4c94d898aep+8 iterations 8
compute util_pct 0x1.a123de95cf504p-1 busy_us 0x1.5ad527e521579p+4
peak_bytes compute 40900 cpu 0
transfer h2d 63360 d2h 9120 count 32 time_us 0x1.460a3d70ap+8
warmup one_time 0x1.6e390f5e8b53fp+22 per_run 0x1.4b55ep+12
checksum 0x1.a332ac551c888p+7
breakdown 0x1.4c94d898b2ac4p+11
  Compute Embedding 0x1.f27fd44f2d14ap+9 0x1.2bc69b4e68a31p+5
  Aggregate Messages Passing 0x1.a94ff513d047p+9 0x1.ff8756484e3b9p+4
  Update Memory 0x1.968398ffcd556p+9 0x1.e8eb731ae07e6p+4
cache lookups 0 hits 0 misses 0 insertions 0 evictions 0
cache writeback_rows 0 hit_bytes 0 miss_bytes 0 runtime_hit_bytes 0
)",
    R"(DyRep social_evolution GPU
window 0x1.da59a0276cp+10 per_iteration 0x1.f9f9335d4p+4 iterations 60
compute util_pct 0x1.8f63995c1f7bbp-2 busy_us 0x1.d9a02752545ffp+2
peak_bytes compute 2820 cpu 0
transfer h2d 0 d2h 0 count 0 time_us 0x0p+0
warmup one_time 0x1.6e36791e16148p+22 per_run 0x1.4b42eep+12
checksum 0x1.9c1d91d073674p+5
breakdown 0x1.da59a0276cp+10
  Conditional Intensity 0x1.8059a0276cp+10 0x1.441b4fec7731cp+6
  Node Embedding Update 0x1.68p+7 0x1.2f92c04e23391p+3
  Temporal Attention 0x1.68p+7 0x1.2f92c04e23391p+3
cache lookups 0 hits 0 misses 0 insertions 0 evictions 0
cache writeback_rows 0 hit_bytes 0 miss_bytes 0 runtime_hit_bytes 0
)",
    R"(LDG-MLP social_evolution GPU
window 0x1.1a567a0f8cp+11 per_iteration 0x1.2d290abb4p+5 iterations 60
compute util_pct 0x1.8a87ab3d87bdfp-2 busy_us 0x1.167a0f9096ba8p+3
peak_bytes compute 3408 cpu 0
transfer h2d 0 d2h 0 count 0 time_us 0x0p+0
warmup one_time 0x1.6e368d803b22dp+22 per_run 0x1.4b42eep+12
checksum -0x1.25e87a7005553p+4
breakdown 0x1.1a567a0f8cp+11
  Bilinear Decoder 0x1.c42cf41f18p+10 0x1.404ee7ef0b018p+6
  Node Embedding Update 0x1.68p+7 0x1.fe07006c865cep+2
  Temporal Attention 0x1.68p+7 0x1.fe07006c865cep+2
  Encoder (NRI) 0x1.68p+6 0x1.fe07006c865cep+1
cache lookups 0 hits 0 misses 0 insertions 0 evictions 0
cache writeback_rows 0 hit_bytes 0 miss_bytes 0 runtime_hit_bytes 0
)",
    R"(EvolveGCN-O tiny GPU
window 0x1.3806879adcp+10 per_iteration 0x1.3806879adcp+8 iterations 4
compute util_pct 0x1.746e0b5abd47ep-2 busy_us 0x1.2284dfce3150dp+2
peak_bytes compute 8016 cpu 0
transfer h2d 13632 d2h 5120 count 8 time_us 0x1.46402bb0cp+6
warmup one_time 0x1.6e36c7bd374bcp+22 per_run 0x1.4b54cdp+12
checksum 0x1.9235896f71693p-1
breakdown 0x1.3806879adcp+10
  Memory Copy 0x1.0e6402bb0cp+10 0x1.5aa0595a3231dp+6
  GNN 0x1.a75ca6cap+6 0x1.0f5d18ed1ccaep+3
  RNN 0x1.e5974e66p+5 0x1.37403882a34d3p+2
cache lookups 0 hits 0 misses 0 insertions 0 evictions 0
cache writeback_rows 0 hit_bytes 0 miss_bytes 0 runtime_hit_bytes 0
)",
    R"(ASTGNN pems GPU
window 0x1.4e14c87d08p+9 per_iteration 0x1.4e14c87d08p+8 iterations 2
compute util_pct 0x1.aebd9539d14e8p+0 busy_us 0x1.67c17b6b40227p+3
peak_bytes compute 199176 cpu 0
transfer h2d 115200 d2h 57600 count 4 time_us 0x1.b33333334p+5
warmup one_time 0x1.6e3662197cc75p+22 per_run 0x1.4ffp+12
checksum -0x1.02060a3f8d6b6p+5
breakdown 0x1.4e14c87d08f5cp+9
  Etc(data loading, cuda sync) 0x1.01c28f5c28f5cp+9 0x1.349e9dd2ca554p+6
  Temporal Attention 0x1.ec45b4304p+5 0x1.26b3c2a10bb57p+3
  Memory Copy 0x1.b33333334p+5 0x1.048914e2ebffp+3
  Spatial-attention GCN 0x1.0daaaaaa8p+5 0x1.42e0281446c8ep+2
  Position Encoding 0x1.8p+1 0x1.cbc4bb7247a5ap-2
cache lookups 0 hits 0 misses 0 insertions 0 evictions 0
cache writeback_rows 0 hit_bytes 0 miss_bytes 0 runtime_hit_bytes 0
)",
    R"(MolDGNN iso17 GPU
window 0x1.05cf876007p+10 per_iteration 0x1.05cf876007p+9 iterations 2
compute util_pct 0x1.412984888863fp-1 busy_us 0x1.a46b1cd569d99p+2
peak_bytes compute 80132 cpu 0
transfer h2d 63840 d2h 34656 count 48 time_us 0x1.e8353f7dp+8
warmup one_time 0x1.6e3de0e90bab6p+22 per_run 0x1.4bcd04p+12
checksum 0x1.68f4acd591844p+8
breakdown 0x1.05cf876007412p+10
  Memory Copy 0x1.f1d6388662824p+9 0x1.7c4d8c99bee93p+6
  GCN 0x1.2afb7e91p+4 0x1.c8cab2cfae699p+0
  FFN 0x1.14845f7f8p+4 0x1.a67802b7acb34p+0
  LSTM 0x1.f335d24ap+3 0x1.7d5a2408ea98ap+0
cache lookups 0 hits 0 misses 0 insertions 0 evictions 0
cache writeback_rows 0 hit_bytes 0 miss_bytes 0 runtime_hit_bytes 0
)",
    R"(JODIE tiny GPU
window 0x1.9e88bf2581p+11 per_iteration 0x1.9e88bf2581p+8 iterations 8
compute util_pct 0x1.643580dec0fa6p-2 busy_us 0x1.7126e978d4fdap+3
peak_bytes compute 8832 cpu 0
transfer h2d 3776 d2h 3776 count 16 time_us 0x1.96f60876fp+7
warmup one_time 0x1.6e36e6ccacb6fp+22 per_run 0x1.4b464p+12
checksum 0x1.c5242f859f192p+4
breakdown 0x1.9e88bf257fffp+11
  Load Embedding 0x1.160f6b73a2ffp+11 0x1.0c4fa04fa5c86p+6
  Update Embedding 0x1.ddd7a7869ap+9 0x1.cd16ab8e0c95ap+4
  Predict Item Embedding 0x1.f8p+5 0x1.e6543b70bff3bp+0
  Project User Embedding 0x1.f8p+5 0x1.e6543b70bff3bp+0
  Uncategorized 0x1.4369d0368p+3 0x1.3812f151129f4p-2
cache lookups 135 hits 76 misses 59 insertions 59 evictions 39
cache writeback_rows 59 hit_bytes 4864 miss_bytes 3776 runtime_hit_bytes 4864
)",
    R"(TGN tiny GPU
window 0x1.5bc459e4b98p+11 per_iteration 0x1.5bc459e4b98p+8 iterations 8
compute util_pct 0x1.9e970d6a73b9ep-1 busy_us 0x1.6873abc947067p+4
peak_bytes compute 42180 cpu 0
transfer h2d 36416 d2h 4256 count 40 time_us 0x1.be3d93979cp+8
warmup one_time 0x1.6e390f5e8b53fp+22 per_run 0x1.4b55ep+12
checksum 0x1.a332ac551c888p+7
breakdown 0x1.5bc459e4bd2e6p+11
  Aggregate Messages Passing 0x1.04ae3dfc7127ap+10 0x1.2bd56b1955f73p+5
  Compute Embedding 0x1.f27fd44f2d14ap+9 0x1.1eaf91e917774p+5
  Update Memory 0x1.6e27700a0b556p+9 0x1.a52611ba5857ap+4
  Uncategorized 0x1.4369d0368p+3 0x1.73fd103332d2cp-2
cache lookups 135 hits 76 misses 59 insertions 59 evictions 39
cache writeback_rows 59 hit_bytes 4864 miss_bytes 3776 runtime_hit_bytes 4864
)",
    };
    ASSERT_EQ(runs.size(), pins.size());
    for (size_t i = 0; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i], pins[i]) << "row " << i;
    }
}

}  // namespace
}  // namespace dgnn::models
