// End-to-end tests for the eight DGNN models: every model runs on both the
// CPU-only and CPU+GPU simulated systems on a tiny dataset with full
// numerics, produces a deterministic checksum, and reports the breakdown
// categories the paper's Fig 7 names.

#include <array>
#include <cstdio>
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

namespace dgnn::models {
namespace {

data::InteractionDataset
TinyInteractions()
{
    data::InteractionSpec spec;
    spec.name = "tiny";
    spec.num_users = 20;
    spec.num_items = 12;
    spec.num_events = 120;
    spec.edge_feature_dim = 8;
    spec.seed = 5;
    return data::GenerateInteractions(spec);
}

data::SnapshotDataset
TinySnapshots()
{
    data::SnapshotSpec spec;
    spec.name = "tiny";
    spec.num_nodes = 40;
    spec.num_steps = 4;
    spec.edges_per_step = 150;
    spec.node_feature_dim = 8;
    spec.seed = 6;
    return data::GenerateSnapshots(spec);
}

data::MolecularDataset
TinyMolecular()
{
    data::MolecularSpec spec;
    spec.num_frames = 24;
    spec.seed = 7;
    return data::GenerateMolecular(spec);
}

data::TrafficDataset
TinyTraffic()
{
    data::TrafficSpec spec;
    spec.num_sensors = 16;
    spec.num_timesteps = 48;
    spec.seed = 8;
    return data::GenerateTraffic(spec);
}

data::PointProcessDataset
TinyPointProcess()
{
    data::PointProcessSpec spec;
    spec.num_actors = 15;
    spec.num_events = 60;
    spec.seed = 9;
    return data::GeneratePointProcess(spec);
}

RunConfig
SmallRun(sim::ExecMode mode)
{
    RunConfig run;
    run.mode = mode;
    run.batch_size = 16;
    run.num_neighbors = 4;
    run.numeric_cap = 0;  // full numerics
    return run;
}

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

TEST(TgatTest, EmbeddingIsTimeDependent)
{
    const auto ds = TinyInteractions();
    Tgat model(ds, TgatConfig{16, 2, 1, 4, 7});
    graph::TemporalAdjacency adj(ds.stream);
    graph::TemporalNeighborSampler sampler(
        adj, graph::SamplingStrategy::kMostRecent, 3);
    const double t_mid = (ds.stream.StartTime() + ds.stream.EndTime()) / 2.0;
    const Tensor early = model.ComputeEmbedding(sampler, 0, t_mid, 4, 1);
    const Tensor late =
        model.ComputeEmbedding(sampler, 0, ds.stream.EndTime() + 1.0, 4, 1);
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
    const auto ds = TinyInteractions();
    Tgn model(ds, TgnConfig{16, 16, 2, 11});
    sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
    const RunResult r = model.RunInference(rt, SmallRun(sim::ExecMode::kHybrid));
    EXPECT_GT(r.warmup_one_time_us, 1e6);  // seconds of one-time warm-up
    EXPECT_GT(r.warmup_per_run_us, 0.0);
    // Warm-up is outside the measured window.
    EXPECT_LT(r.total_us, r.warmup_one_time_us);
}

TEST(AllModelsTest, NumericCapKeepsCostAccountingIdentical)
{
    // With a numeric cap the simulated timing must not change — only the
    // host-side math volume does.
    const auto ds = TinyInteractions();
    RunConfig full = SmallRun(sim::ExecMode::kHybrid);
    RunConfig capped = full;
    capped.numeric_cap = 2;

    Tgat m1(ds, TgatConfig{16, 2, 1, 4, 7});
    sim::Runtime r1 = MakeRuntime(sim::ExecMode::kHybrid);
    const RunResult a = m1.RunInference(r1, full);

    Tgat m2(ds, TgatConfig{16, 2, 1, 4, 7});
    sim::Runtime r2 = MakeRuntime(sim::ExecMode::kHybrid);
    const RunResult b = m2.RunInference(r2, capped);

    EXPECT_DOUBLE_EQ(a.total_us, b.total_us);
    EXPECT_EQ(a.h2d_bytes, b.h2d_bytes);
    EXPECT_EQ(a.iterations, b.iterations);
}

TEST(AllModelsTest, CategoryTimesPartitionElapsedWindow)
{
    // Invariant the Fig 7 breakdowns rely on: after a full run, the
    // per-category host times partition the measured window exactly —
    // every microsecond the host spends is attributed to exactly one
    // category (async kernel time is captured through the Synchronize
    // waits the models perform).
    const auto interactions = TinyInteractions();
    const auto snapshots = TinySnapshots();
    const auto molecular = TinyMolecular();
    const auto traffic = TinyTraffic();
    const auto point_process = TinyPointProcess();

    std::vector<std::unique_ptr<DgnnModel>> all;
    all.push_back(std::make_unique<Jodie>(interactions, JodieConfig{16, 13}));
    all.push_back(std::make_unique<Tgat>(interactions, TgatConfig{16, 2, 1, 4, 7}));
    all.push_back(std::make_unique<Tgn>(interactions, TgnConfig{16, 16, 2, 11}));
    all.push_back(std::make_unique<DyRep>(point_process, DyRepConfig{8, 3, 29}));
    all.push_back(std::make_unique<Ldg>(point_process,
                                        LdgConfig{LdgEncoder::kMlp, 8, 4, 3, 31}));
    all.push_back(std::make_unique<EvolveGcn>(
        snapshots, EvolveGcnConfig{EvolveGcnVariant::kO, 8, 17}));
    all.push_back(std::make_unique<Astgnn>(traffic, AstgnnConfig{8, 2, 1, 1, 23}));
    all.push_back(std::make_unique<MolDgnn>(molecular, MolDgnnConfig{8, 16, 19}));
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

/// Hex-float rendering, so a mismatch prints the exact literal.
std::string
HexFloat(double value)
{
    std::array<char, 64> buf{};
    std::snprintf(buf.data(), buf.size(), "%a", value);
    return buf.data();
}

TEST(AllModelsTest, HybridChecksumsArePinned)
{
    // Absolute pins on every model's hybrid output checksum: any change to
    // the host numerics (summation order in a kernel, a reordered op) moves
    // the last bits and fails here. The tiny configs (embed dims 8/16) hit
    // the GEMM kernel's row and column tails; the default TGAT and TGN run
    // the full 172 -> 64 feature projections.
    const auto interactions = TinyInteractions();
    const auto snapshots = TinySnapshots();
    const auto molecular = TinyMolecular();
    const auto traffic = TinyTraffic();
    const auto point_process = TinyPointProcess();
    data::InteractionSpec wide_spec;
    wide_spec.name = "tiny-172";
    wide_spec.num_users = 20;
    wide_spec.num_items = 12;
    wide_spec.num_events = 120;
    wide_spec.seed = 5;
    const auto wide = data::GenerateInteractions(wide_spec);
    ASSERT_EQ(wide.edge_features.Dim(1), 172);

    // Literals generated with the plain scalar GEMM loop, before blocking.
    std::vector<std::pair<std::unique_ptr<DgnnModel>, double>> pins;
    pins.emplace_back(std::make_unique<Jodie>(interactions, JodieConfig{16, 13}),
                      0x1.6205ba6a835d1p+4);
    pins.emplace_back(std::make_unique<Tgat>(interactions, TgatConfig{16, 2, 1, 4, 7}),
                      0x1.2f595db1aa1efp+10);
    pins.emplace_back(std::make_unique<Tgn>(interactions, TgnConfig{16, 16, 2, 11}),
                      0x1.b07b95bf93a3bp+8);
    pins.emplace_back(std::make_unique<DyRep>(point_process, DyRepConfig{8, 3, 29}),
                      0x1.382882bb1e4e9p+5);
    pins.emplace_back(std::make_unique<Ldg>(point_process,
                                            LdgConfig{LdgEncoder::kMlp, 8, 4, 3, 31}),
                      0x1.762fe24b1988ap+5);
    pins.emplace_back(std::make_unique<EvolveGcn>(
                          snapshots, EvolveGcnConfig{EvolveGcnVariant::kO, 8, 17}),
                      0x1.d932d38c78343p-1);
    pins.emplace_back(std::make_unique<Astgnn>(traffic, AstgnnConfig{8, 2, 1, 1, 23}),
                      -0x1.f440d58ef62c3p+4);
    pins.emplace_back(std::make_unique<MolDgnn>(molecular, MolDgnnConfig{8, 16, 19}),
                      0x1.68f3e72c7f933p+8);
    pins.emplace_back(std::make_unique<Tgat>(wide, TgatConfig{}), 0x1.b8dee9f28204p+11);
    pins.emplace_back(std::make_unique<Tgn>(wide, TgnConfig{}), 0x1.728bfc924cd86p+7);

    for (const auto& [model, expected] : pins) {
        sim::Runtime rt = MakeRuntime(sim::ExecMode::kHybrid);
        const RunResult r = model->RunInference(rt, SmallRun(sim::ExecMode::kHybrid));
        EXPECT_EQ(HexFloat(r.output_checksum), HexFloat(expected)) << model->Name();
    }
}

}  // namespace
}  // namespace dgnn::models
