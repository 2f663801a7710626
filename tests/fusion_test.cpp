// Kernel fusion + hybrid dispatch: the Collapse algebra over the analytic
// cost model, the registered per-model chains (identical numerics, fewer
// launches), the predict-then-place dispatcher, and its serving integration
// (placement accounting, dispatcher-less serving as the device-only
// decision, hazard freedom). Labelled `fusion` in CTest.

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/hazard_checker.hpp"
#include "dispatch/dispatcher.hpp"
#include "models/fusion_catalog.hpp"
#include "models/jodie.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"
#include "nn/linear.hpp"
#include "nn/rnn_cell.hpp"
#include "obs/attribution.hpp"
#include "scenario/scenario.hpp"
#include "serve/batch_policy.hpp"
#include "serve/server.hpp"
#include "shard/exchange.hpp"
#include "shard/partition_book.hpp"
#include "sim/runtime_observer.hpp"
#include "sim/topology.hpp"
#include "support/check.hpp"

#include "../bench/bench_common.hpp"
#include "serving_reports.hpp"

namespace dgnn {
namespace {

// --------------------------------------------------------- Collapse algebra

sim::KernelDesc
Desc(const std::string& name, int64_t flops, int64_t bytes,
     int64_t parallel_items, bool irregular = false)
{
    sim::KernelDesc k;
    k.name = name;
    k.flops = flops;
    k.bytes = bytes;
    k.parallel_items = parallel_items;
    k.irregular = irregular;
    return k;
}

TEST(CollapseTest, SumsWorkAndKeepsWidestStage)
{
    sim::FusedKernelDesc fused;
    fused.name = "chain";
    fused.parts = {Desc("a", 100, 1000, 8), Desc("b", 200, 2000, 64),
                   Desc("c", 400, 500, 16)};
    fused.intermediate_bytes = {300, 100};

    const sim::KernelDesc collapsed = sim::Collapse(fused);
    EXPECT_EQ(collapsed.name, "chain");
    EXPECT_EQ(collapsed.flops, 700);
    // a pays 300 at its outgoing boundary; b pays 300 incoming + 100
    // outgoing; c pays 100 incoming:
    //   (1000-300) + (2000-400) + (500-100) = 2700
    EXPECT_EQ(collapsed.bytes, 2700);
    EXPECT_EQ(collapsed.parallel_items, 64);
    EXPECT_FALSE(collapsed.irregular);
}

TEST(CollapseTest, RunKeepsNarrowestStep)
{
    sim::FusedKernelDesc run;
    run.name = "run";
    run.parts = {Desc("a", 100, 1000, 64), Desc("b", 200, 2000, 8),
                 Desc("c", 400, 500, 16, /*irregular=*/true)};
    run.intermediate_bytes = {0, 0};
    run.shape = sim::FusedShape::kRun;

    const sim::KernelDesc collapsed = sim::Collapse(run);
    EXPECT_EQ(collapsed.flops, 700);
    EXPECT_EQ(collapsed.bytes, 3500);
    EXPECT_EQ(collapsed.parallel_items, 8);
    EXPECT_TRUE(collapsed.irregular);
}

TEST(CollapseTest, IntermediateLargerThanPartBytesClampsAtZero)
{
    sim::FusedKernelDesc fused;
    fused.name = "clamped";
    fused.parts = {Desc("a", 10, 100, 4), Desc("b", 10, 100, 4)};
    fused.parts[1].weight_bytes = 60;
    fused.intermediate_bytes = {1000};  // bigger than either side's traffic

    const sim::KernelDesc collapsed = sim::Collapse(fused);
    EXPECT_EQ(collapsed.bytes, 0);  // never negative
    EXPECT_EQ(collapsed.weight_bytes, 0);  // never more than bytes
}

/// @p desc, @p weight_bytes of whose bytes are module parameters.
sim::KernelDesc
Weighted(sim::KernelDesc desc, int64_t weight_bytes)
{
    desc.weight_bytes = weight_bytes;
    return desc;
}

/// A kRun of @p steps copies of @p step, nothing kept between them.
sim::FusedKernelDesc
StepRun(const sim::KernelDesc& step, size_t steps)
{
    return {"run", std::vector<sim::KernelDesc>(steps, step),
            std::vector<int64_t>(steps - 1, 0), sim::FusedShape::kRun};
}

TEST(CollapseTest, ChainSumsItsPartsWeightBytes)
{
    // Each part of a chain reads its own weights, boundary or not.
    sim::FusedKernelDesc fused;
    fused.name = "chain";
    fused.parts = {Desc("a", 100, 1000, 8), Weighted(Desc("b", 200, 2000, 64), 700),
                   Weighted(Desc("c", 400, 500, 16), 300)};
    fused.intermediate_bytes = {300, 100};

    const sim::KernelDesc collapsed = sim::Collapse(fused);
    EXPECT_EQ(collapsed.bytes, 2700);
    EXPECT_EQ(collapsed.weight_bytes, 1000);
}

TEST(CollapseTest, RunStashesItsStepsSharedWeightsOnce)
{
    // Only the first step reads the W weight bytes from device memory.
    const int64_t w = 83200;
    for (const size_t steps : {size_t{1}, size_t{2}, size_t{11}}) {
        SCOPED_TRACE(std::to_string(steps) + " steps");
        const sim::KernelDesc collapsed =
            sim::Collapse(StepRun(Weighted(Desc("step", 50, 90000, 64), w), steps));
        const auto n = static_cast<int64_t>(steps);
        EXPECT_EQ(collapsed.flops, n * 50);
        EXPECT_EQ(collapsed.bytes, n * 90000 - (n - 1) * w);
        EXPECT_EQ(collapsed.weight_bytes, w);
        EXPECT_EQ(collapsed.parallel_items, 64);
    }

    // The budget is inclusive.
    const sim::KernelDesc full = sim::Collapse(StepRun(
        Weighted(Desc("step", 0, sim::kOnChipWeightBudget, 1), sim::kOnChipWeightBudget), 3));
    EXPECT_EQ(full.bytes, sim::kOnChipWeightBudget);
}

TEST(CollapseTest, RunKeepsItsWeightTrafficUnlessEveryStepSharesOneStash)
{
    // Steps that read different weights share no stash.
    sim::FusedKernelDesc unequal = StepRun(Weighted(Desc("step", 50, 2000, 64), 1000), 3);
    unequal.parts[1].weight_bytes = 900;
    const sim::KernelDesc mixed = sim::Collapse(unequal);
    EXPECT_EQ(mixed.bytes, 6000);
    EXPECT_EQ(mixed.weight_bytes, 2900);

    // One byte over the budget: the stash does not fit, so every step
    // reads the weights again.
    const int64_t over = sim::kOnChipWeightBudget + 1;
    const sim::KernelDesc spilled =
        sim::Collapse(StepRun(Weighted(Desc("step", 50, over + 100, 64), over), 3));
    EXPECT_EQ(spilled.bytes, 3 * (over + 100));
    EXPECT_EQ(spilled.weight_bytes, 3 * over);

    // A chain never stashes, whatever its parts share.
    sim::FusedKernelDesc chain = StepRun(Weighted(Desc("step", 50, 2000, 64), 1000), 3);
    chain.shape = sim::FusedShape::kChain;
    EXPECT_EQ(sim::Collapse(chain).bytes, 6000);
}

TEST(CollapseTest, AnyIrregularPartPoisonsTheChain)
{
    sim::FusedKernelDesc fused;
    fused.name = "mixed";
    fused.parts = {Desc("gather", 10, 4096, 16, /*irregular=*/true),
                   Desc("gemm", 100000, 4096, 256)};
    fused.intermediate_bytes = {0};

    EXPECT_TRUE(sim::Collapse(fused).irregular);
}

TEST(CollapseTest, ValidatesChainShape)
{
    sim::FusedKernelDesc empty;
    empty.name = "empty";
    EXPECT_THROW((void)sim::Collapse(empty), dgnn::Error);

    sim::FusedKernelDesc bad_boundaries;
    bad_boundaries.name = "bad";
    bad_boundaries.parts = {Desc("a", 1, 1, 1), Desc("b", 1, 1, 1)};
    bad_boundaries.intermediate_bytes = {0, 0};  // must be parts-1
    EXPECT_THROW((void)sim::Collapse(bad_boundaries), dgnn::Error);

    sim::FusedKernelDesc negative_intermediate;
    negative_intermediate.name = "neg";
    negative_intermediate.parts = {Desc("a", 1, 1, 1), Desc("b", 1, 1, 1)};
    negative_intermediate.intermediate_bytes = {-1};
    EXPECT_THROW((void)sim::Collapse(negative_intermediate), dgnn::Error);
}

TEST(CollapseTest, RejectsNonPositiveParallelismAndNegativeWork)
{
    for (const int64_t items : {int64_t{0}, int64_t{-4}}) {
        sim::FusedKernelDesc fused;
        fused.name = "width";
        fused.parts = {Desc("a", 1, 1, items)};
        EXPECT_THROW((void)sim::Collapse(fused), dgnn::Error);
    }

    sim::FusedKernelDesc negative_flops;
    negative_flops.name = "work";
    negative_flops.parts = {Desc("a", -1, 1, 1)};
    EXPECT_THROW((void)sim::Collapse(negative_flops), dgnn::Error);
}

TEST(CollapseTest, RejectsWeightBytesOutsideThePartsBytes)
{
    for (const int64_t weight_bytes : {int64_t{-1}, int64_t{101}}) {
        SCOPED_TRACE("weight_bytes " + std::to_string(weight_bytes));
        sim::FusedKernelDesc fused;
        fused.name = "weights";
        fused.parts = {Desc("a", 1, 100, 1), Weighted(Desc("b", 1, 100, 1), weight_bytes)};
        fused.intermediate_bytes = {0};
        try {
            (void)sim::Collapse(fused);
            ADD_FAILURE() << "Collapse accepted the part";
        } catch (const dgnn::Error& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("'weights'"), std::string::npos) << what;
            EXPECT_NE(what.find("'b'"), std::string::npos) << what;
        }
    }
}

// ------------------------------------------------- durations over the model

TEST(FusedDurationTest, MatchesCostModelOnCollapsedDescriptor)
{
    sim::FusedKernelDesc fused;
    fused.name = "chain";
    fused.parts = {Desc("a", 5000, 4096, 32), Desc("b", 9000, 8192, 64)};
    fused.intermediate_bytes = {2048};

    for (const sim::DeviceSpec& spec :
         {sim::DeviceSpec::XeonGold6226R(), sim::DeviceSpec::RtxA6000()}) {
        EXPECT_DOUBLE_EQ(sim::FusedDuration(spec, fused),
                         sim::KernelDuration(spec, sim::Collapse(fused)));
        EXPECT_DOUBLE_EQ(sim::UnfusedDuration(spec, fused),
                         sim::KernelDuration(spec, fused.parts[0]) +
                             sim::KernelDuration(spec, fused.parts[1]));
    }
}

TEST(FusedDurationTest, LaunchBoundChainSavesAtLeastTwoThirdsOfOverhead)
{
    // Four tiny launches (the JODIE t-batch shape): execution is negligible
    // next to the 6 us GPU launch overhead, so fusing 4 -> 1 must cut the
    // chain duration by >= 2x.
    sim::FusedKernelDesc fused;
    fused.name = "tbatch";
    fused.parts = {Desc("project_user", 64, 512, 1),
                   Desc("predict_item", 8192, 512, 1),
                   Desc("rnn_update", 24576, 768, 1),
                   Desc("rnn_update", 24576, 768, 1)};
    fused.intermediate_bytes = {256, 0, 0};

    const sim::DeviceSpec gpu = sim::DeviceSpec::RtxA6000();
    EXPECT_GE(sim::UnfusedDuration(gpu, fused),
              2.0 * sim::FusedDuration(gpu, fused));
}

TEST(FusedDurationTest, IrregularPoisoningCanMakeFusionLose)
{
    // A tiny gather fused in front of a byte-bound regular kernel: the whole
    // chain inherits the irregular penalty, which costs more than one saved
    // launch. The fused chain must come out slower — this is the case that
    // keeps placement a per-batch decision.
    sim::FusedKernelDesc fused;
    fused.name = "poisoned";
    fused.parts = {Desc("gather", 0, 4096, 200000, /*irregular=*/true),
                   Desc("stream", 0, 600000000, 200000)};
    fused.intermediate_bytes = {0};

    const sim::DeviceSpec gpu = sim::DeviceSpec::RtxA6000();
    EXPECT_GT(sim::FusedDuration(gpu, fused), sim::UnfusedDuration(gpu, fused));
}

TEST(CostModelEdgeTest, OccupancyClampsToFloorAndOne)
{
    const sim::DeviceSpec gpu = sim::DeviceSpec::RtxA6000();
    EXPECT_DOUBLE_EQ(sim::Occupancy(gpu, Desc("tiny", 1, 1, 1)),
                     gpu.occupancy_floor);
    EXPECT_DOUBLE_EQ(
        sim::Occupancy(gpu, Desc("huge", 1, 1, gpu.saturation_items * 100)),
        1.0);
}

TEST(CostModelEdgeTest, NonPositiveParallelismThrows)
{
    const sim::DeviceSpec gpu = sim::DeviceSpec::RtxA6000();
    EXPECT_THROW((void)sim::KernelDuration(gpu, Desc("zero", 1, 1, 0)),
                 dgnn::Error);
    EXPECT_THROW((void)sim::KernelDuration(gpu, Desc("neg", 1, 1, -1)),
                 dgnn::Error);
}

// ----------------------------------------------------------- the catalog

TEST(FusionCatalogTest, RegistersTheSixChains)
{
    const std::vector<models::FusionPlan>& catalog = models::FusionCatalog();
    ASSERT_EQ(catalog.size(), 6u);
    EXPECT_NE(models::FindFusionPlan("tgn_memory_fused"), nullptr);
    EXPECT_NE(models::FindFusionPlan("tgn_embed_fused"), nullptr);
    EXPECT_NE(models::FindFusionPlan("tgat_encode_fused"), nullptr);
    EXPECT_NE(models::FindFusionPlan("tgat_attention_fused"), nullptr);
    EXPECT_NE(models::FindFusionPlan("jodie_tbatch_fused"), nullptr);
    EXPECT_EQ(models::FindFusionPlan("nonexistent"), nullptr);

    const models::FusionPlan* jodie =
        models::FindFusionPlan("jodie_tbatch_fused");
    ASSERT_EQ(jodie->parts.size(), 4u);  // 4 launches -> 1 per t-batch

    // The batch's t-batches -> 1, applied after the per-t-batch chain.
    const models::FusionPlan* run = models::FindFusionPlan("jodie_tbatch_run");
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(run->shape, sim::FusedShape::kRun);
    EXPECT_EQ(run->parts, std::vector<std::string>{"jodie_tbatch_fused"});
    EXPECT_GT(run, jodie);
}

// ------------------------------------------- the pass over a captured batch

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

/// One descriptor per line: name, flops, bytes, parallel_items, irregular.
std::string
Render(const std::vector<sim::KernelDesc>& kernels)
{
    std::string out;
    for (const sim::KernelDesc& k : kernels) {
        out += k.name + " " + std::to_string(k.flops) + " " + std::to_string(k.bytes) +
               " " + std::to_string(k.parallel_items) + " " +
               std::to_string(static_cast<int>(k.irregular)) + "\n";
    }
    return out;
}

TEST(FusionCatalogTest, FusePassLeavesPartialAndForeignChainsAlone)
{
    const auto ds = TinyInteractions();
    const models::Tgn tgn(ds, models::TgnConfig{64, 32, 1, 11});
    // Each TGN part out of order or alone, and TGAT's attention chain: the
    // TGN pass fuses none of them.
    const std::vector<sim::KernelDesc> untouched = {
        Desc("gru_memory_update", 10, 100, 4), Desc("aggregate_last", 10, 100, 4),
        Desc("edge_decoder", 10, 100, 4),      Desc("attention", 10, 100, 4),
        Desc("merge_ffn", 10, 100, 4),         Desc("temporal_attention", 10, 100, 4)};
    EXPECT_EQ(Render(models::FuseRegisteredChains(tgn, untouched)), Render(untouched));

    // The same list with one complete chain in the middle: only the chain
    // collapses, in place.
    std::vector<sim::KernelDesc> with_chain = untouched;
    with_chain.insert(with_chain.begin() + 3, {Desc("aggregate_last", 10, 100, 4),
                                               Desc("gru_memory_update", 20, 300, 8)});
    std::vector<sim::KernelDesc> expected = untouched;
    // Boundary: aggregate_last's 4 items x 4 bytes, out of both parts.
    expected.insert(expected.begin() + 3, Desc("tgn_memory_fused", 30, 84 + 284, 8));
    EXPECT_EQ(Render(models::FuseRegisteredChains(tgn, with_chain)), Render(expected));
}

TEST(FusionCatalogTest, TBatchRunNeedsTwoConsecutiveSteps)
{
    const auto ds = TinyInteractions();
    const models::Jodie jodie(ds, models::JodieConfig{});
    const std::vector<sim::KernelDesc> tbatch = {
        Desc("project_user", 10, 100, 16), Desc("predict_item", 20, 100, 8),
        Desc("rnn_update", 30, 100, 8), Desc("rnn_update", 30, 100, 8)};
    // Step: the projected rows (16 items x 4 bytes) leave both sides of the
    // first boundary.
    const sim::KernelDesc step = Desc("jodie_tbatch_fused", 90, 400 - 2 * 64, 16);

    // One t-batch, or two split by another launch: no run.
    EXPECT_EQ(Render(models::FuseRegisteredChains(jodie, tbatch)), Render({step}));
    std::vector<sim::KernelDesc> split = tbatch;
    split.push_back(Desc("other", 1, 1, 1));
    split.insert(split.end(), tbatch.begin(), tbatch.end());
    EXPECT_EQ(Render(models::FuseRegisteredChains(jodie, split)),
              Render({step, Desc("other", 1, 1, 1), step}));

    // Three consecutive t-batches: one launch with the steps' summed work,
    // nothing kept on-chip between them.
    std::vector<sim::KernelDesc> three;
    for (int i = 0; i < 3; ++i) {
        three.insert(three.end(), tbatch.begin(), tbatch.end());
    }
    EXPECT_EQ(Render(models::FuseRegisteredChains(jodie, three)),
              Render({Desc("jodie_tbatch_run", 3 * 90, 3 * 272, 16)}));
}

TEST(ModelFusionTest, FusedProfilesArePinned)
{
    // Literals captured when TGN, TGAT and JODIE still launched their fused
    // chains themselves: the pass over the unfused capture must rebuild
    // every collapsed descriptor exactly, boundary bytes included. Batch 16,
    // 4 neighbors, hybrid; the two-layer TGAT prices both attention chains.
    // JODIE's nine t-batch chains then collapse into one run: their summed
    // work at the narrowest step's 64 items, less the 8 x 83,200 weight
    // bytes the steps after the first read from the on-chip stash.
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{64, 32, 1, 11});
    models::Tgat tgat(ds, models::TgatConfig{16, 2, 2, 3, 7});
    models::Jodie jodie(ds, models::JodieConfig{});
    const std::vector<std::pair<models::DgnnModel*, std::string>> pins = {
        {&tgn,
         "tgn_memory_fused 1263920 208384 2352 1\n"
         "tgn_embed_fused 2940432 147972 8192 0\n"},
        {&tgat,
         "tgat_encode_fused 49664 25152 2560 1\n"
         "tgat_attention_fused 701440 106496 6144 0\n"
         "tgat_attention_fused 211456 32768 2048 0\n"},
        {&jodie, "jodie_tbatch_run 667648 115968 64 0\n"},
    };
    for (const auto& [model, expected] : pins) {
        serve::ModelSession session(*model, sim::ExecMode::kHybrid,
                                    /*num_neighbors=*/4);
        EXPECT_EQ(Render(session.FusedProfile(16).kernels), expected)
            << model->Name();
    }
}

/// @p unfused, a JODIE capture, as its per-t-batch jodie_tbatch_fused steps.
std::vector<sim::KernelDesc>
TBatchSteps(const models::Jodie& jodie, std::span<const sim::KernelDesc> unfused)
{
    const models::FusionPlan& tbatch = *models::FindFusionPlan("jodie_tbatch_fused");
    EXPECT_EQ(unfused.size() % tbatch.parts.size(), 0u);
    std::vector<sim::KernelDesc> steps;
    for (size_t i = 0; i + tbatch.parts.size() <= unfused.size(); i += tbatch.parts.size()) {
        const auto parts = unfused.subspan(i, tbatch.parts.size());
        steps.push_back(
            sim::Collapse({tbatch.chain, {parts.begin(), parts.end()},
                           tbatch.boundary_bytes(parts, jodie.CacheRowBytes())}));
    }
    return steps;
}

TEST(ModelFusionTest, TBatchRunPricesNearItsStepSum)
{
    // The run's steps are dependent, so its execution must cost what its
    // steps cost one after another on the one block that holds the weight
    // stash: each step at the run's occupancy, the first reading the
    // weights from device memory and the rest from the stash. A collapsed
    // descriptor takes the max of its summed compute and memory times, so
    // it never prices above that sum; it prices below it only where one
    // step is memory-bound and another compute-bound (the 2-step runs at
    // b = 15..31, down to 0.89x). The chain rule (widest step) would price
    // the 43-step run at b = 256 at 0.39x. The run must also sit at the
    // occupancy floor, one SM's worth of work, which is the one-block
    // assumption behind the budget, and be strictly cheaper than its steps
    // launched one by one with their full weight traffic.
    const auto dataset = data::GenerateInteractions(bench::GauntletSpec());
    models::Jodie jodie(dataset, models::JodieConfig{});
    serve::ModelSession session(jodie, sim::ExecMode::kHybrid, 10);
    const sim::DeviceSpec gpu = sim::DeviceSpec::RtxA6000();
    for (int64_t batch = 1; batch <= 256; ++batch) {
        SCOPED_TRACE("batch " + std::to_string(batch));
        const std::vector<sim::KernelDesc> steps =
            TBatchSteps(jodie, session.Profile(batch).kernels);
        const std::vector<sim::KernelDesc>& fused = session.FusedProfile(batch).kernels;
        ASSERT_EQ(fused.size(), 1u);
        sim::SimTime one_block_us = 0.0;
        sim::SimTime launched_us = 0.0;
        for (size_t i = 0; i < steps.size(); ++i) {
            sim::KernelDesc on_block = steps[i];
            on_block.parallel_items = fused[0].parallel_items;
            if (i > 0) {
                on_block.bytes -= on_block.weight_bytes;
            }
            one_block_us += sim::ComputeTime(gpu, on_block);
            launched_us += sim::ComputeTime(gpu, steps[i]);
        }
        const sim::SimTime run_us = sim::ComputeTime(gpu, fused[0]);
        const double ratio = run_us / one_block_us;
        EXPECT_GE(ratio, 0.88);
        EXPECT_LE(ratio, 1.0 + 1e-9);
        if (steps.size() >= 2) {
            EXPECT_LT(run_us, launched_us);
            EXPECT_DOUBLE_EQ(sim::Occupancy(gpu, fused[0]), gpu.occupancy_floor);
        }
    }
}

TEST(ModelFusionTest, JodieRunStashesItsRecurrentAndPredictorWeights)
{
    // The served JODIE's per-step stash is the two RNN cells' and the item
    // predictor's parameters. The 256 B projection vector is not in it:
    // project_user never charges it, so Jodie::WeightBytes() overstates it.
    const auto dataset = data::GenerateInteractions(bench::GauntletSpec());
    models::Jodie jodie(dataset, models::JodieConfig{});
    Rng rng(1);
    const int64_t d = models::JodieConfig{}.embed_dim;
    const nn::RnnCell rnn(d, d, rng);
    const nn::Linear predictor(d, d, rng);
    const int64_t stash = 2 * rnn.ParameterBytes() + predictor.ParameterBytes();
    EXPECT_EQ(stash, 83200);
    EXPECT_EQ(jodie.WeightBytes(), stash + d * 4);

    serve::ModelSession session(jodie, sim::ExecMode::kHybrid, 10);
    const std::vector<sim::KernelDesc> steps = TBatchSteps(jodie, session.Profile(64).kernels);
    ASSERT_GE(steps.size(), 2u);
    int64_t step_bytes = 0;
    for (const sim::KernelDesc& step : steps) {
        EXPECT_EQ(step.weight_bytes, stash);
        step_bytes += step.bytes;
    }
    const sim::KernelDesc& run = session.FusedProfile(64).kernels.at(0);
    EXPECT_EQ(run.weight_bytes, stash);
    EXPECT_EQ(run.bytes,
              step_bytes - static_cast<int64_t>(steps.size() - 1) * stash);
}

TEST(ModelFusionTest, JodieRunOverTheBudgetKeepsItsWeightTraffic)
{
    // At d = 128 a step's weights (330,240 B) overflow a block's shared
    // memory, so every step reads them again: the run's bytes are the
    // plain sum of its steps'.
    const auto ds = TinyInteractions();
    models::Jodie jodie(ds, models::JodieConfig{128});
    serve::ModelSession session(jodie, sim::ExecMode::kHybrid, /*num_neighbors=*/4);
    const std::vector<sim::KernelDesc> steps = TBatchSteps(jodie, session.Profile(16).kernels);
    ASSERT_GE(steps.size(), 2u);
    int64_t step_bytes = 0;
    for (const sim::KernelDesc& step : steps) {
        EXPECT_EQ(step.weight_bytes, 330240);
        step_bytes += step.bytes;
    }
    ASSERT_GT(steps[0].weight_bytes, sim::kOnChipWeightBudget);
    const sim::KernelDesc& run = session.FusedProfile(16).kernels.at(0);
    EXPECT_EQ(run.name, "jodie_tbatch_run");
    EXPECT_EQ(run.bytes, step_bytes);
    EXPECT_EQ(run.weight_bytes, static_cast<int64_t>(steps.size()) * 330240);
}

/// Fusion attacks launch overhead: every captured batch of @p model fuses
/// to fewer launches whose GPU chain time is no longer than the unfused.
/// "Never slower" holds for the configs these tests pin (k = 4, the small
/// dims below), not in general: at the serving benches' TGN (k = 10) the
/// fused chain is the slower one for a single request, which is why
/// serving prices the two chains per batch
/// (DispatchServingTest.DispatcherlessServingPicksTheCheaperChainPerBatch).
void
ExpectFewerLaunchesNeverSlower(models::DgnnModel& model)
{
    const sim::DeviceSpec gpu = sim::DeviceSpec::RtxA6000();
    const auto chain_us = [&](const std::vector<sim::KernelDesc>& kernels) {
        sim::SimTime total = 0.0;
        for (const sim::KernelDesc& k : kernels) {
            total += sim::KernelDuration(gpu, k);
        }
        return total;
    };
    serve::ModelSession session(model, sim::ExecMode::kHybrid,
                                /*num_neighbors=*/4);
    for (const int64_t batch : {1, 16, 64}) {
        const serve::BatchProfile& unfused = session.Profile(batch);
        const serve::BatchProfile& fused = session.FusedProfile(batch);
        EXPECT_LT(fused.kernels.size(), unfused.kernels.size())
            << model.Name() << " batch " << batch;
        EXPECT_LE(chain_us(fused.kernels), chain_us(unfused.kernels))
            << model.Name() << " batch " << batch;
    }
}

TEST(ModelFusionTest, TgnFusedProfileHasFewerLaunchesNeverSlower)
{
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{64, 32, 1, 11});
    ExpectFewerLaunchesNeverSlower(tgn);
}

TEST(ModelFusionTest, TgatFusedProfileHasFewerLaunchesNeverSlower)
{
    const auto ds = TinyInteractions();
    models::Tgat tgat(ds, models::TgatConfig{16, 2, 1, 4, 7});
    ExpectFewerLaunchesNeverSlower(tgat);
}

TEST(ModelFusionTest, JodieFusedProfileHasFewerLaunchesNeverSlower)
{
    const auto ds = TinyInteractions();
    models::Jodie jodie(ds, models::JodieConfig{});
    ExpectFewerLaunchesNeverSlower(jodie);
}

TEST(ModelFusionTest, FusedProfileKeepsHostAndTransferVolumes)
{
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{64, 32, 1, 11});
    serve::ModelSession session(tgn, sim::ExecMode::kHybrid,
                                /*num_neighbors=*/4);

    const serve::BatchProfile& unfused = session.Profile(16);
    const serve::BatchProfile& fused = session.FusedProfile(16);
    EXPECT_LT(fused.kernels.size(), unfused.kernels.size());
    EXPECT_EQ(fused.batch_size, unfused.batch_size);
    EXPECT_EQ(fused.host_us, unfused.host_us);
    EXPECT_EQ(fused.h2d_bytes, unfused.h2d_bytes);
    EXPECT_EQ(fused.d2h_bytes, unfused.d2h_bytes);
    EXPECT_EQ(fused.state_rows, unfused.state_rows);
    EXPECT_EQ(fused.state_row_bytes, unfused.state_row_bytes);

    // Both memos are stable across calls.
    EXPECT_EQ(&session.FusedProfile(16), &fused);
    EXPECT_EQ(&session.Profile(16), &unfused);
}

/// Forwards to a model and counts its runs.
class CountingModel : public models::DgnnModel {
  public:
    explicit CountingModel(models::DgnnModel& inner) : inner_(inner) {}

    std::string Name() const override { return inner_.Name(); }
    models::RunResult RunInference(sim::Runtime& runtime,
                                   const models::RunConfig& config) override
    {
        ++runs_;
        return inner_.RunInference(runtime, config);
    }
    int64_t CacheRowBytes() const override { return inner_.CacheRowBytes(); }
    bool CacheRowsMutable() const override { return inner_.CacheRowsMutable(); }

    int64_t Runs() const { return runs_; }

  private:
    models::DgnnModel& inner_;
    int64_t runs_ = 0;
};

TEST(ModelFusionTest, FusedProfileRunsTheModelNoMoreTimes)
{
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{64, 32, 1, 11});
    CountingModel counted(tgn);
    serve::ModelSession session(counted, sim::ExecMode::kHybrid,
                                /*num_neighbors=*/4);
    (void)session.Profile(16);
    ASSERT_EQ(counted.Runs(), 1);
    (void)session.FusedProfile(16);
    EXPECT_EQ(counted.Runs(), 1);
    // A fused profile asked for first captures the batch exactly once too.
    (void)session.FusedProfile(8);
    (void)session.Profile(8);
    EXPECT_EQ(counted.Runs(), 2);
}

// ------------------------------------------------------------- dispatcher

/// The testbed node the unit-level dispatcher tests price.
const sim::TopologyNode kTestbed{};

dispatch::WorkEstimate
Estimate(const std::vector<sim::KernelDesc>& kernels,
         const std::vector<sim::KernelDesc>* fused_kernels, int64_t batch,
         double host_us, int64_t h2d, int64_t d2h)
{
    dispatch::WorkEstimate estimate;
    estimate.batch_size = batch;
    estimate.stages = {
        {.host_us = host_us,
         .h2d_bytes = h2d,
         .launches = static_cast<int64_t>(kernels.size()),
         .fused_launches = fused_kernels != nullptr
                               ? static_cast<int64_t>(fused_kernels->size())
                               : 0}};
    estimate.d2h_bytes = d2h;
    estimate.kernels = &kernels;
    estimate.fused_kernels = fused_kernels;
    return estimate;
}

TEST(DispatcherTest, TinyBatchStaysOnHostLargeBatchGoesToDevice)
{
    const dispatch::HybridDispatcher dispatcher;

    // Tiny launch-bound batch: two PCIe latencies dwarf the work.
    const std::vector<sim::KernelDesc> tiny = {Desc("small", 2000, 8192, 8)};
    const dispatch::PlacementDecision on_host =
        dispatcher.Decide(Estimate(tiny, nullptr, 4, 5.0, 4096, 1024),
                          kTestbed);
    EXPECT_EQ(on_host.placement, dispatch::Placement::kCpu);
    EXPECT_LT(on_host.predicted_cpu_us, on_host.predicted_gpu_us);

    // Dense wide batch: device throughput wins despite the transfers.
    const std::vector<sim::KernelDesc> dense = {
        Desc("gemm", 2000000000, 64000000, 200000)};
    const dispatch::PlacementDecision on_device = dispatcher.Decide(
        Estimate(dense, nullptr, 256, 50.0, 8000000, 1000000), kTestbed);
    EXPECT_EQ(on_device.placement, dispatch::Placement::kGpu);
    EXPECT_LT(on_device.predicted_gpu_us, on_device.predicted_cpu_us);
}

TEST(DispatcherTest, FusedChainWinsWhenItSavesLaunches)
{
    const dispatch::HybridDispatcher dispatcher;
    const std::vector<sim::KernelDesc> unfused = {
        Desc("a", 500000000, 16000000, 200000),
        Desc("b", 500000000, 16000000, 200000),
        Desc("c", 500000000, 16000000, 200000),
        Desc("d", 500000000, 16000000, 200000)};
    sim::FusedKernelDesc chain;
    chain.name = "abcd";
    chain.parts = unfused;
    chain.intermediate_bytes = {8000000, 8000000, 8000000};
    const std::vector<sim::KernelDesc> fused = {sim::Collapse(chain)};

    const dispatch::PlacementDecision decision = dispatcher.Decide(
        Estimate(unfused, &fused, 256, 50.0, 8000000, 1000000), kTestbed);
    EXPECT_EQ(decision.placement, dispatch::Placement::kGpuFused);
    EXPECT_LT(decision.predicted_gpu_fused_us, decision.predicted_gpu_us);
}

TEST(DispatcherTest, DecisionsAreDeterministic)
{
    const dispatch::HybridDispatcher dispatcher;
    const std::vector<sim::KernelDesc> kernels = {
        Desc("k", 1000000, 250000, 512, /*irregular=*/true)};
    const dispatch::WorkEstimate estimate =
        Estimate(kernels, nullptr, 32, 12.0, 65536, 8192);

    const dispatch::PlacementDecision first =
        dispatcher.Decide(estimate, kTestbed);
    for (int i = 0; i < 10; ++i) {
        const dispatch::PlacementDecision again =
            dispatcher.Decide(estimate, kTestbed);
        EXPECT_EQ(again.placement, first.placement);
        EXPECT_DOUBLE_EQ(again.predicted_cpu_us, first.predicted_cpu_us);
        EXPECT_DOUBLE_EQ(again.predicted_gpu_us, first.predicted_gpu_us);
        EXPECT_DOUBLE_EQ(again.predicted_gpu_fused_us,
                         first.predicted_gpu_fused_us);
    }
}

TEST(DispatcherTest, StaticModesForceThePlacement)
{
    const std::vector<sim::KernelDesc> kernels = {Desc("k", 2000, 8192, 8)};
    const std::vector<sim::KernelDesc> fused = {Desc("k_fused", 2000, 8192, 8)};
    const dispatch::WorkEstimate estimate =
        Estimate(kernels, &fused, 4, 5.0, 4096, 1024);
    const dispatch::WorkEstimate no_fused =
        Estimate(kernels, nullptr, 4, 5.0, 4096, 1024);

    const auto decide = [](const dispatch::WorkEstimate& e,
                           dispatch::DispatchMode mode, bool allow_cpu) {
        return dispatch::HybridDispatcher(mode).Decide(e, kTestbed, allow_cpu);
    };

    EXPECT_EQ(decide(estimate, dispatch::DispatchMode::kStaticCpu, true)
                  .placement,
              dispatch::Placement::kCpu);
    EXPECT_EQ(decide(estimate, dispatch::DispatchMode::kStaticGpu, true)
                  .placement,
              dispatch::Placement::kGpu);
    EXPECT_EQ(decide(estimate, dispatch::DispatchMode::kStaticGpuFused, true)
                  .placement,
              dispatch::Placement::kGpuFused);
    // Masked CPU: the static-CPU policy falls back to the device, and the
    // hybrid never picks the host even when it predicts cheapest (the tied
    // device predictions then break toward the fused launch).
    EXPECT_EQ(decide(estimate, dispatch::DispatchMode::kStaticCpu, false)
                  .placement,
              dispatch::Placement::kGpu);
    EXPECT_EQ(decide(estimate, dispatch::DispatchMode::kHybrid, false)
                  .placement,
              dispatch::Placement::kGpuFused);
    // Without a fused chain, kGpuFused collapses into kGpu everywhere.
    EXPECT_EQ(decide(no_fused, dispatch::DispatchMode::kStaticGpuFused, true)
                  .placement,
              dispatch::Placement::kGpu);
    EXPECT_EQ(decide(no_fused, dispatch::DispatchMode::kHybrid, false)
                  .placement,
              dispatch::Placement::kGpu);
}

TEST(DispatcherTest, StagesOverlapDeviceWorkWithLaterHostStages)
{
    // Two stages: the first stage's copy and kernel run while the host
    // issues them and then does the second stage's host work. The second
    // stage's copy starts when its host stage ends, as the executors put it
    // on the link, and its kernel once that copy and the first kernel are
    // done. A long first kernel outlasts the second host stage (the second
    // copy then hides under it); a short one hides under it. A one-stage
    // batch prices exactly as host + transfers + chain.
    const dispatch::HybridDispatcher dispatcher;
    const sim::LinkSpec& link = kTestbed.host_link;
    const auto gpu = [](const sim::KernelDesc& k) {
        return sim::KernelDuration(kTestbed.gpu, k);
    };
    const sim::SimTime second_host = 10.0 + 2.5 + 1.5 + 40.0;
    for (const bool long_first : {true, false}) {
        SCOPED_TRACE(long_first ? "long first kernel" : "short first kernel");
        const std::vector<sim::KernelDesc> kernels = {
            long_first ? Desc("first", 2000000000, 64000000, 200000)
                       : Desc("first", 1000000, 250000, 512),
            Desc("second", 1000000, 250000, 512)};
        dispatch::WorkEstimate staged =
            Estimate(kernels, nullptr, 64, 0.0, 0, 4096);
        staged.launch_issue_us = 1.5;
        staged.stages = {
            {.host_us = 10.0, .h2d_bytes = 1 << 14, .launches = 1, .copy_issue_us = 2.5},
            {.host_us = 40.0, .h2d_bytes = 8192, .launches = 1}};
        const sim::SimTime first_done =
            10.0 + link.TransferTime(1 << 14) + gpu(kernels[0]);
        const sim::SimTime second_copy_done =
            second_host + link.TransferTime(8192);
        const sim::SimTime expected =
            first_done > second_copy_done
                ? first_done + gpu(kernels[1]) + link.TransferTime(4096)
                : second_host +
                      (link.TransferTime(8192) + link.TransferTime(4096)) +
                      gpu(kernels[1]);
        EXPECT_EQ(first_done > second_copy_done, long_first);
        EXPECT_DOUBLE_EQ(dispatcher.Decide(staged, kTestbed).predicted_gpu_us,
                         expected);

        const dispatch::WorkEstimate flat =
            Estimate(kernels, nullptr, 64, 50.0, (1 << 14) + 8192, 4096);
        EXPECT_EQ(dispatcher.Decide(flat, kTestbed).predicted_gpu_us,
                  50.0 + (link.TransferTime((1 << 14) + 8192) +
                          link.TransferTime(4096)) +
                      (gpu(kernels[0]) + gpu(kernels[1])));
        EXPECT_LT(dispatcher.Decide(staged, kTestbed).predicted_gpu_us,
                  dispatcher.Decide(flat, kTestbed).predicted_gpu_us);
    }
}

TEST(DispatcherTest, StatsExposeSparsityAndLaunchSignals)
{
    const std::vector<sim::KernelDesc> kernels = {
        Desc("gather", 0, 3000, 64, /*irregular=*/true),
        Desc("gemm", 1000, 1000, 512)};
    const dispatch::BatchStats stats = dispatch::HybridDispatcher::Stats(
        Estimate(kernels, nullptr, 32, 1.0, 100, 50));
    EXPECT_EQ(stats.batch_size, 32);
    EXPECT_EQ(stats.launches, 2);
    EXPECT_EQ(stats.fused_launches, 2);  // no fused chain offered
    EXPECT_EQ(stats.transfer_bytes, 150);
    EXPECT_DOUBLE_EQ(stats.irregular_byte_frac, 0.75);
    EXPECT_EQ(stats.max_parallel_items, 512);

    dispatch::WorkEstimate no_kernels;
    EXPECT_THROW((void)dispatch::HybridDispatcher::Stats(no_kernels),
                 dgnn::Error);
}

// ------------------------------------------------------ serving integration

data::InteractionDataset
ServingDataset()
{
    data::InteractionSpec spec;
    spec.name = "fusion-serve";
    spec.num_users = 128;
    spec.num_items = 32;
    spec.num_events = 1024;
    spec.edge_feature_dim = 32;
    spec.popularity_alpha = 2.5;
    spec.repeat_prob = 0.9;
    spec.seed = 31;
    return data::GenerateInteractions(spec);
}

std::vector<serve::Request>
ServingRequests(const data::InteractionDataset& dataset, int64_t n)
{
    scenario::Scenario s;
    s.name = "fusion-replay";
    s.poisson_qps = 20000.0;
    s.poisson_seed = 1009;
    return scenario::GenerateRequests(s, dataset, n);
}

serve::ServingReport
ServeWith(models::DgnnModel& model, const std::vector<serve::Request>& requests,
          serve::ExecutorKind kind, const dispatch::HybridDispatcher* dispatcher,
          serve::ServingObserver* observer = nullptr,
          sim::RuntimeObserver* runtime_observer = nullptr)
{
    serve::ModelSession session(model, sim::ExecMode::kHybrid,
                                /*num_neighbors=*/4);
    serve::TimeoutPolicy policy(/*batch_size=*/32, /*timeout_us=*/5000.0);
    serve::ServerOptions options;
    options.executor = kind;
    options.dispatcher = dispatcher;
    options.observer = observer;
    options.runtime_observer = runtime_observer;
    return serve::ServeRequests(session, policy, requests, options);
}

TEST(DispatchServingTest, HybridRoutesEveryBatchAndReportsTheMix)
{
    const auto dataset = ServingDataset();
    const auto requests = ServingRequests(dataset, 256);
    models::Tgn tgn(dataset, models::TgnConfig{64, 32, 1, 11});

    for (const serve::ExecutorKind kind :
         {serve::ExecutorKind::kSerial, serve::ExecutorKind::kPipelined}) {
        const dispatch::HybridDispatcher dispatcher;
        const serve::ServingReport report =
            ServeWith(tgn, requests, kind, &dispatcher);
        EXPECT_EQ(report.requests, 256);
        int64_t routed = 0;
        for (const int64_t n : report.placement_batches) {
            routed += n;
        }
        EXPECT_EQ(routed, report.batches);
        EXPECT_GT(report.achieved_qps, 0.0);
    }
}

/// Counts the kernel launches a serving run issues inside its window.
class LaunchCounter final : public sim::RuntimeObserver {
  public:
    void OnOp(const sim::OpRecord& op) override
    {
        if (op.kind == sim::OpKind::kKernel) {
            ++launches;
        }
    }
    void OnWindowReset() override { launches = 0; }

    int64_t launches = 0;
};

TEST(DispatchServingTest, DispatcherlessServingEqualsTheHybridDispatcher)
{
    // One pricing mechanism: without a dispatcher, a cached hybrid session
    // is placed exactly as a kHybrid dispatcher places it (the cache masks
    // the CPU either way), so the two runs are one run.
    const auto dataset = ServingDataset();
    const auto requests = ServingRequests(dataset, 256);
    models::Tgn tgn(dataset, models::TgnConfig{64, 32, 1, 11});
    models::Jodie jodie(dataset, models::JodieConfig{});
    const dispatch::HybridDispatcher hybrid;

    for (models::DgnnModel* model :
         std::vector<models::DgnnModel*>{&tgn, &jodie}) {
        cache::DeviceCacheConfig cache_config;
        cache_config.capacity_bytes =
            dataset.NumNodes() / 4 * model->CacheRowBytes();
        for (const serve::ExecutorKind kind :
             {serve::ExecutorKind::kSerial, serve::ExecutorKind::kPipelined}) {
            SCOPED_TRACE(model->Name() + " " + serve::ToString(kind));
            const auto serve_with = [&](const dispatch::HybridDispatcher* d) {
                serve::ModelSession session(*model, sim::ExecMode::kHybrid,
                                            /*num_neighbors=*/4, cache_config);
                EXPECT_TRUE(session.CacheEnabled());
                serve::TimeoutPolicy policy(32, 5000.0);
                serve::ServerOptions options;
                options.executor = kind;
                options.dispatcher = d;
                return serve::ServeRequests(session, policy, requests,
                                            options);
            };
            const serve::ServingReport dispatcherless = serve_with(nullptr);
            const serve::ServingReport routed = serve_with(&hybrid);
            serve::ExpectReportsIdentical(dispatcherless, routed);
            EXPECT_EQ(dispatcherless.placement_batches[static_cast<size_t>(
                          dispatch::Placement::kCpu)],
                      0);
            EXPECT_GT(dispatcherless.placement_batches[static_cast<size_t>(
                          dispatch::Placement::kGpuFused)],
                      0);
        }
    }
}

TEST(DispatchServingTest, StaticGpuStaysTheUnfusedBaseline)
{
    // kStaticGpu is the explicit unfused baseline: on launch-bound JODIE it
    // issues more kernels than dispatcher-less serving and never finishes
    // sooner.
    const auto dataset = ServingDataset();
    const auto requests = ServingRequests(dataset, 256);
    models::Jodie jodie(dataset, models::JodieConfig{});
    const dispatch::HybridDispatcher static_gpu(
        dispatch::DispatchMode::kStaticGpu);

    for (const serve::ExecutorKind kind :
         {serve::ExecutorKind::kSerial, serve::ExecutorKind::kPipelined}) {
        SCOPED_TRACE(serve::ToString(kind));
        LaunchCounter plain_launches;
        const serve::ServingReport plain = ServeWith(
            jodie, requests, kind, nullptr, nullptr, &plain_launches);
        LaunchCounter unfused_launches;
        const serve::ServingReport unfused = ServeWith(
            jodie, requests, kind, &static_gpu, nullptr, &unfused_launches);

        EXPECT_EQ(unfused.batches, plain.batches);
        EXPECT_EQ(unfused.placement_batches[static_cast<size_t>(
                      dispatch::Placement::kGpu)],
                  unfused.batches);
        EXPECT_GT(unfused_launches.launches, plain_launches.launches);
        EXPECT_GE(unfused.makespan_us, plain.makespan_us);
        EXPECT_EQ(unfused.h2d_bytes, plain.h2d_bytes);
        EXPECT_EQ(unfused.d2h_bytes, plain.d2h_bytes);
    }
}

TEST(DispatchServingTest, DispatcherlessServingPicksTheCheaperChainPerBatch)
{
    // At the serving benches' TGN (k = 10) the fused chain is the slower
    // one for a single request and the faster one for a full batch of 64,
    // so the choice has to be priced per batch, not switched globally.
    data::InteractionSpec spec;
    spec.name = "crossover";
    spec.num_users = 512;
    spec.num_items = 128;
    spec.num_events = 4096;
    spec.edge_feature_dim = 64;
    spec.popularity_alpha = 2.5;
    spec.repeat_prob = 0.9;
    spec.seed = 31;
    const auto dataset = data::GenerateInteractions(spec);
    models::Tgn tgn(dataset, models::TgnConfig{172, 64, 2, 11});
    serve::ModelSession session(tgn, sim::ExecMode::kHybrid,
                                /*num_neighbors=*/10);

    const sim::TopologyNode node = sim::Topology::SinglePair().NodeAt(0);
    const auto chain_us = [&](const std::vector<sim::KernelDesc>& kernels) {
        sim::SimTime total = 0.0;
        for (const sim::KernelDesc& k : kernels) {
            total += sim::KernelDuration(node.gpu, k);
        }
        return total;
    };

    for (const int64_t batch : {1, 64}) {
        SCOPED_TRACE("batch " + std::to_string(batch));
        const serve::BatchProfile& unfused = session.Profile(batch);
        const serve::BatchProfile& fused = session.FusedProfile(batch);
        ASSERT_LT(fused.kernels.size(), unfused.kernels.size());
        const bool fused_cheaper =
            chain_us(fused.kernels) < chain_us(unfused.kernels);
        EXPECT_EQ(fused_cheaper, batch == 64);

        // One batch of exactly `batch` requests, all due at once.
        serve::TimeoutPolicy policy(/*batch_size=*/64, /*timeout_us=*/5000.0);
        LaunchCounter counter;
        serve::ServerOptions options;
        options.executor = serve::ExecutorKind::kSerial;
        options.runtime_observer = &counter;
        const serve::ServingReport report = serve::Serve(
            session, policy, std::vector<sim::SimTime>(batch, 0.0), options);
        ASSERT_EQ(report.batches, 1);
        const serve::BatchProfile& cheaper = fused_cheaper ? fused : unfused;
        EXPECT_EQ(counter.launches,
                  static_cast<int64_t>(cheaper.kernels.size()));
        EXPECT_EQ(report.placement_batches[static_cast<size_t>(
                      fused_cheaper ? dispatch::Placement::kGpuFused
                                    : dispatch::Placement::kGpu)],
                  1);
    }
}

TEST(DispatchServingTest, DispatcherRequiresAHybridSession)
{
    const auto dataset = ServingDataset();
    const auto requests = ServingRequests(dataset, 32);
    models::Tgn tgn(dataset, models::TgnConfig{64, 32, 1, 11});

    serve::ModelSession session(tgn, sim::ExecMode::kCpuOnly,
                                /*num_neighbors=*/4);
    serve::TimeoutPolicy policy(32, 5000.0);
    const dispatch::HybridDispatcher dispatcher;
    serve::ServerOptions options;
    options.dispatcher = &dispatcher;
    EXPECT_THROW((void)serve::ServeRequests(session, policy, requests, options),
                 dgnn::Error);
    // The check runs when the run starts: an empty request list dispatches
    // no batch and must still be rejected.
    EXPECT_THROW((void)serve::ServeRequests(session, policy, {}, options),
                 dgnn::Error);

    // A rejected run never opens the observer's run.
    struct RunBeginCounter final : serve::ServingObserver {
        int64_t run_begins = 0;
        void OnRunBegin(const serve::RunContext&) override { ++run_begins; }
    };
    RunBeginCounter counter;
    options.observer = &counter;
    EXPECT_THROW((void)serve::ServeRequests(session, policy, requests, options),
                 dgnn::Error);
    EXPECT_EQ(counter.run_begins, 0);
}

TEST(DispatchServingTest, CacheEnabledSessionNeverRoutesToCpu)
{
    const auto dataset = ServingDataset();
    const auto requests = ServingRequests(dataset, 256);
    models::Tgn tgn(dataset, models::TgnConfig{64, 32, 1, 11});

    cache::DeviceCacheConfig cache_config;
    cache_config.capacity_bytes =
        dataset.NumNodes() / 4 * tgn.CacheRowBytes();
    serve::ModelSession session(tgn, sim::ExecMode::kHybrid,
                                /*num_neighbors=*/4, cache_config);
    ASSERT_TRUE(session.CacheEnabled());

    serve::TimeoutPolicy policy(32, 5000.0);
    const dispatch::HybridDispatcher dispatcher;
    serve::ServerOptions options;
    options.executor = serve::ExecutorKind::kSerial;
    options.dispatcher = &dispatcher;
    const serve::ServingReport report =
        serve::ServeRequests(session, policy, requests, options);
    EXPECT_EQ(
        report.placement_batches[static_cast<size_t>(dispatch::Placement::kCpu)],
        0);
    EXPECT_GT(report.batches, 0);
}

TEST(DispatchServingTest, StaticCpuPlacementEqualsCpuOnlyServing)
{
    // "Run this batch on the CPU" has one meaning. The CPU placement
    // replays the hybrid-captured profile on the host, and no model
    // branches on ExecMode except for the cache (which an uncached session
    // never uses), so it must serve exactly what a kCpuOnly session serves.
    const auto dataset = ServingDataset();
    const auto requests = ServingRequests(dataset, 256);
    models::Tgn tgn(dataset, models::TgnConfig{64, 32, 1, 11});
    models::Tgat tgat(dataset, models::TgatConfig{});
    models::Jodie jodie(dataset, models::JodieConfig{});
    const dispatch::HybridDispatcher static_cpu(
        dispatch::DispatchMode::kStaticCpu);

    for (models::DgnnModel* model :
         std::vector<models::DgnnModel*>{&tgn, &tgat, &jodie}) {
        SCOPED_TRACE(model->Name());
        serve::ModelSession hybrid(*model, sim::ExecMode::kHybrid,
                                   /*num_neighbors=*/4);
        serve::ModelSession cpu_only(*model, sim::ExecMode::kCpuOnly,
                                     /*num_neighbors=*/4);
        const serve::BatchProfile& placed = hybrid.Profile(32);
        const serve::BatchProfile& captured = cpu_only.Profile(32);
        EXPECT_EQ(placed.host_us, captured.host_us);
        ASSERT_EQ(placed.kernels.size(), captured.kernels.size());
        for (size_t i = 0; i < placed.kernels.size(); ++i) {
            const sim::KernelDesc& a = placed.kernels[i];
            const sim::KernelDesc& b = captured.kernels[i];
            EXPECT_EQ(a.name, b.name) << i;
            EXPECT_EQ(a.flops, b.flops) << a.name;
            EXPECT_EQ(a.bytes, b.bytes) << a.name;
            EXPECT_EQ(a.parallel_items, b.parallel_items) << a.name;
            EXPECT_EQ(a.irregular, b.irregular) << a.name;
        }

        for (const serve::ExecutorKind kind :
             {serve::ExecutorKind::kSerial, serve::ExecutorKind::kPipelined}) {
            SCOPED_TRACE(serve::ToString(kind));
            serve::TimeoutPolicy routed_policy(32, 5000.0);
            serve::ServerOptions routed_options;
            routed_options.executor = kind;
            routed_options.dispatcher = &static_cpu;
            const serve::ServingReport routed = serve::ServeRequests(
                hybrid, routed_policy, requests, routed_options);

            serve::TimeoutPolicy plain_policy(32, 5000.0);
            serve::ServerOptions plain_options;
            plain_options.executor = kind;
            const serve::ServingReport plain = serve::ServeRequests(
                cpu_only, plain_policy, requests, plain_options);

            EXPECT_EQ(routed.placement_batches[static_cast<size_t>(
                          dispatch::Placement::kCpu)],
                      routed.batches);
            EXPECT_EQ(routed.batches, plain.batches);
            EXPECT_EQ(routed.latency.P50(), plain.latency.P50());
            EXPECT_EQ(routed.latency.P99(), plain.latency.P99());
            // The two runs open their serving windows after different
            // warm-ups (GPU context vs host model init), so their absolute
            // clocks differ and the makespans agree only to the last ulp.
            EXPECT_NEAR(routed.makespan_us, plain.makespan_us, 1e-6);
        }
    }
}

/// Keeps every batch observation of a run.
class BatchRecorder final : public serve::ServingObserver {
  public:
    void OnBatch(const serve::BatchObservation& ob) override
    {
        batches.push_back(ob);
    }

    std::vector<serve::BatchObservation> batches;
};

TEST(DispatchServingTest, DispatcherPricesTheRuntimesOwnNode)
{
    // A shard on non-default hardware: an NVLink-class host link and a CPU
    // at half the testbed's throughput. Its dispatcher must price this
    // node, not the testbed defaults, so every prediction matches what the
    // shard's runtime charges.
    sim::TopologyNode node;
    node.host_link = sim::LinkSpec::NvlinkClass();
    node.cpu.peak_gflops *= 0.5;
    node.cpu.mem_bw_gbps *= 0.5;
    sim::Topology topology;
    topology.AddNode(node);

    const auto dataset = ServingDataset();
    const auto requests = ServingRequests(dataset, 256);
    models::Tgat tgat(dataset, models::TgatConfig{});
    const shard::PartitionBook book =
        shard::HashPartition(dataset.NumNodes(), 1, 1);
    shard::ExchangeConfig exchange_config;
    exchange_config.row_bytes = tgat.CacheRowBytes();

    int64_t cpu_batches = 0;
    int64_t gpu_batches = 0;
    for (const dispatch::DispatchMode mode :
         {dispatch::DispatchMode::kStaticCpu,
          dispatch::DispatchMode::kStaticGpu}) {
        SCOPED_TRACE(dispatch::ToString(mode));
        const dispatch::HybridDispatcher dispatcher(mode);
        shard::ShardExchangeHook hook(book, topology, 0, exchange_config);
        serve::ModelSession session(tgat, sim::ExecMode::kHybrid,
                                    /*num_neighbors=*/4);
        serve::TimeoutPolicy policy(32, 5000.0);
        BatchRecorder recorder;
        serve::ServerOptions options;
        options.executor = serve::ExecutorKind::kSerial;
        options.dispatcher = &dispatcher;
        options.shard_hook = &hook;
        options.observer = &recorder;
        const serve::ServingReport report =
            serve::ServeRequests(session, policy, requests, options);
        ASSERT_EQ(static_cast<int64_t>(recorder.batches.size()),
                  report.batches);

        for (const serve::BatchObservation& ob : recorder.batches) {
            ASSERT_TRUE(ob.decision.has_value());
            const dispatch::PlacementDecision& decision = *ob.decision;
            const serve::BatchSpans& spans = ob.spans;
            const serve::BatchProfile& profile = *ob.profile;
            if (decision.placement == dispatch::Placement::kCpu) {
                ++cpu_batches;
                EXPECT_NEAR(decision.predicted_cpu_us - ob.prep_credit_us,
                            spans.complete_us - spans.dispatch_us, 1e-6)
                    << ob.batch_index;
                continue;
            }
            ++gpu_batches;
            ASSERT_GT(profile.h2d_bytes, 0);
            ASSERT_GT(profile.d2h_bytes, 0);
            const sim::SimTime h2d_us =
                spans.h2d_done_us - spans.host_done_us;
            const sim::SimTime d2h_us =
                spans.complete_us - spans.compute_done_us;
            EXPECT_NEAR(h2d_us, node.host_link.TransferTime(profile.h2d_bytes),
                        1e-6)
                << ob.batch_index;
            // The prediction's transfer term is exactly what the runtime
            // charged for both copies.
            sim::SimTime chain_us = 0.0;
            for (const sim::KernelDesc& kernel : profile.kernels) {
                chain_us += sim::KernelDuration(node.gpu, kernel);
            }
            EXPECT_NEAR(decision.predicted_gpu_us - profile.host_us - chain_us,
                        h2d_us + d2h_us, 1e-6)
                << ob.batch_index;
        }
    }
    EXPECT_GT(cpu_batches, 0);
    EXPECT_GT(gpu_batches, 0);
}

// Forwards batch observations into a DispatchLedger.
class LedgerObserver final : public serve::ServingObserver {
  public:
    void OnBatch(const serve::BatchObservation& ob) override
    {
        ledger_.OnBatch(ob);
    }
    const obs::DispatchLedger& Ledger() const { return ledger_; }

  private:
    obs::DispatchLedger ledger_;
};

TEST(DispatchServingTest, LedgerAccountsEveryRoutedBatch)
{
    const auto dataset = ServingDataset();
    const auto requests = ServingRequests(dataset, 256);
    models::Tgn tgn(dataset, models::TgnConfig{64, 32, 1, 11});

    const dispatch::HybridDispatcher dispatcher;
    LedgerObserver observer;
    const serve::ServingReport report = ServeWith(
        tgn, requests, serve::ExecutorKind::kSerial, &dispatcher, &observer);

    const obs::DispatchLedger& ledger = observer.Ledger();
    EXPECT_EQ(ledger.RoutedBatches(), report.batches);
    for (int i = 0; i < dispatch::kNumPlacements; ++i) {
        EXPECT_EQ(ledger.Buckets()[static_cast<size_t>(i)].batches,
                  report.placement_batches[static_cast<size_t>(i)]);
    }
    // On the serial executor the cost-model predictions track the measured
    // in-executor spans closely (they differ only by per-launch submit/sync
    // overheads); a wildly wrong prediction means the seam broke.
    EXPECT_LT(ledger.MeanRelativeError(), 0.5);

    // A dispatcher-less run is priced too: every batch reaches the ledger,
    // and none runs on the host.
    LedgerObserver device_only;
    const serve::ServingReport plain = ServeWith(
        tgn, requests, serve::ExecutorKind::kSerial, nullptr, &device_only);
    EXPECT_EQ(device_only.Ledger().RoutedBatches(), plain.batches);
    EXPECT_EQ(device_only.Ledger()
                  .Buckets()[static_cast<size_t>(dispatch::Placement::kCpu)]
                  .batches,
              0);
}

TEST(DispatchServingTest, FusedAndRoutedServingIsHazardFree)
{
    const auto dataset = ServingDataset();
    const auto requests = ServingRequests(dataset, 256);
    models::Tgn tgn(dataset, models::TgnConfig{64, 32, 1, 11});
    models::Jodie jodie(dataset, models::JodieConfig{});

    for (models::DgnnModel* model :
         std::vector<models::DgnnModel*>{&tgn, &jodie}) {
        for (const serve::ExecutorKind kind :
             {serve::ExecutorKind::kSerial, serve::ExecutorKind::kPipelined}) {
            const dispatch::HybridDispatcher dispatcher;
            analysis::HazardChecker checker;
            (void)ServeWith(*model, requests, kind, &dispatcher, nullptr,
                            &checker);
            const analysis::HazardReport report = checker.Report();
            EXPECT_TRUE(report.Clean())
                << model->Name() << " / " << serve::ToString(kind) << "\n"
                << report.ToText();
            EXPECT_GT(report.ops, 0);
            EXPECT_GT(report.writes, 0);
        }
    }
}

}  // namespace
}  // namespace dgnn
