// Tests for src/analysis/ — the happens-before hazard checker.
//
// Three layers:
//   * unit checks of the vector-clock model against hand-built runtime
//     schedules (each Runtime sync primitive's edge, blocking-copy
//     semantics, CPU-only degeneracy, report determinism);
//   * a seeded mutation wall: a synthetic double-buffered pipeline
//     schedule with each sync edge individually removable — every dropped
//     edge must be detected with the expected hazard kind on the expected
//     resource family, and the unmutated schedule must be clean;
//   * the serving sweep: every gauntlet scenario x TGN/TGAT/JODIE x both
//     executors must be hazard-free with the checker attached, and
//     attaching the checker must not perturb the simulation.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "analysis/hazard_checker.hpp"
#include "analysis/sync_mutations.hpp"
#include "data/temporal_interactions.hpp"
#include "models/dgnn_model.hpp"
#include "models/jodie.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"
#include "scenario/scenario.hpp"
#include "serve/server.hpp"
#include "serving_reports.hpp"

namespace dgnn::analysis {
namespace {

sim::Runtime
HybridRuntime()
{
    return models::MakeRuntime(sim::ExecMode::kHybrid);
}

sim::KernelDesc
TestKernel(const std::string& name, int64_t bytes = 1 << 20)
{
    sim::KernelDesc k;
    k.name = name;
    k.flops = bytes;
    k.bytes = bytes;
    k.parallel_items = bytes / 4;
    return k;
}

sim::AccessSet
Reads(std::vector<std::string> resources)
{
    sim::AccessSet set;
    set.reads = std::move(resources);
    return set;
}

sim::AccessSet
Writes(std::vector<std::string> resources)
{
    sim::AccessSet set;
    set.writes = std::move(resources);
    return set;
}

// ------------------------------------------------------- vector-clock model

TEST(HazardCheckerTest, AsyncCopyThenUnfencedKernelIsRaw)
{
    sim::Runtime rt = HybridRuntime();
    HazardChecker checker;
    rt.SetObserver(&checker);
    {
        sim::AccessScope scope(rt, Writes({"dev_in#0"}));
        (void)rt.CopyToDeviceAsync(1 << 20, "h2d");
    }
    {
        // No StreamWaitEvent(compute, <event on copy>): the kernel may run
        // before the DMA lands.
        sim::AccessScope scope(rt, Reads({"dev_in#0"}));
        rt.Launch(TestKernel("consumer"));
    }
    const HazardReport report = checker.Report();
    ASSERT_EQ(report.hazards.size(), 1u);
    EXPECT_EQ(report.hazards[0].kind, HazardKind::kRaw);
    EXPECT_EQ(report.hazards[0].resource, "dev_in#0");
    EXPECT_EQ(report.hazards[0].prior.timeline, "copy");
    EXPECT_EQ(report.hazards[0].current.timeline, "compute");
    EXPECT_NE(report.hazards[0].missing_edge.find("StreamWaitEvent(compute"),
              std::string::npos);
}

TEST(HazardCheckerTest, StreamWaitEventOrdersCopyBeforeKernel)
{
    sim::Runtime rt = HybridRuntime();
    HazardChecker checker;
    rt.SetObserver(&checker);
    {
        sim::AccessScope scope(rt, Writes({"dev_in#0"}));
        (void)rt.CopyToDeviceAsync(1 << 20, "h2d");
    }
    const sim::Event ready = rt.RecordEvent(sim::StreamId::kCopy);
    rt.StreamWaitEvent(sim::StreamId::kCompute, ready);
    {
        sim::AccessScope scope(rt, Reads({"dev_in#0"}));
        rt.Launch(TestKernel("consumer"));
    }
    EXPECT_TRUE(checker.Report().Clean());
}

TEST(HazardCheckerTest, KernelThenUnfencedAsyncCopyIsRaw)
{
    sim::Runtime rt = HybridRuntime();
    HazardChecker checker;
    rt.SetObserver(&checker);
    {
        sim::AccessScope scope(rt, Writes({"dev_out#0"}));
        rt.Launch(TestKernel("producer"));
    }
    {
        // No StreamWaitEvent(copy, <event on compute>).
        sim::AccessScope scope(rt, Reads({"dev_out#0"}));
        (void)rt.CopyToHostAsync(1 << 20, "d2h");
    }
    const HazardReport report = checker.Report();
    ASSERT_EQ(report.hazards.size(), 1u);
    EXPECT_EQ(report.hazards[0].kind, HazardKind::kRaw);
    EXPECT_NE(report.hazards[0].missing_edge.find("StreamWaitEvent(copy"),
              std::string::npos);
}

TEST(HazardCheckerTest, UnorderedCrossStreamWritesAreWaw)
{
    sim::Runtime rt = HybridRuntime();
    HazardChecker checker;
    rt.SetObserver(&checker);
    {
        sim::AccessScope scope(rt, Writes({"dev_in#0"}));
        (void)rt.CopyToDeviceAsync(1 << 20, "h2d");
    }
    {
        // The gather-style kernel also writes the staging buffer, with no
        // fence against the in-flight copy.
        sim::AccessScope scope(rt, Writes({"dev_in#0"}));
        rt.Launch(TestKernel("gather"));
    }
    const HazardReport report = checker.Report();
    ASSERT_EQ(report.hazards.size(), 1u);
    EXPECT_EQ(report.hazards[0].kind, HazardKind::kWaw);
}

TEST(HazardCheckerTest, HostWriteAfterUnwaitedStreamReadIsWar)
{
    sim::Runtime rt = HybridRuntime();
    HazardChecker checker;
    rt.SetObserver(&checker);
    {
        sim::AccessScope scope(rt, Reads({"host_in#0"}));
        (void)rt.CopyToDeviceAsync(1 << 20, "h2d");
    }
    {
        // Rebuilding the staging buffer without waiting for the DMA that
        // still reads it.
        sim::AccessScope scope(rt, Writes({"host_in#0"}));
        rt.RunHostFor("batch_build", 5.0);
    }
    const HazardReport report = checker.Report();
    ASSERT_EQ(report.hazards.size(), 1u);
    EXPECT_EQ(report.hazards[0].kind, HazardKind::kWar);
    EXPECT_EQ(report.hazards[0].current.timeline, "host");
}

TEST(HazardCheckerTest, HostReadOfUnsyncedKernelResultIsRaw)
{
    sim::Runtime rt = HybridRuntime();
    HazardChecker checker;
    rt.SetObserver(&checker);
    {
        sim::AccessScope scope(rt, Writes({"result"}));
        rt.Launch(TestKernel("producer"));
    }
    {
        sim::AccessScope scope(rt, Reads({"result"}));
        rt.RunHostFor("consume", 1.0);
    }
    const HazardReport report = checker.Report();
    ASSERT_EQ(report.hazards.size(), 1u);
    EXPECT_EQ(report.hazards[0].kind, HazardKind::kRaw);
    EXPECT_NE(report.hazards[0].missing_edge.find("Synchronize"),
              std::string::npos);
}

TEST(HazardCheckerTest, SynchronizeOrdersHostAfterEverything)
{
    sim::Runtime rt = HybridRuntime();
    HazardChecker checker;
    rt.SetObserver(&checker);
    {
        sim::AccessScope scope(rt, Writes({"result"}));
        rt.Launch(TestKernel("producer"));
    }
    (void)rt.Synchronize();
    {
        sim::AccessScope scope(rt, Reads({"result"}));
        rt.RunHostFor("consume", 1.0);
    }
    EXPECT_TRUE(checker.Report().Clean());
}

TEST(HazardCheckerTest, HostWaitEventOrdersHostAfterStream)
{
    sim::Runtime rt = HybridRuntime();
    HazardChecker checker;
    rt.SetObserver(&checker);
    {
        sim::AccessScope scope(rt, Writes({"result"}));
        (void)rt.CopyToHostAsync(1 << 20, "d2h");
    }
    const sim::Event done = rt.RecordEvent(sim::StreamId::kCopy);
    (void)rt.WaitEvent(done);
    {
        sim::AccessScope scope(rt, Reads({"result"}));
        rt.RunHostFor("consume", 1.0);
    }
    EXPECT_TRUE(checker.Report().Clean());
}

TEST(HazardCheckerTest, BlockingCopiesCarryTheirImplicitEdges)
{
    sim::Runtime rt = HybridRuntime();
    HazardChecker checker;
    rt.SetObserver(&checker);
    // Blocking H2D -> kernel: submission order after a host-blocking copy.
    {
        sim::AccessScope scope(rt, Writes({"dev_in#0"}));
        rt.CopyToDevice(1 << 20, "h2d");
    }
    {
        sim::AccessScope scope(rt,
                               sim::AccessSet{{"dev_in#0"}, {"dev_out#0"}});
        rt.Launch(TestKernel("k"));
    }
    // Kernel -> blocking D2H: CopyToHost drains the compute stream first.
    {
        sim::AccessScope scope(rt, Reads({"dev_out#0"}));
        rt.CopyToHost(1 << 20, "d2h");
    }
    EXPECT_TRUE(checker.Report().Clean());
}

TEST(HazardCheckerTest, CpuOnlyModeIsAlwaysOrdered)
{
    sim::Runtime rt = models::MakeRuntime(sim::ExecMode::kCpuOnly);
    HazardChecker checker;
    rt.SetObserver(&checker);
    // Everything degenerates to the host timeline; no syncs needed.
    {
        sim::AccessScope scope(rt, Writes({"buf"}));
        rt.Launch(TestKernel("producer"));
    }
    {
        sim::AccessScope scope(rt, Reads({"buf"}));
        rt.RunHostFor("consume", 1.0);
    }
    EXPECT_TRUE(checker.Report().Clean());
}

TEST(HazardCheckerTest, SameTimelineAccessesNeverConflict)
{
    sim::Runtime rt = HybridRuntime();
    HazardChecker checker;
    rt.SetObserver(&checker);
    // Two kernels on the in-order compute stream, write then read.
    {
        sim::AccessScope scope(rt, Writes({"buf"}));
        rt.Launch(TestKernel("a"));
    }
    {
        sim::AccessScope scope(rt, Reads({"buf"}));
        rt.Launch(TestKernel("b"));
    }
    EXPECT_TRUE(checker.Report().Clean());
}

TEST(HazardCheckerTest, DeduplicatesByFamilyAndCountsOccurrences)
{
    sim::Runtime rt = HybridRuntime();
    HazardChecker checker;
    rt.SetObserver(&checker);
    for (int slot = 0; slot < 3; ++slot) {
        const std::string resource = "dev_in#" + std::to_string(slot);
        {
            sim::AccessScope scope(rt, Writes({resource}));
            (void)rt.CopyToDeviceAsync(1 << 20, "h2d");
        }
        {
            sim::AccessScope scope(rt, Reads({resource}));
            rt.Launch(TestKernel("consumer"));
        }
    }
    const HazardReport report = checker.Report();
    // Same defect shape across three slot instances: one report, three
    // occurrences.
    ASSERT_EQ(report.hazards.size(), 1u);
    EXPECT_EQ(report.hazards[0].occurrences, 3);
    EXPECT_EQ(report.HazardOccurrences(), 3);
}

TEST(HazardCheckerTest, ResourceFamilyStripsInstanceSuffix)
{
    EXPECT_EQ(ResourceFamily("dev_in#0"), "dev_in");
    EXPECT_EQ(ResourceFamily("row:42#g7"), "row:42");
    EXPECT_EQ(ResourceFamily("host_store"), "host_store");
}

TEST(HazardCheckerTest, ReportCountersAndRenderingAreDeterministic)
{
    auto run = [] {
        sim::Runtime rt = HybridRuntime();
        HazardChecker checker;
        rt.SetObserver(&checker);
        {
            sim::AccessScope scope(rt, Writes({"dev_in#0"}));
            (void)rt.CopyToDeviceAsync(1 << 20, "h2d");
        }
        const sim::Event ready = rt.RecordEvent(sim::StreamId::kCopy);
        rt.StreamWaitEvent(sim::StreamId::kCompute, ready);
        {
            sim::AccessScope scope(rt, Reads({"dev_in#0"}));
            rt.Launch(TestKernel("consumer"));
        }
        (void)rt.Synchronize();
        return checker.Report();
    };
    const HazardReport a = run();
    const HazardReport b = run();
    EXPECT_EQ(a.ToText(), b.ToText());
    EXPECT_EQ(a.ops, 2);
    EXPECT_EQ(a.reads, 1);
    EXPECT_EQ(a.writes, 1);
    EXPECT_EQ(a.resources, 1);
    EXPECT_EQ(a.events_recorded, 1);
    EXPECT_EQ(a.stream_waits, 1);
    EXPECT_EQ(a.synchronizes, 1);
    EXPECT_NE(a.ToText().find("verdict ........... CLEAN"),
              std::string::npos);

    core::BenchJsonWriter json_a("hazard_test");
    core::BenchJsonWriter json_b("hazard_test");
    json_a.BeginRecord();
    json_b.BeginRecord();
    a.AppendJsonFields(json_a);
    b.AppendJsonFields(json_b);
    EXPECT_EQ(json_a.ToString(), json_b.ToString());
    EXPECT_NE(json_a.ToString().find("\"verdict\": \"CLEAN\""),
              std::string::npos);
}

TEST(HazardCheckerTest, DirtyReportListsBothSitesAndFix)
{
    sim::Runtime rt = HybridRuntime();
    HazardChecker checker;
    rt.SetObserver(&checker);
    {
        sim::AccessScope scope(rt, Writes({"dev_in#0"}));
        (void)rt.CopyToDeviceAsync(1 << 20, "h2d");
    }
    {
        sim::AccessScope scope(rt, Reads({"dev_in#0"}));
        rt.Launch(TestKernel("consumer"));
    }
    const std::string text = checker.Report().ToText();
    EXPECT_NE(text.find("verdict ........... HAZARDOUS"), std::string::npos);
    EXPECT_NE(text.find("[1] RAW on dev_in#0"), std::string::npos);
    EXPECT_NE(text.find("prior:   op#0 h2d [copy]"), std::string::npos);
    EXPECT_NE(text.find("current: op#1 consumer [compute]"),
              std::string::npos);
    EXPECT_NE(text.find("fix:"), std::string::npos);
}

// ------------------------------------------------------------ mutation wall
//
// The schedule itself lives in src/analysis/sync_mutations.cpp.

const uint64_t kMutationSeeds[] = {101, 202, 303};

TEST(MutationWallTest, IntactScheduleIsClean)
{
    for (const uint64_t seed : kMutationSeeds) {
        const HazardReport report = RunMutatedPipeline(SyncEdge::kNone, seed);
        EXPECT_TRUE(report.Clean()) << "seed " << seed << "\n"
                                    << report.ToText();
    }
}

/// Every hazard in @p report must sit on one of @p allowed families.
void
ExpectFamiliesWithin(const HazardReport& report,
                     const std::vector<std::string>& allowed)
{
    for (const Hazard& hazard : report.hazards) {
        const std::string family = ResourceFamily(hazard.resource);
        EXPECT_NE(std::find(allowed.begin(), allowed.end(), family),
                  allowed.end())
            << "unexpected hazard family " << family << "\n"
            << report.ToText();
    }
}

bool
HasHazard(const HazardReport& report, HazardKind kind,
          const std::string& family)
{
    for (const Hazard& hazard : report.hazards) {
        if (hazard.kind == kind && ResourceFamily(hazard.resource) == family) {
            return true;
        }
    }
    return false;
}

TEST(MutationWallTest, DroppedInputFenceIsRawOnDeviceInputs)
{
    for (const uint64_t seed : kMutationSeeds) {
        const HazardReport report =
            RunMutatedPipeline(SyncEdge::kInputFence, seed);
        ASSERT_FALSE(report.Clean()) << "seed " << seed;
        // The kernel consumes staging the DMA has not landed yet.
        EXPECT_TRUE(HasHazard(report, HazardKind::kRaw, "dev_in"))
            << report.ToText();
        ExpectFamiliesWithin(report, {"dev_in"});
    }
}

TEST(MutationWallTest, DroppedComputeFenceIsRawOnDeviceOutputs)
{
    for (const uint64_t seed : kMutationSeeds) {
        const HazardReport report =
            RunMutatedPipeline(SyncEdge::kComputeFence, seed);
        ASSERT_FALSE(report.Clean()) << "seed " << seed;
        // The D2H reads results the kernel has not produced yet.
        EXPECT_TRUE(HasHazard(report, HazardKind::kRaw, "dev_out"))
            << report.ToText();
        // Collateral: the throttle event no longer covers the previous
        // slot owner's kernel, so the slot-reuse H2D write may also race
        // that kernel's staging read.
        ExpectFamiliesWithin(report, {"dev_out", "dev_in"});
    }
}

TEST(MutationWallTest, DroppedThrottleWaitIsWarOnHostStaging)
{
    for (const uint64_t seed : kMutationSeeds) {
        const HazardReport report =
            RunMutatedPipeline(SyncEdge::kThrottleWait, seed);
        ASSERT_FALSE(report.Clean()) << "seed " << seed;
        // Slot reuse without the completion wait: the rebuild clobbers
        // staging the previous owner's DMA still reads.
        EXPECT_TRUE(HasHazard(report, HazardKind::kWar, "host_in"))
            << report.ToText();
    }
}

TEST(MutationWallTest, DroppedFinalDrainIsRawOnHostResults)
{
    for (const uint64_t seed : kMutationSeeds) {
        const HazardReport report =
            RunMutatedPipeline(SyncEdge::kFinalDrain, seed);
        ASSERT_FALSE(report.Clean()) << "seed " << seed;
        // The host consumes results whose D2H it never waited for.
        EXPECT_TRUE(HasHazard(report, HazardKind::kRaw, "host_out"))
            << report.ToText();
        ExpectFamiliesWithin(report, {"host_out"});
    }
}

TEST(MutationWallTest, EveryMutationIsDetected)
{
    // The 100%-detection gate: across all seeds, all four deleted edges.
    for (const SyncEdge drop :
         {SyncEdge::kInputFence, SyncEdge::kComputeFence,
          SyncEdge::kThrottleWait, SyncEdge::kFinalDrain}) {
        for (const uint64_t seed : kMutationSeeds) {
            EXPECT_FALSE(RunMutatedPipeline(drop, seed).Clean())
                << "mutation " << static_cast<int>(drop) << " seed " << seed;
        }
    }
}

TEST(MutationWallTest, EachDroppedEdgePinsItsHazards)
{
    // Seed 101, six batches: the exact hazard shape of every mutation, so a
    // checker that starts reporting more, fewer or different conflicts
    // fails here even while it still flags the edge.
    struct Expected {
        SyncEdge drop;
        int64_t hazards;
        int64_t occurrences;
        std::string first;
    };
    const std::vector<Expected> table = {
        {SyncEdge::kNone, 0, 0, "-"},
        {SyncEdge::kInputFence, 1, 6, "RAW on dev_in#0"},
        {SyncEdge::kComputeFence, 2, 10, "RAW on dev_out#0"},
        {SyncEdge::kThrottleWait, 1, 4, "WAR on host_in#0"},
        {SyncEdge::kFinalDrain, 1, 2, "RAW on host_out#0"},
    };
    for (const Expected& e : table) {
        const HazardReport report = RunMutatedPipeline(e.drop, 101);
        std::string first = "-";
        if (!report.hazards.empty()) {
            first = std::string(ToString(report.hazards[0].kind)) + " on " +
                    report.hazards[0].resource;
        }
        EXPECT_EQ(static_cast<int64_t>(report.hazards.size()), e.hazards)
            << ToString(e.drop) << "\n" << report.ToText();
        EXPECT_EQ(report.HazardOccurrences(), e.occurrences)
            << ToString(e.drop);
        EXPECT_EQ(first, e.first) << ToString(e.drop);
    }
}

// ------------------------------------------------------------ serving sweep

data::InteractionDataset
SweepDataset()
{
    data::InteractionSpec spec;
    spec.name = "hazard-sweep";
    spec.num_users = 256;
    spec.num_items = 64;
    spec.num_events = 2048;
    spec.edge_feature_dim = 32;
    spec.popularity_alpha = 2.5;
    spec.repeat_prob = 0.9;
    spec.seed = 31;
    return data::GenerateInteractions(spec);
}

serve::ServingReport
ServeCell(models::DgnnModel& model, const scenario::Scenario& s,
          const data::InteractionDataset& dataset, serve::ExecutorKind kind,
          int64_t n, sim::RuntimeObserver* observer)
{
    cache::DeviceCacheConfig cache_config;
    cache_config.capacity_bytes = dataset.NumNodes() / 4 * model.CacheRowBytes();
    cache_config.eviction = cache::EvictionPolicy::kLru;
    serve::ModelSession session(model, sim::ExecMode::kHybrid,
                                /*num_neighbors=*/10, cache_config);
    serve::TimeoutPolicy policy(/*max_batch=*/32, /*timeout_us=*/5000.0);
    serve::ServerOptions options;
    options.executor = kind;
    options.runtime_observer = observer;
    return serve::ServeRequests(session, policy,
                                scenario::GenerateRequests(s, dataset, n), options);
}

TEST(ServingSweepTest, AllGauntletCellsAreHazardFree)
{
    const auto dataset = SweepDataset();
    const int64_t n = 512;
    const std::vector<scenario::Scenario> scenarios =
        scenario::GauntletScenarios(/*base_qps=*/20000.0, n,
                                    dataset.NumNodes(), /*seed=*/1009);
    ASSERT_EQ(scenarios.size(), 7u);

    models::Tgn tgn(dataset, models::TgnConfig{64, 32, 1, 11});
    models::Tgat tgat(dataset, models::TgatConfig{});
    models::Jodie jodie(dataset, models::JodieConfig{});
    const std::vector<std::pair<std::string, models::DgnnModel*>> model_list =
        {{"TGN", &tgn}, {"TGAT", &tgat}, {"JODIE", &jodie}};

    for (const auto& [model_name, model] : model_list) {
        for (const scenario::Scenario& s : scenarios) {
            for (const serve::ExecutorKind kind :
                 {serve::ExecutorKind::kSerial,
                  serve::ExecutorKind::kPipelined}) {
                HazardChecker checker;
                (void)ServeCell(*model, s, dataset, kind, n, &checker);
                const HazardReport report = checker.Report();
                EXPECT_TRUE(report.Clean())
                    << model_name << " / " << s.name << " / "
                    << serve::ToString(kind) << "\n"
                    << report.ToText();
                // The checker actually saw the run: ops and declared
                // accesses must be present in every hybrid cell.
                EXPECT_GT(report.ops, 0);
                EXPECT_GT(report.writes, 0);
            }
        }
    }
}

TEST(ServingSweepTest, AttachingTheCheckerDoesNotPerturbTheRun)
{
    // The serving gauntlet's golden runs every cell under the checker, so
    // the checker must be passive: every scenario, both executors, whole
    // reports equal with and without it.
    const auto dataset = SweepDataset();
    const int64_t n = 256;
    const std::vector<scenario::Scenario> scenarios =
        scenario::GauntletScenarios(20000.0, n, dataset.NumNodes(), 1009);
    ASSERT_EQ(scenarios.size(), 7u);

    models::Tgn tgn(dataset, models::TgnConfig{64, 32, 1, 11});
    for (const scenario::Scenario& s : scenarios) {
        for (const serve::ExecutorKind kind :
             {serve::ExecutorKind::kSerial, serve::ExecutorKind::kPipelined}) {
            SCOPED_TRACE(s.name + " / " + serve::ToString(kind));
            const serve::ServingReport bare =
                ServeCell(tgn, s, dataset, kind, n, nullptr);
            HazardChecker checker;
            const serve::ServingReport checked =
                ServeCell(tgn, s, dataset, kind, n, &checker);
            serve::ExpectSameServing(bare, checked);
            EXPECT_TRUE(checker.Report().Clean());
        }
    }
}

}  // namespace
}  // namespace dgnn::analysis
