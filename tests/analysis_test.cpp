// Tests for src/analysis/ — the happens-before hazard checker.
//
// Three layers:
//   * unit checks of the vector-clock model against hand-built runtime
//     schedules (each Runtime sync primitive's edge, blocking-copy
//     semantics, CPU-only degeneracy, report determinism);
//   * the serving sweep: attaching the checker must not perturb any
//     gauntlet scenario under either executor;
//   * the mutation wall: real serve::ServeRequests runs (the pipelined
//     executor, and a 2-shard ShardExchangeHook) with one sync edge's
//     waits withheld from the checker by an observer decorator (the final
//     drain by one of its own, with the caller's read of the results
//     declared after the run) — every intact run must be clean, and every
//     dropped edge must be detected with the expected hazard kind on the
//     expected resource family.

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/hazard_checker.hpp"
#include "data/temporal_interactions.hpp"
#include "models/dgnn_model.hpp"
#include "models/jodie.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"
#include "scenario/scenario.hpp"
#include "serve/server.hpp"
#include "serving_reports.hpp"
#include "shard/exchange.hpp"
#include "shard/partition_book.hpp"
#include "sim/topology.hpp"

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
    auto run = [](bool wait) {
        sim::Runtime rt = HybridRuntime();
        HazardChecker checker;
        rt.SetObserver(&checker);
        {
            sim::AccessScope scope(rt, Writes({"result"}));
            (void)rt.CopyToHostAsync(1 << 20, "d2h");
        }
        const sim::Event done = rt.RecordEvent(sim::StreamId::kCopy);
        if (wait) {
            (void)rt.WaitEvent(done);
        }
        {
            sim::AccessScope scope(rt, Reads({"result"}));
            rt.RunHostFor("consume", 1.0);
        }
        return checker.Report();
    };
    EXPECT_TRUE(run(true).Clean());

    // Without the wait the host reads results the async D2H may not have
    // landed yet.
    const HazardReport unwaited = run(false);
    ASSERT_EQ(unwaited.hazards.size(), 1u);
    EXPECT_EQ(unwaited.hazards[0].kind, HazardKind::kRaw);
    EXPECT_EQ(unwaited.hazards[0].prior.timeline, "copy");
    EXPECT_EQ(unwaited.hazards[0].current.timeline, "host");
    EXPECT_NE(unwaited.hazards[0].missing_edge.find("WaitEvent"),
              std::string::npos);
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
    EXPECT_EQ(ResourceFamily("row:42#g7"), "row");
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

/// Serves @p requests on a hybrid session of @p model with an LRU cache of
/// 1/@p cache_divisor of the nodes' rows (a quarter, as the gauntlet has),
/// batch 32 / 5 ms.
serve::ServingReport
ServeCell(models::DgnnModel& model, const std::vector<serve::Request>& requests,
          const data::InteractionDataset& dataset, serve::ExecutorKind kind,
          sim::RuntimeObserver* observer,
          serve::BatchShardHook* shard_hook = nullptr, int64_t cache_divisor = 4)
{
    cache::DeviceCacheConfig cache_config;
    cache_config.capacity_bytes =
        dataset.NumNodes() / cache_divisor * model.CacheRowBytes();
    serve::ModelSession session(model, sim::ExecMode::kHybrid,
                                /*num_neighbors=*/10, cache_config);
    serve::TimeoutPolicy policy(/*max_batch=*/32, /*timeout_us=*/5000.0);
    serve::ServerOptions options;
    options.executor = kind;
    options.runtime_observer = observer;
    options.shard_hook = shard_hook;
    return serve::ServeRequests(session, policy, requests, options);
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
            const std::vector<serve::Request> requests =
                scenario::GenerateRequests(s, dataset, n);
            const serve::ServingReport bare =
                ServeCell(tgn, requests, dataset, kind, nullptr);
            HazardChecker checker;
            const serve::ServingReport checked =
                ServeCell(tgn, requests, dataset, kind, &checker);
            serve::ExpectSameServing(bare, checked);
            EXPECT_TRUE(checker.Report().Clean());
        }
    }
}

// ------------------------------------------------------------ mutation wall
//
// Each stream sync edge is one stream's waits on the events recorded right
// after an op that wrote one resource family, and is named by that family:
// dev_in (the compute stream's input fence), dev_out (the copy stream's
// compute fence, before a result copy or, for a batch that returns no
// results, before its dispatch-time write-back), exchange_in (the compute
// stream's exchange fence) and dev_state (the copy stream's exchange
// back-fence). The throttle edge is named by its waiter: the host's waits
// on a finished batch's completion event, whatever op recorded it (a
// result copy, or the last kernel of a batch that returns no results).

/// The timeline whose waits make up sync edge @p edge.
enum class Waiter { kCompute, kCopy, kHost };

Waiter
WaiterOf(const std::string& edge)
{
    if (edge == "throttle") {
        return Waiter::kHost;
    }
    return edge == "dev_out" || edge == "dev_state" ? Waiter::kCopy
                                                    : Waiter::kCompute;
}

/// Forwards every hook to @p inner except the waits on one sync edge: for
/// a stream edge, that stream's StreamWaitEvent calls on events recorded
/// right after an op that wrote the @p edge resource family; for the
/// throttle, every host WaitEvent (the serving loop's host waits only on
/// batch completion events: the throttle's, and the final drain's, which
/// its Synchronize covers anyway). The checker builds its clocks only from
/// these hooks, so it sees exactly the program with those calls deleted,
/// while the simulated run itself is untouched.
class EdgeDropper final : public sim::RuntimeObserver {
  public:
    EdgeDropper(sim::RuntimeObserver& inner, std::string edge)
        : inner_(inner), edge_(std::move(edge)), waiter_(WaiterOf(edge_))
    {
    }

    /// Waits withheld from the inner observer so far.
    int64_t Dropped() const { return dropped_; }

    void OnOp(const sim::OpRecord& op) override
    {
        last_op_writes_edge_ =
            op.access != nullptr &&
            std::any_of(op.access->writes.begin(), op.access->writes.end(),
                        [&](const std::string& resource) {
                            return ResourceFamily(resource) == edge_;
                        });
        inner_.OnOp(op);
    }
    void OnEventRecorded(const sim::Event& event, sim::StreamId stream) override
    {
        if (last_op_writes_edge_) {
            edge_events_.insert(event.id);
        }
        inner_.OnEventRecorded(event, stream);
    }
    void OnStreamWaitEvent(sim::StreamId stream, const sim::Event& event) override
    {
        const Waiter waiter =
            stream == sim::StreamId::kCopy ? Waiter::kCopy : Waiter::kCompute;
        if (!Drops(waiter, event)) {
            inner_.OnStreamWaitEvent(stream, event);
        }
    }
    void OnHostWaitEvent(const sim::Event& event) override
    {
        if (!Drops(Waiter::kHost, event)) {
            inner_.OnHostWaitEvent(event);
        }
    }
    void OnSynchronize() override { inner_.OnSynchronize(); }
    void OnWindowReset() override { inner_.OnWindowReset(); }

  private:
    bool Drops(Waiter waiter, const sim::Event& event)
    {
        if (waiter != waiter_ ||
            (waiter != Waiter::kHost && edge_events_.count(event.id) == 0)) {
            return false;
        }
        ++dropped_;
        return true;
    }

    sim::RuntimeObserver& inner_;
    std::string edge_;
    Waiter waiter_;
    bool last_op_writes_edge_ = false;
    std::set<int64_t> edge_events_;
    int64_t dropped_ = 0;
};

/// Forwards every hook to @p inner except the final drain: the host waits
/// and the Synchronize PipelinedExecutor::Drain issues back to back once
/// the serving loop ends. Throttle waits are followed by the next batch's
/// build and the measurement window's Synchronize by its reset, so a run
/// of host waits ending in a Synchronize that anything but a window reset
/// follows is the drain. Sync hooks are held until the next hook shows
/// which they were.
class DrainDropper final : public sim::RuntimeObserver {
  public:
    explicit DrainDropper(sim::RuntimeObserver& inner) : inner_(inner) {}

    /// Sync hooks withheld from the inner observer so far.
    int64_t Dropped() const { return dropped_; }

    void OnOp(const sim::OpRecord& op) override
    {
        Settle();
        inner_.OnOp(op);
    }
    void OnEventRecorded(const sim::Event& event, sim::StreamId stream) override
    {
        Settle();
        inner_.OnEventRecorded(event, stream);
    }
    void OnStreamWaitEvent(sim::StreamId stream, const sim::Event& event) override
    {
        Settle();
        inner_.OnStreamWaitEvent(stream, event);
    }
    void OnHostWaitEvent(const sim::Event& event) override
    {
        if (synced_) {
            Settle();
        }
        waits_.push_back(event);
    }
    void OnSynchronize() override
    {
        if (synced_) {
            Settle();
        }
        synced_ = true;
    }
    void OnWindowReset() override
    {
        Forward();
        inner_.OnWindowReset();
    }

  private:
    /// Drops the held hooks if they were a drain, else forwards them.
    void Settle()
    {
        if (synced_) {
            dropped_ += static_cast<int64_t>(waits_.size()) + 1;
            waits_.clear();
            synced_ = false;
        }
        Forward();
    }
    void Forward()
    {
        for (const sim::Event& event : waits_) {
            inner_.OnHostWaitEvent(event);
        }
        waits_.clear();
        if (synced_) {
            inner_.OnSynchronize();
            synced_ = false;
        }
    }

    sim::RuntimeObserver& inner_;
    std::vector<sim::Event> waits_;
    bool synced_ = false;
    int64_t dropped_ = 0;
};

/// The wall's request stream: the sweep dataset's poisson/recurrent
/// scenario, 512 requests.
std::vector<serve::Request>
WallRequests(const data::InteractionDataset& dataset)
{
    const int64_t n = 512;
    const scenario::Scenario poisson_recurrent =
        scenario::GauntletScenarios(20000.0, n, dataset.NumNodes(), 1009)
            .front();
    return scenario::GenerateRequests(poisson_recurrent, dataset, n);
}

/// What one wall run saw.
struct WallRun {
    HazardReport report;
    int64_t dropped = 0;  ///< waits withheld from the checker
    int64_t rounds = 0;   ///< exchange rounds the hook issued
};

/// One wall run: the sweep dataset's poisson/recurrent stream (512
/// requests) served on @p model through the real pipelined executor, with
/// the waits of @p edge ("" for none) withheld from the checker. With
/// @p two_shards, shard 0 of a 2-shard hash split serves the requests whose
/// source it owns and pulls the rest through a real ShardExchangeHook. The
/// cache holds 1/@p cache_divisor of the nodes' rows.
WallRun
RunWall(models::DgnnModel& model, const data::InteractionDataset& dataset,
        bool two_shards, const std::string& edge, int64_t cache_divisor = 4)
{
    std::vector<serve::Request> requests = WallRequests(dataset);

    const shard::PartitionBook book =
        shard::HashPartition(dataset.NumNodes(), 2, 1);
    const sim::Topology topology =
        sim::Topology::ScaleOut(2, sim::LinkSpec::PcieGen4());
    shard::ShardExchangeHook hook(
        book, topology, 0,
        shard::ExchangeConfig{.row_bytes = model.CacheRowBytes(),
                              .rows_mutable = model.CacheRowsMutable()});
    if (two_shards) {
        std::erase_if(requests, [&](const serve::Request& r) {
            return book.ShardOf(r.src) != 0;
        });
    }

    HazardChecker checker;
    EdgeDropper dropper(checker, edge);
    (void)ServeCell(model, requests, dataset, serve::ExecutorKind::kPipelined,
                    &dropper, two_shards ? &hook : nullptr, cache_divisor);
    return {checker.Report(), dropper.Dropped(), hook.Rounds()};
}

/// One drain wall run: the wall's stream served on @p model through the
/// pipelined executor on one device, with the final drain withheld from
/// the checker when @p drop_drain. Serving hands its outcome to the caller
/// once the loop returns, so the caller's host read of it is declared to
/// the checker after the run: both slots' result staging, or, for JODIE,
/// whose batches return no results, the host store its flushed state rows
/// land in.
WallRun
RunDrainWall(models::DgnnModel& model, const data::InteractionDataset& dataset,
             bool drop_drain)
{
    HazardChecker checker;
    DrainDropper dropper(checker);
    sim::RuntimeObserver& observer =
        drop_drain ? static_cast<sim::RuntimeObserver&>(dropper) : checker;
    (void)ServeCell(model, WallRequests(dataset), dataset,
                    serve::ExecutorKind::kPipelined, &observer);
    const std::string name = "consume_results";
    const sim::AccessSet results =
        model.Name() == "JODIE" ? Reads({"host_store"})
                                : Reads({"host_out#0", "host_out#1"});
    sim::OpRecord consume;
    consume.name = &name;
    consume.access = &results;
    observer.OnOp(consume);
    return {checker.Report(), dropper.Dropped(), 0};
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

TEST(MutationWallTest, IntactScheduleIsClean)
{
    const auto dataset = SweepDataset();
    models::Tgn tgn(dataset, models::TgnConfig{64, 32, 1, 11});
    models::Tgat tgat(dataset, models::TgatConfig{});
    models::Jodie jodie(dataset, models::JodieConfig{});
    for (models::DgnnModel* model :
         std::initializer_list<models::DgnnModel*>{&tgn, &tgat, &jodie}) {
        for (const bool two_shards : {false, true}) {
            const WallRun run = RunWall(*model, dataset, two_shards, "");
            EXPECT_TRUE(run.report.Clean())
                << model->Name() << (two_shards ? " / 2 shards" : "") << "\n"
                << run.report.ToText();
            // A vacuously clean run proves nothing.
            EXPECT_GT(run.report.ops, 0);
            EXPECT_EQ(run.rounds > 0, two_shards);
        }
    }
}

TEST(MutationWallTest, DroppedInputFenceIsRawOnDeviceInputs)
{
    const auto dataset = SweepDataset();
    models::Tgn tgn(dataset, models::TgnConfig{64, 32, 1, 11});
    const HazardReport report = RunWall(tgn, dataset, false, "dev_in").report;
    // The kernels consume staging (and cache rows) the DMA has not landed.
    EXPECT_TRUE(HasHazard(report, HazardKind::kRaw, "dev_in"))
        << report.ToText();
    ExpectFamiliesWithin(report, {"dev_in", "row"});
}

TEST(MutationWallTest, DroppedComputeFenceIsRawOnDeviceOutputs)
{
    const auto dataset = SweepDataset();
    models::Tgn tgn(dataset, models::TgnConfig{64, 32, 1, 11});
    const HazardReport report = RunWall(tgn, dataset, false, "dev_out").report;
    // The D2H reads results the kernels have not produced yet. Collateral:
    // the throttle event no longer covers the previous slot owner's
    // kernels, so the slot-reuse H2D may also race their staging reads.
    EXPECT_TRUE(HasHazard(report, HazardKind::kRaw, "dev_out"))
        << report.ToText();
    ExpectFamiliesWithin(report, {"dev_out", "dev_in", "row"});
}

TEST(MutationWallTest, DroppedThrottleWaitIsWarOnHostStaging)
{
    const auto dataset = SweepDataset();
    models::Tgn tgn(dataset, models::TgnConfig{64, 32, 1, 11});
    const HazardReport report =
        RunWall(tgn, dataset, false, "throttle").report;
    // Slot reuse without the completion wait: the rebuild clobbers staging
    // the previous owner's DMA still reads.
    EXPECT_TRUE(HasHazard(report, HazardKind::kWar, "host_in"))
        << report.ToText();
    ExpectFamiliesWithin(report, {"host_in"});
}

TEST(MutationWallTest, DroppedFinalDrainIsRawOnHostResults)
{
    const auto dataset = SweepDataset();
    models::Tgn tgn(dataset, models::TgnConfig{64, 32, 1, 11});
    models::Tgat tgat(dataset, models::TgatConfig{});
    models::Jodie jodie(dataset, models::JodieConfig{});
    for (models::DgnnModel* model :
         std::initializer_list<models::DgnnModel*>{&tgn, &tgat, &jodie}) {
        const WallRun intact = RunDrainWall(*model, dataset, false);
        EXPECT_TRUE(intact.report.Clean())
            << model->Name() << "\n" << intact.report.ToText();
        EXPECT_GT(intact.report.ops, 0);

        const WallRun dropped = RunDrainWall(*model, dataset, true);
        // Only the drain: at most one wait per in-flight batch (two) and
        // its Synchronize.
        EXPECT_GT(dropped.dropped, 0) << model->Name();
        EXPECT_LE(dropped.dropped, 3) << model->Name();
        if (model == &jodie) {
            // A JODIE caller reads the host store. The end-of-run flush
            // writes it with a blocking copy that first drains the compute
            // stream, and every JODIE copy lands before a kernel of its
            // batch: its write-backs and misses leave at dispatch, ahead of
            // a miss copy the kernels wait on. So the drain orders nothing
            // the flush has not, and dropping it stays clean.
            EXPECT_TRUE(dropped.report.Clean())
                << model->Name() << "\n" << dropped.report.ToText();
            continue;
        }
        // The caller reads results the last batches' async D2H may not
        // have landed yet. Collateral for TGN: the end-of-run flush's
        // write-back may race the last batch's in-flight one on the host
        // store.
        EXPECT_TRUE(HasHazard(dropped.report, HazardKind::kRaw, "host_out"))
            << model->Name() << "\n" << dropped.report.ToText();
        ExpectFamiliesWithin(dropped.report, {"host_out", "host_store"});
    }
}

TEST(MutationWallTest, DroppedExchangeFenceIsRawOnExchangeInputs)
{
    const auto dataset = SweepDataset();
    models::Tgn tgn(dataset, models::TgnConfig{64, 32, 1, 11});
    const WallRun run = RunWall(tgn, dataset, true, "exchange_in");
    EXPECT_GT(run.rounds, 0);
    // The unpack kernel scatters staged rows the peer pull has not landed
    // yet: a RAW on the exchange buffer, and nothing outside it.
    EXPECT_TRUE(HasHazard(run.report, HazardKind::kRaw, "exchange_in"))
        << run.report.ToText();
    ExpectFamiliesWithin(run.report, {"exchange_in"});
}

TEST(MutationWallTest, EveryMutationIsDetected)
{
    // The 100%-detection gate: every model, every edge the pipelined
    // executor and the exchange hook need. JODIE's batches return no
    // results (ROADMAP item 11): its dev_out edge is the fence its
    // dispatch-time write-backs wait behind, and its throttle waits on its
    // compute event. In a quarter cache every JODIE batch after the first
    // evicts, so its write-back fence orders its dispatch-time state copy
    // after the kernels of the batch two before it, and the throttle orders
    // nothing more (EachDroppedEdgePinsItsHazards pins that clean row).
    // The throttle is what orders a batch that misses without evicting;
    // in a cache that holds every row, every batch does, so JODIE's
    // throttle cell runs on one.
    const auto dataset = SweepDataset();
    models::Tgn tgn(dataset, models::TgnConfig{64, 32, 1, 11});
    models::Tgat tgat(dataset, models::TgatConfig{});
    models::Jodie jodie(dataset, models::JodieConfig{});
    for (models::DgnnModel* model :
         std::initializer_list<models::DgnnModel*>{&tgn, &tgat, &jodie}) {
        for (const std::string edge :
             {"dev_in", "dev_out", "throttle", "exchange_in"}) {
            const int64_t cache_divisor =
                model == &jodie && edge == "throttle" ? 1 : 4;
            const WallRun run = RunWall(*model, dataset, edge == "exchange_in",
                                        edge, cache_divisor);
            EXPECT_GT(run.dropped, 0) << model->Name() << " / " << edge;
            EXPECT_FALSE(run.report.Clean()) << model->Name() << " / " << edge;
        }
    }
}

TEST(MutationWallTest, EachDroppedEdgePinsItsHazards)
{
    // The exact hazard shape of every dropped edge of cached TGN, and of
    // the edges other models add, so a checker that starts reporting more,
    // fewer or different conflicts fails here even while it still flags
    // the edge.
    const auto dataset = SweepDataset();
    models::Tgn tgn(dataset, models::TgnConfig{64, 32, 1, 11});
    models::Tgat tgat(dataset, models::TgatConfig{});
    models::Jodie jodie(dataset, models::JodieConfig{});
    struct Expected {
        models::DgnnModel* model;
        bool two_shards;
        std::string edge;
        int64_t hazards;
        int64_t occurrences;
        std::string first;
        /// The cache holds 1/cache_divisor of the nodes' rows.
        int64_t cache_divisor = 4;
    };
    const std::vector<Expected> table = {
        {&tgn, false, "", 0, 0, "-"},
        // One hazard per shape: the cache rows the input copy opens are
        // one family however many rows the batches touch.
        {&tgn, false, "dev_in", 4, 593, "RAW on dev_in#0"},
        {&tgn, false, "dev_out", 4, 539, "RAW on dev_out#0"},
        // One stage of a TGN batch copies inputs (its sampled
        // neighbourhoods ride the first copy): one WAR per reused slot.
        {&tgn, false, "throttle", 1, 14, "WAR on host_in#0"},
        // The write-back fence: a JODIE batch writes its evicted rows back
        // at dispatch, and without the copy stream's wait on the last
        // batch's kernels the D2H reads rows they may not have written yet.
        {&jodie, false, "dev_out", 1, 66, "RAW on row:8#g0"},
        // JODIE's throttle. In a quarter cache every batch after the first
        // writes back behind the previous batch's kernels, which orders its
        // dispatch-time state copy after the kernels of the batch two
        // before it: dropping the throttle stays clean. In a cache that
        // holds every row no batch evicts, and without the throttle each
        // batch's state copy overwrites its slot's device inputs while the
        // previous owner's kernels (and hit gather) may still use them.
        {&jodie, false, "throttle", 0, 0, "-"},
        {&jodie, false, "throttle", 2, 27, "WAR on dev_in#0", 1},
        {&tgn, true, "", 0, 0, "-"},
        {&tgn, true, "exchange_in", 1, 8, "RAW on exchange_in#0"},
        // The exchange back-fence. TGN's result copy waits on its batch's
        // kernels, and with them the exchange's unpack, so the next pulls
        // queue behind it; TGAT's does too. A JODIE batch has no result
        // copy, and its copy stream waits on compute only before a
        // dispatch-time write-back, issued after the batch's pulls: without
        // the back-fence those pulls overwrite staging the previous unpack
        // may still read.
        {&tgn, true, "dev_state", 0, 0, "-"},
        {&tgat, true, "dev_state", 0, 0, "-"},
        {&jodie, true, "dev_state", 1, 1, "WAR on exchange_in#0"},
    };
    for (const Expected& e : table) {
        const std::string label =
            e.model->Name() +
            (e.two_shards ? " / 2 shards / " : " / 1 device / ") +
            (e.edge.empty() ? std::string("none") : e.edge) + " / cache 1/" +
            std::to_string(e.cache_divisor);
        const WallRun run =
            RunWall(*e.model, dataset, e.two_shards, e.edge, e.cache_divisor);
        const HazardReport& report = run.report;
        std::string first = "-";
        if (!report.hazards.empty()) {
            first = std::string(ToString(report.hazards[0].kind)) + " on " +
                    report.hazards[0].resource;
        }
        EXPECT_EQ(run.dropped > 0, !e.edge.empty()) << label;
        EXPECT_GT(report.ops, 0) << label;
        EXPECT_EQ(static_cast<int64_t>(report.hazards.size()), e.hazards)
            << label << "\n" << report.ToText();
        EXPECT_EQ(report.HazardOccurrences(), e.occurrences) << label;
        EXPECT_EQ(first, e.first) << label;
    }
}

}  // namespace
}  // namespace dgnn::analysis
