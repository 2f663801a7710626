// Tests for the simulated runtime: clock semantics, async kernels, copies,
// synchronization, category accounting, measurement windows.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "support/check.hpp"

#include "sim/runtime.hpp"

namespace dgnn::sim {
namespace {

RuntimeConfig
HybridConfig()
{
    RuntimeConfig c;
    c.mode = ExecMode::kHybrid;
    return c;
}

RuntimeConfig
CpuConfig()
{
    RuntimeConfig c;
    c.mode = ExecMode::kCpuOnly;
    return c;
}

KernelDesc
SmallKernel()
{
    KernelDesc k;
    // Assign via std::string to dodge GCC 12's -Wrestrict false positive on
    // short-literal assignment under -O2 (GCC bug 105329).
    k.name = std::string("k");
    k.flops = 1000000;
    k.bytes = 1000;
    k.parallel_items = 1000;
    return k;
}

TEST(RuntimeTest, StartsAtTimeZero)
{
    Runtime rt(HybridConfig());
    EXPECT_DOUBLE_EQ(rt.Now(), 0.0);
    EXPECT_TRUE(rt.HasGpu());
    Runtime cpu_rt(CpuConfig());
    EXPECT_FALSE(cpu_rt.HasGpu());
    EXPECT_THROW(cpu_rt.Gpu(), Error);
}

TEST(RuntimeTest, HostOpAdvancesClock)
{
    Runtime rt(HybridConfig());
    const SimTime end = rt.RunHost(SmallKernel());
    EXPECT_GT(end, 0.0);
    EXPECT_DOUBLE_EQ(rt.Now(), end);
    EXPECT_GT(rt.Cpu().BusyTime(), 0.0);
}

TEST(RuntimeTest, RunHostForExactDuration)
{
    Runtime rt(HybridConfig());
    rt.RunHostFor("load", 42.0);
    EXPECT_DOUBLE_EQ(rt.Now(), 42.0);
    EXPECT_THROW(rt.RunHostFor("bad", -1.0), Error);
}

TEST(RuntimeTest, GpuKernelIsAsynchronous)
{
    Runtime rt(HybridConfig());
    const SimTime completion = rt.Launch(SmallKernel());
    // Host only paid the submit cost; the kernel finishes later.
    EXPECT_LT(rt.Now(), completion);
    const SimTime synced = rt.Synchronize();
    EXPECT_DOUBLE_EQ(synced, completion);
    EXPECT_DOUBLE_EQ(rt.Now(), completion);
    EXPECT_GT(rt.SyncWaitTime(), 0.0);
}

TEST(RuntimeTest, CpuOnlyKernelIsSynchronous)
{
    Runtime rt(CpuConfig());
    const SimTime completion = rt.Launch(SmallKernel());
    EXPECT_DOUBLE_EQ(rt.Now(), completion);
    // Synchronize is a no-op without a GPU.
    EXPECT_DOUBLE_EQ(rt.Synchronize(), completion);
    EXPECT_DOUBLE_EQ(rt.SyncWaitTime(), 0.0);
}

TEST(RuntimeTest, KernelsSerializeOnStream)
{
    Runtime rt(HybridConfig());
    const SimTime first = rt.Launch(SmallKernel());
    const SimTime second = rt.Launch(SmallKernel());
    EXPECT_GT(second, first);
}

TEST(RuntimeTest, CopiesBlockHostAndCount)
{
    Runtime rt(HybridConfig());
    const SimTime t0 = rt.Now();
    rt.CopyToDevice(1 << 20, "h2d");
    EXPECT_GT(rt.Now(), t0);
    EXPECT_EQ(rt.BytesToDevice(), 1 << 20);
    rt.CopyToHost(1 << 10, "d2h");
    EXPECT_EQ(rt.BytesToHost(), 1 << 10);
    EXPECT_EQ(rt.TransferCount(), 2);
    EXPECT_GT(rt.TransferTime(), 0.0);
}

TEST(RuntimeTest, CopiesAreNoOpsInCpuMode)
{
    Runtime rt(CpuConfig());
    rt.CopyToDevice(1 << 20, "h2d");
    rt.CopyToHost(1 << 20, "d2h");
    EXPECT_DOUBLE_EQ(rt.Now(), 0.0);
    EXPECT_EQ(rt.BytesToDevice(), 0);
    EXPECT_EQ(rt.TransferCount(), 0);
}

TEST(RuntimeTest, CopyToHostWaitsForKernels)
{
    Runtime rt(HybridConfig());
    const SimTime kernel_done = rt.Launch(SmallKernel());
    rt.CopyToHost(100, "result");
    // The D2H copy cannot start before the producing kernel finished.
    EXPECT_GT(rt.Now(), kernel_done);
}

TEST(RuntimeTest, KernelAfterCopyWaitsForData)
{
    Runtime rt(HybridConfig());
    rt.CopyToDevice(10 << 20, "input");
    const SimTime copy_done = rt.Now();
    const SimTime kernel_done = rt.Launch(SmallKernel());
    EXPECT_GT(kernel_done, copy_done);
}

TEST(RuntimeTest, CategoryAccountingPartitionsElapsed)
{
    Runtime rt(HybridConfig());
    rt.ResetMeasurementWindow();
    {
        CategoryScope scope(rt, "Phase A");
        rt.RunHostFor("a", 10.0);
    }
    {
        CategoryScope scope(rt, "Phase B");
        rt.RunHostFor("b", 30.0);
        rt.Launch(SmallKernel());
        (void)rt.Synchronize();
    }
    const auto& cats = rt.CategoryTimes();
    double total = 0.0;
    for (const auto& [name, t] : cats) {
        total += t;
    }
    EXPECT_NEAR(total, rt.ElapsedInWindow(), 1e-9);
    EXPECT_DOUBLE_EQ(cats.at("Phase A"), 10.0);
    EXPECT_GT(cats.at("Phase B"), 30.0);
}

TEST(RuntimeTest, NestedCategoriesAttributeToInnermost)
{
    Runtime rt(HybridConfig());
    rt.PushCategory("outer");
    rt.RunHostFor("x", 5.0);
    rt.PushCategory("inner");
    rt.RunHostFor("y", 7.0);
    rt.PopCategory();
    rt.RunHostFor("z", 2.0);
    rt.PopCategory();
    EXPECT_DOUBLE_EQ(rt.CategoryTimes().at("outer"), 7.0);
    EXPECT_DOUBLE_EQ(rt.CategoryTimes().at("inner"), 7.0);
    EXPECT_THROW(rt.PopCategory(), Error);
}

TEST(RuntimeTest, MeasurementWindowResets)
{
    Runtime rt(HybridConfig());
    rt.RunHostFor("setup", 100.0);
    rt.CopyToDevice(1000, "w");
    rt.ResetMeasurementWindow();
    EXPECT_DOUBLE_EQ(rt.ElapsedInWindow(), 0.0);
    EXPECT_EQ(rt.BytesToDevice(), 0);
    EXPECT_DOUBLE_EQ(rt.Cpu().BusyTime(), 0.0);
    rt.RunHostFor("work", 50.0);
    EXPECT_DOUBLE_EQ(rt.ElapsedInWindow(), 50.0);
}

TEST(RuntimeTest, UtilizationReflectsBusyFraction)
{
    Runtime rt(HybridConfig());
    rt.ResetMeasurementWindow();
    rt.Launch(SmallKernel());
    (void)rt.Synchronize();
    rt.RunHostFor("idle_gpu", rt.ElapsedInWindow());  // double the window
    const double util = rt.ComputeUtilizationPct();
    EXPECT_GT(util, 0.0);
    EXPECT_LT(util, 100.0);
}

TEST(RuntimeTest, AllocationsTrackPeaks)
{
    Runtime rt(HybridConfig());
    {
        DeviceBuffer buf = rt.AllocDevice(1 << 20, "activations");
        EXPECT_EQ(rt.Gpu().Memory().LiveBytes(), 1 << 20);
    }
    // RAII released it.
    EXPECT_EQ(rt.Gpu().Memory().LiveBytes(), 0);
    EXPECT_EQ(rt.Cpu().Memory().LiveBytes(), 0);
    EXPECT_EQ(rt.Gpu().Memory().PeakBytes(), 1 << 20);
}

TEST(RuntimeTest, DeviceBufferMoveSemantics)
{
    Runtime rt(HybridConfig());
    DeviceBuffer a = rt.AllocDevice(100, "a");
    DeviceBuffer b = std::move(a);
    EXPECT_FALSE(a.Valid());
    EXPECT_TRUE(b.Valid());
    EXPECT_EQ(b.Bytes(), 100);
    b.Release();
    EXPECT_FALSE(b.Valid());
    EXPECT_EQ(rt.Gpu().Memory().LiveBytes(), 0);
}

TEST(RuntimeTest, DeviceBufferMoveAssignReleasesExisting)
{
    // Regression: move-assigning into a buffer that still owns an
    // allocation must free that allocation (not leak it in the pool).
    Runtime rt(HybridConfig());
    DeviceBuffer a = rt.AllocDevice(100, "a");
    DeviceBuffer b = rt.AllocDevice(250, "b");
    EXPECT_EQ(rt.Gpu().Memory().LiveBytes(), 350);
    EXPECT_EQ(rt.Gpu().Memory().LiveAllocationCount(), 2);

    a = std::move(b);  // a's original 100 B must be released here
    EXPECT_EQ(rt.Gpu().Memory().LiveBytes(), 250);
    EXPECT_EQ(rt.Gpu().Memory().LiveAllocationCount(), 1);
    EXPECT_TRUE(a.Valid());
    EXPECT_EQ(a.Bytes(), 250);
    EXPECT_FALSE(b.Valid());

    a.Release();
    EXPECT_EQ(rt.Gpu().Memory().LiveBytes(), 0);
}

TEST(RuntimeTest, AsyncCopyDoesNotBlockHost)
{
    Runtime rt(HybridConfig());
    const SimTime before = rt.Now();
    const SimTime copy_end = rt.CopyToDeviceAsync(8 << 20, "h2d_async");
    // Host paid only the submit overhead; the DMA runs behind it.
    EXPECT_DOUBLE_EQ(rt.Now(), before + RuntimeConfig{}.submit_overhead_us);
    EXPECT_GT(copy_end, rt.Now());
    EXPECT_DOUBLE_EQ(rt.StreamReadyTime(StreamId::kCopy), copy_end);
    EXPECT_EQ(rt.BytesToDevice(), 8 << 20);
    // The blocking variant would have advanced the host to the copy end.
    Runtime blocking(HybridConfig());
    blocking.CopyToDevice(8 << 20, "h2d_blocking");
    EXPECT_GT(blocking.Now(), rt.Now());
}

TEST(RuntimeTest, EventsOrderComputeAfterAsyncCopy)
{
    Runtime rt(HybridConfig());
    const SimTime copy_end = rt.CopyToDeviceAsync(4 << 20, "inputs");
    const Event inputs_ready = rt.RecordEvent(StreamId::kCopy);
    EXPECT_DOUBLE_EQ(inputs_ready.ready_us, copy_end);

    rt.StreamWaitEvent(StreamId::kCompute, inputs_ready);
    const SimTime kernel_end = rt.Launch(SmallKernel());
    // The kernel may not start before its input copy finished.
    EXPECT_GE(kernel_end, copy_end);

    const Event compute_done = rt.RecordEvent(StreamId::kCompute);
    EXPECT_DOUBLE_EQ(compute_done.ready_us, kernel_end);

    // Host wait on the event advances the clock and counts as sync time.
    const SimTime waited = rt.WaitEvent(compute_done);
    EXPECT_DOUBLE_EQ(waited, kernel_end);
    EXPECT_GT(rt.SyncWaitTime(), 0.0);
}

TEST(RuntimeTest, RecordEventOnIdleStreamCompletesImmediately)
{
    Runtime rt(HybridConfig());
    rt.RunHostFor("host_work", 100.0);
    const Event e = rt.RecordEvent(StreamId::kCompute);
    // Nothing is queued: the event is already complete at record time.
    EXPECT_DOUBLE_EQ(e.ready_us, rt.Now());
    const SimTime before = rt.Now();
    (void)rt.WaitEvent(e);
    EXPECT_DOUBLE_EQ(rt.Now(), before);
    EXPECT_DOUBLE_EQ(rt.SyncWaitTime(), 0.0);
}

TEST(RuntimeTest, AsyncPrimitivesAreNoOpsInCpuMode)
{
    Runtime rt(CpuConfig());
    const SimTime t0 = rt.Now();
    EXPECT_DOUBLE_EQ(rt.CopyToDeviceAsync(1 << 20, "h2d"), t0);
    EXPECT_DOUBLE_EQ(rt.CopyToHostAsync(1 << 20, "d2h"), t0);
    const Event e = rt.RecordEvent(StreamId::kCopy);
    rt.StreamWaitEvent(StreamId::kCompute, e);
    (void)rt.WaitEvent(e);
    EXPECT_DOUBLE_EQ(rt.Now(), t0);
    EXPECT_EQ(rt.BytesToDevice(), 0);
    EXPECT_EQ(rt.TransferCount(), 0);
}

TEST(RuntimeTest, SynchronizeDrainsCopyStreamToo)
{
    Runtime rt(HybridConfig());
    const SimTime copy_end = rt.CopyToDeviceAsync(16 << 20, "big_h2d");
    EXPECT_LT(rt.Now(), copy_end);
    (void)rt.Synchronize();
    EXPECT_DOUBLE_EQ(rt.Now(), copy_end);
}

TEST(RuntimeTest, AsyncCopyOverlapsComputeAcrossStreams)
{
    // Pipelined issue order: kernel on the compute stream, then an async
    // H2D for the *next* batch on the copy stream. Both proceed
    // concurrently, so the drain point is the max of the two, strictly
    // less than the serial sum.
    KernelDesc big = SmallKernel();
    big.flops = 500000000;
    big.parallel_items = 1 << 20;

    Runtime serial(HybridConfig());
    serial.Launch(big);
    (void)serial.Synchronize();
    serial.CopyToDevice(32 << 20, "h2d");
    const SimTime serial_total = serial.Now();

    Runtime overlapped(HybridConfig());
    overlapped.Launch(big);
    (void)overlapped.CopyToDeviceAsync(32 << 20, "h2d");
    (void)overlapped.Synchronize();
    const SimTime overlapped_total = overlapped.Now();

    EXPECT_LT(overlapped_total, serial_total);
}

TEST(RuntimeTest, IdleUntilAdvancesClockWithoutBusyTime)
{
    Runtime rt(HybridConfig());
    rt.ResetMeasurementWindow();
    const SimTime busy_before = rt.Cpu().BusyTime();
    rt.PushCategory("Serving Idle");
    rt.IdleUntil(rt.Now() + 1234.5);
    rt.PopCategory();
    EXPECT_DOUBLE_EQ(rt.ElapsedInWindow(), 1234.5);
    EXPECT_DOUBLE_EQ(rt.Cpu().BusyTime(), busy_before);
    EXPECT_DOUBLE_EQ(rt.CategoryTimes().at("Serving Idle"), 1234.5);
    // Idling into the past is a no-op.
    const SimTime now = rt.Now();
    rt.IdleUntil(now - 100.0);
    EXPECT_DOUBLE_EQ(rt.Now(), now);
}

TEST(RuntimeTest, OpRecordsCarryTheDescriptorAndTheCacheTag)
{
    struct Seen {
        std::string name;
        int64_t parallel_items;  ///< of the record's descriptor; 0 without one
        bool irregular;
        CacheTag cache;
    };
    struct Recorder final : RuntimeObserver {
        void OnOp(const OpRecord& op) override
        {
            seen.push_back({*op.name, op.kernel ? op.kernel->parallel_items : 0,
                            op.kernel && op.kernel->irregular, op.cache});
        }
        std::vector<Seen> seen;
    } recorder;
    Runtime rt(HybridConfig());
    rt.SetObserver(&recorder);
    KernelDesc k = SmallKernel();
    k.parallel_items = 777;
    k.irregular = true;
    rt.Launch(k);
    rt.RunHost(k);
    rt.RunHostFor("load", 1.0);
    rt.CopyToDevice(64, "h2d");
    rt.GatherToDevice(3, 5, 256, "state");
    rt.WriteBackToHost(2, 256, "state");

    const std::vector<std::tuple<int64_t, bool, CacheTag>> expected = {
        {777, true, CacheTag::kNone},               // k
        {777, true, CacheTag::kNone},               // k
        {0, false, CacheTag::kNone},                // load
        {0, false, CacheTag::kNone},                // h2d
        {0, false, CacheTag::kMissH2D},             // state:cache_miss_h2d
        {3 * 256 / 4, true, CacheTag::kHitGather},  // state:cache_hit_gather
        {0, false, CacheTag::kWritebackD2H},        // state:cache_writeback_d2h
    };
    ASSERT_EQ(recorder.seen.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        const Seen& op = recorder.seen[i];
        EXPECT_EQ(std::make_tuple(op.parallel_items, op.irregular, op.cache),
                  expected[i])
            << op.name;
    }
}

TEST(RuntimeTest, WarmupAdvancesClockOnce)
{
    Runtime rt(HybridConfig());
    EXPECT_FALSE(rt.IsWarm());
    const OneTimeWarmup w = rt.EnsureWarm(4 << 20);
    EXPECT_TRUE(rt.IsWarm());
    EXPECT_GT(w.TotalUs(), 1e6);  // seconds of warm-up
    EXPECT_DOUBLE_EQ(rt.Now(), w.TotalUs());
    // Second call is cached and free.
    rt.EnsureWarm(4 << 20);
    EXPECT_DOUBLE_EQ(rt.Now(), w.TotalUs());
}

TEST(RuntimeTest, PerRunWarmupScalesWithBytes)
{
    Runtime rt(HybridConfig());
    const PerRunWarmup small = rt.RunAllocWarmup(1 << 20);
    const PerRunWarmup big = rt.RunAllocWarmup(256 << 20);
    EXPECT_GT(big.alloc_us, small.alloc_us);
}

TEST(RuntimeTest, TraceRecordsAllEventKinds)
{
    Runtime rt(HybridConfig());
    rt.RunHostFor("host", 1.0);
    rt.Launch(SmallKernel());
    rt.CopyToDevice(100, "h2d");
    (void)rt.Synchronize();
    rt.Marker("done");
    bool saw_host = false;
    bool saw_kernel = false;
    bool saw_transfer = false;
    bool saw_marker = false;
    for (const TraceEvent& e : rt.GetTrace().Events()) {
        saw_host |= e.kind == EventKind::kHostOp;
        saw_kernel |= e.kind == EventKind::kKernel;
        saw_transfer |= e.kind == EventKind::kTransfer;
        saw_marker |= e.kind == EventKind::kMarker;
    }
    EXPECT_TRUE(saw_host);
    EXPECT_TRUE(saw_kernel);
    EXPECT_TRUE(saw_transfer);
    EXPECT_TRUE(saw_marker);
}

TEST(RuntimeTest, TraceTimestampsAreOrderedPerDevice)
{
    Runtime rt(HybridConfig());
    for (int i = 0; i < 5; ++i) {
        rt.Launch(SmallKernel());
    }
    (void)rt.Synchronize();
    SimTime prev_end = 0.0;
    for (const TraceEvent& e : rt.GetTrace().Events()) {
        if (e.kind == EventKind::kKernel) {
            EXPECT_GE(e.start_us, prev_end);
            prev_end = e.end_us;
        }
        EXPECT_GE(e.end_us, e.start_us);
    }
}

/// Everything a RuntimeObserver hears, flattened to comparable values.
struct ObservedOp {
    std::string hook;
    std::string name;
    int kind = 0;
    bool on_host = false;
    int stream = 0;
    bool blocking = false;
    SimTime start_us = 0.0;
    SimTime end_us = 0.0;
    int64_t bytes = 0;
    int cache = 0;

    bool operator==(const ObservedOp&) const = default;
};

class RecordingObserver final : public RuntimeObserver {
  public:
    void OnOp(const OpRecord& op) override
    {
        ops.push_back({"op", *op.name, static_cast<int>(op.kind), op.on_host,
                       static_cast<int>(op.stream), op.blocking, op.start_us,
                       op.end_us, op.bytes, static_cast<int>(op.cache)});
    }
    void OnEventRecorded(const Event& event, StreamId stream) override
    {
        ops.push_back({"record", "", 0, false, static_cast<int>(stream), false,
                       event.ready_us, event.ready_us, event.id});
    }
    void OnStreamWaitEvent(StreamId stream, const Event& event) override
    {
        ops.push_back({"stream_wait", "", 0, false, static_cast<int>(stream),
                       false, event.ready_us, event.ready_us, event.id});
    }
    void OnHostWaitEvent(const Event& event) override
    {
        ops.push_back({"host_wait", "", 0, false, 0, false, event.ready_us,
                       event.ready_us, event.id});
    }
    void OnSynchronize() override
    {
        ops.push_back({"sync", "", 0, false, 0, false, 0.0, 0.0, 0});
    }

    std::vector<ObservedOp> ops;
};

/// One fixed script issuing every operation that records a trace event,
/// with each wait long enough to block and each stream fence landing on an
/// idle stream. After every op it notes the op's result, the host clock and
/// both stream ready times.
std::vector<SimTime>
RunEveryTracedOp(Runtime& rt)
{
    KernelDesc big = SmallKernel();
    big.flops = 4000000000;
    std::vector<SimTime> t;
    const auto step = [&t, &rt](SimTime result) {
        t.insert(t.end(), {result, rt.Now(),
                           rt.StreamReadyTime(StreamId::kCompute),
                           rt.StreamReadyTime(StreamId::kCopy)});
    };
    rt.PushCategory("warm");
    step(rt.EnsureWarm(1 << 20).TotalUs());
    step(rt.RunAllocWarmup(8 << 20).TotalUs());
    rt.PopCategory();
    rt.ResetMeasurementWindow();
    const CategoryScope outer(rt, "outer");
    rt.Marker("phase");
    step(rt.Now());
    step(rt.RunHost(SmallKernel()));
    step(rt.RunHostFor("load", 3.0));
    step(rt.CopyToDevice(4096, "h2d"));
    step(rt.PeerCopyAsync(1, 1 << 20, "peer"));
    step(rt.Launch(big));
    step(rt.CopyToHost(4096, "d2h"));
    step(rt.CopyToDeviceAsync(64 << 20, "h2d_async"));
    step(rt.CopyToHostAsync(1 << 20, "d2h_async"));
    {
        const CategoryScope inner(rt, "cache");
        step(rt.GatherToDevice(3, 5, 256, "gather"));
        step(rt.WriteBackToHost(2, 256, "writeback"));
    }
    const Event copied = rt.RecordEvent(StreamId::kCopy);
    step(copied.ready_us);
    rt.StreamWaitEvent(StreamId::kCompute, copied);
    step(rt.Now());
    step(rt.Launch(big));
    const Event computed = rt.RecordEvent(StreamId::kCompute);
    step(rt.WaitEvent(computed));
    step(rt.IdleUntil(rt.Now() + 50.0));
    step(rt.Launch(big));
    step(rt.CopyToDeviceAsync(1 << 20, "tail"));
    step(rt.Synchronize());
    return t;
}

TEST(RuntimeTest, TracingOffChangesNothingButTheTrace)
{
    for (const ExecMode mode : {ExecMode::kHybrid, ExecMode::kCpuOnly}) {
        SCOPED_TRACE(ToString(mode));
        RuntimeConfig config;
        config.mode = mode;
        config.topology = Topology::ScaleOut(2, LinkSpec::NvlinkClass());
        Runtime on(config);
        Runtime off(config);
        off.SetTracing(false);
        RecordingObserver on_ops;
        RecordingObserver off_ops;
        on.SetObserver(&on_ops);
        off.SetObserver(&off_ops);

        EXPECT_EQ(RunEveryTracedOp(on), RunEveryTracedOp(off));
        EXPECT_EQ(on.Now(), off.Now());
        EXPECT_EQ(on.MeasureStart(), off.MeasureStart());
        EXPECT_EQ(on.ElapsedInWindow(), off.ElapsedInWindow());
        EXPECT_EQ(on.BytesToDevice(), off.BytesToDevice());
        EXPECT_EQ(on.BytesToHost(), off.BytesToHost());
        EXPECT_EQ(on.TransferCount(), off.TransferCount());
        EXPECT_EQ(on.CacheHitBytes(), off.CacheHitBytes());
        EXPECT_EQ(on.PeerBytes(), off.PeerBytes());
        EXPECT_EQ(on.PeerCopyCount(), off.PeerCopyCount());
        EXPECT_EQ(on.PeerLinkTime(), off.PeerLinkTime());
        EXPECT_EQ(on.SyncWaitTime(), off.SyncWaitTime());
        EXPECT_EQ(on.TransferTime(), off.TransferTime());
        EXPECT_EQ(on.CategoryTimes(), off.CategoryTimes());
        EXPECT_EQ(on.ComputeUtilizationPct(), off.ComputeUtilizationPct());
        EXPECT_EQ(on.Cpu().BusyTime(), off.Cpu().BusyTime());
        EXPECT_EQ(on.ComputeDevice().BusyTime(), off.ComputeDevice().BusyTime());
        for (const StreamId stream : {StreamId::kCompute, StreamId::kCopy}) {
            EXPECT_EQ(on.StreamReadyTime(stream), off.StreamReadyTime(stream));
        }
        EXPECT_EQ(on_ops.ops, off_ops.ops);
        EXPECT_FALSE(on_ops.ops.empty());

        EXPECT_TRUE(off.GetTrace().Empty());
        std::set<EventKind> kinds;
        std::set<std::string> names;
        for (const TraceEvent& e : on.GetTrace().Events()) {
            kinds.insert(e.kind);
            names.insert(e.name);
        }
        const std::set<EventKind> expected =
            mode == ExecMode::kHybrid
                ? std::set<EventKind>{EventKind::kKernel, EventKind::kTransfer,
                                      EventKind::kHostOp, EventKind::kSync,
                                      EventKind::kMarker}
                : std::set<EventKind>{EventKind::kKernel, EventKind::kHostOp,
                                      EventKind::kMarker};
        EXPECT_EQ(kinds, expected);
        if (mode == ExecMode::kHybrid) {
            // The script reaches every guarded recording site.
            for (const char* name :
                 {"warmup:context_init", "warmup:model_init",
                  "warmup:weights_h2d", "warmup:alloc", "phase", "load",
                  "h2d", "d2h", "h2d_async", "d2h_async", "peer",
                  "gather:cache_miss_h2d", "gather:cache_hit_gather",
                  "writeback:cache_writeback_d2h", "event_wait", "idle",
                  "cuda_synchronize"}) {
                EXPECT_EQ(names.count(name), 1u) << name;
            }
        }

        // Turning tracing back on records from that point.
        off.SetTracing(true);
        off.Marker("resumed");
        ASSERT_EQ(off.GetTrace().Size(), 1u);
        EXPECT_EQ(off.GetTrace().Events().front().name, "resumed");
    }
}

TEST(RuntimeTest, GpuSlowerForTinySerializedKernels)
{
    // The DyRep/LDG phenomenon: tiny kernels + per-op sync make the GPU
    // path slower than the CPU path.
    KernelDesc tiny;
    tiny.name = "tiny";
    tiny.flops = 10000;
    tiny.bytes = 1000;
    tiny.parallel_items = 32;

    Runtime gpu(HybridConfig());
    gpu.ResetMeasurementWindow();
    for (int i = 0; i < 100; ++i) {
        gpu.Launch(tiny);
        (void)gpu.Synchronize();
    }
    Runtime cpu(CpuConfig());
    cpu.ResetMeasurementWindow();
    for (int i = 0; i < 100; ++i) {
        cpu.Launch(tiny);
        (void)cpu.Synchronize();
    }
    EXPECT_GT(gpu.ElapsedInWindow(), cpu.ElapsedInWindow());
}

TEST(RuntimeTest, GpuFasterForLargeParallelKernels)
{
    KernelDesc big;
    big.name = "big";
    big.flops = 2000000000;
    big.bytes = 1 << 20;
    big.parallel_items = 1000000;

    Runtime gpu(HybridConfig());
    gpu.ResetMeasurementWindow();
    gpu.Launch(big);
    (void)gpu.Synchronize();
    Runtime cpu(CpuConfig());
    cpu.ResetMeasurementWindow();
    cpu.Launch(big);
    EXPECT_LT(gpu.ElapsedInWindow(), cpu.ElapsedInWindow());
}

}  // namespace
}  // namespace dgnn::sim
