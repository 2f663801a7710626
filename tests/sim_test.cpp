// Tests for the hardware-simulator substrate: cost model, streams, PCIe,
// device memory, warm-up.

#include <limits>

#include <gtest/gtest.h>

#include "sim/device.hpp"
#include "support/check.hpp"
#include "sim/device_spec.hpp"
#include "sim/kernel.hpp"
#include "sim/pcie.hpp"
#include "sim/stream.hpp"
#include "sim/warmup.hpp"

namespace dgnn::sim {
namespace {

TEST(DeviceSpecTest, PresetsAreSane)
{
    const DeviceSpec cpu = DeviceSpec::XeonGold6226R();
    const DeviceSpec gpu = DeviceSpec::RtxA6000();
    EXPECT_EQ(cpu.kind, DeviceKind::kCpu);
    EXPECT_EQ(gpu.kind, DeviceKind::kGpu);
    EXPECT_GT(gpu.peak_gflops, cpu.peak_gflops);
    EXPECT_GT(gpu.mem_bw_gbps, cpu.mem_bw_gbps);
    EXPECT_GT(gpu.launch_overhead_us, cpu.launch_overhead_us);
    EXPECT_GT(gpu.context_init_us, 0.0);
    EXPECT_EQ(cpu.context_init_us, 0.0);
}

TEST(KernelCostTest, OccupancyClampedToFloorAndOne)
{
    const DeviceSpec gpu = DeviceSpec::RtxA6000();
    KernelDesc tiny{"tiny", 100, 100, 1, false};
    EXPECT_DOUBLE_EQ(Occupancy(gpu, tiny), gpu.occupancy_floor);
    KernelDesc huge{"huge", 100, 100, 100000000, false};
    EXPECT_DOUBLE_EQ(Occupancy(gpu, huge), 1.0);
    KernelDesc mid{"mid", 100, 100, gpu.saturation_items / 2, false};
    EXPECT_NEAR(Occupancy(gpu, mid), 0.5, 1e-9);
}

TEST(KernelCostTest, DurationIncludesLaunchOverhead)
{
    const DeviceSpec gpu = DeviceSpec::RtxA6000();
    KernelDesc empty{"empty", 0, 0, 1, false};
    EXPECT_DOUBLE_EQ(KernelDuration(gpu, empty), gpu.launch_overhead_us);
}

TEST(KernelCostTest, ComputeTimeScalesInverselyWithOccupancy)
{
    const DeviceSpec gpu = DeviceSpec::RtxA6000();
    KernelDesc low{"k", 1000000000, 0, gpu.saturation_items / 10, false};
    KernelDesc high{"k", 1000000000, 0, gpu.saturation_items, false};
    EXPECT_NEAR(ComputeTime(gpu, low) / ComputeTime(gpu, high), 10.0, 1e-6);
}

TEST(KernelCostTest, IrregularAccessIsSlower)
{
    const DeviceSpec gpu = DeviceSpec::RtxA6000();
    KernelDesc regular{"k", 0, 10000000, 1000000, false};
    KernelDesc irregular{"k", 0, 10000000, 1000000, true};
    EXPECT_GT(ComputeTime(gpu, irregular), ComputeTime(gpu, regular));
    EXPECT_NEAR(ComputeTime(gpu, irregular) / ComputeTime(gpu, regular),
                gpu.irregular_penalty, 1e-6);
}

TEST(KernelCostTest, MemoryBoundVsComputeBound)
{
    const DeviceSpec gpu = DeviceSpec::RtxA6000();
    // Enormous bytes, no flops: memory-bound.
    KernelDesc mem{"m", 1, 1000000000, 1000000, false};
    // Enormous flops, no bytes: compute-bound.
    KernelDesc comp{"c", 1000000000000, 1, 1000000, false};
    EXPECT_GT(ComputeTime(gpu, mem), 0.0);
    EXPECT_GT(ComputeTime(gpu, comp), 0.0);
    // Duration is the max of the two terms: adding tiny flops to the
    // memory-bound kernel should not change its time.
    KernelDesc mem2 = mem;
    mem2.flops = 1000;
    EXPECT_DOUBLE_EQ(ComputeTime(gpu, mem), ComputeTime(gpu, mem2));
}

TEST(KernelCostTest, NegativeWorkThrows)
{
    const DeviceSpec gpu = DeviceSpec::RtxA6000();
    KernelDesc bad{"b", -1, 0, 1, false};
    EXPECT_THROW(ComputeTime(gpu, bad), Error);
    KernelDesc bad2{"b", 0, 0, 0, false};
    EXPECT_THROW(Occupancy(gpu, bad2), Error);
}

TEST(StreamTest, EnqueueSerializes)
{
    Stream s("test");
    const auto a = s.Enqueue(0.0, 10.0);
    EXPECT_DOUBLE_EQ(a.start, 0.0);
    EXPECT_DOUBLE_EQ(a.end, 10.0);
    // Earliest start 5 < ready 10: must wait.
    const auto b = s.Enqueue(5.0, 3.0);
    EXPECT_DOUBLE_EQ(b.start, 10.0);
    EXPECT_DOUBLE_EQ(b.end, 13.0);
    // Earliest start after ready: idle gap allowed.
    const auto c = s.Enqueue(20.0, 1.0);
    EXPECT_DOUBLE_EQ(c.start, 20.0);
    EXPECT_DOUBLE_EQ(s.ReadyTime(), 21.0);
    s.Reset();
    EXPECT_DOUBLE_EQ(s.ReadyTime(), 0.0);
}

/// A PCIe-class link with the given parameters.
PcieLink
Link(double bandwidth_gbps, SimTime latency_us)
{
    return PcieLink(LinkSpec{LinkKind::kPcie, bandwidth_gbps, latency_us});
}

TEST(PcieTest, TransferTimeLatencyPlusBandwidth)
{
    PcieLink link = Link(10.0, 5.0);  // 10 GB/s, 5 us latency
    EXPECT_DOUBLE_EQ(link.TransferTime(0), 5.0);
    // 10 GB/s == 10000 bytes/us: 1 MB -> ~104.9 us + 5.
    EXPECT_NEAR(link.TransferTime(1 << 20), 5.0 + 104.8576, 1e-3);
    EXPECT_THROW(link.TransferTime(-1), Error);
}

TEST(PcieTest, RejectsBadLinkParameters)
{
    EXPECT_THROW(Link(0.0, 5.0), Error);
    EXPECT_THROW(Link(-1.0, 5.0), Error);
    EXPECT_THROW(Link(std::numeric_limits<double>::infinity(), 5.0), Error);
    EXPECT_THROW(Link(std::numeric_limits<double>::quiet_NaN(), 5.0), Error);
    EXPECT_THROW(Link(10.0, -1.0), Error);
    EXPECT_THROW(Link(10.0, std::numeric_limits<double>::quiet_NaN()), Error);
    EXPECT_NO_THROW(Link(10.0, 0.0));
}

TEST(PcieTest, LinkQueuesTransfers)
{
    PcieLink link = Link(10.0, 5.0);
    const auto a = link.Schedule(0.0, 100000);
    const auto b = link.Schedule(0.0, 100000);
    EXPECT_DOUBLE_EQ(b.start, a.end);
}

TEST(MemoryPoolTest, AllocFreePeak)
{
    MemoryPool pool(1000);
    const int64_t a = pool.Allocate(400, "a");
    EXPECT_EQ(pool.LiveBytes(), 400);
    const int64_t b = pool.Allocate(500, "b");
    EXPECT_EQ(pool.LiveBytes(), 900);
    EXPECT_EQ(pool.PeakBytes(), 900);
    pool.Free(a);
    EXPECT_EQ(pool.LiveBytes(), 500);
    EXPECT_EQ(pool.PeakBytes(), 900);  // peak persists
    pool.ResetPeak();
    EXPECT_EQ(pool.PeakBytes(), 500);
    EXPECT_EQ(pool.TotalAllocatedBytes(), 900);
    pool.Free(b);
    EXPECT_EQ(pool.LiveBytes(), 0);
}

TEST(MemoryPoolTest, OutOfMemoryThrows)
{
    MemoryPool pool(100);
    pool.Allocate(80, "x");
    EXPECT_THROW(pool.Allocate(30, "y"), Error);
}

TEST(MemoryPoolTest, DoubleFreeThrows)
{
    MemoryPool pool(100);
    const int64_t id = pool.Allocate(10, "x");
    pool.Free(id);
    EXPECT_THROW(pool.Free(id), Error);
}

TEST(DeviceTest, BusyAccounting)
{
    Device dev(DeviceSpec::RtxA6000());
    dev.AddBusy(10.0, 0.5);
    dev.AddBusy(10.0, 1.0);
    EXPECT_DOUBLE_EQ(dev.BusyTime(), 20.0);
    EXPECT_DOUBLE_EQ(dev.WeightedBusyTime(), 15.0);
    EXPECT_EQ(dev.KernelCount(), 2);
    EXPECT_DOUBLE_EQ(dev.UtilizationPct(100.0), 20.0);
    EXPECT_DOUBLE_EQ(dev.WeightedUtilizationPct(100.0), 15.0);
    dev.ResetBusy();
    EXPECT_DOUBLE_EQ(dev.BusyTime(), 0.0);
    EXPECT_EQ(dev.KernelCount(), 0);
}

TEST(DeviceTest, InvalidBusyThrows)
{
    Device dev(DeviceSpec::RtxA6000());
    EXPECT_THROW(dev.AddBusy(-1.0, 0.5), Error);
    EXPECT_THROW(dev.AddBusy(1.0, 1.5), Error);
}

TEST(WarmupTest, OneTimeComponentsForGpu)
{
    const DeviceSpec gpu = DeviceSpec::RtxA6000();
    PcieLink link(LinkSpec::PcieGen4());
    const OneTimeWarmup w = ComputeOneTimeWarmup(gpu, link, 10 << 20);
    EXPECT_DOUBLE_EQ(w.context_init_us, gpu.context_init_us);
    EXPECT_GT(w.model_init_us, gpu.model_init_fixed_us);
    EXPECT_GT(w.weight_transfer_us, 0.0);
    EXPECT_DOUBLE_EQ(w.TotalUs(),
                     w.context_init_us + w.model_init_us + w.weight_transfer_us);
}

TEST(WarmupTest, CpuHasNoContextOrTransfer)
{
    const DeviceSpec cpu = DeviceSpec::XeonGold6226R();
    PcieLink link(LinkSpec::PcieGen4());
    const OneTimeWarmup w = ComputeOneTimeWarmup(cpu, link, 10 << 20);
    EXPECT_DOUBLE_EQ(w.context_init_us, 0.0);
    EXPECT_DOUBLE_EQ(w.weight_transfer_us, 0.0);
    EXPECT_GT(w.model_init_us, 0.0);
}

TEST(WarmupTest, GpuModelInitMuchSlowerThanCpu)
{
    // Paper section 4.4: GPU model init is 40x - 937x the CPU's.
    const DeviceSpec gpu = DeviceSpec::RtxA6000();
    const DeviceSpec cpu = DeviceSpec::XeonGold6226R();
    PcieLink link(LinkSpec::PcieGen4());
    const int64_t weights = 5 << 20;
    const double ratio = ComputeOneTimeWarmup(gpu, link, weights).model_init_us /
                         ComputeOneTimeWarmup(cpu, link, weights).model_init_us;
    EXPECT_GT(ratio, 40.0);
    EXPECT_LT(ratio, 2000.0);
}

TEST(WarmupTest, PerRunScalesWithWorkingSet)
{
    const DeviceSpec gpu = DeviceSpec::RtxA6000();
    const PerRunWarmup small = ComputePerRunWarmup(gpu, 1 << 20);
    const PerRunWarmup big = ComputePerRunWarmup(gpu, 100 << 20);
    EXPECT_GT(big.alloc_us, small.alloc_us);
    EXPECT_THROW(ComputePerRunWarmup(gpu, -1), Error);
}

/// Property sweep: kernel duration is monotone in flops, bytes, and
/// inversely monotone in parallelism.
class CostMonotonicity : public ::testing::TestWithParam<int64_t> {};

TEST_P(CostMonotonicity, MoreWorkNeverFaster)
{
    const DeviceSpec gpu = DeviceSpec::RtxA6000();
    const int64_t base = GetParam();
    KernelDesc k1{"k", base, base, 1000, false};
    KernelDesc k2{"k", base * 2, base, 1000, false};
    KernelDesc k3{"k", base, base * 2, 1000, false};
    KernelDesc k4{"k", base, base, 2000, false};
    EXPECT_GE(KernelDuration(gpu, k2), KernelDuration(gpu, k1));
    EXPECT_GE(KernelDuration(gpu, k3), KernelDuration(gpu, k1));
    EXPECT_LE(KernelDuration(gpu, k4), KernelDuration(gpu, k1));
}

INSTANTIATE_TEST_SUITE_P(Scales, CostMonotonicity,
                         ::testing::Values(1000, 100000, 10000000, 1000000000));

}  // namespace
}  // namespace dgnn::sim
