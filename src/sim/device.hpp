#pragma once

/// @file
/// Simulated device: a DeviceSpec plus a memory pool (live/peak byte
/// tracking) and busy-time accounting used for utilization.

#include <cstdint>
#include <string>
#include <unordered_map>

#include "sim/device_spec.hpp"
#include "sim/sim_time.hpp"
#include "support/check.hpp"

namespace dgnn::sim {

/// Tracks allocations on one device; reports live and peak bytes.
class MemoryPool {
  public:
    explicit MemoryPool(int64_t capacity_bytes) : capacity_(capacity_bytes) {}

    /// Registers an allocation; returns an id to free later.
    int64_t Allocate(int64_t bytes, const std::string& label);

    /// Releases a previous allocation.
    void Free(int64_t id);

    int64_t LiveBytes() const { return live_; }
    int64_t PeakBytes() const { return peak_; }
    int64_t LiveAllocationCount() const { return static_cast<int64_t>(blocks_.size()); }

    /// Cumulative bytes ever allocated (allocator traffic).
    int64_t TotalAllocatedBytes() const { return total_allocated_; }

    /// Resets the peak watermark to the current live bytes.
    void ResetPeak() { peak_ = live_; }

  private:
    struct Block {
        int64_t bytes;
        std::string label;
    };

    int64_t capacity_;
    int64_t live_ = 0;
    int64_t peak_ = 0;
    int64_t total_allocated_ = 0;
    int64_t next_id_ = 1;
    std::unordered_map<int64_t, Block> blocks_;
};

/// A compute device in the simulated system.
class Device {
  public:
    explicit Device(DeviceSpec spec)
        : spec_(std::move(spec)), memory_(spec_.memory_bytes) {}

    const DeviceSpec& Spec() const { return spec_; }
    const std::string& Name() const { return spec_.name; }

    MemoryPool& Memory() { return memory_; }
    const MemoryPool& Memory() const { return memory_; }

    /// Accumulates kernel busy time: raw (wall) and occupancy-weighted.
    void AddBusy(SimTime duration_us, double occupancy)
    {
        DGNN_CHECK(duration_us >= 0.0, "negative busy time ", duration_us);
        DGNN_CHECK(occupancy >= 0.0 && occupancy <= 1.0, "occupancy ",
                   occupancy, " out of [0,1]");
        busy_us_ += duration_us;
        weighted_busy_us_ += duration_us * occupancy;
        ++kernel_count_;
    }

    /// Total time the device had a kernel resident, us.
    SimTime BusyTime() const { return busy_us_; }

    /// Occupancy-weighted busy time (SM-seconds used / SM count), us.
    SimTime WeightedBusyTime() const { return weighted_busy_us_; }

    int64_t KernelCount() const { return kernel_count_; }

    /// nvidia-smi-style utilization over [0, elapsed]: fraction of time a
    /// kernel was resident on the device, as percent. This is the metric the
    /// paper's GPU-utilization plots (Fig 6, Fig 9) report.
    double UtilizationPct(SimTime elapsed_us) const;

    /// Occupancy-weighted (SM-level) utilization, as percent — how much of
    /// the device's compute capacity was actually used.
    double WeightedUtilizationPct(SimTime elapsed_us) const;

    /// Clears busy accounting (memory pool is left untouched).
    void ResetBusy();

  private:
    DeviceSpec spec_;
    MemoryPool memory_;
    SimTime busy_us_ = 0.0;
    SimTime weighted_busy_us_ = 0.0;
    int64_t kernel_count_ = 0;
};

}  // namespace dgnn::sim
