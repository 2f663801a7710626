#pragma once

/// @file
/// PCIe link model: fixed per-transfer latency plus bytes / bandwidth.
/// Both directions share one link (half duplex is a good approximation for
/// the alternating H2D/D2H patterns DGNNs exhibit; see Fig 5 of the paper).

#include <cstdint>

#include "sim/sim_time.hpp"
#include "sim/stream.hpp"

namespace dgnn::sim {

/// Host <-> device interconnect.
class PcieLink {
  public:
    /// Every host and peer link is built here, so this is where bad link
    /// parameters are rejected: throws dgnn::Error unless the bandwidth is
    /// finite and positive and the latency finite and non-negative.
    /// @param bandwidth_gbps effective bandwidth, GB/s
    /// @param latency_us per-transfer setup latency, us
    PcieLink(double bandwidth_gbps, SimTime latency_us);

    /// PCIe 4.0 x16 with realistic pinned-memory efficiency.
    static PcieLink Gen4x16() { return PcieLink(12.0, 10.0); }

    /// Duration of a transfer of @p bytes, us.
    SimTime TransferTime(int64_t bytes) const;

    /// Schedules a transfer no earlier than @p earliest_start.
    Stream::Interval Schedule(SimTime earliest_start, int64_t bytes);

    double BandwidthGbps() const { return bandwidth_gbps_; }
    SimTime LatencyUs() const { return latency_us_; }
    SimTime ReadyTime() const { return queue_.ReadyTime(); }
    void Reset() { queue_.Reset(); }

  private:
    double bandwidth_gbps_;
    SimTime latency_us_;
    Stream queue_;
};

}  // namespace dgnn::sim
