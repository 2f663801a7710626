#include "sim/pcie.hpp"

#include <cmath>

#include "support/check.hpp"

namespace dgnn::sim {

PcieLink::PcieLink(double bandwidth_gbps, SimTime latency_us)
    : bandwidth_gbps_(bandwidth_gbps), latency_us_(latency_us), queue_("pcie")
{
    // A zero bandwidth would price every transfer at +inf us without failing.
    constexpr const char* kSources =
        "; check RuntimeConfig::pcie_*, TopologyNode::host_link or the LinkSpec "
        "given to Topology::SetPeerLink/ScaleOut";
    DGNN_CHECK(std::isfinite(bandwidth_gbps) && bandwidth_gbps > 0.0,
               "link bandwidth must be finite and > 0 GB/s, got ", bandwidth_gbps,
               kSources);
    DGNN_CHECK(std::isfinite(latency_us) && latency_us >= 0.0,
               "link latency must be finite and >= 0 us, got ", latency_us, kSources);
}

SimTime
PcieLink::TransferTime(int64_t bytes) const
{
    DGNN_CHECK(bytes >= 0, "negative transfer size ", bytes);
    // GB/s == kbytes per microsecond.
    return latency_us_ + static_cast<double>(bytes) / (bandwidth_gbps_ * 1e3);
}

Stream::Interval
PcieLink::Schedule(SimTime earliest_start, int64_t bytes)
{
    return queue_.Enqueue(earliest_start, TransferTime(bytes));
}

}  // namespace dgnn::sim
