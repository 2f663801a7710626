#include "sim/pcie.hpp"

#include <cmath>

#include "support/check.hpp"

namespace dgnn::sim {

const char*
ToString(LinkKind kind)
{
    switch (kind) {
      case LinkKind::kPcie:
        return "pcie";
      case LinkKind::kNvlink:
        return "nvlink";
    }
    return "?";
}

SimTime
LinkSpec::TransferTime(int64_t bytes) const
{
    DGNN_CHECK(bytes >= 0, "negative transfer size ", bytes);
    // GB/s == kbytes per microsecond.
    return latency_us + static_cast<double>(bytes) / (bandwidth_gbps * 1e3);
}

PcieLink::PcieLink(const LinkSpec& spec) : spec_(spec), queue_("pcie")
{
    // A zero bandwidth would price every transfer at +inf us without failing.
    constexpr const char* kSources =
        "; check TopologyNode::host_link or the LinkSpec given to "
        "Topology::SetPeerLink/ScaleOut";
    DGNN_CHECK(std::isfinite(spec.bandwidth_gbps) && spec.bandwidth_gbps > 0.0,
               "link bandwidth must be finite and > 0 GB/s, got ",
               spec.bandwidth_gbps, kSources);
    DGNN_CHECK(std::isfinite(spec.latency_us) && spec.latency_us >= 0.0,
               "link latency must be finite and >= 0 us, got ", spec.latency_us,
               kSources);
}

Stream::Interval
PcieLink::Schedule(SimTime earliest_start, int64_t bytes)
{
    return queue_.Enqueue(earliest_start, TransferTime(bytes));
}

}  // namespace dgnn::sim
