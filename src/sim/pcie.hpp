#pragma once

/// @file
/// The link model: fixed per-transfer latency plus bytes / bandwidth. A
/// LinkSpec holds one link's parameters and the transfer formula; a
/// PcieLink is a LinkSpec plus the contended queue the runtime schedules
/// copies on. Both directions share one link (half duplex is a good
/// approximation for the alternating H2D/D2H patterns DGNNs exhibit; see
/// Fig 5 of the paper).

#include <cstdint>

#include "sim/sim_time.hpp"
#include "sim/stream.hpp"

namespace dgnn::sim {

/// Interconnect class of one directed link.
enum class LinkKind {
    kPcie,    ///< PCIe (host link, or peer-to-peer through the root complex)
    kNvlink,  ///< NVLink-class direct device fabric
};

const char* ToString(LinkKind kind);

/// One directed link's analytic parameters. The defaults are PCIe 4.0 x16
/// with realistic pinned-memory efficiency — the testbed's host link.
struct LinkSpec {
    LinkKind kind = LinkKind::kPcie;
    double bandwidth_gbps = 12.0;
    SimTime latency_us = 10.0;

    /// The testbed's host link (the defaults above).
    static LinkSpec PcieGen4() { return LinkSpec{}; }

    /// NVLink-class device fabric: ~7x the bandwidth at a fraction of the
    /// setup latency (the `--nvlink` sweep point of distributed-GNN
    /// harnesses).
    static LinkSpec NvlinkClass()
    {
        return LinkSpec{LinkKind::kNvlink, 80.0, 2.0};
    }

    /// Duration of one transfer of @p bytes over this link, us: the one
    /// formula every link price (runtime copies, warm-up, the dispatcher's
    /// predictions) goes through.
    [[nodiscard]] SimTime TransferTime(int64_t bytes) const;
};

/// A link the runtime schedules transfers on: a LinkSpec plus one
/// contended in-order queue.
class PcieLink {
  public:
    /// Every host and peer link is built here, so this is where bad link
    /// parameters are rejected: throws dgnn::Error unless the bandwidth is
    /// finite and positive and the latency finite and non-negative.
    explicit PcieLink(const LinkSpec& spec);

    /// Duration of a transfer of @p bytes, us.
    SimTime TransferTime(int64_t bytes) const
    {
        return spec_.TransferTime(bytes);
    }

    /// Schedules a transfer no earlier than @p earliest_start.
    Stream::Interval Schedule(SimTime earliest_start, int64_t bytes);

    SimTime ReadyTime() const { return queue_.ReadyTime(); }
    void Reset() { queue_.Reset(); }

  private:
    LinkSpec spec_;
    Stream queue_;
};

}  // namespace dgnn::sim
