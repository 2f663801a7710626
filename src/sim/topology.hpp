#pragma once

/// @file
/// N-device cluster topology: the scale-out generalization of the single
/// CPU+GPU pair the runtime was born with. A Topology is a set of nodes —
/// each one CPU + one GPU joined by a host link — plus a peer-link matrix
/// pricing device<->device transfers (PCIe peer-to-peer vs NVLink-class).
/// The topology is the only hardware description: one sim::Runtime models
/// ONE node of it (RuntimeConfig::topology + device_index, defaulting to
/// SinglePair() node 0), and the hybrid dispatcher prices the same node.
/// The sharded serving layer (src/shard/) builds one runtime per shard and
/// prices cross-shard traffic through the peer links.

#include <cstdint>
#include <vector>

#include "sim/device_spec.hpp"
#include "sim/pcie.hpp"

namespace dgnn::sim {

/// One cluster node: a CPU + GPU pair and the host link between them.
struct TopologyNode {
    DeviceSpec cpu = DeviceSpec::XeonGold6226R();
    DeviceSpec gpu = DeviceSpec::RtxA6000();
    LinkSpec host_link = LinkSpec::PcieGen4();
};

/// The cluster: nodes plus a dense peer-link matrix (row-major, from x to).
/// Self links exist in the matrix but are never scheduled.
class Topology {
  public:
    Topology() = default;

    /// The paper's testbed: one Xeon Gold 6226R + RTX A6000 pair over
    /// PCIe gen4 x16 (the default RuntimeConfig::topology).
    [[nodiscard]] static Topology SinglePair();

    /// @p devices identical SinglePair nodes, every peer pair joined by
    /// @p interconnect.
    static Topology ScaleOut(int32_t devices, const LinkSpec& interconnect);

    /// Appends a node; its peer links (both directions) default to PCIe.
    void AddNode(const TopologyNode& node);

    int32_t DeviceCount() const
    {
        return static_cast<int32_t>(nodes_.size());
    }

    const TopologyNode& NodeAt(int32_t index) const;

    /// The directed link used for transfers from device @p from to device
    /// @p to. Must be distinct, in-range indices.
    const LinkSpec& PeerLink(int32_t from, int32_t to) const;

    /// Overrides one directed peer link.
    void SetPeerLink(int32_t from, int32_t to, const LinkSpec& spec);

  private:
    int64_t LinkIndex(int32_t from, int32_t to) const;

    std::vector<TopologyNode> nodes_;
    /// DeviceCount()^2 entries, row-major by `from`.
    std::vector<LinkSpec> peer_links_;
};

}  // namespace dgnn::sim
