#include "sim/topology.hpp"

#include "support/check.hpp"

namespace dgnn::sim {

Topology
Topology::SinglePair()
{
    Topology topo;
    topo.AddNode(TopologyNode{});
    return topo;
}

Topology
Topology::ScaleOut(int32_t devices, const LinkSpec& interconnect)
{
    DGNN_CHECK(devices >= 1, "topology needs at least one device, got ",
               devices);
    Topology topo;
    for (int32_t i = 0; i < devices; ++i) {
        topo.AddNode(TopologyNode{});
    }
    for (int32_t from = 0; from < devices; ++from) {
        for (int32_t to = 0; to < devices; ++to) {
            if (from != to) {
                topo.SetPeerLink(from, to, interconnect);
            }
        }
    }
    return topo;
}

void
Topology::AddNode(const TopologyNode& node)
{
    const int32_t old_count = DeviceCount();
    const int32_t new_count = old_count + 1;
    // Rebuild the row-major matrix at the new width, preserving the old
    // entries; fresh links default to PCIe peer-to-peer.
    std::vector<LinkSpec> grown(
        static_cast<size_t>(new_count) * static_cast<size_t>(new_count));
    for (int32_t from = 0; from < old_count; ++from) {
        for (int32_t to = 0; to < old_count; ++to) {
            grown[static_cast<size_t>(from) * static_cast<size_t>(new_count) +
                  static_cast<size_t>(to)] =
                peer_links_[static_cast<size_t>(LinkIndex(from, to))];
        }
    }
    nodes_.push_back(node);
    peer_links_ = std::move(grown);
}

const TopologyNode&
Topology::NodeAt(int32_t index) const
{
    DGNN_CHECK(index >= 0 && index < DeviceCount(), "device index ", index,
               " out of range for a ", DeviceCount(), "-device topology");
    return nodes_[static_cast<size_t>(index)];
}

int64_t
Topology::LinkIndex(int32_t from, int32_t to) const
{
    DGNN_CHECK(from >= 0 && from < DeviceCount() && to >= 0 &&
                   to < DeviceCount(),
               "peer link (", from, " -> ", to, ") out of range for a ",
               DeviceCount(), "-device topology");
    return static_cast<int64_t>(from) * DeviceCount() + to;
}

const LinkSpec&
Topology::PeerLink(int32_t from, int32_t to) const
{
    DGNN_CHECK(from != to, "peer link must join two distinct devices, got ",
               from, " -> ", to);
    return peer_links_[static_cast<size_t>(LinkIndex(from, to))];
}

void
Topology::SetPeerLink(int32_t from, int32_t to, const LinkSpec& spec)
{
    DGNN_CHECK(from != to, "peer link must join two distinct devices, got ",
               from, " -> ", to);
    peer_links_[static_cast<size_t>(LinkIndex(from, to))] = spec;
}

}  // namespace dgnn::sim
