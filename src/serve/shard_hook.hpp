#pragma once

/// @file
/// The shard seam of the serving loop: a BatchShardHook names the topology
/// node the shard's runtime models, and lets a scale-out layer (src/shard/)
/// intercept each dispatched batch's unique state nodes,
/// claim the ones owned by remote shards, and issue the priced alltoall
/// exchange pulling their rows over the topology's peer links BEFORE the
/// batch executes. The seam mirrors the observer seams in spirit but is
/// ACTIVE: a hook changes the simulated timeline (peer copies, the unpack
/// kernel). The bit-identity contract is therefore conditional — a null
/// hook (the default) skips everything, and a hook that claims nothing and
/// issues an empty exchange (the 1-shard case) performs zero runtime
/// operations, reproducing the unsharded serving path bit-for-bit.

#include <cstdint>
#include <vector>

#include "sim/sim_time.hpp"

namespace dgnn::sim {
class Runtime;
class Topology;
}  // namespace dgnn::sim

namespace dgnn::serve {

/// What one batch's cross-shard exchange cost, as priced through the peer
/// links. All-zero when the batch needed no remote rows (or no hook ran).
struct ExchangeCost {
    /// State rows pulled from remote shards.
    int64_t remote_rows = 0;
    /// Rows the batch resolved locally after the claim (the complement).
    int64_t local_rows = 0;
    /// Bytes moved over peer links (includes the piggybacked return delta
    /// for mutable rows).
    int64_t bytes = 0;
    /// Peer transfers issued (one per remote shard with rows).
    int64_t messages = 0;
    /// Time the peer links were occupied by this exchange, us.
    sim::SimTime link_us = 0.0;

    bool Empty() const { return remote_rows == 0 && local_rows == 0; }

    ExchangeCost& operator+=(const ExchangeCost& other)
    {
        remote_rows += other.remote_rows;
        local_rows += other.local_rows;
        bytes += other.bytes;
        messages += other.messages;
        link_us += other.link_us;
        return *this;
    }
};

/// Per-batch intercept for sharded serving. The serving loop builds its
/// runtime on node DeviceIndex() of Topology(), calls ClaimRemote with each
/// batch's sorted unique state nodes right before the cache gather, then
/// IssueExchange on the run's runtime right before the executor submits
/// the batch.
class BatchShardHook {
  public:
    virtual ~BatchShardHook() = default;

    /// The cluster the shard belongs to, and the shard's node in it: the
    /// hardware the run's runtime charges and its dispatcher prices.
    [[nodiscard]] virtual const sim::Topology& Topology() const = 0;
    [[nodiscard]] virtual int32_t DeviceIndex() const = 0;

    /// Removes the nodes owned by remote shards from @p nodes (preserving
    /// sorted order) and stages them for the next IssueExchange call.
    /// Returns the number of nodes claimed. The remaining nodes resolve
    /// through the local shard's cache as usual.
    virtual int64_t ClaimRemote(std::vector<int64_t>& nodes) = 0;

    /// Issues the staged exchange on @p runtime (peer pulls on the copy
    /// stream, fence, unpack kernel on the compute stream) and returns its
    /// priced cost. MUST perform no runtime operation when nothing is
    /// staged — that is the 1-shard bit-identity contract.
    virtual ExchangeCost IssueExchange(sim::Runtime& runtime) = 0;
};

}  // namespace dgnn::serve
