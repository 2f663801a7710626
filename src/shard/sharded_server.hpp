#pragma once

/// @file
/// Scale-out serving: arrival traces partitioned across N device shards.
/// A Cluster is set up once: a PartitionBook (built from a partition
/// trace's interaction edges) assigns every node's state to one shard, the
/// topology gives each shard a device, and each shard gets a
/// serve::ModelSession (its own cache) over ONE profile table the shards
/// share. Each Cluster::Serve then routes one trace — every request to a
/// shard owning one of its endpoints, a cut interaction to whichever of its
/// two owners has taken fewer of the trace's requests so far — and runs the
/// UNMODIFIED serving loop per shard with a ShardExchangeHook pulling the
/// batch's remote rows over the peer links. Shards serve their sub-streams
/// independently — the simulated analogue of data-parallel serving replicas
/// with partitioned state — so the cluster's sustained throughput is total
/// completions over the SLOWEST shard's makespan, and the exchange volume
/// (priced per interconnect) is the tax the partitioner's edge cut levies
/// on it.
///
/// With num_shards == 1 the book owns everything, the hook never touches
/// the runtime, and the single shard's run reproduces the unsharded
/// serve::ServeRequests timeline bit-for-bit.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/device_cache.hpp"
#include "models/dgnn_model.hpp"
#include "serve/batch_policy.hpp"
#include "serve/model_session.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "shard/exchange.hpp"
#include "shard/partition_book.hpp"
#include "sim/topology.hpp"

namespace dgnn::shard {

/// Scale-out knobs on top of the per-shard server options.
struct ShardedOptions {
    int32_t num_shards = 1;
    PartitionerKind partitioner = PartitionerKind::kHash;
    /// Peer-link class between every shard pair (PCIe vs NVLink-class).
    sim::LinkSpec interconnect = sim::LinkSpec::PcieGen4();
    uint64_t partition_seed = 1;
    /// Per-shard serving knobs, read by ServeSharded only (a Cluster takes
    /// them per Serve call). shard_hook is OVERRIDDEN per shard: the
    /// exchange hook, which also places the shard's runtime on its
    /// topology node. Everything else passes through.
    serve::ServerOptions server;
    /// Per-shard session cache (each shard caches only the rows it owns).
    cache::DeviceCacheConfig cache_config;
    /// Sampler fan-out forwarded to each shard's session.
    int64_t num_neighbors = 20;
};

/// Cluster-level merge of the per-shard serving runs.
struct ShardedReport {
    std::string model;
    std::string partitioner;
    std::string interconnect;
    int32_t num_shards = 1;

    int64_t requests = 0;
    /// Trace interactions whose endpoints live on different shards.
    int64_t edge_cut = 0;
    /// Largest shard's node count over the ideal size (1.0 = perfectly
    /// balanced).
    double balance_factor = 1.0;
    /// Busiest shard's routed requests x num_shards / requests (1.0 =
    /// every shard got the same load).
    double load_imbalance = 1.0;
    double offered_qps = 0.0;
    /// Total completions over the slowest shard's makespan — the cluster
    /// rate an open-loop load balancer would sustain.
    double sustained_qps = 0.0;
    /// Slowest shard's serving makespan, us.
    sim::SimTime makespan_us = 0.0;
    /// Exchange totals summed over shards.
    serve::ExchangeCost exchange;
    /// Peer-link occupancy as a share of total shard serving time, percent
    /// — the cross-shard communication tax.
    double comm_tax_pct = 0.0;
    /// End-to-end latency merged across shards.
    core::LatencyHistogram latency;

    /// Per-shard runs, indexed by shard id (empty sub-streams yield empty
    /// reports).
    std::vector<serve::ServingReport> shards;
};

/// The sub-streams one trace routes to, and the trace's edge cut.
struct RoutedTrace {
    /// Requests per shard in arrival order, indexed by shard id.
    std::vector<std::vector<serve::Request>> streams;
    /// Trace interactions whose endpoints live on different shards.
    int64_t edge_cut = 0;
};

/// Makes one fresh batch policy per shard per Serve call.
using PolicyFactory = std::function<std::unique_ptr<serve::BatchPolicy>()>;

/// A sharded deployment, set up once and served many times. Construction
/// builds the partition book (from @p partition_trace's interaction edges
/// for the greedy partitioner), the topology, and one session per shard
/// over a shared profile table; Serve routes and serves one trace. Shard
/// caches and captured profiles carry across Serve calls, as they do for a
/// serve::ModelSession. Deterministic for fixed inputs.
class Cluster {
  public:
    /// @p model (borrowed; must outlive the cluster) is served in @p mode;
    /// @p num_nodes sizes the partition book (the model/dataset node-id
    /// space). options.server is not read: Serve takes the serving knobs.
    Cluster(models::DgnnModel& model, sim::ExecMode mode, int64_t num_nodes,
            const std::vector<serve::Request>& partition_trace,
            const ShardedOptions& options);

    int32_t NumShards() const { return book_.NumShards(); }
    const PartitionBook& Book() const { return book_; }
    /// The profile table every shard's session shares.
    const serve::ProfileTable& Profiles() const { return *profiles_; }
    serve::ModelSession& Session(int32_t shard)
    {
        return sessions_.at(static_cast<size_t>(shard));
    }

    /// Routes every request of @p requests and counts their edge cut in
    /// one pass. A request goes to the owner of its source endpoint (a
    /// node-blind one folds by id), except that an interaction cut between
    /// two in-book owners goes to whichever of them has been routed fewer
    /// requests so far (ties: the source's owner). Every request thus runs
    /// on a shard owning one of its endpoints, and a 1-shard book, which
    /// cuts nothing, routes everything to shard 0.
    [[nodiscard]] RoutedTrace Route(
        const std::vector<serve::Request>& requests) const;

    /// Routes @p requests (relative arrival timestamps, sorted) and serves
    /// every non-empty sub-stream on its shard under a fresh policy from
    /// @p make_policy and @p server's knobs (shard_hook overridden).
    [[nodiscard]] ShardedReport Serve(
        const std::vector<serve::Request>& requests,
        const PolicyFactory& make_policy, const serve::ServerOptions& server);

  private:
    PartitionerKind partitioner_;
    sim::LinkKind interconnect_;
    PartitionBook book_;
    sim::Topology topology_;
    ExchangeConfig exchange_config_;
    std::unique_ptr<serve::ProfileTable> profiles_;
    std::vector<serve::ModelSession> sessions_;
};

/// One-shot form: a Cluster partitioned on @p requests serves them once,
/// under options.server.
[[nodiscard]] ShardedReport ServeSharded(
    models::DgnnModel& model, sim::ExecMode mode, int64_t num_nodes,
    const std::vector<serve::Request>& requests,
    const PolicyFactory& make_policy, const ShardedOptions& options);

}  // namespace dgnn::shard
