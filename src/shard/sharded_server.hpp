#pragma once

/// @file
/// Scale-out serving: one arrival trace partitioned across N device shards.
/// A PartitionBook (built from the trace's interaction edges) assigns every
/// node's state to one shard; each request routes to the shard owning its
/// source endpoint; each shard runs the UNMODIFIED serving loop (its own
/// ModelSession + cache + policy + runtime on a topology node) with a
/// ShardExchangeHook pulling the batch's remote rows over the peer links.
/// Shards serve their sub-streams independently — the simulated analogue of
/// data-parallel serving replicas with partitioned state — so the cluster's
/// sustained throughput is total completions over the SLOWEST shard's
/// makespan, and the exchange volume (priced per interconnect) is the tax
/// the partitioner's edge cut levies on it.
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
    /// Per-shard serving knobs. shard_hook is OVERRIDDEN per shard: the
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
    /// Largest shard over the ideal size (1.0 = perfectly balanced).
    double balance_factor = 1.0;
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

/// Routes @p requests (relative arrival timestamps, sorted) across
/// @p options.num_shards shards of @p model's node state and serves every
/// sub-stream. @p num_nodes sizes the partition book (the model/dataset
/// node-id space); @p make_policy builds one fresh policy per shard.
/// Deterministic for fixed inputs.
[[nodiscard]] ShardedReport ServeSharded(
    models::DgnnModel& model, sim::ExecMode mode, int64_t num_nodes,
    const std::vector<serve::Request>& requests,
    const std::function<std::unique_ptr<serve::BatchPolicy>()>& make_policy,
    const ShardedOptions& options);

/// The routing rule: requests follow their source endpoint's owner
/// (node-blind requests fold by id). Exposed for tests.
[[nodiscard]] int32_t RouteShard(const PartitionBook& book,
                                 const serve::Request& request);

/// The trace's interaction edges (both endpoints known), for the greedy
/// partitioner and for edge-cut accounting. Exposed for tests.
[[nodiscard]] std::vector<std::pair<int64_t, int64_t>> TraceEdges(
    const std::vector<serve::Request>& requests);

}  // namespace dgnn::shard
