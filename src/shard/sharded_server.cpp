#include "shard/sharded_server.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dgnn::shard {

namespace {

/// A request is a trace interaction edge when both endpoints are known.
bool
IsInteraction(const serve::Request& r)
{
    return r.src >= 0 && r.dst >= 0;
}

/// The trace's interaction edges, for the greedy partitioner.
std::vector<std::pair<int64_t, int64_t>>
TraceEdges(const std::vector<serve::Request>& requests)
{
    std::vector<std::pair<int64_t, int64_t>> edges;
    edges.reserve(requests.size());
    for (const serve::Request& r : requests) {
        if (IsInteraction(r)) {
            edges.emplace_back(r.src, r.dst);
        }
    }
    return edges;
}

PartitionBook
BuildBook(int64_t num_nodes, const std::vector<serve::Request>& requests,
          const ShardedOptions& options)
{
    switch (options.partitioner) {
      case PartitionerKind::kHash:
        return HashPartition(num_nodes, options.num_shards,
                             options.partition_seed);
      case PartitionerKind::kGreedy:
        return GreedyEdgeCutPartition(num_nodes, options.num_shards,
                                      TraceEdges(requests),
                                      options.partition_seed);
    }
    DGNN_CHECK(false, "unknown partitioner kind");
    return HashPartition(num_nodes, options.num_shards,
                         options.partition_seed);
}

/// Busiest sub-stream over the mean sub-stream (1.0 = balanced).
double
LoadImbalance(const std::vector<std::vector<serve::Request>>& streams)
{
    size_t total = 0;
    size_t busiest = 0;
    for (const std::vector<serve::Request>& stream : streams) {
        total += stream.size();
        busiest = std::max(busiest, stream.size());
    }
    if (total == 0) {
        return 1.0;
    }
    return static_cast<double>(busiest) *
           static_cast<double>(streams.size()) / static_cast<double>(total);
}

}  // namespace

Cluster::Cluster(models::DgnnModel& model, sim::ExecMode mode,
                 int64_t num_nodes,
                 const std::vector<serve::Request>& partition_trace,
                 const ShardedOptions& options)
    : partitioner_(options.partitioner),
      interconnect_(options.interconnect.kind),
      book_(BuildBook(num_nodes, partition_trace, options)),
      topology_(sim::Topology::ScaleOut(options.num_shards,
                                        options.interconnect)),
      profiles_(std::make_unique<serve::ProfileTable>(
          model, mode, options.num_neighbors, options.cache_config))
{
    exchange_config_.row_bytes = model.CacheRowBytes();
    exchange_config_.rows_mutable = model.CacheRowsMutable();
    sessions_.reserve(static_cast<size_t>(options.num_shards));
    for (int32_t shard = 0; shard < options.num_shards; ++shard) {
        sessions_.emplace_back(*profiles_);
    }
}

RoutedTrace
Cluster::Route(const std::vector<serve::Request>& requests) const
{
    RoutedTrace routed;
    routed.streams.resize(static_cast<size_t>(NumShards()));
    for (const serve::Request& r : requests) {
        // State follows the source endpoint (the node whose memory or
        // embedding row the interaction updates); node-blind requests fold
        // by id so a blind stream still spreads across the cluster.
        int32_t shard = book_.ShardOf(r.src >= 0 ? r.src : r.id);
        if (IsInteraction(r) && book_.Cuts(r.src, r.dst)) {
            ++routed.edge_cut;
            // A cut interaction needs a remote row wherever it runs, so it
            // may run at either owner: the one that has taken fewer of this
            // trace's requests so far (ties stay with the source's).
            // Out-of-book endpoints have no owner, only a fold.
            if (r.src < book_.NumNodes() && r.dst < book_.NumNodes()) {
                const int32_t dst_owner = book_.ShardOf(r.dst);
                if (routed.streams[static_cast<size_t>(dst_owner)].size() <
                    routed.streams[static_cast<size_t>(shard)].size()) {
                    shard = dst_owner;
                }
            }
        }
        routed.streams[static_cast<size_t>(shard)].push_back(r);
    }
    return routed;
}

ShardedReport
Cluster::Serve(const std::vector<serve::Request>& requests,
               const PolicyFactory& make_policy,
               const serve::ServerOptions& server)
{
    const RoutedTrace routed = Route(requests);

    ShardedReport report;
    report.model = profiles_->Model().Name();
    report.partitioner = ToString(partitioner_);
    report.interconnect = sim::ToString(interconnect_);
    report.num_shards = NumShards();
    report.edge_cut = routed.edge_cut;
    report.balance_factor = book_.BalanceFactor();
    report.load_imbalance = LoadImbalance(routed.streams);
    report.offered_qps = serve::OfferedQps(requests);

    sim::SimTime makespan_sum_us = 0.0;
    for (int32_t shard = 0; shard < NumShards(); ++shard) {
        const std::vector<serve::Request>& stream =
            routed.streams[static_cast<size_t>(shard)];
        if (stream.empty()) {
            report.shards.emplace_back();
            continue;
        }
        std::unique_ptr<serve::BatchPolicy> policy = make_policy();
        ShardExchangeHook hook(book_, topology_, shard, exchange_config_);
        serve::ServerOptions options = server;
        options.shard_hook = &hook;

        report.shards.push_back(serve::ServeRequests(
            sessions_[static_cast<size_t>(shard)], *policy, stream, options));
        const serve::ServingReport& shard_report = report.shards.back();
        report.requests += shard_report.requests;
        report.exchange += shard_report.exchange;
        report.latency.Merge(shard_report.latency);
        report.makespan_us =
            std::max(report.makespan_us, shard_report.makespan_us);
        makespan_sum_us += shard_report.makespan_us;
    }

    if (report.makespan_us > 0.0) {
        report.sustained_qps =
            static_cast<double>(report.requests) * 1e6 / report.makespan_us;
    }
    if (makespan_sum_us > 0.0) {
        report.comm_tax_pct =
            100.0 * report.exchange.link_us / makespan_sum_us;
    }
    return report;
}

ShardedReport
ServeSharded(models::DgnnModel& model, sim::ExecMode mode, int64_t num_nodes,
             const std::vector<serve::Request>& requests,
             const PolicyFactory& make_policy, const ShardedOptions& options)
{
    return Cluster(model, mode, num_nodes, requests, options)
        .Serve(requests, make_policy, options.server);
}

}  // namespace dgnn::shard
