#include "shard/sharded_server.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dgnn::shard {

int32_t
RouteShard(const PartitionBook& book, const serve::Request& request)
{
    // State follows the source endpoint (the node whose memory/embedding
    // row the interaction updates); node-blind requests fold by id so a
    // blind stream still spreads across the cluster deterministically.
    return book.ShardOf(request.src >= 0 ? request.src : request.id);
}

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
    std::vector<size_t> sizes(static_cast<size_t>(NumShards()), 0);
    for (const serve::Request& r : requests) {
        ++sizes[static_cast<size_t>(RouteShard(book_, r))];
        if (IsInteraction(r) && book_.Cuts(r.src, r.dst)) {
            ++routed.edge_cut;
        }
    }
    routed.streams.resize(sizes.size());
    for (size_t shard = 0; shard < sizes.size(); ++shard) {
        routed.streams[shard].reserve(sizes[shard]);
    }
    for (const serve::Request& r : requests) {
        routed.streams[static_cast<size_t>(RouteShard(book_, r))].push_back(r);
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
