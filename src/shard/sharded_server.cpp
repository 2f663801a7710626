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

std::vector<std::pair<int64_t, int64_t>>
TraceEdges(const std::vector<serve::Request>& requests)
{
    std::vector<std::pair<int64_t, int64_t>> edges;
    edges.reserve(requests.size());
    for (const serve::Request& r : requests) {
        if (r.src >= 0 && r.dst >= 0) {
            edges.emplace_back(r.src, r.dst);
        }
    }
    return edges;
}

namespace {

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

ShardedReport
ServeSharded(
    models::DgnnModel& model, sim::ExecMode mode, int64_t num_nodes,
    const std::vector<serve::Request>& requests,
    const std::function<std::unique_ptr<serve::BatchPolicy>()>& make_policy,
    const ShardedOptions& options)
{
    DGNN_CHECK(options.num_shards >= 1, "need >= 1 shard, got ",
               options.num_shards);
    const PartitionBook book = BuildBook(num_nodes, requests, options);

    std::vector<std::vector<serve::Request>> sub_streams(
        static_cast<size_t>(options.num_shards));
    for (const serve::Request& r : requests) {
        sub_streams[static_cast<size_t>(RouteShard(book, r))].push_back(r);
    }

    ShardedReport report;
    report.model = model.Name();
    report.partitioner = ToString(options.partitioner);
    report.interconnect = ToString(options.interconnect.kind);
    report.num_shards = options.num_shards;
    report.edge_cut = EdgeCut(book, TraceEdges(requests));
    report.balance_factor = book.BalanceFactor();
    if (!requests.empty() && requests.back().arrival_us > 0.0) {
        report.offered_qps = static_cast<double>(requests.size()) * 1e6 /
                             requests.back().arrival_us;
    }

    const sim::Topology topology =
        sim::Topology::ScaleOut(options.num_shards, options.interconnect);
    sim::SimTime makespan_sum_us = 0.0;
    for (int32_t shard = 0; shard < options.num_shards; ++shard) {
        const std::vector<serve::Request>& stream =
            sub_streams[static_cast<size_t>(shard)];
        if (stream.empty()) {
            report.shards.emplace_back();
            continue;
        }
        serve::ModelSession session(model, mode, options.num_neighbors,
                                    options.cache_config);
        std::unique_ptr<serve::BatchPolicy> policy = make_policy();
        ExchangeConfig exchange_config;
        exchange_config.row_bytes = model.CacheRowBytes();
        exchange_config.rows_mutable = model.CacheRowsMutable();
        ShardExchangeHook hook(book, topology, shard, exchange_config);

        serve::ServerOptions server = options.server;
        server.shard_hook = &hook;

        report.shards.push_back(
            serve::ServeRequests(session, *policy, stream, server));
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

}  // namespace dgnn::shard
