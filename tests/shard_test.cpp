// Tests for src/shard/ and the sim topology layer underneath it.
//
// Four layers:
//   * topology unit checks: scale-out construction, peer-link lookup,
//     construction-time rejection of bad nodes, and the 1-device
//     bit-identity contract (a ScaleOut(1) runtime must reproduce the
//     default SinglePair() runtime exactly);
//   * partition-book suite: seed determinism, exactly-one-shard
//     coverage, balance bounds, edge-cut accounting against hand-computed
//     cuts, greedy-beats-hash on clustered graphs, and the greedy book
//     against a two-sided-adjacency reference on random traces;
//   * exchange-hook unit checks: claim/plan splitting, peer-link pricing,
//     and the zero-runtime-ops guarantee of an empty claim;
//   * sharded serving: 1-shard bit-identity against the plain serving
//     path (across two traces on one cluster, caches warm), one capture
//     per batch size for a whole cluster, the one-pass load-aware routing
//     (endpoint ownership, source-owner fallback, edge cut, pinned loads,
//     a flatter busiest shard than source-only routing), sustained-QPS
//     scaling with shard count, and hazard-freedom of the exchange
//     schedule under the checker (tests/analysis_test.cpp's mutation wall
//     drops its fences).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/hazard_checker.hpp"
#include "data/temporal_interactions.hpp"
#include "models/tgn.hpp"
#include "scenario/scenario.hpp"
#include "serve/batch_policy.hpp"
#include "serve/server.hpp"
#include "shard/exchange.hpp"
#include "shard/partition_book.hpp"
#include "shard/sharded_server.hpp"
#include "sim/topology.hpp"
#include "tensor/random.hpp"

#include "serving_reports.hpp"

namespace dgnn::shard {
namespace {

using serve::ExpectSameExchange;
using serve::ExpectSameServing;

// ----------------------------------------------------------------- topology

TEST(TopologyTest, SinglePairHasOneDefaultNode)
{
    const sim::Topology t = sim::Topology::SinglePair();
    EXPECT_EQ(t.DeviceCount(), 1);
    EXPECT_EQ(t.NodeAt(0).host_link.kind, sim::LinkKind::kPcie);
}

TEST(TopologyTest, ScaleOutWiresEveryPeerPair)
{
    const sim::Topology t =
        sim::Topology::ScaleOut(4, sim::LinkSpec::NvlinkClass());
    EXPECT_EQ(t.DeviceCount(), 4);
    for (int32_t i = 0; i < 4; ++i) {
        for (int32_t j = 0; j < 4; ++j) {
            if (i == j) {
                continue;
            }
            const sim::LinkSpec& link = t.PeerLink(i, j);
            EXPECT_EQ(link.kind, sim::LinkKind::kNvlink);
            EXPECT_DOUBLE_EQ(link.bandwidth_gbps, 80.0);
        }
    }
}

TEST(TopologyTest, AddNodePreservesExistingPeerLinks)
{
    sim::Topology t = sim::Topology::ScaleOut(2, sim::LinkSpec::NvlinkClass());
    t.AddNode(sim::TopologyNode{});
    EXPECT_EQ(t.DeviceCount(), 3);
    EXPECT_EQ(t.PeerLink(0, 1).kind, sim::LinkKind::kNvlink);
    // Fresh links to the new node default to PCIe.
    EXPECT_EQ(t.PeerLink(0, 2).kind, sim::LinkKind::kPcie);
}

TEST(TopologyTest, OneDeviceTopologyRuntimeIsBitIdentical)
{
    auto drive = [](sim::Runtime& rt) {
        (void)rt.CopyToDeviceAsync(1 << 20, "h2d");
        const sim::Event ready = rt.RecordEvent(sim::StreamId::kCopy);
        rt.StreamWaitEvent(sim::StreamId::kCompute, ready);
        sim::KernelDesc k;
        k.name = "work";
        k.flops = 1 << 22;
        k.bytes = 1 << 21;
        k.parallel_items = 1 << 16;
        rt.Launch(k);
        return rt.Synchronize();
    };
    sim::RuntimeConfig plain;
    plain.mode = sim::ExecMode::kHybrid;
    sim::Runtime baseline(plain);

    sim::RuntimeConfig with_topology;
    with_topology.mode = sim::ExecMode::kHybrid;
    with_topology.topology =
        sim::Topology::ScaleOut(1, sim::LinkSpec::PcieGen4());
    with_topology.device_index = 0;
    sim::Runtime sharded(with_topology);

    EXPECT_EQ(drive(baseline), drive(sharded));
    EXPECT_EQ(baseline.Now(), sharded.Now());
    EXPECT_EQ(sharded.ClusterDevices(), 1);
}

TEST(TopologyTest, RuntimeRejectsBadHostLink)
{
    const auto one_node = [](const sim::TopologyNode& node) {
        sim::RuntimeConfig config;
        config.mode = sim::ExecMode::kHybrid;
        config.topology = sim::Topology{};
        config.topology.AddNode(node);
        return config;
    };
    sim::TopologyNode dead_link;
    dead_link.host_link.bandwidth_gbps = 0.0;
    EXPECT_THROW(sim::Runtime{one_node(dead_link)}, Error);

    sim::TopologyNode negative_latency;
    negative_latency.host_link.latency_us = -1.0;
    EXPECT_THROW(sim::Runtime{one_node(negative_latency)}, Error);

    // No node to build the runtime on: an empty topology, or an index
    // outside the one given.
    sim::RuntimeConfig empty;
    empty.topology = sim::Topology{};
    EXPECT_THROW(sim::Runtime{empty}, Error);
    for (const int32_t index : {-1, 1}) {
        sim::RuntimeConfig out_of_range;
        out_of_range.device_index = index;
        EXPECT_THROW(sim::Runtime{out_of_range}, Error) << index;
    }
    EXPECT_NO_THROW(sim::Runtime{one_node(sim::TopologyNode{})});
}

TEST(TopologyTest, RuntimeRejectsBadPeerLink)
{
    sim::LinkSpec dead = sim::LinkSpec::NvlinkClass();
    dead.bandwidth_gbps = 0.0;
    sim::RuntimeConfig config;
    config.mode = sim::ExecMode::kHybrid;
    config.topology = sim::Topology::ScaleOut(2, dead);
    config.device_index = 0;
    EXPECT_THROW(sim::Runtime{config}, Error);

    // One bad directed link fails only the runtime that owns it (1 -> 0).
    config.topology = sim::Topology::ScaleOut(2, sim::LinkSpec::PcieGen4());
    config.topology.SetPeerLink(1, 0, dead);
    config.device_index = 1;
    EXPECT_THROW(sim::Runtime{config}, Error);
    config.device_index = 0;
    EXPECT_NO_THROW(sim::Runtime{config});
}

// ----------------------------------------------------------- partition book

TEST(PartitionBookTest, SameSeedIsBitIdentical)
{
    EXPECT_TRUE(HashPartition(1000, 4, 42) == HashPartition(1000, 4, 42));
    EXPECT_FALSE(HashPartition(1000, 4, 42) == HashPartition(1000, 4, 43));

    const std::vector<std::pair<int64_t, int64_t>> edges = {
        {0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}};
    EXPECT_TRUE(GreedyEdgeCutPartition(8, 2, edges, 42) ==
                GreedyEdgeCutPartition(8, 2, edges, 42));
}

TEST(PartitionBookTest, EveryNodeOwnedByExactlyOneShard)
{
    for (const int32_t shards : {1, 2, 4, 8}) {
        const PartitionBook book = HashPartition(500, shards, 11);
        const std::vector<int64_t> sizes = book.ShardSizes();
        EXPECT_EQ(static_cast<int32_t>(sizes.size()), shards);
        EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), int64_t{0}),
                  500);
        for (int64_t node = 0; node < 500; ++node) {
            const int32_t owner = book.ShardOf(node);
            EXPECT_GE(owner, 0);
            EXPECT_LT(owner, shards);
        }
    }
}

TEST(PartitionBookTest, OutOfBookNodesFoldDeterministically)
{
    const PartitionBook book = HashPartition(100, 4, 3);
    for (const int64_t node : {int64_t{-1}, int64_t{100}, int64_t{100000}}) {
        const int32_t owner = book.ShardOf(node);
        EXPECT_GE(owner, 0);
        EXPECT_LT(owner, 4);
        EXPECT_EQ(owner, book.ShardOf(node));
    }
}

TEST(PartitionBookTest, EdgeCutMatchesHandCount)
{
    // Nodes 0,1 on shard 0; nodes 2,3 on shard 1.
    const PartitionBook book(2, {0, 0, 1, 1});
    const std::vector<std::pair<int64_t, int64_t>> edges = {
        {0, 1},   // internal to shard 0
        {2, 3},   // internal to shard 1
        {1, 2},   // cut
        {0, 3},   // cut
        {3, 3}};  // self-loop, never cut
    EXPECT_EQ(EdgeCut(book, edges), 2);
}

TEST(PartitionBookTest, HashIsReasonablyBalanced)
{
    const PartitionBook book = HashPartition(10000, 8, 5);
    EXPECT_LT(book.BalanceFactor(), 1.15);
}

TEST(PartitionBookTest, GreedyRespectsCapacityAndBeatsHashOnClusters)
{
    // Two dense 32-node communities: a ring plus chords inside each.
    std::vector<std::pair<int64_t, int64_t>> edges;
    for (int64_t c = 0; c < 2; ++c) {
        const int64_t base = c * 32;
        for (int64_t i = 0; i < 32; ++i) {
            edges.emplace_back(base + i, base + (i + 1) % 32);
            edges.emplace_back(base + i, base + (i + 7) % 32);
        }
    }
    const PartitionBook greedy = GreedyEdgeCutPartition(64, 2, edges, 9);
    const PartitionBook hash = HashPartition(64, 2, 9);
    EXPECT_LT(EdgeCut(greedy, edges), EdgeCut(hash, edges));
    // The capacity penalty keeps the greedy assignment within its slack.
    EXPECT_LE(greedy.BalanceFactor(), 1.2);
}

/// The greedy partitioner as first written, kept as the reference: a
/// two-sided CSR adjacency over the in-book, non-self edges, where only
/// already-placed neighbors (assignment >= 0) count.
PartitionBook
TwoSidedGreedyReference(int64_t num_nodes, int32_t num_shards,
                        const std::vector<std::pair<int64_t, int64_t>>& edges,
                        uint64_t seed)
{
    const auto n = static_cast<size_t>(num_nodes);
    const auto in_book = [num_nodes](int64_t u, int64_t v) {
        return u >= 0 && u < num_nodes && v >= 0 && v < num_nodes && u != v;
    };
    std::vector<int64_t> offset(n + 1, 0);
    for (const auto& [u, v] : edges) {
        if (in_book(u, v)) {
            ++offset[static_cast<size_t>(u) + 1];
            ++offset[static_cast<size_t>(v) + 1];
        }
    }
    for (size_t node = 0; node < n; ++node) {
        offset[node + 1] += offset[node];
    }
    std::vector<int64_t> adjacency(static_cast<size_t>(offset.back()));
    std::vector<int64_t> cursor = offset;
    for (const auto& [u, v] : edges) {
        if (in_book(u, v)) {
            adjacency[static_cast<size_t>(cursor[static_cast<size_t>(u)]++)] = v;
            adjacency[static_cast<size_t>(cursor[static_cast<size_t>(v)]++)] = u;
        }
    }

    const PartitionBook hashed = HashPartition(num_nodes, num_shards, seed);
    const int64_t capacity = std::max<int64_t>(
        1, static_cast<int64_t>(
               static_cast<double>((num_nodes + num_shards - 1) / num_shards) *
               1.1) +
               1);
    std::vector<int64_t> sizes(static_cast<size_t>(num_shards), 0);
    std::vector<int32_t> assignment(n, -1);
    for (size_t node = 0; node < n; ++node) {
        std::vector<int64_t> placed(static_cast<size_t>(num_shards), 0);
        for (int64_t i = offset[node]; i < offset[node + 1]; ++i) {
            const int32_t owner =
                assignment[static_cast<size_t>(adjacency[static_cast<size_t>(i)])];
            if (owner >= 0) {
                ++placed[static_cast<size_t>(owner)];
            }
        }
        int32_t best = -1;
        double best_score = 0.0;
        for (int32_t shard = 0; shard < num_shards; ++shard) {
            const auto s = static_cast<size_t>(shard);
            if (sizes[s] >= capacity) {
                continue;
            }
            const double score =
                static_cast<double>(placed[s]) *
                (1.0 - static_cast<double>(sizes[s]) /
                           static_cast<double>(capacity));
            if (best < 0 || score > best_score) {
                best = shard;
                best_score = score;
            }
        }
        if (best_score == 0.0) {
            const int32_t fallback =
                hashed.ShardOf(static_cast<int64_t>(node));
            if (sizes[static_cast<size_t>(fallback)] < capacity) {
                best = fallback;
            }
        }
        assignment[node] = best;
        ++sizes[static_cast<size_t>(best)];
    }
    return PartitionBook(num_shards, std::move(assignment));
}

TEST(PartitionBookTest, GreedyMatchesTwoSidedReferenceOnRandomTraces)
{
    Rng rng(2027);
    int64_t differs_from_hash = 0;
    for (int32_t shards = 1; shards <= 8; ++shards) {
        for (int trial = 0; trial < 24; ++trial) {
            // Trial 0 has no edges; trial 1 has fewer nodes than shards.
            const int64_t num_nodes = trial == 1 ? shards - 1
                                                 : rng.UniformInt(0, 64);
            const int64_t num_edges = trial == 0 ? 0 : rng.UniformInt(1, 400);
            std::vector<std::pair<int64_t, int64_t>> edges;
            for (int64_t e = 0; e < num_edges; ++e) {
                const double kind = rng.Uniform();
                if (kind < 0.15 && !edges.empty()) {
                    // A duplicate of an earlier edge.
                    edges.push_back(edges[static_cast<size_t>(rng.UniformInt(
                        0, static_cast<int64_t>(edges.size()) - 1))]);
                    continue;
                }
                // Endpoints reach -2 .. num_nodes + 2: node-blind (-1) and
                // past-the-book ids included.
                const int64_t u = rng.UniformInt(-2, num_nodes + 2);
                const int64_t v =
                    kind < 0.25 ? u : rng.UniformInt(-2, num_nodes + 2);
                edges.emplace_back(u, v);
            }
            const auto seed = static_cast<uint64_t>(rng.UniformInt(0, 1 << 20));
            const PartitionBook greedy =
                GreedyEdgeCutPartition(num_nodes, shards, edges, seed);
            EXPECT_TRUE(greedy ==
                        TwoSidedGreedyReference(num_nodes, shards, edges, seed))
                << shards << " shards, " << num_nodes << " nodes, "
                << edges.size() << " edges, seed " << seed;
            if (!(greedy == HashPartition(num_nodes, shards, seed))) {
                ++differs_from_hash;
            }
        }
    }
    // The traces steer placement: most books are not the hash fallback.
    EXPECT_GT(differs_from_hash, 100);
}

// ------------------------------------------------------------ exchange hook

TEST(ExchangeTest, BuildPlanSplitsLocalFromRemotePreservingOrder)
{
    const PartitionBook book(2, {0, 1, 0, 1, 0});
    std::vector<int64_t> nodes = {0, 1, 2, 3, 4};
    const ExchangePlan plan = BuildExchangePlan(book, /*self_shard=*/0, nodes);
    EXPECT_EQ(nodes, (std::vector<int64_t>{0, 2, 4}));
    EXPECT_EQ(plan.local_rows, 3);
    EXPECT_EQ(plan.RemoteRows(), 2);
    EXPECT_EQ(plan.rows_per_shard[1], 2);
    EXPECT_EQ(plan.rows_per_shard[0], 0);
}

TEST(ExchangeTest, EmptyClaimIssuesZeroRuntimeOps)
{
    const PartitionBook book = HashPartition(100, 1, 1);
    const sim::Topology topology =
        sim::Topology::ScaleOut(1, sim::LinkSpec::PcieGen4());
    ExchangeConfig config;
    config.row_bytes = 256;
    ShardExchangeHook hook(book, topology, 0, config);

    std::vector<int64_t> nodes = {5, 6, 7};
    EXPECT_EQ(hook.ClaimRemote(nodes), 0);
    EXPECT_EQ(nodes.size(), 3u);

    sim::RuntimeConfig rc;
    rc.mode = sim::ExecMode::kHybrid;
    rc.topology = topology;
    sim::Runtime rt(rc);
    const sim::SimTime before = rt.Now();
    const serve::ExchangeCost cost = hook.IssueExchange(rt);
    EXPECT_EQ(rt.Now(), before);
    EXPECT_EQ(rt.PeerCopyCount(), 0);
    EXPECT_EQ(cost.remote_rows, 0);
    EXPECT_EQ(cost.local_rows, 3);
    EXPECT_EQ(hook.Rounds(), 0);
}

TEST(ExchangeTest, RemoteRowsArePricedThroughThePeerLink)
{
    const PartitionBook book(2, {0, 1, 0, 1});
    ExchangeConfig config;
    config.row_bytes = 256;
    config.rows_mutable = true;  // 2x for the piggybacked return delta
    const sim::Topology topology =
        sim::Topology::ScaleOut(2, sim::LinkSpec::PcieGen4());
    ShardExchangeHook hook(book, topology, 0, config);

    std::vector<int64_t> nodes = {0, 1, 2, 3};
    EXPECT_EQ(hook.ClaimRemote(nodes), 2);

    sim::RuntimeConfig rc;
    rc.mode = sim::ExecMode::kHybrid;
    rc.topology = topology;
    rc.device_index = 0;
    sim::Runtime rt(rc);
    const serve::ExchangeCost cost = hook.IssueExchange(rt);
    (void)rt.Synchronize();

    EXPECT_EQ(cost.remote_rows, 2);
    EXPECT_EQ(cost.messages, 1);
    EXPECT_EQ(cost.bytes, 2 * 256 * 2);
    EXPECT_GT(cost.link_us, 0.0);
    EXPECT_EQ(rt.PeerBytes(), cost.bytes);
    EXPECT_EQ(rt.PeerCopyCount(), 1);
    EXPECT_EQ(hook.Rounds(), 1);
    EXPECT_EQ(hook.Totals().remote_rows, 2);
}

// ---------------------------------------------------------- sharded serving

data::InteractionDataset
ShardDataset()
{
    data::InteractionSpec spec;
    spec.name = "shard-test";
    spec.num_users = 256;
    spec.num_items = 64;
    spec.num_events = 2048;
    spec.edge_feature_dim = 32;
    spec.popularity_alpha = 2.5;
    spec.repeat_prob = 0.9;
    spec.seed = 31;
    return data::GenerateInteractions(spec);
}

std::vector<serve::Request>
ShardRequests(const data::InteractionDataset& dataset, double qps, int64_t n)
{
    scenario::Scenario s;
    s.name = "shard-replay";
    s.poisson_qps = qps;
    s.poisson_seed = 1009;
    return scenario::GenerateRequests(s, dataset, n);
}

ShardedOptions
BaseOptions(const data::InteractionDataset& dataset, models::Tgn& model,
            int32_t shards)
{
    ShardedOptions options;
    options.num_shards = shards;
    options.cache_config.capacity_bytes =
        dataset.NumNodes() / 4 * model.CacheRowBytes();
    options.num_neighbors = 10;
    return options;
}

PolicyFactory
MakeTimeoutPolicy()
{
    return [] {
        return std::make_unique<serve::TimeoutPolicy>(/*batch_size=*/32,
                                                      /*timeout_us=*/5000.0);
    };
}

void
ExpectSameSharded(const ShardedReport& a, const ShardedReport& b)
{
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.partitioner, b.partitioner);
    EXPECT_EQ(a.interconnect, b.interconnect);
    EXPECT_EQ(a.num_shards, b.num_shards);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.edge_cut, b.edge_cut);
    EXPECT_EQ(a.balance_factor, b.balance_factor);
    EXPECT_EQ(a.offered_qps, b.offered_qps);
    EXPECT_EQ(a.sustained_qps, b.sustained_qps);
    EXPECT_EQ(a.makespan_us, b.makespan_us);
    ExpectSameExchange(a.exchange, b.exchange);
    EXPECT_EQ(a.comm_tax_pct, b.comm_tax_pct);
    EXPECT_EQ(a.latency.Count(), b.latency.Count());
    EXPECT_EQ(a.latency.Mean(), b.latency.Mean());
    EXPECT_EQ(a.latency.P50(), b.latency.P50());
    EXPECT_EQ(a.latency.P99(), b.latency.P99());
    ASSERT_EQ(a.shards.size(), b.shards.size());
    for (size_t shard = 0; shard < a.shards.size(); ++shard) {
        SCOPED_TRACE("shard " + std::to_string(shard));
        ExpectSameServing(a.shards[shard], b.shards[shard]);
        ExpectSameExchange(a.shards[shard].exchange, b.shards[shard].exchange);
    }
}

TEST(ShardedServingTest, OneShardReproducesPlainServingBitForBit)
{
    const auto dataset = ShardDataset();
    models::Tgn model(dataset, models::TgnConfig{64, 32, 1, 11});
    const std::vector<serve::Request> requests =
        ShardRequests(dataset, /*qps=*/4000.0, /*n=*/384);

    const ShardedOptions options = BaseOptions(dataset, model, /*shards=*/1);
    Cluster cluster(model, sim::ExecMode::kHybrid, dataset.NumNodes(),
                    requests, options);
    const ShardedReport sharded =
        cluster.Serve(requests, MakeTimeoutPolicy(), serve::ServerOptions{});

    serve::ModelSession session(model, sim::ExecMode::kHybrid,
                                options.num_neighbors, options.cache_config);
    serve::TimeoutPolicy policy(32, 5000.0);
    const serve::ServingReport plain = serve::ServeRequests(
        session, policy, requests, serve::ServerOptions{});

    ASSERT_EQ(sharded.shards.size(), 1u);
    ExpectSameServing(sharded.shards[0], plain);
    EXPECT_EQ(sharded.offered_qps, plain.offered_qps);
    // And no exchange ever fired.
    EXPECT_EQ(sharded.exchange.remote_rows, 0);
    EXPECT_EQ(sharded.exchange.bytes, 0);
    EXPECT_EQ(sharded.edge_cut, 0);
}

TEST(ShardedServingTest, OneShardClusterMatchesOneSessionAcrossTwoTraces)
{
    const auto dataset = ShardDataset();
    models::Tgn model(dataset, models::TgnConfig{64, 32, 1, 11});
    // The second trace replays the same endpoints at another rate, so a
    // warm cache hits where a cold one misses.
    const std::vector<serve::Request> first =
        ShardRequests(dataset, /*qps=*/4000.0, /*n=*/384);
    const std::vector<serve::Request> second =
        ShardRequests(dataset, /*qps=*/9000.0, /*n=*/256);

    const ShardedOptions options = BaseOptions(dataset, model, /*shards=*/1);
    Cluster cluster(model, sim::ExecMode::kHybrid, dataset.NumNodes(), first,
                    options);
    const ShardedReport a =
        cluster.Serve(first, MakeTimeoutPolicy(), serve::ServerOptions{});
    const ShardedReport b =
        cluster.Serve(second, MakeTimeoutPolicy(), serve::ServerOptions{});

    serve::ModelSession session(model, sim::ExecMode::kHybrid,
                                options.num_neighbors, options.cache_config);
    serve::TimeoutPolicy policy_a(32, 5000.0);
    const serve::ServingReport plain_a = serve::ServeRequests(
        session, policy_a, first, serve::ServerOptions{});
    serve::TimeoutPolicy policy_b(32, 5000.0);
    const serve::ServingReport plain_b = serve::ServeRequests(
        session, policy_b, second, serve::ServerOptions{});

    ASSERT_EQ(a.shards.size(), 1u);
    ASSERT_EQ(b.shards.size(), 1u);
    {
        SCOPED_TRACE("first trace");
        ExpectSameServing(a.shards[0], plain_a);
    }
    {
        SCOPED_TRACE("second trace");
        ExpectSameServing(b.shards[0], plain_b);
    }

    // The cache stayed warm between the calls: a cold session serving
    // the second trace alone hits less.
    serve::ModelSession cold(model, sim::ExecMode::kHybrid,
                             options.num_neighbors, options.cache_config);
    serve::TimeoutPolicy policy_cold(32, 5000.0);
    const serve::ServingReport cold_b = serve::ServeRequests(
        cold, policy_cold, second, serve::ServerOptions{});
    EXPECT_GT(b.shards[0].cache_stats.hits, cold_b.cache_stats.hits);
}

TEST(ShardedServingTest, OneShardClusterOffersTheLoneShardsRate)
{
    const auto dataset = ShardDataset();
    models::Tgn model(dataset, models::TgnConfig{64, 32, 1, 11});
    // A trace that starts late: its rate is set by its own span, not by
    // the time before its first arrival.
    std::vector<serve::Request> requests =
        ShardRequests(dataset, /*qps=*/4000.0, /*n=*/384);
    for (serve::Request& r : requests) {
        r.arrival_us += 1e6;
    }
    Cluster cluster(model, sim::ExecMode::kHybrid, dataset.NumNodes(),
                    requests, BaseOptions(dataset, model, /*shards=*/1));
    const ShardedReport report =
        cluster.Serve(requests, MakeTimeoutPolicy(), serve::ServerOptions{});
    ASSERT_EQ(report.shards.size(), 1u);
    EXPECT_EQ(report.offered_qps, report.shards[0].offered_qps);
    EXPECT_EQ(report.offered_qps, serve::OfferedQps(requests));
}

/// Collects the batch sizes every shard of a run dispatched.
class BatchSizeObserver final : public serve::ServingObserver {
  public:
    void OnBatch(const serve::BatchObservation& batch) override
    {
        sizes.insert(batch.profile->batch_size);
    }
    std::set<int64_t> sizes;
};

TEST(ShardedServingTest, ClusterCapturesEachBatchSizeOnce)
{
    const auto dataset = ShardDataset();
    models::Tgn model(dataset, models::TgnConfig{64, 32, 1, 11});
    const std::vector<serve::Request> first =
        ShardRequests(dataset, /*qps=*/20000.0, /*n=*/512);
    const std::vector<serve::Request> second =
        ShardRequests(dataset, /*qps=*/5000.0, /*n=*/256);

    Cluster cluster(model, sim::ExecMode::kHybrid, dataset.NumNodes(), first,
                    BaseOptions(dataset, model, /*shards=*/4));
    BatchSizeObserver observer;
    serve::ServerOptions server;
    server.observer = &observer;
    for (const std::vector<serve::Request>* trace : {&first, &second}) {
        (void)cluster.Serve(*trace, MakeTimeoutPolicy(), server);
        // Several shards dispatched several sizes, and each size was
        // captured once for the whole cluster.
        EXPECT_GT(observer.sizes.size(), 1u);
        EXPECT_EQ(cluster.Profiles().Captured(),
                  static_cast<int64_t>(observer.sizes.size()));
        for (int32_t shard = 0; shard < cluster.NumShards(); ++shard) {
            EXPECT_EQ(cluster.Session(shard).CapturedProfiles(),
                      cluster.Profiles().Captured());
        }
    }
}

/// The owner of a request's source endpoint, folding a node-blind one by
/// id: where a request goes unless its interaction is cut in-book.
int32_t
SourceOwner(const PartitionBook& book, const serve::Request& r)
{
    return book.ShardOf(r.src >= 0 ? r.src : r.id);
}

/// Whether @p r is an interaction whose two in-book endpoints live on
/// different shards: the requests load-aware routing may send to either
/// owner.
bool
CutInBook(const PartitionBook& book, const serve::Request& r)
{
    const auto in_book = [&book](int64_t node) {
        return node >= 0 && node < book.NumNodes();
    };
    return in_book(r.src) && in_book(r.dst) && book.Cuts(r.src, r.dst);
}

TEST(ShardedServingTest, RouteSendsCutInteractionsToTheLessLoadedOwner)
{
    const auto dataset = ShardDataset();
    models::Tgn model(dataset, models::TgnConfig{64, 32, 1, 11});
    std::vector<serve::Request> requests =
        ShardRequests(dataset, /*qps=*/8000.0, /*n=*/512);
    // Node-blind, half-known and past-the-book requests route too.
    requests[3].src = -1;
    requests[5].dst = -1;
    requests[7].src = dataset.NumNodes() + 5;
    requests[9].dst = dataset.NumNodes() + 2;

    ShardedOptions options = BaseOptions(dataset, model, /*shards=*/4);
    options.partitioner = PartitionerKind::kGreedy;
    const Cluster cluster(model, sim::ExecMode::kHybrid, dataset.NumNodes(),
                          requests, options);
    const PartitionBook& book = cluster.Book();
    const RoutedTrace routed = cluster.Route(requests);

    ASSERT_EQ(routed.streams.size(), 4u);
    std::vector<int64_t> shard_of(requests.size(), -1);
    std::vector<size_t> sizes;
    for (int32_t shard = 0; shard < 4; ++shard) {
        const std::vector<serve::Request>& stream =
            routed.streams[static_cast<size_t>(shard)];
        sizes.push_back(stream.size());
        for (size_t i = 0; i < stream.size(); ++i) {
            // Arrival order survives within a sub-stream.
            if (i > 0) {
                EXPECT_LT(stream[i - 1].id, stream[i].id);
            }
            const auto id = static_cast<size_t>(stream[i].id);
            ASSERT_LT(id, requests.size());
            EXPECT_EQ(shard_of[id], -1) << "request " << id << " routed twice";
            shard_of[id] = shard;
        }
    }

    int64_t to_dst_owner = 0;
    std::vector<std::pair<int64_t, int64_t>> edges;
    for (const serve::Request& r : requests) {
        const int64_t shard = shard_of[static_cast<size_t>(r.id)];
        ASSERT_NE(shard, -1) << "request " << r.id << " never routed";
        if (CutInBook(book, r)) {
            // A cut request runs on an owner of one of its endpoints.
            EXPECT_TRUE(shard == book.ShardOf(r.src) ||
                        shard == book.ShardOf(r.dst))
                << "request " << r.id;
            to_dst_owner += shard != book.ShardOf(r.src) ? 1 : 0;
        } else {
            // Uncut, half-known, node-blind and out-of-book requests
            // follow their source's owner.
            EXPECT_EQ(shard, SourceOwner(book, r)) << "request " << r.id;
        }
        if (r.src >= 0 && r.dst >= 0) {
            edges.emplace_back(r.src, r.dst);
        }
    }
    // The rule moved real load, and moving it left the cut as it was.
    EXPECT_GT(to_dst_owner, 0);
    EXPECT_EQ(routed.edge_cut, EdgeCut(book, edges));
    EXPECT_GT(routed.edge_cut, 0);
    EXPECT_EQ(sizes, (std::vector<size_t>{131, 126, 123, 132}));
}

TEST(ShardedServingTest, LoadAwareRoutingFlattensTheBusiestShard)
{
    const auto dataset = ShardDataset();
    models::Tgn model(dataset, models::TgnConfig{64, 32, 1, 11});
    // Popularity-skewed replay: a few hot sources dominate the trace.
    const std::vector<serve::Request> requests =
        ShardRequests(dataset, /*qps=*/20000.0, /*n=*/2048);

    for (const PartitionerKind partitioner :
         {PartitionerKind::kHash, PartitionerKind::kGreedy}) {
        SCOPED_TRACE(ToString(partitioner));
        ShardedOptions options = BaseOptions(dataset, model, /*shards=*/4);
        options.partitioner = partitioner;
        const Cluster cluster(model, sim::ExecMode::kHybrid,
                              dataset.NumNodes(), requests, options);

        std::vector<size_t> source_only(4, 0);
        for (const serve::Request& r : requests) {
            ++source_only[static_cast<size_t>(
                SourceOwner(cluster.Book(), r))];
        }
        size_t routed_busiest = 0;
        for (const std::vector<serve::Request>& stream :
             cluster.Route(requests).streams) {
            routed_busiest = std::max(routed_busiest, stream.size());
        }
        const size_t source_only_busiest =
            *std::max_element(source_only.begin(), source_only.end());
        EXPECT_LT(routed_busiest, source_only_busiest);
    }
}

TEST(ShardedServingTest, ServeShardedEqualsClusterServe)
{
    const auto dataset = ShardDataset();
    models::Tgn model(dataset, models::TgnConfig{64, 32, 1, 11});
    const std::vector<serve::Request> requests =
        ShardRequests(dataset, /*qps=*/20000.0, /*n=*/512);
    ShardedOptions options = BaseOptions(dataset, model, /*shards=*/4);
    options.partitioner = PartitionerKind::kGreedy;

    const ShardedReport wrapped =
        ServeSharded(model, sim::ExecMode::kHybrid, dataset.NumNodes(),
                     requests, MakeTimeoutPolicy(), options);
    Cluster cluster(model, sim::ExecMode::kHybrid, dataset.NumNodes(),
                    requests, options);
    const ShardedReport served =
        cluster.Serve(requests, MakeTimeoutPolicy(), options.server);

    ExpectSameSharded(wrapped, served);
    EXPECT_EQ(wrapped.partitioner, "greedy");
    EXPECT_GT(wrapped.exchange.remote_rows, 0);
}

TEST(ShardedServingTest, SustainedQpsScalesWithShards)
{
    const auto dataset = ShardDataset();
    models::Tgn model(dataset, models::TgnConfig{64, 32, 1, 11});
    // Overload a single shard so the cluster rate is capacity-bound.
    const std::vector<serve::Request> requests =
        ShardRequests(dataset, /*qps=*/20000.0, /*n=*/512);

    const auto serve_on = [&](int32_t shards) {
        Cluster cluster(model, sim::ExecMode::kHybrid, dataset.NumNodes(),
                        requests, BaseOptions(dataset, model, shards));
        return cluster.Serve(requests, MakeTimeoutPolicy(),
                             serve::ServerOptions{});
    };
    const ShardedReport one = serve_on(1);
    const ShardedReport four = serve_on(4);

    EXPECT_EQ(one.requests, four.requests);
    EXPECT_GT(four.sustained_qps, one.sustained_qps);
    // Scale-out is not free: the exchange moved real bytes and the report
    // says so.
    EXPECT_GT(four.exchange.remote_rows, 0);
    EXPECT_GT(four.exchange.bytes, 0);
    EXPECT_GT(four.exchange.link_us, 0.0);
    EXPECT_GT(four.comm_tax_pct, 0.0);
    EXPECT_GT(four.edge_cut, 0);
}

TEST(ShardedServingTest, DeterministicAcrossRuns)
{
    const auto dataset = ShardDataset();
    models::Tgn model(dataset, models::TgnConfig{64, 32, 1, 11});
    const std::vector<serve::Request> requests =
        ShardRequests(dataset, 8000.0, 256);
    const ShardedOptions options = BaseOptions(dataset, model, 2);

    const auto serve_once = [&] {
        Cluster cluster(model, sim::ExecMode::kHybrid, dataset.NumNodes(),
                        requests, options);
        return cluster.Serve(requests, MakeTimeoutPolicy(),
                             serve::ServerOptions{});
    };
    ExpectSameSharded(serve_once(), serve_once());
}

TEST(ShardedServingTest, ExchangeScheduleIsHazardFree)
{
    // Serves the requests whose source shard 0 owns in a 2-shard split
    // through the REAL serving loop with an exchange hook and a hazard
    // checker attached.
    const auto dataset = ShardDataset();
    models::Tgn model(dataset, models::TgnConfig{64, 32, 1, 11});
    const std::vector<serve::Request> requests =
        ShardRequests(dataset, 8000.0, 384);

    const PartitionBook book = HashPartition(dataset.NumNodes(), 2, 1);
    std::vector<serve::Request> shard0;
    for (const serve::Request& r : requests) {
        if (book.ShardOf(r.src) == 0) {
            shard0.push_back(r);
        }
    }

    ExchangeConfig exchange_config;
    exchange_config.row_bytes = model.CacheRowBytes();
    exchange_config.rows_mutable = model.CacheRowsMutable();
    const sim::Topology topology =
        sim::Topology::ScaleOut(2, sim::LinkSpec::PcieGen4());
    ShardExchangeHook hook(book, topology, 0, exchange_config);

    cache::DeviceCacheConfig cache_config;
    cache_config.capacity_bytes =
        dataset.NumNodes() / 4 * model.CacheRowBytes();
    serve::ModelSession session(model, sim::ExecMode::kHybrid, 10,
                                cache_config);
    serve::TimeoutPolicy policy(32, 5000.0);

    analysis::HazardChecker checker;
    serve::ServerOptions options;
    options.shard_hook = &hook;
    options.runtime_observer = &checker;
    (void)serve::ServeRequests(session, policy, shard0, options);

    const analysis::HazardReport report = checker.Report();
    EXPECT_TRUE(report.Clean()) << report.ToText();
    // The exchange actually ran — a vacuously clean run proves nothing.
    EXPECT_GT(hook.Rounds(), 0);
}

}  // namespace
}  // namespace dgnn::shard
