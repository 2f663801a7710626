// Tests for src/shard/ and the sim topology layer underneath it.
//
// Four layers:
//   * topology unit checks: scale-out construction, peer-link lookup,
//     construction-time rejection of bad nodes, and the 1-device
//     bit-identity contract (a ScaleOut(1) runtime must reproduce the
//     default SinglePair() runtime exactly);
//   * partition-book suite: round-trip serialization, seed determinism,
//     exactly-one-shard coverage, balance bounds, edge-cut accounting
//     against hand-computed cuts, and greedy-beats-hash on clustered
//     graphs;
//   * exchange-hook unit checks: claim/plan splitting, peer-link pricing,
//     and the zero-runtime-ops guarantee of an empty claim;
//   * sharded serving: 1-shard bit-identity against the plain serving
//     path, sustained-QPS scaling with shard count, hazard-freedom of the
//     exchange schedule under the checker, and detection of a deleted
//     exchange fence in the REAL serving path.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
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

namespace dgnn::shard {
namespace {

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
    options.cache_config.eviction = cache::EvictionPolicy::kLru;
    options.num_neighbors = 10;
    return options;
}

std::function<std::unique_ptr<serve::BatchPolicy>()>
MakeTimeoutPolicy()
{
    return [] {
        return std::make_unique<serve::TimeoutPolicy>(/*batch_size=*/32,
                                                      /*timeout_us=*/5000.0);
    };
}

TEST(ShardedServingTest, OneShardReproducesPlainServingBitForBit)
{
    const auto dataset = ShardDataset();
    models::Tgn model(dataset, models::TgnConfig{64, 32, 1, 11});
    const std::vector<serve::Request> requests =
        ShardRequests(dataset, /*qps=*/4000.0, /*n=*/384);

    const ShardedOptions options = BaseOptions(dataset, model, /*shards=*/1);
    const ShardedReport sharded =
        ServeSharded(model, sim::ExecMode::kHybrid, dataset.NumNodes(),
                     requests, MakeTimeoutPolicy(), options);

    serve::ModelSession session(model, sim::ExecMode::kHybrid,
                                options.num_neighbors, options.cache_config);
    serve::TimeoutPolicy policy(32, 5000.0);
    const serve::ServingReport plain = serve::ServeRequests(
        session, policy, requests, serve::ServerOptions{});

    ASSERT_EQ(sharded.shards.size(), 1u);
    const serve::ServingReport& lone = sharded.shards[0];
    EXPECT_EQ(lone.requests, plain.requests);
    EXPECT_EQ(lone.batches, plain.batches);
    EXPECT_EQ(lone.makespan_us, plain.makespan_us);
    EXPECT_EQ(lone.latency.P50(), plain.latency.P50());
    EXPECT_EQ(lone.latency.P99(), plain.latency.P99());
    EXPECT_EQ(lone.h2d_bytes, plain.h2d_bytes);
    EXPECT_EQ(lone.d2h_bytes, plain.d2h_bytes);
    EXPECT_EQ(lone.cache_stats.hits, plain.cache_stats.hits);
    // And no exchange ever fired.
    EXPECT_EQ(sharded.exchange.remote_rows, 0);
    EXPECT_EQ(sharded.exchange.bytes, 0);
    EXPECT_EQ(sharded.edge_cut, 0);
}

TEST(ShardedServingTest, SustainedQpsScalesWithShards)
{
    const auto dataset = ShardDataset();
    models::Tgn model(dataset, models::TgnConfig{64, 32, 1, 11});
    // Overload a single shard so the cluster rate is capacity-bound.
    const std::vector<serve::Request> requests =
        ShardRequests(dataset, /*qps=*/20000.0, /*n=*/512);

    const ShardedReport one =
        ServeSharded(model, sim::ExecMode::kHybrid, dataset.NumNodes(),
                     requests, MakeTimeoutPolicy(),
                     BaseOptions(dataset, model, 1));
    const ShardedReport four =
        ServeSharded(model, sim::ExecMode::kHybrid, dataset.NumNodes(),
                     requests, MakeTimeoutPolicy(),
                     BaseOptions(dataset, model, 4));

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

    const ShardedReport a =
        ServeSharded(model, sim::ExecMode::kHybrid, dataset.NumNodes(),
                     requests, MakeTimeoutPolicy(), options);
    const ShardedReport b =
        ServeSharded(model, sim::ExecMode::kHybrid, dataset.NumNodes(),
                     requests, MakeTimeoutPolicy(), options);
    EXPECT_EQ(a.sustained_qps, b.sustained_qps);
    EXPECT_EQ(a.makespan_us, b.makespan_us);
    EXPECT_EQ(a.exchange.bytes, b.exchange.bytes);
    EXPECT_EQ(a.exchange.link_us, b.exchange.link_us);
    EXPECT_EQ(a.edge_cut, b.edge_cut);
}

/// Serves shard 0's sub-stream of a 2-shard split through the REAL serving
/// loop with an exchange hook and a hazard checker attached.
analysis::HazardReport
CheckedShardRun(bool install_fence, int64_t* rounds_out)
{
    const auto dataset = ShardDataset();
    models::Tgn model(dataset, models::TgnConfig{64, 32, 1, 11});
    const std::vector<serve::Request> requests =
        ShardRequests(dataset, 8000.0, 384);

    const PartitionBook book = HashPartition(dataset.NumNodes(), 2, 1);
    std::vector<serve::Request> shard0;
    for (const serve::Request& r : requests) {
        if (RouteShard(book, r) == 0) {
            shard0.push_back(r);
        }
    }

    ExchangeConfig exchange_config;
    exchange_config.row_bytes = model.CacheRowBytes();
    exchange_config.rows_mutable = model.CacheRowsMutable();
    exchange_config.install_fence = install_fence;
    const sim::Topology topology =
        sim::Topology::ScaleOut(2, sim::LinkSpec::PcieGen4());
    ShardExchangeHook hook(book, topology, 0, exchange_config);

    cache::DeviceCacheConfig cache_config;
    cache_config.capacity_bytes =
        dataset.NumNodes() / 4 * model.CacheRowBytes();
    cache_config.eviction = cache::EvictionPolicy::kLru;
    serve::ModelSession session(model, sim::ExecMode::kHybrid, 10,
                                cache_config);
    serve::TimeoutPolicy policy(32, 5000.0);

    analysis::HazardChecker checker;
    serve::ServerOptions options;
    options.shard_hook = &hook;
    options.runtime_observer = &checker;
    (void)serve::ServeRequests(session, policy, shard0, options);
    if (rounds_out != nullptr) {
        *rounds_out = hook.Rounds();
    }
    return checker.Report();
}

TEST(ShardedServingTest, ExchangeScheduleIsHazardFree)
{
    int64_t rounds = 0;
    const analysis::HazardReport report =
        CheckedShardRun(/*install_fence=*/true, &rounds);
    EXPECT_TRUE(report.Clean()) << report.ToText();
    // The exchange actually ran — a vacuously clean run proves nothing.
    EXPECT_GT(rounds, 0);
}

TEST(ShardedServingTest, DeletedExchangeFenceIsCaughtInServing)
{
    int64_t rounds = 0;
    const analysis::HazardReport report =
        CheckedShardRun(/*install_fence=*/false, &rounds);
    EXPECT_GT(rounds, 0);
    ASSERT_FALSE(report.Clean());
    bool raw_on_exchange = false;
    for (const analysis::Hazard& hazard : report.hazards) {
        if (hazard.kind == analysis::HazardKind::kRaw &&
            analysis::ResourceFamily(hazard.resource) == "exchange_in") {
            raw_on_exchange = true;
        }
    }
    EXPECT_TRUE(raw_on_exchange) << report.ToText();
}

}  // namespace
}  // namespace dgnn::shard
