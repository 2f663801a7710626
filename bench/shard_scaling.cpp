/// The shard-scaling sweep — scale-out serving of one arrival trace across
/// a multi-device topology (src/shard/ over the sim/ topology layer). For
/// each model (TGN, TGAT) the sweep crosses:
///
///   shards       1 / 2 / 4 / 8 topology nodes, one serving loop each
///   partitioner  hash vs greedy edge-cut (seeded, deterministic)
///   interconnect PCIe-class vs NVLink-class peer links
///
/// and reports the cluster's sustained QPS (completions over the slowest
/// shard's makespan), merged tail latency, the partition's edge cut and
/// balance, and the cross-shard communication tax (peer-link occupancy as
/// a share of total shard serving time). The 1-shard rows reproduce the
/// unsharded serving path bit-for-bit — the scale-out seam's identity
/// contract.
///
/// The text summary and BENCH_shard_scaling.json (the perf-trajectory
/// record) are byte-checked against docs/expected/ by the
/// `shard_scaling_diff` golden test.

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/bench_json_writer.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"
#include "scenario/scenario.hpp"
#include "serve/batch_policy.hpp"
#include "shard/sharded_server.hpp"

namespace dgnn {
namespace {

constexpr uint64_t kSeed = 1009;
constexpr double kBaseQps = 240000.0;
constexpr int64_t kServeBatch = 64;
constexpr sim::SimTime kBatchTimeoutUs = 5000.0;
constexpr uint64_t kPartitionSeed = 7;
constexpr int64_t kRequests = 512;

data::InteractionSpec
ShardDatasetSpec()
{
    // The hazard-audit dataset (recurrent repeat-talker stream): enough
    // nodes that an 8-way partition still owns meaningful state per shard.
    data::InteractionSpec spec;
    spec.name = "gauntlet";
    spec.num_users = 512;
    spec.num_items = 128;
    spec.num_events = 4096;
    spec.edge_feature_dim = 64;
    spec.popularity_alpha = 2.5;
    spec.repeat_prob = 0.9;
    spec.seed = 31;
    return spec;
}

std::vector<serve::Request>
ShardTrace(const data::InteractionDataset& dataset, int64_t n)
{
    // Overloaded Poisson arrivals over trace-replay endpoints: one shard
    // saturates, so the sweep measures capacity, not arrival pacing.
    scenario::Scenario s;
    s.name = "shard-replay";
    s.poisson_qps = kBaseQps;
    s.poisson_seed = kSeed;
    return scenario::GenerateRequests(s, dataset, n);
}

void
SweepModel(const std::string& model_name, models::DgnnModel& model,
           const data::InteractionDataset& dataset,
           const std::vector<serve::Request>& requests,
           core::BenchJsonWriter& json)
{
    bench::Banner(
        "Shard scaling: " + model_name + " (hybrid, pipelined)",
        "scale-out extension of the paper's serving bottleneck analysis");

    core::TableWriter table({"partitioner", "link", "shards", "sustained qps",
                             "p50 ms", "p99 ms", "edge cut", "balance",
                             "remote rows", "exchange MB", "comm tax %"});
    for (const shard::PartitionerKind partitioner :
         {shard::PartitionerKind::kHash, shard::PartitionerKind::kGreedy}) {
        for (const sim::LinkSpec& interconnect :
             {sim::LinkSpec::PcieGen4(), sim::LinkSpec::NvlinkClass()}) {
            for (const int32_t shards : {1, 2, 4, 8}) {
                shard::ShardedOptions options;
                options.num_shards = shards;
                options.partitioner = partitioner;
                options.interconnect = interconnect;
                options.partition_seed = kPartitionSeed;
                options.cache_config.capacity_bytes =
                    dataset.NumNodes() / 4 * model.CacheRowBytes();
                options.cache_config.eviction = cache::EvictionPolicy::kLru;
                options.num_neighbors = 10;

                const shard::ShardedReport report = shard::ServeSharded(
                    model, sim::ExecMode::kHybrid, dataset.NumNodes(),
                    requests, [] {
                        return std::make_unique<serve::TimeoutPolicy>(
                            kServeBatch, kBatchTimeoutUs);
                    },
                    options);

                const std::string link = sim::ToString(interconnect.kind);
                table.AddRow(
                    {report.partitioner, link, std::to_string(shards),
                     core::TableWriter::Num(report.sustained_qps, 1),
                     bench::Ms(report.latency.P50()),
                     bench::Ms(report.latency.P99()),
                     core::TableWriter::Num(
                         static_cast<double>(report.edge_cut), 0),
                     core::TableWriter::Num(report.balance_factor, 3),
                     core::TableWriter::Num(
                         static_cast<double>(report.exchange.remote_rows), 0),
                     bench::Mb(report.exchange.bytes),
                     core::TableWriter::Num(report.comm_tax_pct, 2)});

                json.BeginRecord();
                json.Field("model", model_name);
                json.Field("partitioner", report.partitioner);
                json.Field("interconnect", link);
                json.Field("shards", std::to_string(shards));
                json.Field("requests", report.requests);
                json.Field("achieved_qps", report.sustained_qps, 1);
                json.Field("p50_ms", report.latency.P50() / 1000.0, 3);
                json.Field("p99_ms", report.latency.P99() / 1000.0, 3);
                json.Field("edge_cut", report.edge_cut);
                json.Field("balance_factor", report.balance_factor, 3);
                json.Field("remote_rows", report.exchange.remote_rows);
                json.Field("exchange_mb",
                           static_cast<double>(report.exchange.bytes) / 1024.0 /
                               1024.0,
                           2);
                json.Field("comm_tax_pct", report.comm_tax_pct, 2);
            }
        }
    }
    std::cout << table.ToString();
}

}  // namespace
}  // namespace dgnn

int
main()
{
    using namespace dgnn;

    const int64_t n = kRequests;
    std::cout << "DGNN shard scaling (simulated Xeon Gold 6226R + RTX A6000 "
                 "per shard)\n"
              << "One trace served at scale-out; " << n
              << " requests, base rate " << static_cast<int64_t>(kBaseQps)
              << " qps, timeout(" << kServeBatch << ","
              << static_cast<int64_t>(kBatchTimeoutUs) / 1000
              << "ms) batching, partition seed " << kPartitionSeed << "\n";

    const auto dataset = data::GenerateInteractions(ShardDatasetSpec());
    const std::vector<serve::Request> requests = ShardTrace(dataset, n);

    models::Tgn tgn(dataset, models::TgnConfig{172, 64, 2, 11});
    models::Tgat tgat(dataset, models::TgatConfig{});

    core::BenchJsonWriter json("shard_scaling");
    SweepModel("TGN", tgn, dataset, requests, json);
    SweepModel("TGAT", tgat, dataset, requests, json);

    json.WriteFile("BENCH_shard_scaling.json");
    std::cout << "\njson: BENCH_shard_scaling.json (" << json.RecordCount()
              << " records)\n";
    return 0;
}
