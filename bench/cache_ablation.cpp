/// Device-cache ablation — the transfer-bottleneck lever the paper's Fig
/// 6/7 breakdowns motivate: CPU->GPU movement of mutable node state (TGN
/// memory, JODIE embeddings) and its per-batch sync-back weigh on hybrid
/// DGNN inference, and it is exactly the traffic a device-resident LRU
/// cache with temporal locality can absorb. TGAT is absent: its node
/// features are read-only and the table stays resident, so a cache has
/// nothing to hold.
///
/// Two exhibits:
///   1. Offline capacity x recurrence sweep (TGN / JODIE, hybrid): the same
///      stream replayed with the cache off and at 1/8, 1/2 and full state
///      capacity, on a heavy repeat-talker stream vs a diffuse one. Reports
///      hit rate, PCIe volumes, transfer time and verifies the cache never
///      changes numerics (identical checksums).
///   2. Online serving with a warm cache (TGN, trace-replay arrivals with
///      recurrent nodes): the session cache stays warm ACROSS batches, a
///      locality regime the offline benches cannot express. A warm cache
///      must show strictly lower H2D bytes and lower p99 than the uncached
///      baseline.
///
/// Deterministic; diffed against docs/expected/bench_cache_ablation.txt in
/// CI like the serving bench.

#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "models/jodie.hpp"
#include "models/tgn.hpp"
#include "serve/server.hpp"

namespace dgnn {
namespace {

constexpr int64_t kEvents = 4096;
constexpr int64_t kBatch = 256;
constexpr int64_t kNeighbors = 10;

data::InteractionSpec
RecurrentSpec()
{
    data::InteractionSpec spec = bench::GauntletSpec();
    spec.name = "recurrent";  // heavy repeat-talkers (Wikipedia/Reddit-like)
    return spec;
}

data::InteractionSpec
DiffuseSpec()
{
    data::InteractionSpec spec;
    spec.name = "diffuse";  // wide key space, weak repetition
    spec.num_users = 4096;
    spec.num_items = 2048;
    spec.num_events = kEvents;
    spec.edge_feature_dim = 64;
    spec.popularity_alpha = 1.05;
    spec.repeat_prob = 0.05;
    spec.seed = 32;
    return spec;
}

void
OfflineSweep(const std::string& title,
             const std::function<std::unique_ptr<models::DgnnModel>()>& make_model,
             const data::InteractionDataset& dataset)
{
    bench::Banner("Capacity sweep: " + title,
                  "the Fig 6/7 transfer categories vs device-cache capacity");

    const int64_t rows_full = dataset.NumNodes();
    struct Point {
        const char* label;
        int64_t rows;
    };
    const Point points[] = {{"off", 0},
                            {"1/8 state", rows_full / 8},
                            {"1/2 state", rows_full / 2},
                            {"full state", rows_full}};

    core::TableWriter table({"cache", "hit rate", "h2d (MB)", "d2h (MB)",
                             "saved (MB)", "evict", "writeback",
                             "transfer (ms)", "per-iter (ms)", "numerics"});
    double baseline_checksum = 0.0;
    for (const Point& p : points) {
        // TGN/JODIE carry state across RunInference calls, so every point
        // gets a freshly constructed model — capacity is the only variable.
        const std::unique_ptr<models::DgnnModel> model = make_model();
        sim::Runtime runtime = models::MakeRuntime(sim::ExecMode::kHybrid);
        models::RunConfig run =
            bench::BenchRun(sim::ExecMode::kHybrid, kBatch, kNeighbors);
        run.cache.capacity_bytes = p.rows * model->CacheRowBytes();
        const models::RunResult r = model->RunInference(runtime, run);
        if (p.rows == 0) {
            baseline_checksum = r.output_checksum;
        }
        table.AddRow({p.label, bench::Pct(r.cache_stats.HitRate()),
                      bench::Mb(r.h2d_bytes), bench::Mb(r.d2h_bytes),
                      bench::Mb(r.cache_hit_bytes),
                      core::TableWriter::Num(
                          static_cast<double>(r.cache_stats.evictions), 0),
                      core::TableWriter::Num(
                          static_cast<double>(r.cache_stats.writeback_rows), 0),
                      bench::Ms(r.transfer_time_us),
                      bench::Ms(r.per_iteration_us),
                      r.output_checksum == baseline_checksum
                          ? "preserved"
                          : "CHANGED (bug!)"});
    }
    std::cout << table.ToString();
}

void
ServingSection()
{
    bench::Banner(
        "Online serving with a warm device cache: TGN / recurrent trace",
        "cross-batch locality — GPU-resident state per arXiv:1709.05061");

    const auto dataset = data::GenerateInteractions(RecurrentSpec());
    // Paper-faithful memory width (TGN uses 172-d memory on Wikipedia):
    // wide rows make the state movement the dominant H2D component.
    models::Tgn tgn(dataset, bench::kServingTgn);

    // Saturating burst: arrivals outpace the service rate, every batch is
    // full, and the backlog drains at the server's service rate — so
    // per-batch transfer savings accumulate directly into the tail. (At
    // light load the p99 is all batching wait, which no cache can touch.)
    constexpr double kQps = 500000.0;
    constexpr int64_t kRequests = 1024;
    constexpr int64_t kServeBatch = 128;
    const std::vector<serve::Request> requests =
        serve::TraceRequests(dataset.stream, kQps, kRequests);

    // Half the node-memory state fits on the device.
    const int64_t capacity =
        dataset.NumNodes() / 2 * tgn.CacheRowBytes();

    struct Variant {
        const char* label;
        int64_t capacity_bytes;
    };
    const Variant variants[] = {
        {"uncached", 0},
        {"cache 1/2 LRU", capacity},
    };

    core::TableWriter table({"session", "p50 (ms)", "p99 (ms)", "overflow",
                             "h2d (MB)", "d2h (MB)", "hit rate", "saved (MB)",
                             "achieved qps"});
    double uncached_p99 = 0.0;
    int64_t uncached_h2d = 0;
    double cached_p99 = 0.0;
    int64_t cached_h2d = 0;
    for (const Variant& v : variants) {
        cache::DeviceCacheConfig cache_config;
        cache_config.capacity_bytes = v.capacity_bytes;
        serve::ModelSession session(tgn, sim::ExecMode::kHybrid, kNeighbors,
                                    cache_config);
        serve::FixedSizePolicy policy(kServeBatch);
        // Serial (eager-mode) executor: the PCIe transfer sits on the
        // request's critical path, so the bytes the cache absorbs convert
        // directly into tail latency. (The pipelined executor hides
        // transfer latency behind compute instead; there the cache buys
        // headroom at saturation rather than p99 at this load.)
        serve::ServerOptions options;
        options.executor = serve::ExecutorKind::kSerial;
        const serve::ServingReport report =
            serve::ServeRequests(session, policy, requests, options);
        if (std::string(v.label) == "uncached") {
            uncached_p99 = report.latency.P99();
            uncached_h2d = report.h2d_bytes;
        } else {
            cached_p99 = report.latency.P99();
            cached_h2d = report.h2d_bytes;
        }
        table.AddRow({v.label, bench::Ms(report.latency.P50()),
                      bench::Ms(report.latency.P99()),
                      core::TableWriter::Num(
                          static_cast<double>(report.latency.OverflowCount()), 0),
                      bench::Mb(report.h2d_bytes), bench::Mb(report.d2h_bytes),
                      bench::Pct(report.cache_stats.HitRate()),
                      bench::Mb(report.cache_hit_bytes),
                      core::TableWriter::Num(report.achieved_qps, 0)});
    }
    std::cout << table.ToString();
    std::cout << "verdict: "
              << (cached_p99 < uncached_p99 && cached_h2d < uncached_h2d
                      ? "warm cache wins (lower H2D bytes AND lower p99)"
                      : "NO WIN — investigate")
              << "\n";
}

}  // namespace
}  // namespace dgnn

int
main()
{
    using namespace dgnn;

    std::cout << "DGNN device-cache ablation (simulated Xeon Gold 6226R + "
                 "RTX A6000)\n"
              << "Capacity x recurrence sweep, hybrid mode; "
              << kEvents << " events, batch " << kBatch << ", k = "
              << kNeighbors << "\n";

    const auto recurrent = data::GenerateInteractions(RecurrentSpec());
    const auto diffuse = data::GenerateInteractions(DiffuseSpec());

    OfflineSweep("TGN / recurrent stream",
                 [&] {
                     return std::make_unique<models::Tgn>(recurrent,
                                                          models::TgnConfig{});
                 },
                 recurrent);
    OfflineSweep("TGN / diffuse stream",
                 [&] {
                     return std::make_unique<models::Tgn>(diffuse,
                                                          models::TgnConfig{});
                 },
                 diffuse);
    OfflineSweep("JODIE / recurrent stream",
                 [&] {
                     return std::make_unique<models::Jodie>(recurrent,
                                                            models::JodieConfig{});
                 },
                 recurrent);
    OfflineSweep("JODIE / diffuse stream",
                 [&] {
                     return std::make_unique<models::Jodie>(diffuse,
                                                            models::JodieConfig{});
                 },
                 diffuse);

    ServingSection();
    return 0;
}
