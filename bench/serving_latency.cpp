/// Online-serving latency/throughput characterization — the question the
/// offline paper reproduction cannot answer: what p99 latency and sustained
/// QPS does this hardware deliver for DGNN inference?
///
/// For each model x execution mode x batching policy x executor the harness
/// replays a deterministic Poisson request stream through serve::Serve and
/// reports the latency percentiles, queue/batch statistics, and the capacity:
/// the highest Poisson rate sustained under the p99 SLO (serve::FindCapacity,
/// 16,384-request probes; see DESIGN §7).
/// The punchline mirrors the paper's bottleneck analysis: overlapping host
/// batch-build with device compute (the pipelined executor) lifts sustained
/// QPS in hybrid mode, because the host-side sampling/batching stage — the
/// paper's bottleneck no. 2 — leaves the GPU idle in eager mode.
///
/// Smoke scale, deterministic; byte-checked against
/// docs/expected/bench_serving_latency.txt by the `serving_latency_diff`
/// golden test.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "models/jodie.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"
#include "serve/server.hpp"

namespace dgnn {
namespace {

using serve::ExecutorKind;

constexpr uint64_t kArrivalSeed = 997;
constexpr int64_t kRequests = 1024;

struct PolicySpec {
    std::string label;
    std::function<std::unique_ptr<serve::BatchPolicy>()> make;
};

std::vector<PolicySpec>
Policies()
{
    std::vector<PolicySpec> specs;
    specs.push_back({"fixed(32)", [] {
                         return std::make_unique<serve::FixedSizePolicy>(32);
                     }});
    specs.push_back({"timeout(32,5ms)", [] {
                         return std::make_unique<serve::TimeoutPolicy>(32, 5000.0);
                     }});
    specs.push_back({"adaptive(8..64,5ms)", [] {
                         return std::make_unique<serve::AdaptivePolicy>(8, 64,
                                                                        5000.0);
                     }});
    return specs;
}

std::string
Qps(double v)
{
    return core::TableWriter::Num(v, 0);
}

/// The capacity search's p99 SLO in whole milliseconds.
std::string
SloMs()
{
    return core::TableWriter::Num(serve::kCapacitySloUs / 1000.0, 0);
}

void
SweepModel(const std::string& title, models::DgnnModel& model,
           double offered_qps, double& serial_hybrid_qps,
           double& pipelined_hybrid_qps)
{
    bench::Banner("Online serving: " + title,
                  "the serving regime motivated by Dynasparse / §6 outlook");

    const int64_t n = kRequests;
    const std::vector<sim::SimTime> arrivals =
        serve::PoissonArrivals(offered_qps, n, kArrivalSeed);

    core::TableWriter table({"mode", "policy", "executor", "offered qps",
                             "achieved qps", "p50 (ms)", "p99 (ms)", "max (ms)",
                             "batch avg", "queue avg",
                             "maxQPS@" + SloMs() + "ms"});

    for (const sim::ExecMode mode :
         {sim::ExecMode::kCpuOnly, sim::ExecMode::kHybrid}) {
        serve::ModelSession session(model, mode);
        for (const PolicySpec& spec : Policies()) {
            for (const ExecutorKind kind :
                 {ExecutorKind::kSerial, ExecutorKind::kPipelined}) {
                serve::ServerOptions options;
                options.executor = kind;

                std::unique_ptr<serve::BatchPolicy> policy = spec.make();
                const serve::ServingReport report =
                    serve::Serve(session, *policy, arrivals, options);

                const serve::QpsSearchResult search = serve::FindCapacity(
                    session, spec.make, options, kArrivalSeed);

                if (mode == sim::ExecMode::kHybrid &&
                    spec.label == "timeout(32,5ms)") {
                    if (kind == ExecutorKind::kSerial) {
                        serial_hybrid_qps = search.max_qps;
                    } else {
                        pipelined_hybrid_qps = search.max_qps;
                    }
                }

                table.AddRow({report.mode, spec.label,
                              std::string(serve::ToString(kind)),
                              Qps(report.offered_qps), Qps(report.achieved_qps),
                              bench::Ms(report.latency.P50()),
                              bench::Ms(report.latency.P99()),
                              bench::Ms(report.latency.Max()),
                              core::TableWriter::Num(report.batch_size.Mean(), 1),
                              core::TableWriter::Num(report.queue_depth.Mean(), 1),
                              search.max_qps > 0.0 ? Qps(search.max_qps) : "n/a"});
            }
        }
    }
    std::cout << table.ToString();
    std::cout << "(n/a: the capacity search needs a sustained "
              << Qps(serve::kCapacityFloorQps)
              << " qps floor, and fixed(32) never\n"
                 " fills a batch within the "
              << SloMs()
              << " ms SLO at that rate, so waiting time alone\n"
                 " blows the p99 budget — the tail-latency case for dynamic "
                 "batching.)\n";
}

}  // namespace
}  // namespace dgnn

int
main()
{
    using namespace dgnn;

    std::cout << "DGNN online-serving latency characterization (simulated "
                 "Xeon Gold 6226R + RTX A6000)\n"
              << "Requests per sweep: " << kRequests
              << "; arrival process: Poisson (seed " << kArrivalSeed
              << "); SLO: p99 <= " << SloMs() << " ms\n"
              << "Capacity probes: " << serve::kCapacityProbeRequests
              << " Poisson requests, sustained at >= "
              << Qps(100.0 * serve::kCapacityKeepUpShare)
              << "% of the probe's offered rate\n";

    const auto wikipedia = bench::WikipediaDataset();
    const auto reddit = bench::RedditDataset();
    const auto lastfm = bench::LastFmDataset();

    models::Tgn tgn(wikipedia, models::TgnConfig{});
    models::Tgat tgat(reddit, models::TgatConfig{});
    models::Jodie jodie(lastfm, models::JodieConfig{});

    struct Row {
        const char* name;
        double serial_qps = 0.0;
        double pipelined_qps = 0.0;
    };
    Row rows[3] = {{"TGN"}, {"TGAT"}, {"JODIE"}};

    SweepModel("TGN / wikipedia-like", tgn, 4000.0, rows[0].serial_qps,
               rows[0].pipelined_qps);
    SweepModel("TGAT / reddit-like", tgat, 4000.0, rows[1].serial_qps,
               rows[1].pipelined_qps);
    SweepModel("JODIE / lastfm-like", jodie, 4000.0, rows[2].serial_qps,
               rows[2].pipelined_qps);

    bench::Banner("Pipelined vs serial sustained QPS (hybrid, timeout policy)",
                  "the overlap lever of arXiv:1709.05061 applied to serving");
    core::TableWriter summary(
        {"model", "serial maxQPS", "pipelined maxQPS", "speedup", "verdict"});
    for (const Row& row : rows) {
        const double speedup =
            row.serial_qps > 0.0 ? row.pipelined_qps / row.serial_qps : 0.0;
        summary.AddRow({row.name, Qps(row.serial_qps), Qps(row.pipelined_qps),
                        core::TableWriter::Num(speedup, 2) + "x",
                        row.pipelined_qps > row.serial_qps ? "pipelined wins"
                                                           : "no gain"});
    }
    std::cout << summary.ToString();
    return 0;
}
