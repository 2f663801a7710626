/// The serving observability bench — online bottleneck attribution across
/// the gauntlet's adversarial regimes. The paper's Fig 6/7 decompose
/// inference offline, one phase breakdown per (model, dataset); this
/// harness produces the same taxonomy ONLINE, per dispatched batch, from
/// the span traces the obs/ layer records while the serving loop runs.
/// The serving knobs are deliberately latency-oriented (small batches,
/// tight flush timeout, moderate load) so the regimes separate instead of
/// everything drowning in queueing:
///
///   * TGN under benign arrivals is HOST-dominated — per-batch sampling
///     and batch build dwarf its KB-scale PCIe traffic (the device cache
///     keeps recurrent state resident);
///   * TGAT on the same stream is HOST-dominated too — its feature tables
///     are uploaded once, before serving, so a batch moves only its
///     sampled indices (KB-scale) while its uniform temporal sampling runs
///     on the CPU: the paper's TGAT finding (Fig 7(e-h), sampling
///     dominates);
///   * flash-crowd arrivals drive EVERY model queueing-dominated — the
///     burst outruns service capacity and wait time swamps all stages.
///
/// Four sections: span ledger (conservation check on one cell, and how
/// long the cell's copies and kernels ran beside their spans),
/// attribution sweep (scenario x model x executor), windowed series for
/// the flash crowd (the scalar report averages the burst away; the window
/// series shows the regime transition), and a Prometheus exposition of
/// one run's registry. Two deterministic outputs, this text summary and
/// BENCH_serving_observability.json, both byte-checked against
/// docs/expected/ by the `serving_observability_diff` golden test.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/bench_json_writer.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"
#include "obs/observability.hpp"
#include "scenario/scenario.hpp"
#include "serve/server.hpp"
#include "support/check.hpp"

namespace dgnn {
namespace {

constexpr uint64_t kSeed = 1009;
constexpr double kBaseQps = 2500.0;
constexpr int64_t kServeBatch = 8;
constexpr sim::SimTime kBatchTimeoutUs = 200.0;
constexpr sim::SimTime kWindowUs = 25000.0;
constexpr int64_t kRequests = 1024;

/// The gauntlet's stream with feature-heavy attributed edges: at dim 320
/// TGAT's resident feature tables are MB-scale, but they are uploaded once
/// before serving, so its per-batch h2d stays index-scale like TGN's.
data::InteractionSpec
ObservabilityDatasetSpec()
{
    data::InteractionSpec spec = bench::GauntletSpec();
    spec.name = "obs";
    spec.edge_feature_dim = 320;
    return spec;
}

std::string
Pct(double pct)
{
    return core::TableWriter::Num(pct, 1) + "%";
}

/// One sweep cell's attribution outcome, kept for the verdict section.
struct CellResult {
    std::string scenario;
    std::string model;
    std::string executor;
    obs::BottleneckCategory dominant = obs::BottleneckCategory::kQueueing;
    double conservation_err_us = 0.0;
};

/// Runs one (model, scenario, executor) cell with a fresh session and a
/// fresh observer; cache warmth and metrics must not leak across cells.
serve::ServingReport
RunCell(models::DgnnModel& model, const scenario::Scenario& s,
        const data::InteractionDataset& dataset, serve::ExecutorKind kind,
        int64_t n, obs::ServingObservability& observability)
{
    cache::DeviceCacheConfig cache_config;
    cache_config.capacity_bytes =
        dataset.NumNodes() / 4 * model.CacheRowBytes();
    serve::ModelSession session(model, sim::ExecMode::kHybrid,
                                /*num_neighbors=*/10, cache_config);
    serve::TimeoutPolicy policy(kServeBatch, kBatchTimeoutUs);
    serve::ServerOptions options;
    options.executor = kind;
    options.observer = &observability;
    return serve::ServeRequests(session, policy,
                                scenario::GenerateRequests(s, dataset, n), options);
}

void
SpanLedgerSection(models::DgnnModel& model,
                  const std::vector<scenario::Scenario>& scenarios,
                  const data::InteractionDataset& dataset, int64_t n)
{
    bench::Banner("Span ledger: TGN, poisson/recurrent, pipelined",
                  "per-request span decomposition + conservation invariant");

    obs::ServingObservability observability;
    const serve::ServingReport report = RunCell(
        model, scenarios.front(), dataset, serve::ExecutorKind::kPipelined, n,
        observability);

    const obs::RequestTimeline& timeline = observability.Timeline();
    core::TableWriter table({"span", "mean (us)", "share"});
    double mean_total = 0.0;
    for (int k = 0; k < obs::kNumSpanKinds; ++k) {
        mean_total += timeline.MeanSpanUs(static_cast<obs::SpanKind>(k));
    }
    for (int k = 0; k < obs::kNumSpanKinds; ++k) {
        const auto kind = static_cast<obs::SpanKind>(k);
        const double mean = timeline.MeanSpanUs(kind);
        table.AddRow({obs::ToString(kind), core::TableWriter::Num(mean, 2),
                      Pct(mean_total > 0.0 ? 100.0 * mean / mean_total
                                           : 0.0)});
    }
    std::cout << table.ToString();
    std::cout << "requests traced: " << timeline.Count() << " of "
              << report.requests << ", mean spans sum "
              << core::TableWriter::Num(mean_total, 2)
              << " us = mean latency "
              << core::TableWriter::Num(report.latency.Mean(), 2)
              << " us, worst conservation residual "
              << (timeline.MaxConservationErrorUs() <= 1e-6 ? "<= 1e-6"
                                                            : "EXCEEDS 1e-6")
              << " us\n";

    // The span chain counts device work that ran under a later host stage
    // as host; the busy times say how long the copies and kernels ran.
    core::TableWriter busy_table(
        {"device stage", "span per batch (us)", "busy per batch (us)"});
    for (const char* stage : {"h2d", "compute"}) {
        const obs::Labels labels = {{"model", report.model},
                                    {"mode", report.mode},
                                    {"policy", report.policy},
                                    {"executor", report.executor},
                                    {"stage", stage}};
        const obs::MetricsRegistry& metrics = observability.Metrics();
        busy_table.AddRow(
            {stage,
             core::TableWriter::Num(
                 metrics.Summary("dgnn_serve_stage_us", labels)->Mean(), 2),
             core::TableWriter::Num(
                 metrics.Summary("dgnn_serve_busy_us", labels)->Mean(), 2)});
    }
    std::cout << busy_table.ToString();
}

void
SweepModel(const std::string& model_name, models::DgnnModel& model,
           const std::vector<scenario::Scenario>& scenarios,
           const data::InteractionDataset& dataset, int64_t n,
           core::BenchJsonWriter& json, std::vector<CellResult>& cells)
{
    bench::Banner("Attribution sweep: " + model_name + " (hybrid)",
                  "per-batch Fig 6/7 taxonomy, online, per scenario x "
                  "executor");

    core::TableWriter table({"scenario", "executor", "batches", "queueing",
                             "host", "transfer", "compute", "dominant",
                             "batch votes", "p99 (ms)"});
    for (const scenario::Scenario& s : scenarios) {
        for (const serve::ExecutorKind kind :
             {serve::ExecutorKind::kSerial, serve::ExecutorKind::kPipelined}) {
            obs::ServingObservability observability;
            const serve::ServingReport report =
                RunCell(model, s, dataset, kind, n, observability);

            const obs::AttributionSummary summary =
                observability.Attribution().Summary();
            const obs::BottleneckCategory dominant = summary.DominantByTime();
            const double residual =
                observability.Timeline().MaxConservationErrorUs();
            cells.push_back({s.name, model_name, serve::ToString(kind),
                             dominant, residual});

            using Cat = obs::BottleneckCategory;
            table.AddRow(
                {s.name, serve::ToString(kind),
                 core::TableWriter::Num(
                     static_cast<double>(report.batches), 0),
                 Pct(summary.TimeSharePct(Cat::kQueueing)),
                 Pct(summary.TimeSharePct(Cat::kHost)),
                 Pct(summary.TimeSharePct(Cat::kTransfer)),
                 Pct(summary.TimeSharePct(Cat::kCompute)),
                 obs::ToString(dominant),
                 Pct(summary.BatchSharePct(summary.Dominant())) +
                     std::string(" ") + obs::ToString(summary.Dominant()),
                 bench::Ms(report.latency.P99())});

            json.BeginRecord();
            json.Field("section", "sweep");
            json.Field("scenario", s.name);
            json.Field("model", model_name);
            json.Field("executor", serve::ToString(kind));
            json.Field("dominant", obs::ToString(dominant));
            json.Field("requests", report.requests);
            json.Field("batches", report.batches);
            json.Field("queueing_pct", summary.TimeSharePct(Cat::kQueueing),
                       2);
            json.Field("host_pct", summary.TimeSharePct(Cat::kHost), 2);
            json.Field("transfer_pct", summary.TimeSharePct(Cat::kTransfer),
                       2);
            json.Field("compute_pct", summary.TimeSharePct(Cat::kCompute), 2);
            json.Field("p50_ms", report.latency.P50() / 1000.0, 4);
            json.Field("p99_ms", report.latency.P99() / 1000.0, 4);
            json.Field("cache_hit_rate", report.cache_stats.HitRate(), 4);
            json.Field("span_residual_us", residual, 9);
        }
    }
    std::cout << table.ToString();
}

void
WindowedSection(models::DgnnModel& model,
                const std::vector<scenario::Scenario>& scenarios,
                const data::InteractionDataset& dataset, int64_t n,
                core::BenchJsonWriter& json,
                obs::ServingObservability& observability)
{
    const auto it = std::find_if(
        scenarios.begin(), scenarios.end(), [](const scenario::Scenario& s) {
            return s.name == "flash-crowd/pref-burst";
        });
    DGNN_CHECK(it != scenarios.end(),
               "flash-crowd/pref-burst missing from the gauntlet registry");

    bench::Banner(
        "Windowed series: TGN, flash-crowd/pref-burst, pipelined",
        "fixed-interval QPS/p50/p99/hit-rate series through the burst");

    RunCell(model, *it, dataset, serve::ExecutorKind::kPipelined, n,
            observability);

    core::TableWriter table({"window", "start (ms)", "arrivals", "qps",
                             "p50 (ms)", "p99 (ms)", "hit rate", "h2d (MB)"});
    for (const obs::WindowStats& w : observability.Windows().Windows()) {
        char label[16];
        std::snprintf(label, sizeof(label), "w%02lld",
                      static_cast<long long>(w.index));
        table.AddRow({label, core::TableWriter::Num(w.start_us / 1000.0, 0),
                      core::TableWriter::Num(
                          static_cast<double>(w.arrivals), 0),
                      core::TableWriter::Num(w.Qps(kWindowUs), 0),
                      bench::Ms(w.latency.P50()), bench::Ms(w.latency.P99()),
                      Pct(100.0 * w.HitRate()), bench::Mb(w.h2d_bytes)});

        json.BeginRecord();
        json.Field("section", "window");
        json.Field("scenario", it->name);
        json.Field("model", "TGN");
        json.Field("executor", "pipelined");
        json.Field("window", label);
        json.Field("arrivals", w.arrivals);
        json.Field("completions", w.completions);
        json.Field("qps", w.Qps(kWindowUs), 1);
        json.Field("p50_ms", w.latency.P50() / 1000.0, 4);
        json.Field("p99_ms", w.latency.P99() / 1000.0, 4);
        json.Field("cache_hit_rate", w.HitRate(), 4);
        json.Field("h2d_mb",
                   static_cast<double>(w.h2d_bytes) / (1024.0 * 1024.0), 4);
    }
    std::cout << table.ToString();
}

void
PrometheusSection(const obs::ServingObservability& observability)
{
    bench::Banner("Prometheus exposition: the windowed run's registry",
                  "obs::MetricsRegistry::PrometheusText(), verbatim");
    std::cout << observability.Metrics().PrometheusText();
}

void
VerdictSection(const std::vector<CellResult>& cells)
{
    bench::Banner("Attribution verdict",
                  "do the regimes separate, and does conservation hold?");

    std::set<std::string> regimes;
    double worst_residual = 0.0;
    bool flash_queueing = true;
    bool tgat_benign_host = true;
    bool tgn_benign_host = true;
    for (const CellResult& cell : cells) {
        regimes.insert(obs::ToString(cell.dominant));
        worst_residual = std::max(worst_residual, cell.conservation_err_us);
        const bool flash = cell.scenario.rfind("flash-crowd/", 0) == 0;
        if (flash && cell.dominant != obs::BottleneckCategory::kQueueing) {
            flash_queueing = false;
        }
        if (!flash && cell.model == "TGAT" &&
            cell.dominant != obs::BottleneckCategory::kHost) {
            tgat_benign_host = false;
        }
        if (!flash && cell.model == "TGN" &&
            cell.dominant != obs::BottleneckCategory::kHost) {
            tgn_benign_host = false;
        }
    }

    std::string regime_list;
    for (const std::string& r : regimes) {
        regime_list += (regime_list.empty() ? "" : ", ") + r;
    }
    std::cout << "distinct dominant regimes: " << regimes.size() << " ("
              << regime_list << ")"
              << (regimes.size() >= 2 ? "" : " — TOO FEW, investigate")
              << "\n";
    std::cout << "flash-crowd cells queueing-dominated on every model: "
              << (flash_queueing ? "yes" : "NO — investigate") << "\n";
    std::cout << "TGAT (CPU sampling, resident features) host-dominated on "
                 "non-flash arrivals: "
              << (tgat_benign_host ? "yes" : "NO — investigate") << "\n";
    std::cout << "TGN (cached KB-scale state) host-dominated on non-flash "
                 "arrivals: "
              << (tgn_benign_host ? "yes" : "NO — investigate") << "\n";
    std::cout << "span conservation residual <= 1e-6 us on every cell: "
              << (worst_residual <= 1e-6 ? "yes" : "NO — investigate")
              << "\n";
}

}  // namespace
}  // namespace dgnn

int
main()
{
    using namespace dgnn;

    const int64_t n = kRequests;
    std::cout << "DGNN serving observability (simulated Xeon Gold 6226R + "
                 "RTX A6000)\n"
              << "Online span tracing + bottleneck attribution; " << n
              << " requests per cell, base rate "
              << static_cast<int64_t>(kBaseQps) << " qps, timeout("
              << kServeBatch << "," << static_cast<int64_t>(kBatchTimeoutUs)
              << "us) batching, " << static_cast<int64_t>(kWindowUs) / 1000
              << "ms windows, seed " << kSeed << "\n";

    const auto dataset =
        data::GenerateInteractions(ObservabilityDatasetSpec());
    const std::vector<scenario::Scenario> scenarios =
        scenario::GauntletScenarios(kBaseQps, n, dataset.NumNodes(), kSeed);

    models::Tgn tgn(dataset, bench::kServingTgn);
    models::Tgat tgat(dataset, models::TgatConfig{});

    SpanLedgerSection(tgn, scenarios, dataset, n);

    core::BenchJsonWriter json("serving_observability");
    std::vector<CellResult> cells;
    SweepModel("TGN", tgn, scenarios, dataset, n, json, cells);
    SweepModel("TGAT", tgat, scenarios, dataset, n, json, cells);

    obs::ObservabilityOptions window_options;
    window_options.window_us = kWindowUs;
    obs::ServingObservability windowed(window_options);
    WindowedSection(tgn, scenarios, dataset, n, json, windowed);
    PrometheusSection(windowed);

    VerdictSection(cells);

    json.WriteFile("BENCH_serving_observability.json");
    std::cout << "\njson: BENCH_serving_observability.json ("
              << json.RecordCount() << " records)\n";
    return 0;
}
