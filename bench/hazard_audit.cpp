/// The hazard audit — the golden clean-run reports of the happens-before
/// checker (src/analysis/). Two sections, both deterministic:
///
///   * Clean-run audit: every gauntlet scenario x model (TGN/TGAT/JODIE,
///     hybrid) x executor (serial/pipelined) served with an
///     analysis::HazardChecker attached. Each cell must come back CLEAN;
///     the concurrency-structure counters (ops, accesses, events, waits)
///     are part of the golden text, so a sync edge silently disappearing
///     from an executor shows up as a counter drift even while the run
///     stays hazard-free.
///   * Mutation wall: the synthetic double-buffered pipeline
///     (analysis::RunMutatedPipeline) with each sync edge deleted in turn.
///     Every mutation must be detected with its expected hazard kind — the
///     checker's own regression fixture.
///
/// The text summary and BENCH_hazard_audit.json, which carries the same
/// verdicts machine-readably, are byte-checked against docs/expected/ by
/// the `hazard_audit_diff` golden test; scripts/assert_bench_hazard_audit.py
/// then checks every verdict in the fresh JSON.

#include <iostream>
#include <string>
#include <vector>

#include "analysis/hazard_checker.hpp"
#include "analysis/sync_mutations.hpp"
#include "bench_common.hpp"
#include "core/bench_json_writer.hpp"
#include "models/jodie.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"
#include "scenario/scenario.hpp"
#include "serve/server.hpp"

namespace dgnn {
namespace {

constexpr uint64_t kSeed = 1009;
constexpr double kBaseQps = 20000.0;
constexpr int64_t kServeBatch = 64;
constexpr sim::SimTime kBatchTimeoutUs = 5000.0;
constexpr int64_t kRequests = 512;

std::string
Verdict(const analysis::HazardReport& report)
{
    return report.Clean() ? "CLEAN" : "HAZARDOUS";
}

int64_t
AuditModel(const std::string& model_name, models::DgnnModel& model,
           const std::vector<scenario::Scenario>& scenarios,
           const data::InteractionDataset& dataset, int64_t n,
           core::BenchJsonWriter& json)
{
    bench::Banner("Hazard audit: " + model_name + " (hybrid)",
                  "happens-before check of every gauntlet serving cell");

    const int64_t capacity = dataset.NumNodes() / 4 * model.CacheRowBytes();

    int64_t dirty_cells = 0;
    core::TableWriter table({"scenario", "executor", "ops", "reads", "writes",
                             "resources", "events", "stream waits",
                             "host waits", "syncs", "hazards", "verdict"});
    for (const scenario::Scenario& s : scenarios) {
        const std::vector<serve::Request> requests =
            scenario::GenerateRequests(s, dataset, n);
        for (const serve::ExecutorKind kind :
             {serve::ExecutorKind::kSerial, serve::ExecutorKind::kPipelined}) {
            // Fresh session per cell, like the gauntlet: cache warmth must
            // not leak across scenarios.
            cache::DeviceCacheConfig cache_config;
            cache_config.capacity_bytes = capacity;
            cache_config.eviction = cache::EvictionPolicy::kLru;
            serve::ModelSession session(model, sim::ExecMode::kHybrid,
                                        /*num_neighbors=*/10, cache_config);
            serve::TimeoutPolicy policy(kServeBatch, kBatchTimeoutUs);
            analysis::HazardChecker checker;
            serve::ServerOptions options;
            options.executor = kind;
            options.runtime_observer = &checker;

            (void)serve::ServeRequests(session, policy, requests, options);
            const analysis::HazardReport report = checker.Report();
            if (!report.Clean()) {
                ++dirty_cells;
            }

            const auto num = [](int64_t v) {
                return core::TableWriter::Num(static_cast<double>(v), 0);
            };
            table.AddRow({s.name, serve::ToString(kind), num(report.ops),
                          num(report.reads), num(report.writes),
                          num(report.resources), num(report.events_recorded),
                          num(report.stream_waits), num(report.host_waits),
                          num(report.synchronizes),
                          num(static_cast<int64_t>(report.hazards.size())),
                          Verdict(report)});

            report.AppendJsonRecord(json, {{"section", "clean_run"},
                                           {"scenario", s.name},
                                           {"model", model_name},
                                           {"executor", serve::ToString(kind)}});
        }
    }
    std::cout << table.ToString();
    return dirty_cells;
}

int64_t
MutationSection(core::BenchJsonWriter& json)
{
    bench::Banner("Mutation wall",
                  "each deleted sync edge must surface its hazard");

    constexpr uint64_t kMutationSeed = 101;
    const std::vector<analysis::SyncEdge> edges = {
        analysis::SyncEdge::kNone, analysis::SyncEdge::kInputFence,
        analysis::SyncEdge::kComputeFence, analysis::SyncEdge::kThrottleWait,
        analysis::SyncEdge::kFinalDrain};

    int64_t missed = 0;
    core::TableWriter table(
        {"dropped edge", "hazards", "occurrences", "detected", "first hazard"});
    for (const analysis::SyncEdge edge : edges) {
        const analysis::HazardReport report =
            analysis::RunMutatedPipeline(edge, kMutationSeed);
        const bool expect_clean = edge == analysis::SyncEdge::kNone;
        const bool detected = !report.Clean();
        if (detected == expect_clean) {
            ++missed;
        }
        std::string first = "-";
        if (!report.hazards.empty()) {
            first = std::string(analysis::ToString(report.hazards[0].kind)) +
                    " on " + report.hazards[0].resource;
        }
        table.AddRow(
            {analysis::ToString(edge),
             core::TableWriter::Num(static_cast<double>(report.hazards.size()),
                                    0),
             core::TableWriter::Num(
                 static_cast<double>(report.HazardOccurrences()), 0),
             expect_clean ? (detected ? "FALSE POSITIVE" : "clean (expected)")
                          : (detected ? "yes" : "MISSED"),
             first});

        report.AppendJsonRecord(
            json, {{"section", "mutation"},
                   {"dropped_edge", analysis::ToString(edge)}});
    }
    std::cout << table.ToString();
    return missed;
}

}  // namespace
}  // namespace dgnn

int
main()
{
    using namespace dgnn;

    const int64_t n = kRequests;
    std::cout << "DGNN hazard audit (simulated Xeon Gold 6226R + RTX A6000)\n"
              << "Vector-clock happens-before check; " << n
              << " requests per cell, base rate "
              << static_cast<int64_t>(kBaseQps) << " qps, timeout("
              << kServeBatch << ","
              << static_cast<int64_t>(kBatchTimeoutUs) / 1000
              << "ms) batching, seed " << kSeed << "\n";

    const auto dataset = data::GenerateInteractions(bench::GauntletSpec());
    const std::vector<scenario::Scenario> scenarios =
        scenario::GauntletScenarios(kBaseQps, n, dataset.NumNodes(), kSeed);

    models::Tgn tgn(dataset, bench::kServingTgn);
    models::Tgat tgat(dataset, models::TgatConfig{});
    models::Jodie jodie(dataset, models::JodieConfig{});

    core::BenchJsonWriter json("hazard_audit");
    int64_t dirty_cells = 0;
    dirty_cells += AuditModel("TGN", tgn, scenarios, dataset, n, json);
    dirty_cells += AuditModel("TGAT", tgat, scenarios, dataset, n, json);
    dirty_cells += AuditModel("JODIE", jodie, scenarios, dataset, n, json);

    const int64_t mutation_misses = MutationSection(json);

    std::cout << "\nverdict: "
              << (dirty_cells == 0 && mutation_misses == 0
                      ? "all serving cells hazard-free; every mutation "
                        "detected"
                      : "HAZARD GATE FAILED — investigate")
              << "\n";

    json.WriteFile("BENCH_hazard_audit.json");
    std::cout << "json: BENCH_hazard_audit.json (" << json.RecordCount()
              << " records)\n";
    return dirty_cells == 0 && mutation_misses == 0 ? 0 : 1;
}
