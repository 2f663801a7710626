/// The fusion + hybrid-dispatch ablation — the launch-overhead killer
/// (src/sim/fusion.hpp + src/dispatch/ over the serving stack). Two sweeps:
///
///   Table A  launch-overhead ablation: per model (TGN, TGAT, JODIE) and
///            batch size, the captured serving profile with and without the
///            registered fusion chains collapsed — launches, the per-batch
///            launch+submit overhead each sequence pays, and the reduction
///            factor. JODIE's per-t-batch 4-launch RNN chain is the paper's
///            launch-bound cell (Fig 7d, GPU util 1.5-2.5%): fusing it cuts
///            launch overhead 4x.
///
///   Table B  serving sweep: model x offered Poisson rate x dispatch mode
///            (static-cpu / static-gpu / static-gpu-fused / per-batch
///            hybrid) on the serial executor, uncached sessions. Reports
///            sustained QPS, tail latency, and the placement mix the hybrid
///            dispatcher chose. The hybrid row must sustain >= every static
///            row at the same cell — predict-then-place never loses to a
///            fixed placement.
///
/// The text summary and BENCH_fusion_dispatch.json (the perf-trajectory
/// record) are byte-checked against docs/expected/ by the
/// `fusion_dispatch_diff` golden test;
/// scripts/assert_bench_fusion_dispatch.py then checks the two acceptance
/// claims in the fresh JSON.

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/bench_json_writer.hpp"
#include "dispatch/dispatcher.hpp"
#include "models/fusion_catalog.hpp"
#include "models/jodie.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"
#include "scenario/scenario.hpp"
#include "serve/batch_policy.hpp"
#include "serve/server.hpp"
#include "sim/runtime.hpp"

namespace dgnn {
namespace {

constexpr uint64_t kSeed = 1013;
constexpr int64_t kServeBatch = 64;
constexpr sim::SimTime kBatchTimeoutUs = 3000.0;
constexpr int64_t kNumNeighbors = 10;
constexpr int64_t kRequests = 512;

data::InteractionSpec
FusionDatasetSpec()
{
    // The hazard-audit dataset (recurrent repeat-talker stream) — the same
    // stream the gauntlet and shard sweeps serve, so cells are comparable
    // across benches.
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

void
PrintCatalog()
{
    bench::Banner("Registered fusion chains",
                  "the launch-bound producer->consumer chains of Figs 6/7");
    core::TableWriter table({"model", "chain", "launches", "parts"});
    for (const models::FusionPlan& plan : models::FusionCatalog()) {
        std::string parts;
        for (const std::string& part : plan.parts) {
            if (!parts.empty()) {
                parts += " + ";
            }
            parts += part;
        }
        table.AddRow({plan.model, plan.chain,
                      std::to_string(plan.parts.size()), parts});
    }
    std::cout << table.ToString();
}

void
LaunchAblation(const std::vector<models::DgnnModel*>& model_list,
               core::BenchJsonWriter& json)
{
    bench::Banner(
        "Launch-overhead ablation: captured profile, fused vs unfused",
        "Fig 6/7 launch-bound cells — kernel launch + submit per batch");

    const sim::DeviceSpec gpu = sim::DeviceSpec::RtxA6000();
    const sim::RuntimeConfig runtime_defaults;
    const double per_launch_us =
        gpu.launch_overhead_us + runtime_defaults.submit_overhead_us;

    core::TableWriter table({"model", "batch", "launches", "fused launches",
                             "launch+submit us", "fused us", "reduction"});
    for (models::DgnnModel* model : model_list) {
        serve::ModelSession session(*model, sim::ExecMode::kHybrid,
                                    kNumNeighbors);
        for (const int64_t batch : {int64_t{4}, int64_t{64}, int64_t{256}}) {
            const serve::BatchProfile& unfused = session.Profile(batch);
            const serve::BatchProfile& fused = session.FusedProfile(batch);
            const auto launches = static_cast<int64_t>(unfused.kernels.size());
            const auto fused_launches =
                static_cast<int64_t>(fused.kernels.size());
            const double unfused_us =
                static_cast<double>(launches) * per_launch_us;
            const double fused_us =
                static_cast<double>(fused_launches) * per_launch_us;
            const double reduction = unfused_us / fused_us;

            table.AddRow({model->Name(), std::to_string(batch),
                          std::to_string(launches),
                          std::to_string(fused_launches),
                          core::TableWriter::Num(unfused_us, 1),
                          core::TableWriter::Num(fused_us, 1),
                          core::TableWriter::Num(reduction, 2) + "x"});

            json.BeginRecord();
            json.Field("table", "launch_ablation");
            json.Field("model", model->Name());
            json.Field("batch", std::to_string(batch));
            json.Field("launches", launches);
            json.Field("fused_launches", fused_launches);
            json.Field("launch_overhead_us", unfused_us, 1);
            json.Field("fused_launch_overhead_us", fused_us, 1);
            json.Field("launch_reduction", reduction, 2);
        }
    }
    std::cout << table.ToString();
}

std::string
PlacementMix(const serve::ServingReport& report)
{
    std::string mix;
    for (int i = 0; i < dispatch::kNumPlacements; ++i) {
        if (!mix.empty()) {
            mix += "/";
        }
        mix += std::to_string(report.placement_batches[static_cast<size_t>(i)]);
    }
    return mix;  // cpu/gpu/gpu-fused
}

void
ServingSweep(const std::vector<models::DgnnModel*>& model_list,
             const data::InteractionDataset& dataset, int64_t n,
             core::BenchJsonWriter& json)
{
    constexpr double kRates[] = {2000.0, 8000.0, 32000.0};
    constexpr dispatch::DispatchMode kModes[] = {
        dispatch::DispatchMode::kStaticCpu,
        dispatch::DispatchMode::kStaticGpu,
        dispatch::DispatchMode::kStaticGpuFused,
        dispatch::DispatchMode::kHybrid,
    };

    for (models::DgnnModel* model : model_list) {
        bench::Banner(
            "Hybrid dispatch serving sweep: " + model->Name() +
                " (serial, uncached)",
            "per-batch predict-then-place vs the static placements");

        core::TableWriter table({"offered qps", "mode", "sustained qps",
                                 "p50 ms", "p99 ms", "cpu/gpu/fused"});
        serve::ModelSession session(*model, sim::ExecMode::kHybrid,
                                    kNumNeighbors);
        for (const double rate : kRates) {
            scenario::Scenario s;
            s.name = "fusion-replay";
            s.poisson_qps = rate;
            s.poisson_seed = kSeed;
            const std::vector<serve::Request> requests =
                scenario::GenerateRequests(s, dataset, n);

            for (const dispatch::DispatchMode mode : kModes) {
                const dispatch::HybridDispatcher dispatcher(mode);

                serve::TimeoutPolicy policy(kServeBatch, kBatchTimeoutUs);
                serve::ServerOptions options;
                options.executor = serve::ExecutorKind::kSerial;
                options.dispatcher = &dispatcher;

                const serve::ServingReport report =
                    serve::ServeRequests(session, policy, requests, options);

                table.AddRow(
                    {core::TableWriter::Num(rate, 0),
                     dispatch::ToString(mode),
                     core::TableWriter::Num(report.achieved_qps, 1),
                     bench::Ms(report.latency.P50()),
                     bench::Ms(report.latency.P99()), PlacementMix(report)});

                json.BeginRecord();
                json.Field("table", "serving_sweep");
                json.Field("model", model->Name());
                json.Field("offered", core::TableWriter::Num(rate, 0));
                json.Field("mode", dispatch::ToString(mode));
                json.Field("requests", report.requests);
                json.Field("batches", report.batches);
                json.Field("achieved_qps", report.achieved_qps, 1);
                json.Field("p50_ms", report.latency.P50() / 1000.0, 3);
                json.Field("p99_ms", report.latency.P99() / 1000.0, 3);
                json.Field("cpu_batches", report.placement_batches[0]);
                json.Field("gpu_batches", report.placement_batches[1]);
                json.Field("fused_batches", report.placement_batches[2]);
            }
        }
        std::cout << table.ToString();
    }
}

}  // namespace
}  // namespace dgnn

int
main()
{
    using namespace dgnn;

    const int64_t n = kRequests;
    std::cout << "DGNN fusion + hybrid dispatch (simulated Xeon Gold 6226R "
                 "vs RTX A6000)\n"
              << "Registered-chain kernel fusion + per-batch "
                 "predict-then-place; "
              << n << " requests per serving cell, timeout(" << kServeBatch
              << "," << static_cast<int64_t>(kBatchTimeoutUs) / 1000
              << "ms) batching, seed " << kSeed << "\n";

    const auto dataset = data::GenerateInteractions(FusionDatasetSpec());

    models::Tgn tgn(dataset, models::TgnConfig{172, 64, 2, 11});
    models::Tgat tgat(dataset, models::TgatConfig{});
    models::Jodie jodie(dataset, models::JodieConfig{});
    const std::vector<models::DgnnModel*> model_list = {&tgn, &tgat, &jodie};

    core::BenchJsonWriter json("fusion_dispatch");
    PrintCatalog();
    LaunchAblation(model_list, json);
    ServingSweep(model_list, dataset, n, json);

    json.WriteFile("BENCH_fusion_dispatch.json");
    std::cout << "\njson: BENCH_fusion_dispatch.json (" << json.RecordCount()
              << " records)\n";
    return 0;
}
