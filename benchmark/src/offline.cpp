/// The offline suite: the paper's eight models, each run once CPU-only and
/// once on the CPU+GPU hybrid through DgnnModel::RunInference with full
/// numerics (numeric_cap = 0, because the cap is not cost-neutral). Serve,
/// cache, dispatch and shard are bypassed.

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "data/molecular_gen.hpp"
#include "data/snapshot_seq_gen.hpp"
#include "data/social_evolution_gen.hpp"
#include "data/temporal_interactions.hpp"
#include "data/traffic_gen.hpp"
#include "models/astgnn.hpp"
#include "models/dyrep.hpp"
#include "models/evolvegcn.hpp"
#include "models/jodie.hpp"
#include "models/ldg.hpp"
#include "models/moldgnn.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"

namespace dgnn::benchmark {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr sim::ExecMode kModes[] = {sim::ExecMode::kCpuOnly,
                                    sim::ExecMode::kHybrid};
constexpr const char* kModeNames[] = {"cpu", "hybrid"};

/// The datasets of the suite, each reseeded from the run seed.
struct Datasets {
    data::InteractionDataset wikipedia;
    data::PointProcessDataset social;
    data::SnapshotDataset bitcoin;
    data::TrafficDataset pems;
    data::MolecularDataset iso17;
};

Datasets
GenerateDatasets(uint64_t seed)
{
    data::InteractionSpec wikipedia = data::InteractionSpec::WikipediaLike(16384);
    wikipedia.seed = seed;
    data::PointProcessSpec social = data::PointProcessSpec::SocialEvolutionLike();
    social.num_events = 1500;
    social.seed = seed + 1;
    data::SnapshotSpec bitcoin = data::SnapshotSpec::BitcoinAlphaLike();
    bitcoin.seed = seed + 2;
    data::TrafficSpec pems = data::TrafficSpec::PemsLike();
    pems.seed = seed + 3;
    data::MolecularSpec iso17 = data::MolecularSpec::Iso17Like();
    iso17.num_frames = 2048;
    iso17.seed = seed + 4;
    return Datasets{data::GenerateInteractions(wikipedia),
                    data::GeneratePointProcess(social),
                    data::GenerateSnapshots(bitcoin),
                    data::GenerateTraffic(pems), data::GenerateMolecular(iso17)};
}

/// One suite entry: the model (built fresh per run, since inference
/// advances model state) and its Fig 7/8 run configuration.
struct Entry {
    std::string id;
    std::function<std::unique_ptr<models::DgnnModel>()> make;
    int64_t batch_size;
    int64_t num_neighbors;
    int64_t max_events;  ///< 0 = the whole dataset
};

/// A factory building a fresh Model with a default Config over @p dataset
/// (borrowed).
template <typename Model, typename Config, typename Dataset>
std::function<std::unique_ptr<models::DgnnModel>()>
Factory(const Dataset& dataset)
{
    return [&dataset] { return std::make_unique<Model>(dataset, Config{}); };
}

std::vector<Entry>
Suite(const Datasets& d)
{
    using namespace models;
    return {
        {"tgat", Factory<Tgat, TgatConfig>(d.wikipedia), 200, 20, 2000},
        {"tgn", Factory<Tgn, TgnConfig>(d.wikipedia), 200, 10, 2000},
        {"jodie", Factory<Jodie, JodieConfig>(d.wikipedia), 512, 0, 4096},
        {"dyrep", Factory<DyRep, DyRepConfig>(d.social), 1, 5, 1000},
        {"ldg", Factory<Ldg, LdgConfig>(d.social), 1, 5, 1000},
        {"evolvegcn_o", Factory<EvolveGcn, EvolveGcnConfig>(d.bitcoin), 1, 20, 0},
        {"astgnn", Factory<Astgnn, AstgnnConfig>(d.pems), 16, 0, 128},
        {"moldgnn", Factory<MolDgnn, MolDgnnConfig>(d.iso17), 256, 20, 0},
    };
}

double
Mean(const std::vector<double>& values)
{
    double sum = 0.0;
    for (const double v : values) {
        sum += v;
    }
    return sum / static_cast<double>(values.size());
}

}  // namespace

RepResult
RunOfflineRep(const RepConfig& config)
{
    RepResult result;
    HostTrace* trace = config.trace;

    CalibratedClock clock;
    std::optional<Datasets> datasets;
    std::vector<Entry> suite;
    // [entry][mode]: every run gets a model object of its own.
    std::vector<std::array<std::unique_ptr<models::DgnnModel>, 2>> instances;
    {
        Scope setup(trace, "bench", "setup");
        {
            Scope span(trace, "data", "generate datasets");
            datasets.emplace(GenerateDatasets(config.seed));
        }
        Scope span(trace, "models", "construct models");
        suite = Suite(*datasets);
        for (const Entry& e : suite) {
            instances.push_back({e.make(), e.make()});
        }
    }
    clock.Lap();
    result.setup_s = clock.Take();

    std::vector<std::array<models::RunResult, 2>> runs(suite.size());
    std::vector<int64_t> hybrid_launches(suite.size(), 0);
    {
        Scope measure(trace, "bench", "measure");
        for (size_t i = 0; i < suite.size(); ++i) {
            const Entry& e = suite[i];
            for (size_t m = 0; m < 2; ++m) {
                models::RunConfig run;
                run.mode = kModes[m];
                run.batch_size = e.batch_size;
                run.num_neighbors = e.num_neighbors;
                run.max_events = config.smoke ? e.batch_size : e.max_events;
                run.numeric_cap = 0;
                sim::Runtime runtime = models::MakeRuntime(kModes[m]);
                {
                    Scope span(trace, "models",
                               e.id + " " + kModeNames[m]);
                    runs[i][m] = instances[i][m]->RunInference(runtime, run);
                }
                if (kModes[m] == sim::ExecMode::kHybrid) {
                    for (const sim::TraceEvent& ev : runtime.GetTrace().Events()) {
                        hybrid_launches[i] += ev.kind == sim::EventKind::kKernel;
                    }
                }
            }
            clock.Lap();
        }
    }
    result.host_s = clock.Take();

    std::vector<double> cpu_ms;
    std::vector<double> gpu_ms;
    for (size_t i = 0; i < suite.size(); ++i) {
        const models::RunResult& cpu = runs[i][0];
        const models::RunResult& gpu = runs[i][1];
        result.attempted += 2;
        result.Check(cpu.output_checksum == gpu.output_checksum, 2,
                     suite[i].id + ": CPU-only and hybrid outputs differ");
        cpu_ms.push_back(cpu.total_us / 1000.0);
        gpu_ms.push_back(gpu.total_us / 1000.0);
        for (const models::RunResult* r : {&cpu, &gpu}) {
            const std::vector<double> values = {
                r->total_us, r->output_checksum,
                static_cast<double>(r->iterations),
                static_cast<double>(r->h2d_bytes),
                static_cast<double>(r->d2h_bytes)};
            result.fingerprint.insert(result.fingerprint.end(), values.begin(),
                                      values.end());
        }
    }

    // Each model's inference run is one unit of work: "light" is the
    // CPU-only system, "heavy" the CPU+GPU hybrid.
    MetricSet& sim = result.sim;
    sim.Add("p50_ms.light", Quantile(cpu_ms, 0.50), "ms");
    sim.Add("mean_ms.light", Mean(cpu_ms), "ms");
    sim.Add("p50_ms.heavy", Quantile(gpu_ms, 0.50), "ms");
    sim.Add("p99_ms.heavy", Quantile(gpu_ms, 0.99), "ms");
    sim.Add("p999_ms.heavy", Quantile(gpu_ms, 0.999), "ms");
    sim.Add("mean_ms.heavy", Mean(gpu_ms), "ms");
    sim.Add("capacity_qps", 1000.0 / Mean(gpu_ms), "1/s");

    if (trace != nullptr) {
        MetricSet& m = result.layers;
        m.Add("data.gen_s", trace->LayerSeconds("data"), "s");
        double h2d = 0.0;
        double d2h = 0.0;
        int64_t launches = 0;
        for (size_t i = 0; i < suite.size(); ++i) {
            const std::string& id = suite[i].id;
            const models::RunResult& gpu = runs[i][1];
            m.Add("models." + id + ".gpu_ms", gpu_ms[i], "ms");
            m.Add("models." + id + ".cpu_ms", cpu_ms[i], "ms");
            m.Add("models." + id + ".host_s",
                  trace->SpanSeconds(id + " cpu") +
                      trace->SpanSeconds(id + " hybrid"),
                  "s");
            m.Add("sim." + id + ".h2d_mb",
                  static_cast<double>(gpu.h2d_bytes) / kMiB, "MB");
            m.Add("sim." + id + ".transfer_ms", gpu.transfer_time_us / 1000.0,
                  "ms");
            m.Add("sim." + id + ".gpu_util_pct", gpu.compute_utilization_pct,
                  "%");
            h2d += static_cast<double>(gpu.h2d_bytes);
            d2h += static_cast<double>(gpu.d2h_bytes);
            launches += hybrid_launches[i];
        }
        m.Add("sim.h2d_mb", h2d / kMiB, "MB");
        m.Add("sim.d2h_mb", d2h / kMiB, "MB");
        m.Add("sim.launches", static_cast<double>(launches), "count");
    }
    return result;
}

}  // namespace dgnn::benchmark
