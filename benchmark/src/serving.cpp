/// The four serving workloads: open-loop request streams served through
/// serve::ServeRequests (one device) or shard::ServeSharded (four), each at
/// a light and a heavy fixed rate, plus a capacity search. Arrival times are
/// generated before serving starts, so the generator is never late.

#include <array>
#include <cmath>
#include <deque>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/hazard_checker.hpp"
#include "bench.hpp"
#include "data/temporal_interactions.hpp"
#include "models/jodie.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"
#include "obs/attribution.hpp"
#include "obs/observability.hpp"
#include "scenario/scenario.hpp"
#include "serve/server.hpp"
#include "shard/sharded_server.hpp"

namespace dgnn::benchmark {
namespace {

constexpr int64_t kMaxBatch = 64;
constexpr sim::SimTime kBatchTimeoutUs = 5000.0;
constexpr sim::SimTime kSloUs = 20000.0;
/// A probe rate is sustained when its p99 meets the SLO and completions
/// keep pace with arrivals (no growing backlog).
constexpr double kKeepUpShare = 0.98;
/// The capacity search stops once the bracket is this tight.
constexpr double kCapacityResolution = 0.005;
constexpr int64_t kNumNeighbors = 10;
constexpr double kMiB = 1024.0 * 1024.0;

enum class ModelKind { kTgn, kJodie, kTgat };

struct ServingSpec {
    const char* name;
    ModelKind model;
    /// LRU device cache holding a quarter of the node state.
    bool cached;
    serve::ExecutorKind executor;
    /// Per-batch hybrid CPU/GPU/GPU-fused placement.
    bool dispatch;
    scenario::AccessKind access;
    /// 0 serves one device through ServeRequests; N > 0 serves N shards
    /// through ServeSharded.
    int32_t shards;
    /// Fixed offered rates; the heavy one is about 80% of capacity.
    double light_qps;
    double heavy_qps;
};

// Why each workload exists is recorded in BENCHMARK.json and
// benchmark/README.md: each stresses a different layer, and each layer
// change has a workload that bypasses it.
const std::vector<ServingSpec>&
Specs()
{
    using scenario::AccessKind;
    using serve::ExecutorKind;
    static const std::vector<ServingSpec> specs = {
        {"tgn_cached", ModelKind::kTgn, true, ExecutorKind::kPipelined, false,
         AccessKind::kTraceReplay, 0, 50000.0, 150000.0},
        {"jodie_churn", ModelKind::kJodie, true, ExecutorKind::kPipelined,
         false, AccessKind::kCommunityChurn, 0, 60000.0, 160000.0},
        {"tgat_dispatch", ModelKind::kTgat, false, ExecutorKind::kSerial, true,
         AccessKind::kTraceReplay, 0, 2000.0, 30000.0},
        {"tgn_sharded4", ModelKind::kTgn, true, ExecutorKind::kPipelined,
         false, AccessKind::kTraceReplay, 4, 200000.0, 550000.0},
    };
    return specs;
}

/// Request counts per phase.
struct Counts {
    int64_t warmup;
    int64_t point;   ///< each of the light and heavy load points
    int64_t probe;   ///< each capacity-search probe
    int64_t prefix;  ///< the heavy prefix of the check pass
};

Counts
CountsFor(bool smoke)
{
    return smoke ? Counts{200, 2000, 1000, 500}
                 : Counts{10000, 200000, 100000, 20000};
}

/// Every generator the run seed drives draws from its own offset of it.
enum SeedSlot : uint64_t {
    kLightSeed,
    kHeavySeed,
    kWarmupSeed,
    kProbeSeed,
    kAccessSeed,
};

/// The node-to-shard partition of tgn_sharded4 stays fixed, like the
/// dataset: it decides which shard owns which node, so reseeding it changes
/// the deployment itself (capacity moves from 622k to 694k qps across
/// partition seeds) rather than the traffic it serves.
constexpr uint64_t kPartitionSeed = 1014;

/// The recurrent repeat-talker stream the serving gauntlet uses. Its seed
/// stays fixed: a session captures each batch size's cost profile from the
/// stream's first events, so reseeding it would change the served model's
/// cost itself (JODIE's capacity moves from 104k to 163k qps across seeds).
data::InteractionSpec
GauntletSpec()
{
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

std::unique_ptr<models::DgnnModel>
MakeModel(ModelKind kind, const data::InteractionDataset& dataset)
{
    switch (kind) {
      case ModelKind::kTgn:
        return std::make_unique<models::Tgn>(dataset,
                                             models::TgnConfig{172, 64, 2, 11});
      case ModelKind::kJodie:
        return std::make_unique<models::Jodie>(dataset, models::JodieConfig{});
      case ModelKind::kTgat:
        return std::make_unique<models::Tgat>(dataset, models::TgatConfig{});
    }
    throw std::logic_error("unknown model kind");
}

/// Poisson arrivals at @p qps; endpoints replay the dataset stream or churn
/// between eight communities that split the node ids.
scenario::Scenario
MakeScenario(const ServingSpec& spec, double qps, uint64_t arrival_seed,
             uint64_t access_seed, int64_t num_nodes)
{
    scenario::Scenario s;
    s.name = spec.name;
    s.access = spec.access;
    s.poisson_qps = qps;
    s.poisson_seed = arrival_seed;
    s.churn.num_communities = 8;
    s.churn.community_size = num_nodes / 8;
    s.churn.in_community = 0.95;
    s.churn.churn_every = 512;
    s.churn.seed = access_seed;
    return s;
}

/// One load point, merged across shards for sharded runs.
struct Point {
    core::LatencyHistogram latency;
    double offered_qps = 0.0;
    double achieved_qps = 0.0;
    int64_t batches = 0;
    core::RunningStat batch_size;
    core::RunningStat queue_depth;
    int64_t h2d_bytes = 0;
    int64_t d2h_bytes = 0;
    cache::CacheStats cache;
    serve::ExchangeCost exchange;
    std::array<int64_t, dispatch::kNumPlacements> placement{};
    int64_t edge_cut = 0;
    double balance_factor = 0.0;
    double comm_tax_pct = 0.0;
    sim::SimTime slowest_makespan_us = 0.0;
    /// The run labels obs/ metrics carry.
    obs::Labels labels;
    /// Every request's latency (load points only).
    std::vector<double> latencies_us;
};

void
AddShard(Point& p, const serve::ServingReport& r)
{
    p.batches += r.batches;
    p.batch_size.Merge(r.batch_size);
    p.queue_depth.Merge(r.queue_depth);
    p.h2d_bytes += r.h2d_bytes;
    p.d2h_bytes += r.d2h_bytes;
    p.cache += r.cache_stats;
    p.exchange += r.exchange;
    for (size_t i = 0; i < p.placement.size(); ++i) {
        p.placement[i] += r.placement_batches[i];
    }
    if (p.labels.empty() && !r.model.empty()) {
        p.labels = {{"model", r.model},
                    {"mode", r.mode},
                    {"policy", r.policy},
                    {"executor", r.executor}};
    }
}

Point
FromReport(const serve::ServingReport& r)
{
    Point p;
    p.latency = r.latency;
    p.offered_qps = r.offered_qps;
    p.achieved_qps = r.achieved_qps;
    p.slowest_makespan_us = r.makespan_us;
    AddShard(p, r);
    return p;
}

Point
FromReport(const shard::ShardedReport& r)
{
    Point p;
    p.latency = r.latency;
    p.offered_qps = r.offered_qps;
    p.achieved_qps = r.sustained_qps;
    p.slowest_makespan_us = r.makespan_us;
    p.edge_cut = r.edge_cut;
    p.balance_factor = r.balance_factor;
    p.comm_tax_pct = r.comm_tax_pct;
    for (const serve::ServingReport& shard : r.shards) {
        AddShard(p, shard);
    }
    return p;
}

/// Fans one observer seam out to several observers.
class FanOut final : public serve::ServingObserver {
  public:
    explicit FanOut(std::vector<serve::ServingObserver*> targets)
        : targets_(std::move(targets))
    {
    }
    void OnRunBegin(const serve::RunContext& ctx) override
    {
        for (serve::ServingObserver* t : targets_) {
            t->OnRunBegin(ctx);
        }
    }
    void OnArrival(const serve::Request& request) override
    {
        for (serve::ServingObserver* t : targets_) {
            t->OnArrival(request);
        }
    }
    void OnIdleWake(sim::SimTime wake_us, bool policy_wake) override
    {
        for (serve::ServingObserver* t : targets_) {
            t->OnIdleWake(wake_us, policy_wake);
        }
    }
    void OnBatch(const serve::BatchObservation& ob) override
    {
        for (serve::ServingObserver* t : targets_) {
            t->OnBatch(ob);
        }
    }
    void OnRunEnd() override
    {
        for (serve::ServingObserver* t : targets_) {
            t->OnRunEnd();
        }
    }

  private:
    std::vector<serve::ServingObserver*> targets_;
};

/// Each request's latency as the server's histogram records it, for exact
/// percentiles (the histogram's buckets are 1% wide).
class LatencyRecorder final : public serve::ServingObserver {
  public:
    void OnBatch(const serve::BatchObservation& ob) override
    {
        for (const serve::Request& r : ob.requests) {
            latencies_us.push_back(ob.spans.complete_us - r.arrival_us);
        }
    }
    std::vector<double> latencies_us;
};

class LedgerObserver final : public serve::ServingObserver {
  public:
    void OnBatch(const serve::BatchObservation& ob) override
    {
        ledger.OnBatch(ob);
    }
    obs::DispatchLedger ledger;
};

/// One analysis::HazardChecker per serving run. ServeSharded hands one
/// runtime observer to every shard's fresh runtime, and one checker must
/// never mix two runtimes' clocks; the runtime issues no operation before
/// the serving observer's OnRunBegin, so switching checkers there is exact.
class PerRunHazards final : public serve::ServingObserver,
                            public sim::RuntimeObserver {
  public:
    void OnRunBegin(const serve::RunContext&) override
    {
        checkers_.emplace_back();
    }
    void OnOp(const sim::OpRecord& op) override { Current().OnOp(op); }
    void OnEventRecorded(const sim::Event& event,
                         sim::StreamId stream) override
    {
        Current().OnEventRecorded(event, stream);
    }
    void OnStreamWaitEvent(sim::StreamId stream,
                           const sim::Event& event) override
    {
        Current().OnStreamWaitEvent(stream, event);
    }
    void OnHostWaitEvent(const sim::Event& event) override
    {
        Current().OnHostWaitEvent(event);
    }
    void OnSynchronize() override { Current().OnSynchronize(); }

    int64_t Occurrences() const
    {
        int64_t total = 0;
        for (const analysis::HazardChecker& c : checkers_) {
            total += c.Report().HazardOccurrences();
        }
        return total;
    }

  private:
    analysis::HazardChecker& Current()
    {
        if (checkers_.empty()) {
            checkers_.emplace_back();
        }
        return checkers_.back();
    }

    std::deque<analysis::HazardChecker> checkers_;
};

class ServingRep {
  public:
    ServingRep(const ServingSpec& spec, const RepConfig& config)
        : spec_(spec), config_(config), counts_(CountsFor(config.smoke))
    {
    }

    RepResult Run()
    {
        CalibratedClock clock;
        {
            Scope span(config_.trace, "bench", "setup");
            Setup();
        }
        clock.Lap();
        result_.setup_s = clock.Take();

        {
            Scope span(config_.trace, "bench", "measure");
            light_ = ServeLoadPoint(light_requests_, "light", nullptr);
            clock.Lap();
            heavy_ = ServeLoadPoint(heavy_requests_, "heavy",
                                    heavy_observer_.get());
            clock.Lap();
            capacity_qps_ = FindCapacity();
        }
        clock.Lap();
        result_.host_s = clock.Take();

        if (config_.check) {
            Scope span(config_.trace, "bench", "check");
            CheckPass();
        }
        Record();
        return std::move(result_);
    }

  private:
    bool Sharded() const { return spec_.shards > 0; }
    uint64_t Seed(SeedSlot slot) const { return config_.seed + slot; }

    std::vector<serve::Request> Requests(double qps, SeedSlot arrival,
                                         int64_t n, const char* what)
    {
        Scope span(config_.trace, "scenario", what);
        return scenario::GenerateRequests(
            MakeScenario(spec_, qps, Seed(arrival), Seed(kAccessSeed),
                         dataset_->NumNodes()),
            *dataset_, n);
    }

    void Setup()
    {
        {
            Scope span(config_.trace, "data", "generate dataset");
            dataset_.emplace(data::GenerateInteractions(GauntletSpec()));
        }
        {
            Scope span(config_.trace, "models", "construct model");
            model_ = MakeModel(spec_.model, *dataset_);
        }
        if (spec_.cached) {
            cache_config_.capacity_bytes =
                dataset_->NumNodes() / 4 * model_->CacheRowBytes();
            cache_config_.eviction = cache::EvictionPolicy::kLru;
        }
        light_requests_ = Requests(spec_.light_qps, kLightSeed, counts_.point,
                                   "light requests");
        heavy_requests_ = Requests(spec_.heavy_qps, kHeavySeed, counts_.point,
                                   "heavy requests");
        if (config_.trace != nullptr) {
            obs::ObservabilityOptions options;
            options.keep_device_trace = false;
            observability_ =
                std::make_unique<obs::ServingObservability>(options);
            heavy_observer_ = std::make_unique<FanOut>(
                std::vector<serve::ServingObserver*>{observability_.get(),
                                                     &ledger_});
        }
        if (Sharded()) {
            // ServeSharded builds its own per-shard sessions on every call,
            // so profile capture and cache warm-up happen inside it.
            return;
        }
        session_ = std::make_unique<serve::ModelSession>(
            *model_, sim::ExecMode::kHybrid, kNumNeighbors, cache_config_);
        {
            Scope span(config_.trace, "models", "capture profiles");
            for (int64_t b = 1; b <= kMaxBatch; ++b) {
                (void)session_->Profile(b);
                if (spec_.dispatch) {
                    (void)session_->FusedProfile(b);
                }
            }
        }
        (void)Serve(Requests(spec_.heavy_qps, kWarmupSeed, counts_.warmup,
                             "warm-up requests"),
                    "warm-up");
    }

    /// Serves @p requests and checks completions and histogram overflow.
    Point Serve(const std::vector<serve::Request>& requests, const char* what,
                serve::ServingObserver* observer = nullptr,
                sim::RuntimeObserver* runtime_observer = nullptr,
                const char* layer = nullptr)
    {
        const auto n = static_cast<int64_t>(requests.size());
        Point p;
        {
            if (layer == nullptr) {
                layer = Sharded() ? "shard" : "serve";
            }
            Scope span(config_.trace, layer, what);
            if (Sharded()) {
                shard::ShardedOptions options;
                options.num_shards = spec_.shards;
                options.partitioner = shard::PartitionerKind::kGreedy;
                options.interconnect = sim::LinkSpec::PcieGen4();
                options.partition_seed = kPartitionSeed;
                options.server.executor = spec_.executor;
                options.server.observer = observer;
                options.server.runtime_observer = runtime_observer;
                options.cache_config = cache_config_;
                options.num_neighbors = kNumNeighbors;
                p = FromReport(shard::ServeSharded(
                    *model_, sim::ExecMode::kHybrid, dataset_->NumNodes(),
                    requests,
                    [] {
                        return std::make_unique<serve::TimeoutPolicy>(
                            kMaxBatch, kBatchTimeoutUs);
                    },
                    options));
            } else {
                serve::TimeoutPolicy policy(kMaxBatch, kBatchTimeoutUs);
                serve::ServerOptions options;
                options.executor = spec_.executor;
                options.dispatcher = spec_.dispatch ? &dispatcher_ : nullptr;
                options.observer = observer;
                options.runtime_observer = runtime_observer;
                p = FromReport(
                    serve::ServeRequests(*session_, policy, requests, options));
            }
        }
        result_.attempted += n;
        result_.Check(p.latency.Count() == n, n,
                      std::string(what) + ": completions differ from requests");
        result_.Check(p.latency.OverflowCount() == 0, n,
                      std::string(what) + ": latency histogram overflow");
        return p;
    }

    /// Serve() with every latency recorded; @p traced may add observers.
    Point ServeLoadPoint(const std::vector<serve::Request>& requests,
                         const char* what, serve::ServingObserver* traced)
    {
        LatencyRecorder recorder;
        std::vector<serve::ServingObserver*> targets = {&recorder};
        if (traced != nullptr) {
            targets.push_back(traced);
        }
        FanOut fan(std::move(targets));
        Point p = Serve(requests, what, &fan);
        p.latencies_us = std::move(recorder.latencies_us);
        double sum = 0.0;
        for (const double v : p.latencies_us) {
            sum += v;
        }
        const auto n = static_cast<int64_t>(p.latencies_us.size());
        const double mean = sum / static_cast<double>(n);
        result_.Check(n == p.latency.Count() &&
                          std::abs(mean - p.latency.Mean()) <= 1e-9 * mean,
                      n,
                      std::string(what) +
                          ": recorded latencies differ from the report");
        return p;
    }

    bool Sustained(double qps)
    {
        const Point p = Serve(
            Requests(qps, kProbeSeed, counts_.probe, "probe requests"),
            "capacity probe");
        ++probes_;
        return p.latency.P99() <= kSloUs &&
               p.achieved_qps >= kKeepUpShare * p.offered_qps;
    }

    /// The highest mean offered rate that is sustained: doubling from the
    /// light rate brackets it, bisection narrows the bracket.
    double FindCapacity()
    {
        constexpr int kMaxSteps = 24;
        double lo = spec_.light_qps;
        double hi = 2.0 * lo;
        int steps = 0;
        if (Sustained(lo)) {
            while (++steps < kMaxSteps && Sustained(hi)) {
                lo = hi;
                hi *= 2.0;
            }
        } else {
            do {
                hi = lo;
                lo /= 2.0;
            } while (++steps < kMaxSteps && !Sustained(lo));
        }
        while (hi - lo > kCapacityResolution * lo) {
            const double mid = 0.5 * (lo + hi);
            (Sustained(mid) ? lo : hi) = mid;
        }
        return lo;
    }

    /// Hazard and span-conservation checks on a heavy prefix, with every
    /// observer attached; outside the timed phases.
    void CheckPass()
    {
        const std::vector<serve::Request> prefix(
            heavy_requests_.begin(), heavy_requests_.begin() + counts_.prefix);
        obs::ObservabilityOptions options;
        options.keep_device_trace = !config_.sim_trace_path.empty();
        obs::ServingObservability observability(options);
        PerRunHazards hazards;
        FanOut fan({&observability, &hazards});
        (void)Serve(prefix, "hazard check", &fan, &hazards, "analysis");

        hazards_ = hazards.Occurrences();
        result_.Check(hazards_ == 0, counts_.prefix,
                      "happens-before hazards on the heavy prefix");
        CheckTimeline(observability, counts_.prefix, "heavy prefix");
        if (!config_.sim_trace_path.empty()) {
            Scope span(config_.trace, "obs", "write sim trace");
            std::ofstream(config_.sim_trace_path)
                << observability.MergedChromeTraceJson();
        }
    }

    void CheckTimeline(const obs::ServingObservability& o, int64_t n,
                       const std::string& what)
    {
        result_.Check(o.Timeline().Count() == n, n,
                      what + ": span records differ from requests");
        result_.Check(o.Timeline().MaxConservationErrorUs() <= 1e-6, n,
                      what + ": spans do not sum to the latency");
    }

    void Record()
    {
        MetricSet& sim = result_.sim;
        auto ms = [](const Point& p, double q) {
            return Quantile(p.latencies_us, q) / 1000.0;
        };
        sim.Add("p50_ms.light", ms(light_, 0.50), "ms");
        sim.Add("mean_ms.light", light_.latency.Mean() / 1000.0, "ms");
        sim.Add("p50_ms.heavy", ms(heavy_, 0.50), "ms");
        sim.Add("p99_ms.heavy", ms(heavy_, 0.99), "ms");
        sim.Add("p999_ms.heavy", ms(heavy_, 0.999), "ms");
        sim.Add("mean_ms.heavy", heavy_.latency.Mean() / 1000.0, "ms");
        sim.Add("capacity_qps", capacity_qps_, "1/s");

        for (const Point* p : {&light_, &heavy_}) {
            const std::vector<double> values = {
                p->latency.Max(),
                static_cast<double>(p->batches),
                static_cast<double>(p->h2d_bytes),
                static_cast<double>(p->d2h_bytes),
                static_cast<double>(p->cache.hits),
                static_cast<double>(p->cache.evictions),
                static_cast<double>(p->cache.writeback_rows),
                static_cast<double>(p->exchange.bytes),
                static_cast<double>(p->placement[0]),
                static_cast<double>(p->placement[2]),
            };
            result_.fingerprint.insert(result_.fingerprint.end(),
                                       values.begin(), values.end());
        }
        result_.fingerprint.push_back(static_cast<double>(probes_));

        if (config_.trace != nullptr) {
            CheckTimeline(*observability_, counts_.point, "heavy point");
            RecordLayers();
        }
    }

    void RecordLayers()
    {
        const HostTrace& trace = *config_.trace;
        MetricSet& m = result_.layers;
        m.Add("data.gen_s", trace.LayerSeconds("data"), "s");
        m.Add("scenario.gen_s", trace.LayerSeconds("scenario"), "s");
        m.Add("models.capture_s", trace.SpanSeconds("capture profiles"), "s");
        m.Add("serve.host_s",
              trace.SpanSeconds("light") + trace.SpanSeconds("heavy") +
                  trace.SpanSeconds("capacity probe"),
              "s");

        // Profile shapes at the largest batch; the sharded workload's
        // sessions live inside ServeSharded, so a scratch session stands in.
        std::unique_ptr<serve::ModelSession> scratch;
        serve::ModelSession* session = session_.get();
        if (session == nullptr) {
            scratch = std::make_unique<serve::ModelSession>(
                *model_, sim::ExecMode::kHybrid, kNumNeighbors, cache_config_);
            session = scratch.get();
        } else {
            m.Add("models.captured_profiles",
                  static_cast<double>(session->CapturedProfiles() *
                                      (spec_.dispatch ? 2 : 1)),
                  "count");
        }
        m.Add("models.kernels_per_batch",
              static_cast<double>(session->Profile(kMaxBatch).kernels.size()),
              "count");
        m.Add("models.fused_kernels_per_batch",
              static_cast<double>(
                  session->FusedProfile(kMaxBatch).kernels.size()),
              "count");

        const obs::MetricsRegistry& metrics = observability_->Metrics();
        m.Add("sim.h2d_mb", static_cast<double>(heavy_.h2d_bytes) / kMiB, "MB");
        m.Add("sim.d2h_mb", static_cast<double>(heavy_.d2h_bytes) / kMiB, "MB");
        m.Add("sim.launches",
              metrics.CounterValue("dgnn_sim_kernel_launches_total",
                                   heavy_.labels),
              "count");

        m.Add("cache.hit_rate", heavy_.cache.HitRate(), "ratio");
        m.Add("cache.evictions", static_cast<double>(heavy_.cache.evictions),
              "count");
        m.Add("cache.writeback_rows",
              static_cast<double>(heavy_.cache.writeback_rows), "count");
        m.Add("cache.saved_mb",
              static_cast<double>(heavy_.cache.hit_bytes) / kMiB, "MB");

        m.Add("serve.batches", static_cast<double>(heavy_.batches), "count");
        m.Add("serve.batch_size_mean", heavy_.batch_size.Mean(), "count");
        m.Add("serve.queue_depth_mean", heavy_.queue_depth.Mean(), "count");
        const obs::RequestTimeline& timeline = observability_->Timeline();
        const std::array<std::pair<const char*, obs::SpanKind>,
                         obs::kNumSpanKinds>
            spans = {{{"serve.span.queue_us", obs::SpanKind::kQueue},
                      {"serve.span.stall_us", obs::SpanKind::kStall},
                      {"serve.span.host_us", obs::SpanKind::kHostPrep},
                      {"serve.span.h2d_us", obs::SpanKind::kH2d},
                      {"serve.span.compute_us", obs::SpanKind::kCompute},
                      {"serve.span.d2h_us", obs::SpanKind::kD2h}}};
        for (const auto& [name, kind] : spans) {
            m.Add(name, timeline.MeanSpanUs(kind), "us");
        }

        const std::array<const char*, dispatch::kNumPlacements> placements = {
            "cpu", "gpu", "fused"};
        for (size_t i = 0; i < placements.size(); ++i) {
            m.Add(std::string("dispatch.") + placements[i] + "_batches.light",
                  static_cast<double>(light_.placement[i]), "count");
            m.Add(std::string("dispatch.") + placements[i] + "_batches.heavy",
                  static_cast<double>(heavy_.placement[i]), "count");
        }
        m.Add("dispatch.mean_rel_error", ledger_.ledger.MeanRelativeError(),
              "ratio");

        m.Add("shard.edge_cut", static_cast<double>(heavy_.edge_cut), "count");
        m.Add("shard.balance_factor", heavy_.balance_factor, "ratio");
        m.Add("shard.remote_rows",
              static_cast<double>(heavy_.exchange.remote_rows), "count");
        m.Add("shard.exchange_mb",
              static_cast<double>(heavy_.exchange.bytes) / kMiB, "MB");
        m.Add("shard.comm_tax_pct", heavy_.comm_tax_pct, "%");
        m.Add("shard.slowest_makespan_ms", heavy_.slowest_makespan_us / 1000.0,
              "ms");

        using obs::BottleneckCategory;
        const obs::AttributionSummary attr =
            observability_->Attribution().Summary();
        const std::array<std::pair<const char*, BottleneckCategory>,
                         obs::kNumBottleneckCategories>
            categories = {{
                {"obs.attr.queueing_pct", BottleneckCategory::kQueueing},
                {"obs.attr.host_pct", BottleneckCategory::kHost},
                {"obs.attr.transfer_pct", BottleneckCategory::kTransfer},
                {"obs.attr.compute_pct", BottleneckCategory::kCompute},
                {"obs.attr.cross_shard_pct", BottleneckCategory::kCrossShard},
            }};
        for (const auto& [name, category] : categories) {
            m.Add(name, attr.TimeSharePct(category), "%");
        }
        if (config_.check) {
            m.Add("analysis.hazards", static_cast<double>(hazards_), "count");
        }
    }

    const ServingSpec& spec_;
    const RepConfig& config_;
    const Counts counts_;
    RepResult result_;

    std::optional<data::InteractionDataset> dataset_;
    std::unique_ptr<models::DgnnModel> model_;
    cache::DeviceCacheConfig cache_config_;
    std::unique_ptr<serve::ModelSession> session_;
    const dispatch::HybridDispatcher dispatcher_;
    std::vector<serve::Request> light_requests_;
    std::vector<serve::Request> heavy_requests_;

    std::unique_ptr<obs::ServingObservability> observability_;
    LedgerObserver ledger_;
    std::unique_ptr<FanOut> heavy_observer_;

    Point light_;
    Point heavy_;
    double capacity_qps_ = 0.0;
    int64_t probes_ = 0;
    int64_t hazards_ = 0;
};

}  // namespace

std::vector<std::string>
ServingWorkloads()
{
    std::vector<std::string> names;
    for (const ServingSpec& spec : Specs()) {
        names.emplace_back(spec.name);
    }
    return names;
}

RepResult
RunServingRep(const std::string& workload, const RepConfig& config)
{
    for (const ServingSpec& spec : Specs()) {
        if (workload == spec.name) {
            return ServingRep(spec, config).Run();
        }
    }
    throw std::invalid_argument("unknown serving workload " + workload);
}

}  // namespace dgnn::benchmark
