/// Online serving walkthrough: putting a TGN recommender behind a
/// latency-SLO'd endpoint.
///
/// The offline benches answer "how long does a pass over the dataset
/// take?"; a production deployment asks a different question: requests
/// arrive one by one, must be batched on the fly, and the metric that
/// matters is the tail of the end-to-end latency distribution. This
/// example stands up the serve/ subsystem on the simulated Xeon + A6000
/// box and walks through the three levers it models:
///
///   1. the arrival process (Poisson vs replaying the dataset's own
///      bursty timestamps),
///   2. the dynamic batching policy (how long to hold requests),
///   3. the executor (eager serial vs multi-stream pipelined).

#include <iostream>

#include "core/table_writer.hpp"
#include "data/temporal_interactions.hpp"
#include "models/tgn.hpp"
#include "serve/server.hpp"

using namespace dgnn;

namespace {

std::string
Ms(sim::SimTime us)
{
    return core::TableWriter::Num(us / 1000.0, 2) + " ms";
}

void
PrintReport(const serve::ServingReport& r)
{
    std::cout << "  " << r.executor << " executor, " << r.policy << ": p50 "
              << Ms(r.latency.P50()) << ", p90 " << Ms(r.latency.P90())
              << ", p99 " << Ms(r.latency.P99()) << ", max "
              << Ms(r.latency.Max()) << "\n    " << r.batches
              << " batches (avg size "
              << core::TableWriter::Num(r.batch_size.Mean(), 1)
              << "), achieved "
              << core::TableWriter::Num(r.achieved_qps, 0) << " qps\n";
}

}  // namespace

int
main()
{
    std::cout << "== Online DGNN serving: TGN on a wikipedia-like stream ==\n\n";

    const data::InteractionDataset dataset = data::GenerateInteractions(
        data::InteractionSpec::WikipediaLike(8192));
    models::Tgn tgn(dataset, models::TgnConfig{});

    // A session captures the model's per-batch cost profile once per batch
    // size (sampling + batch build on the host, H2D, kernels, D2H) by
    // replaying the model's own batched inference entry.
    serve::ModelSession session(tgn, sim::ExecMode::kHybrid);
    const serve::BatchProfile& profile = session.Profile(32);
    std::cout << "Captured batch-32 profile: host "
              << core::TableWriter::Num(profile.host_us, 1) << " us, "
              << profile.kernels.size() << " kernels, H2D "
              << profile.h2d_bytes << " B, D2H " << profile.d2h_bytes
              << " B\n\n";

    constexpr int64_t kRequests = 2048;
    constexpr double kRate = 6000.0;  // offered load, requests/s

    std::cout << "-- 1. Poisson arrivals at 6000 qps, timeout batching "
                 "(32, 5 ms) --\n";
    const std::vector<sim::SimTime> poisson =
        serve::PoissonArrivals(kRate, kRequests, 42);
    for (const serve::ExecutorKind kind :
         {serve::ExecutorKind::kSerial, serve::ExecutorKind::kPipelined}) {
        serve::TimeoutPolicy policy(32, 5000.0);
        serve::ServerOptions options;
        options.executor = kind;
        PrintReport(serve::Serve(session, policy, poisson, options));
    }
    std::cout << "(at this moderate load both executors meet the SLO with "
                 "identical tails —\n overlap only pays once the machine "
                 "saturates; see section 3)\n";

    std::cout << "\n-- 2. Same load, but replaying the dataset's own "
                 "timestamps --\n";
    const std::vector<sim::SimTime> bursty =
        serve::TraceArrivals(dataset.stream, kRate, kRequests);
    for (const serve::ExecutorKind kind :
         {serve::ExecutorKind::kSerial, serve::ExecutorKind::kPipelined}) {
        serve::TimeoutPolicy policy(32, 5000.0);
        serve::ServerOptions options;
        options.executor = kind;
        PrintReport(serve::Serve(session, policy, bursty, options));
    }
    std::cout << "(trace replay preserves the stream's inter-arrival "
                 "structure at any target\n rate; a burstier production "
                 "trace would stretch the p99/max rows)\n";

    std::cout << "\n-- 3. How much traffic fits under a "
              << core::TableWriter::Num(serve::kCapacitySloUs / 1000.0, 0)
              << " ms p99 SLO? --\n"
                 "(capacity: the highest Poisson rate whose "
              << serve::kCapacityProbeRequests
              << "-request probe keeps p99 under\n the SLO and completes "
                 "at >= "
              << core::TableWriter::Num(100.0 * serve::kCapacityKeepUpShare, 0)
              << "% of the probe's offered rate)\n";
    for (const serve::ExecutorKind kind :
         {serve::ExecutorKind::kSerial, serve::ExecutorKind::kPipelined}) {
        serve::ServerOptions options;
        options.executor = kind;
        const serve::QpsSearchResult found = serve::FindCapacity(
            session,
            [] { return std::make_unique<serve::TimeoutPolicy>(32, 5000.0); },
            options, 42);
        std::cout << "  " << serve::ToString(kind) << ": "
                  << core::TableWriter::Num(found.max_qps, 0)
                  << " qps sustained (p99 " << Ms(found.p99_us) << ", "
                  << found.evaluations << " probe runs)\n";
    }

    std::cout << "\nTakeaway: the host-side sampling/batch-build stage the "
                 "paper flags as\nbottleneck no. 2 serializes with GPU "
                 "compute in eager mode; overlapping\nthem with a second "
                 "stream and pinned async copies buys the extra\nsustained "
                 "throughput without touching the model.\n";
    return 0;
}
