#include "analysis/sync_mutations.hpp"

#include <deque>
#include <random>
#include <string>

#include "sim/runtime.hpp"
#include "tensor/random.hpp"

namespace dgnn::analysis {

const char*
ToString(SyncEdge edge)
{
    switch (edge) {
      case SyncEdge::kNone:
        return "none";
      case SyncEdge::kInputFence:
        return "input-fence";
      case SyncEdge::kComputeFence:
        return "compute-fence";
      case SyncEdge::kThrottleWait:
        return "throttle-wait";
      case SyncEdge::kFinalDrain:
        return "final-drain";
      case SyncEdge::kExchangeFence:
        return "exchange-fence";
    }
    return "?";
}

HazardReport
RunMutatedPipeline(SyncEdge drop, uint64_t seed, int64_t batches)
{
    constexpr int64_t kDepth = 2;
    Mt19937_64 rng(seed);
    std::uniform_int_distribution<int64_t> bytes_dist(1 << 18, 1 << 22);

    sim::RuntimeConfig config;
    config.mode = sim::ExecMode::kHybrid;
    sim::Runtime rt(config);
    HazardChecker checker;
    rt.SetObserver(&checker);

    auto kernel = [](int64_t bytes) {
        return sim::KernelDesc{.name = "batch_kernel",
                               .flops = bytes,
                               .bytes = bytes,
                               .parallel_items = bytes / 4};
    };

    std::deque<sim::Event> in_flight;
    for (int64_t batch = 0; batch < batches; ++batch) {
        const std::string slot = std::to_string(batch % kDepth);
        const int64_t bytes = bytes_dist(rng);

        // Throttle: the slot-reuse fence — waiting on the oldest in-flight
        // batch orders this batch's staging writes after its reads.
        while (static_cast<int64_t>(in_flight.size()) >= kDepth) {
            if (drop != SyncEdge::kThrottleWait) {
                (void)rt.WaitEvent(in_flight.front());
            }
            in_flight.pop_front();
        }
        {
            sim::AccessScope scope(rt,
                                   sim::AccessSet{{}, {"host_in#" + slot}});
            rt.RunHostFor("batch_build", 20.0);
        }
        {
            sim::AccessScope scope(
                rt, sim::AccessSet{{"host_in#" + slot}, {"dev_in#" + slot}});
            (void)rt.CopyToDeviceAsync(bytes, "inputs_h2d");
        }
        const sim::Event inputs_ready = rt.RecordEvent(sim::StreamId::kCopy);
        if (drop != SyncEdge::kInputFence) {
            rt.StreamWaitEvent(sim::StreamId::kCompute, inputs_ready);
        }
        {
            sim::AccessScope scope(
                rt, sim::AccessSet{{"dev_in#" + slot}, {"dev_out#" + slot}});
            rt.Launch(kernel(bytes));
        }
        const sim::Event compute_done = rt.RecordEvent(sim::StreamId::kCompute);
        if (drop != SyncEdge::kComputeFence) {
            rt.StreamWaitEvent(sim::StreamId::kCopy, compute_done);
        }
        {
            sim::AccessScope scope(
                rt, sim::AccessSet{{"dev_out#" + slot}, {"host_out#" + slot}});
            (void)rt.CopyToHostAsync(bytes, "results_d2h");
        }
        in_flight.push_back(rt.RecordEvent(sim::StreamId::kCopy));
    }

    // Final drain: the host must observe every batch's D2H before reading
    // the result staging buffers.
    while (!in_flight.empty()) {
        if (drop != SyncEdge::kFinalDrain) {
            (void)rt.WaitEvent(in_flight.front());
        }
        in_flight.pop_front();
    }
    {
        sim::AccessScope scope(
            rt, sim::AccessSet{{"host_out#0", "host_out#1"}, {}});
        rt.RunHostFor("consume_results", 10.0);
    }
    return checker.Report();
}

HazardReport
RunMutatedExchange(SyncEdge drop, uint64_t seed, int64_t rounds)
{
    constexpr int64_t kSlots = 2;
    constexpr int64_t kRowBytes = 256;
    Mt19937_64 rng(seed);
    std::uniform_int_distribution<int64_t> rows_dist(64, 1024);

    sim::RuntimeConfig config;
    config.mode = sim::ExecMode::kHybrid;
    config.topology = sim::Topology::ScaleOut(2, sim::LinkSpec::PcieGen4());
    config.device_index = 0;
    sim::Runtime rt(config);
    HazardChecker checker;
    rt.SetObserver(&checker);

    // The back-fence: round k's peer pull must not overwrite a staging slot
    // the previous unpack still reads (the serving executors provide this
    // edge through their per-batch compute->copy fences). It is part of the
    // intact schedule, not a deletable mutation target.
    bool have_unpack_done = false;
    sim::Event unpack_done;
    for (int64_t round = 0; round < rounds; ++round) {
        const std::string slot = std::to_string(round % kSlots);
        const int64_t rows = rows_dist(rng);

        if (have_unpack_done) {
            rt.StreamWaitEvent(sim::StreamId::kCopy, unpack_done);
        }
        {
            sim::AccessScope scope(
                rt, sim::AccessSet{{"peer_store#1"}, {"exchange_in#" + slot}});
            (void)rt.PeerCopyAsync(1, rows * kRowBytes, "shard_exchange_pull");
        }
        const sim::Event exchange_ready =
            rt.RecordEvent(sim::StreamId::kCopy);
        if (drop != SyncEdge::kExchangeFence) {
            rt.StreamWaitEvent(sim::StreamId::kCompute, exchange_ready);
        }
        {
            sim::AccessScope scope(
                rt, sim::AccessSet{{"exchange_in#" + slot}, {"dev_state#0"}});
            rt.Launch({.name = "exchange_unpack",
                       .flops = rows * kRowBytes / 4,
                       .bytes = 2 * rows * kRowBytes,
                       .parallel_items = rows,
                       .irregular = true});
        }
        unpack_done = rt.RecordEvent(sim::StreamId::kCompute);
        have_unpack_done = true;
    }
    (void)rt.Synchronize();
    return checker.Report();
}

}  // namespace dgnn::analysis
