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

}  // namespace dgnn::analysis
