#include "serve/executor.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dgnn::serve {

namespace {

/// Batches the pipelined executor allows in flight before the host blocks
/// (classic double buffering).
constexpr int64_t kMaxInFlight = 2;

/// The four per-slot staging buffers a batch flows through (hazard-checker
/// resources; see DESIGN.md §11). Serial execution always stages through
/// slot 0 — every stage blocks the host, so reuse is host-ordered. The
/// pipelined executor rotates slots like its double-buffered staging
/// memory: batch k owns slot k % depth until the throttle wait on its
/// completion event releases it. Built only inside sim::MaybeAccess
/// lambdas, so unobserved runs never build the names.
struct SlotResources {
    std::string host_in;   ///< pinned host input staging
    std::string dev_in;    ///< device-side batch input buffer
    std::string dev_out;   ///< device-side batch result buffer
    std::string host_out;  ///< pinned host result staging

    explicit SlotResources(int64_t slot)
        : host_in("host_in#" + std::to_string(slot)),
          dev_in("dev_in#" + std::to_string(slot)),
          dev_out("dev_out#" + std::to_string(slot)),
          host_out("host_out#" + std::to_string(slot))
    {
    }
};

/// Footprint of the staged input copy: consumes the host staging buffer,
/// lands the device input buffer, and opens the residency episode of every
/// row the gather inserted (missed rows ride this copy).
sim::AccessSet
InputCopyAccess(const SlotResources& slot, const CacheBatchCost& cache_cost)
{
    sim::AccessSet access;
    access.reads.push_back(slot.host_in);
    access.writes.push_back(slot.dev_in);
    access.writes.insert(access.writes.end(),
                         cache_cost.row_trace.inserted_rows.begin(),
                         cache_cost.row_trace.inserted_rows.end());
    return access;
}

/// Footprint of the batch's compute kernels: consume the staged inputs,
/// produce the staged results, and update the batch's gathered state rows
/// in place.
sim::AccessSet
KernelAccess(const SlotResources& slot, const CacheBatchCost& cache_cost)
{
    sim::AccessSet access;
    access.reads.push_back(slot.dev_in);
    access.writes.push_back(slot.dev_out);
    access.writes.insert(access.writes.end(),
                         cache_cost.row_trace.hit_rows.begin(),
                         cache_cost.row_trace.hit_rows.end());
    access.writes.insert(access.writes.end(),
                         cache_cost.row_trace.inserted_rows.begin(),
                         cache_cost.row_trace.inserted_rows.end());
    return access;
}

/// Footprint of the result copy: reads the device results plus any
/// evicted-dirty rows riding the transfer, lands the host staging buffer
/// and (for write-backs) the host-side state store.
sim::AccessSet
ResultCopyAccess(const SlotResources& slot, const CacheBatchCost& cache_cost)
{
    sim::AccessSet access;
    access.reads.push_back(slot.dev_out);
    access.reads.insert(access.reads.end(),
                        cache_cost.row_trace.evicted_dirty_rows.begin(),
                        cache_cost.row_trace.evicted_dirty_rows.end());
    access.writes.push_back(slot.host_out);
    if (cache_cost.writeback_rows > 0) {
        access.writes.emplace_back("host_store");
    }
    return access;
}

/// Footprint of the device-side hit-gather kernel: reads the resident rows
/// the batch hit and appends them to the staged device inputs.
sim::AccessSet
HitGatherAccess(const SlotResources& slot, const CacheBatchCost& cache_cost)
{
    sim::AccessSet access;
    access.reads = cache_cost.row_trace.hit_rows;
    access.writes.push_back(slot.dev_in);
    return access;
}

}  // namespace

sim::SimTime
BatchExecutor::Drain()
{
    return runtime_.Synchronize();
}

sim::SimTime
BatchExecutor::SubmitPlaced(dispatch::Placement placement,
                            const BatchProfile& profile, sim::SimTime host_us,
                            const CacheBatchCost& cache_cost, BatchSpans* spans)
{
    if (placement != dispatch::Placement::kCpu) {
        return Submit(profile, host_us, cache_cost, spans);
    }
    // CPU-placed batches bypass the device entirely; a cached session's
    // state is device-resident, so the serving loop never routes it here.
    DGNN_CHECK(cache_cost.hit_rows == 0 && cache_cost.miss_rows == 0 &&
                   cache_cost.writeback_rows == 0,
               "CPU placement requires an uncached session");
    sim::CategoryScope scope(runtime_, "Serving Batch");
    const sim::SimTime dispatch = runtime_.Now();
    // Host staging uses its own resource family (host_in#cpu/host_out#cpu):
    // host execution is program-ordered, so there is no reuse hazard with
    // the device slots, and the hazard checker sees a self-ordered chain.
    {
        sim::MaybeAccess access(runtime_, [&] {
            sim::AccessSet set;
            set.writes.emplace_back("host_in#cpu");
            return set;
        });
        runtime_.RunHostFor("batch_build", host_us);
    }
    const sim::SimTime host_done = runtime_.Now();
    {
        sim::MaybeAccess access(runtime_, [&] {
            sim::AccessSet set;
            set.reads.emplace_back("host_in#cpu");
            set.writes.emplace_back("host_out#cpu");
            return set;
        });
        for (const sim::KernelDesc& kernel : profile.kernels) {
            runtime_.RunHost(kernel);
        }
    }
    if (spans != nullptr) {
        // Everything runs synchronously on the host: no throttle, and the
        // H2D boundary collapses onto host_done (nothing crosses PCIe).
        spans->dispatch_us = dispatch;
        spans->stall_done_us = dispatch;
        spans->host_done_us = host_done;
        spans->h2d_done_us = host_done;
        spans->compute_done_us = runtime_.Now();
        spans->complete_us = runtime_.Now();
    }
    return runtime_.Now();
}

sim::SimTime
SerialExecutor::Submit(const BatchProfile& profile, sim::SimTime host_us,
                       const CacheBatchCost& cache_cost, BatchSpans* spans)
{
    sim::CategoryScope scope(runtime_, "Serving Batch");
    const int64_t slot = 0;
    const sim::SimTime dispatch = runtime_.Now();
    {
        sim::MaybeAccess access(runtime_, [&] {
            sim::AccessSet set;
            set.writes.push_back(SlotResources(slot).host_in);
            return set;
        });
        runtime_.RunHostFor("batch_build", host_us);
    }
    const sim::SimTime host_done = runtime_.Now();
    // Missed state rows ride the batch's single staged input copy (one
    // pinned buffer, one PCIe transaction); cache hits cost only the
    // device-side gather kernel.
    const int64_t h2d_total =
        profile.h2d_bytes + cache_cost.miss_rows * cache_cost.row_bytes;
    if (h2d_total > 0) {
        sim::MaybeAccess access(
            runtime_, [&] { return InputCopyAccess(SlotResources(slot), cache_cost); });
        runtime_.CopyToDevice(h2d_total, "serve_inputs_h2d");
    }
    const sim::SimTime h2d_done = runtime_.Now();
    if (cache_cost.hit_rows > 0) {
        sim::MaybeAccess access(
            runtime_, [&] { return HitGatherAccess(SlotResources(slot), cache_cost); });
        runtime_.GatherHits(cache_cost.hit_rows, cache_cost.row_bytes,
                            "serve_state");
    }
    {
        sim::MaybeAccess access(
            runtime_, [&] { return KernelAccess(SlotResources(slot), cache_cost); });
        for (const sim::KernelDesc& kernel : profile.kernels) {
            runtime_.Launch(kernel);
        }
    }
    (void)runtime_.Synchronize();
    const sim::SimTime compute_done = runtime_.Now();
    if (profile.d2h_bytes > 0) {
        sim::MaybeAccess access(runtime_, [&] {
            const SlotResources names(slot);
            sim::AccessSet set;
            set.reads.push_back(names.dev_out);
            set.writes.push_back(names.host_out);
            return set;
        });
        runtime_.CopyToHost(profile.d2h_bytes, "serve_results_d2h");
    }
    if (cache_cost.writeback_rows > 0) {
        sim::MaybeAccess access(runtime_, [&] {
            sim::AccessSet set;
            set.reads = cache_cost.row_trace.evicted_dirty_rows;
            set.writes.emplace_back("host_store");
            return set;
        });
        runtime_.WriteBackToHost(cache_cost.writeback_rows, cache_cost.row_bytes,
                                 "serve_state");
    }
    if (spans != nullptr) {
        // Every stage blocks the host, so the boundaries are plain clock
        // reads: already monotone, no clamping needed.
        spans->dispatch_us = dispatch;
        spans->stall_done_us = dispatch;  // no pipeline throttle
        spans->host_done_us = host_done;
        spans->h2d_done_us = h2d_done;
        spans->compute_done_us = compute_done;
        spans->complete_us = runtime_.Now();
    }
    return runtime_.Now();
}

sim::SimTime
PipelinedExecutor::Submit(const BatchProfile& profile, sim::SimTime host_us,
                          const CacheBatchCost& cache_cost, BatchSpans* spans)
{
    sim::CategoryScope scope(runtime_, "Serving Batch");
    const int64_t slot = submitted_ % kMaxInFlight;
    ++submitted_;
    const sim::SimTime dispatch = runtime_.Now();

    // Throttle: with kMaxInFlight batches outstanding the host blocks on
    // the oldest one before building the next (bounded staging memory).
    // The wait is also this slot's reuse fence: it is the happens-before
    // edge that orders this batch's staging writes after the previous slot
    // owner's reads (the hazard mutation suite drops exactly this edge to
    // prove the checker sees the WAR).
    while (static_cast<int64_t>(in_flight_.size()) >= kMaxInFlight) {
        (void)runtime_.WaitEvent(in_flight_.front());
        in_flight_.pop_front();
    }
    const sim::SimTime stall_done = runtime_.Now();

    // Host stage for batch k+1 — overlaps whatever the device still runs.
    {
        sim::MaybeAccess access(runtime_, [&] {
            sim::AccessSet set;
            set.writes.push_back(SlotResources(slot).host_in);
            return set;
        });
        runtime_.RunHostFor("batch_build", host_us);
    }

    // Input stage: pinned async H2D on the copy stream; compute kernels of
    // this batch wait on its completion event, not the host. Missed state
    // rows ride the same staged copy (one pinned buffer, one DMA); the
    // hit-gather kernel queues on the compute stream behind the fence.
    const int64_t h2d_total =
        profile.h2d_bytes + cache_cost.miss_rows * cache_cost.row_bytes;
    sim::SimTime inputs_ready_us = 0.0;  // resolved after clamping below
    if (h2d_total > 0) {
        sim::MaybeAccess access(
            runtime_, [&] { return InputCopyAccess(SlotResources(slot), cache_cost); });
        (void)runtime_.CopyToDeviceAsync(h2d_total, "serve_inputs_h2d");
        const sim::Event inputs_ready = runtime_.RecordEvent(sim::StreamId::kCopy);
        runtime_.StreamWaitEvent(sim::StreamId::kCompute, inputs_ready);
        inputs_ready_us = inputs_ready.ready_us;
    }
    if (cache_cost.hit_rows > 0) {
        sim::MaybeAccess access(
            runtime_, [&] { return HitGatherAccess(SlotResources(slot), cache_cost); });
        runtime_.GatherHits(cache_cost.hit_rows, cache_cost.row_bytes,
                            "serve_state");
    }

    // Compute stage: kernels queue asynchronously behind the previous batch.
    {
        sim::MaybeAccess access(
            runtime_, [&] { return KernelAccess(SlotResources(slot), cache_cost); });
        for (const sim::KernelDesc& kernel : profile.kernels) {
            runtime_.Launch(kernel);
        }
    }

    // Result stage: D2H (results + evicted-dirty-row write-backs) behind
    // the batch's compute event.
    const sim::Event compute_done = runtime_.RecordEvent(sim::StreamId::kCompute);
    sim::Event batch_done = compute_done;
    const int64_t d2h_total = profile.d2h_bytes + cache_cost.WritebackBytes();
    if (d2h_total > 0) {
        sim::MaybeAccess access(
            runtime_, [&] { return ResultCopyAccess(SlotResources(slot), cache_cost); });
        runtime_.StreamWaitEvent(sim::StreamId::kCopy, compute_done);
        (void)runtime_.CopyToHostAsync(d2h_total, "serve_results_d2h");
        batch_done = runtime_.RecordEvent(sim::StreamId::kCopy);
    }
    in_flight_.push_back(batch_done);

    if (spans != nullptr) {
        // The host-side boundaries are clock reads; the device-side ones
        // are event completion times. Each boundary is clamped into
        // [previous boundary, complete] so the chain is monotone and ends
        // exactly at the completion time Submit returns — an event can
        // resolve before the host finished submitting (CPU-only no-op
        // copies), and a batch's H2D can queue behind older copy-stream
        // work, both of which the clamp absorbs.
        const sim::SimTime host_done = runtime_.Now();  // build + submits
        const sim::SimTime complete = batch_done.ready_us;
        spans->dispatch_us = dispatch;
        spans->stall_done_us =
            std::clamp(stall_done, spans->dispatch_us, complete);
        spans->host_done_us =
            std::clamp(host_done, spans->stall_done_us, complete);
        spans->h2d_done_us =
            std::clamp(h2d_total > 0 ? inputs_ready_us : spans->host_done_us,
                       spans->host_done_us, complete);
        spans->compute_done_us =
            std::clamp(compute_done.ready_us, spans->h2d_done_us, complete);
        spans->complete_us = complete;
    }
    return batch_done.ready_us;
}

sim::SimTime
PipelinedExecutor::Drain()
{
    while (!in_flight_.empty()) {
        (void)runtime_.WaitEvent(in_flight_.front());
        in_flight_.pop_front();
    }
    return runtime_.Synchronize();
}

}  // namespace dgnn::serve
