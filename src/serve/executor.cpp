#include "serve/executor.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <string>

#include "support/check.hpp"

namespace dgnn::serve {

namespace {

/// Batches the pipelined executor allows in flight before the host blocks
/// (classic double buffering).
constexpr int64_t kMaxInFlight = 2;

/// The hazard-checker name of one staging buffer (see DESIGN.md §11):
/// "<family>#<slot>" for a batch's first stage, "<family>#<slot>.<stage>"
/// for a later one. The families are host_in (pinned host input staging),
/// dev_in (device-side batch inputs), dev_out (device-side batch results)
/// and host_out (pinned host result staging); the input pair is per stage,
/// since a stage's host build fills its staging while the previous stage's
/// copy may still read its own. Serial execution always stages through
/// slot 0 — every batch ends on a host block, so reuse is host-ordered. The
/// pipelined executor rotates slots like its double-buffered staging
/// memory: batch k owns slot k % depth until the throttle wait on its
/// completion event releases it. Built only inside sim::MaybeAccess
/// lambdas, so unobserved runs never build the names.
std::string
Staging(const char* family, int64_t slot, size_t stage = 0)
{
    std::string name(family);
    name += '#';
    name += std::to_string(slot);
    if (stage > 0) {
        name += '.';
        name += std::to_string(stage);
    }
    return name;
}

/// Bytes of stage @p s's input copy before any state rows: its own inputs
/// less its sampled neighbourhoods, which all ride the first copying stage.
int64_t
InputBytes(const BatchProfile& profile, size_t s)
{
    const BatchStage& stage = profile.stages[s];
    int64_t bytes = stage.h2d_bytes - stage.neighborhood_bytes;
    if (s == profile.FirstCopyStage()) {
        for (const BatchStage& other : profile.stages) {
            bytes += other.neighborhood_bytes;
        }
    }
    return bytes;
}

/// Whether the batch's missed state rows go out at dispatch: the stage that
/// gathers them builds no inputs of its own.
bool
MissesAtDispatch(const BatchProfile& profile)
{
    return InputBytes(profile, profile.StateStage()) == 0;
}

/// Footprint of a stage's staged input copy: consumes the stage's host
/// staging buffer and lands its device input buffer; when the missed rows
/// ride it, it reads them from the host store and opens the residency
/// episode of every row the gather inserted.
sim::AccessSet
InputCopyAccess(int64_t slot, size_t stage, const StageWork& work,
                const CacheBatchCost& cache_cost)
{
    sim::AccessSet access;
    access.reads.push_back(Staging("host_in", slot, stage));
    access.writes.push_back(Staging("dev_in", slot, stage));
    if (work.carries_misses) {
        access.reads.emplace_back("host_store");
        access.writes.insert(access.writes.end(),
                             cache_cost.row_trace.inserted_rows.begin(),
                             cache_cost.row_trace.inserted_rows.end());
    }
    return access;
}

/// Footprint of the dispatch-time state copy: the missed rows, read from
/// the host store, land in the gathering stage's device inputs and open
/// the residency episode of every row the gather inserted.
sim::AccessSet
StateCopyAccess(int64_t slot, size_t stage, const CacheBatchCost& cache_cost)
{
    sim::AccessSet access;
    access.reads.emplace_back("host_store");
    access.writes.push_back(Staging("dev_in", slot, stage));
    access.writes.insert(access.writes.end(),
                         cache_cost.row_trace.inserted_rows.begin(),
                         cache_cost.row_trace.inserted_rows.end());
    return access;
}

/// Footprint of a write-back: reads the evicted dirty rows and lands them
/// in the host-side state store.
sim::AccessSet
WritebackAccess(const CacheBatchCost& cache_cost)
{
    sim::AccessSet access;
    access.reads = cache_cost.row_trace.evicted_dirty_rows;
    access.writes.emplace_back("host_store");
    return access;
}

/// Footprint of a stage's compute kernels: consume the staged inputs of
/// this and every earlier stage, produce the staged results, and update the
/// batch's gathered state rows in place from the gathering stage on.
sim::AccessSet
KernelAccess(int64_t slot, size_t stage, const StageWork& work,
             const CacheBatchCost& cache_cost)
{
    sim::AccessSet access;
    for (size_t earlier = 0; earlier <= stage; ++earlier) {
        access.reads.push_back(Staging("dev_in", slot, earlier));
    }
    access.writes.push_back(Staging("dev_out", slot));
    if (work.updates_state) {
        access.writes.insert(access.writes.end(),
                             cache_cost.row_trace.hit_rows.begin(),
                             cache_cost.row_trace.hit_rows.end());
        access.writes.insert(access.writes.end(),
                             cache_cost.row_trace.inserted_rows.begin(),
                             cache_cost.row_trace.inserted_rows.end());
    }
    return access;
}

/// Footprint of the result copy: reads the device results plus any
/// evicted-dirty rows riding the transfer, lands the host staging buffer
/// and (for write-backs) the host-side state store.
sim::AccessSet
ResultCopyAccess(int64_t slot, const CacheBatchCost& cache_cost,
                 bool writebacks)
{
    sim::AccessSet access;
    if (writebacks) {
        access = WritebackAccess(cache_cost);
    }
    access.reads.push_back(Staging("dev_out", slot));
    access.writes.push_back(Staging("host_out", slot));
    return access;
}

/// Footprint of the device-side hit-gather kernel: reads the resident rows
/// the batch hit and appends them to the stage's device inputs.
sim::AccessSet
HitGatherAccess(int64_t slot, size_t stage, const CacheBatchCost& cache_cost)
{
    sim::AccessSet access;
    access.reads = cache_cost.row_trace.hit_rows;
    access.writes.push_back(Staging("dev_in", slot, stage));
    return access;
}

/// What replaying a batch's stages left for its spans.
struct StagesIssued {
    /// Clock when the last stage's host build ended.
    sim::SimTime host_done_us = 0.0;
    /// When the last input copy's inputs were ready; unset when no stage
    /// moved bytes.
    std::optional<sim::SimTime> inputs_ready_us;
    /// Host time spent issuing the input copies.
    sim::SimTime copy_issue_us = 0.0;
    sim::SimTime h2d_busy_us = 0.0;
    sim::SimTime compute_busy_us = 0.0;
};

/// Issues @p profile's batch on @p runtime through staging slot @p slot, up
/// to its result copy: at dispatch its write-backs (@p write_back issues
/// them) and then its missed rows, when CopiesOf sends them there; then per
/// stage one host build, one staged input copy when the stage moves bytes,
/// the hit gather on the stage that gathers state, then the stage's
/// kernels. @p copy_in issues every input copy and returns when its inputs
/// are ready.
template <typename WriteBack, typename CopyIn>
StagesIssued
IssueStages(sim::Runtime& runtime, const BatchProfile& profile,
            sim::SimTime prep_credit_us, const CacheBatchCost& cache_cost,
            const BatchCopies& copies, int64_t slot, WriteBack&& write_back,
            CopyIn&& copy_in)
{
    StagesIssued issued;
    const auto issue_copy_in = [&](int64_t bytes) {
        const sim::SimTime issue_start = runtime.Now();
        issued.inputs_ready_us = copy_in(bytes);
        issued.copy_issue_us += runtime.Now() - issue_start;
        if (runtime.HasGpu()) {
            issued.h2d_busy_us += runtime.Pcie().TransferTime(bytes);
        }
    };
    if (copies.dispatch_d2h_bytes > 0) {
        sim::MaybeAccess access(runtime,
                                [&] { return WritebackAccess(cache_cost); });
        write_back();
    }
    if (copies.dispatch_h2d_bytes > 0) {
        sim::MaybeAccess access(runtime, [&] {
            return StateCopyAccess(slot, profile.StateStage(), cache_cost);
        });
        issue_copy_in(copies.dispatch_h2d_bytes);
    }
    const sim::Device& device = runtime.ComputeDevice();
    for (size_t s = 0; s < profile.stages.size(); ++s) {
        const StageWork stage = StageToIssue(profile, s, prep_credit_us, cache_cost);
        {
            sim::MaybeAccess access(runtime, [&] {
                sim::AccessSet set;
                set.writes.push_back(Staging("host_in", slot, s));
                return set;
            });
            runtime.RunHostFor("batch_build", stage.host_us);
        }
        issued.host_done_us = runtime.Now();
        if (stage.h2d_bytes > 0) {
            sim::MaybeAccess access(runtime, [&] {
                return InputCopyAccess(slot, s, stage, cache_cost);
            });
            issue_copy_in(stage.h2d_bytes);
        }
        const sim::SimTime busy_before = device.BusyTime();
        if (stage.gathers_state && cache_cost.hit_rows > 0) {
            sim::MaybeAccess access(runtime, [&] {
                return HitGatherAccess(slot, s, cache_cost);
            });
            runtime.GatherHits(cache_cost.hit_rows, cache_cost.row_bytes,
                               "serve_state");
        }
        {
            sim::MaybeAccess access(runtime, [&] {
                return KernelAccess(slot, s, stage, cache_cost);
            });
            for (const sim::KernelDesc& kernel : stage.kernels) {
                runtime.Launch(kernel);
            }
        }
        issued.compute_busy_us += device.BusyTime() - busy_before;
    }
    return issued;
}

}  // namespace

BatchCopies
CopiesOf(const BatchProfile& profile, const CacheBatchCost& cache_cost)
{
    BatchCopies copies;
    const bool writeback_at_dispatch =
        profile.d2h_bytes == 0 && !cache_cost.writes_back_own_rows;
    (writeback_at_dispatch ? copies.dispatch_d2h_bytes
                           : copies.result_writeback_bytes) =
        cache_cost.WritebackBytes();
    copies.result_d2h_bytes = profile.d2h_bytes + copies.result_writeback_bytes;
    if (MissesAtDispatch(profile)) {
        copies.dispatch_h2d_bytes = cache_cost.miss_rows * cache_cost.row_bytes;
    }
    return copies;
}

StageWork
StageToIssue(const BatchProfile& profile, size_t s, sim::SimTime prep_credit_us,
             const CacheBatchCost& cache_cost)
{
    const BatchStage& stage = profile.stages[s];
    const size_t state_stage = profile.StateStage();
    // Stage 0 samples the still-unsampled members; a one-stage profile's
    // host work stays host_us - prep_credit_us to the bit.
    const sim::SimTime host_us =
        s == 0 ? stage.host_us + (profile.prep_us - stage.prep_us) - prep_credit_us
               : stage.host_us - stage.prep_us;
    const bool misses_ride = s == state_stage && !MissesAtDispatch(profile);
    return {.host_us = host_us,
            .h2d_bytes = InputBytes(profile, s) +
                         (misses_ride ? cache_cost.miss_rows * cache_cost.row_bytes
                                      : 0),
            .kernels = profile.StageKernels(s),
            .gathers_state = s == state_stage,
            .carries_misses = misses_ride && cache_cost.miss_rows > 0,
            .updates_state = s >= state_stage};
}

sim::SimTime
BatchExecutor::Drain()
{
    return runtime_.Synchronize();
}

sim::SimTime
BatchExecutor::SubmitPlaced(dispatch::Placement placement,
                            const BatchProfile& profile,
                            sim::SimTime prep_credit_us,
                            const CacheBatchCost& cache_cost, BatchSpans* spans)
{
    if (placement != dispatch::Placement::kCpu) {
        return Submit(profile, prep_credit_us, cache_cost, spans);
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
        runtime_.RunHostFor("batch_build", profile.host_us - prep_credit_us);
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
        spans->compute_busy_us = runtime_.Now() - host_done;
    }
    return runtime_.Now();
}

sim::SimTime
SerialExecutor::Submit(const BatchProfile& profile, sim::SimTime prep_credit_us,
                       const CacheBatchCost& cache_cost, BatchSpans* spans)
{
    sim::CategoryScope scope(runtime_, "Serving Batch");
    const int64_t slot = 0;
    const sim::SimTime dispatch = runtime_.Now();
    // Every copy blocks the host: the dispatch-time write-backs and missed
    // rows, then each stage's inputs (with the missed state rows on the
    // stage that gathered them, unless they went at dispatch) in one staged
    // copy; cache hits cost only the device-side gather kernel. Kernels are
    // async, so a stage's kernels run while the host builds the next stage.
    const BatchCopies copies = CopiesOf(profile, cache_cost);
    const auto write_back = [&] {
        runtime_.WriteBackToHost(cache_cost.writeback_rows, cache_cost.row_bytes,
                                 "serve_state");
    };
    const StagesIssued issued = IssueStages(
        runtime_, profile, prep_credit_us, cache_cost, copies, slot, write_back,
        [&](int64_t bytes) {
            return runtime_.CopyToDevice(bytes, "serve_inputs_h2d");
        });
    (void)runtime_.Synchronize();
    const sim::SimTime compute_done = runtime_.Now();
    if (profile.d2h_bytes > 0) {
        sim::MaybeAccess access(runtime_, [&] {
            return ResultCopyAccess(slot, cache_cost, false);
        });
        runtime_.CopyToHost(profile.d2h_bytes, "serve_results_d2h");
    }
    if (copies.result_writeback_bytes > 0) {
        sim::MaybeAccess access(runtime_,
                                [&] { return WritebackAccess(cache_cost); });
        write_back();
    }
    if (spans != nullptr) {
        // Every copy and the final sync block the host, so the boundaries
        // are plain clock reads: already monotone, no clamping needed.
        spans->dispatch_us = dispatch;
        spans->stall_done_us = dispatch;  // no pipeline throttle
        spans->host_done_us = issued.host_done_us;
        spans->h2d_done_us = std::max(
            issued.host_done_us,
            issued.inputs_ready_us.value_or(issued.host_done_us));
        spans->compute_done_us = compute_done;
        spans->complete_us = runtime_.Now();
        spans->copy_issue_us = issued.copy_issue_us;
        spans->h2d_busy_us = issued.h2d_busy_us;
        spans->compute_busy_us = issued.compute_busy_us;
    }
    return runtime_.Now();
}

sim::SimTime
PipelinedExecutor::Submit(const BatchProfile& profile,
                          sim::SimTime prep_credit_us,
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

    // Host stages overlap whatever the device still runs, this batch's
    // earlier stages included. Every input copy is a pinned async H2D on the
    // copy stream, and the compute stream waits on that copy's event, not
    // the host; the hit-gather kernel and the stage's kernels queue behind
    // the fence. Missed state rows ride the copy of the stage that gathered
    // them (one pinned buffer, one DMA), or go at dispatch when that stage
    // has no inputs of its own. A dispatch-time write-back goes first, once
    // the rows' last writer, the last batch's kernels, is done; the missed
    // rows queue behind it, so the compute fence on them covers it too.
    const BatchCopies copies = CopiesOf(profile, cache_cost);
    DGNN_CHECK(copies.dispatch_d2h_bytes == 0 || cache_cost.miss_rows > 0,
               "a write-back at dispatch needs the misses that evicted its "
               "rows");
    const StagesIssued issued = IssueStages(
        runtime_, profile, prep_credit_us, cache_cost, copies, slot,
        [&] {
            if (last_compute_.has_value()) {
                runtime_.StreamWaitEvent(sim::StreamId::kCopy, *last_compute_);
            }
            (void)runtime_.CopyToHostAsync(copies.dispatch_d2h_bytes,
                                           "serve_writeback_d2h");
        },
        [&](int64_t bytes) {
            (void)runtime_.CopyToDeviceAsync(bytes, "serve_inputs_h2d");
            const sim::Event inputs_ready =
                runtime_.RecordEvent(sim::StreamId::kCopy);
            runtime_.StreamWaitEvent(sim::StreamId::kCompute, inputs_ready);
            return inputs_ready.ready_us;
        });

    // Result stage: D2H (results + the write-backs not issued at dispatch)
    // behind the batch's compute event.
    const sim::Event compute_done = runtime_.RecordEvent(sim::StreamId::kCompute);
    last_compute_ = compute_done;
    sim::Event batch_done = compute_done;
    if (copies.result_d2h_bytes > 0) {
        sim::MaybeAccess access(runtime_, [&] {
            return ResultCopyAccess(slot, cache_cost,
                                    copies.result_writeback_bytes > 0);
        });
        runtime_.StreamWaitEvent(sim::StreamId::kCopy, compute_done);
        (void)runtime_.CopyToHostAsync(copies.result_d2h_bytes,
                                       "serve_results_d2h");
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
            std::clamp(issued.inputs_ready_us.value_or(spans->host_done_us),
                       spans->host_done_us, complete);
        spans->compute_done_us =
            std::clamp(compute_done.ready_us, spans->h2d_done_us, complete);
        spans->complete_us = complete;
        spans->copy_issue_us = issued.copy_issue_us;
        spans->h2d_busy_us = issued.h2d_busy_us;
        spans->compute_busy_us = issued.compute_busy_us;
    }
    return batch_done.ready_us;
}

sim::SimTime
SerialExecutor::CopyIssueUs(int64_t bytes) const
{
    return bytes > 0 && runtime_.HasGpu() ? runtime_.Pcie().TransferTime(bytes)
                                          : 0.0;
}

sim::SimTime
PipelinedExecutor::CopyIssueUs(int64_t bytes) const
{
    const sim::RuntimeConfig& config = runtime_.Config();
    return bytes > 0 && runtime_.HasGpu()
               ? config.submit_overhead_us + 2.0 * config.event_overhead_us
               : 0.0;
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
