#pragma once

/// @file
/// Batch executors: how a dispatched batch's cost profile is issued to the
/// runtime.
///
///   * SerialExecutor     — eager-mode semantics, exactly what the offline
///                          models do: per stage a host build, a blocking
///                          H2D and async kernels; then synchronize and a
///                          blocking D2H. One batch owns the whole machine
///                          at a time.
///   * PipelinedExecutor  — the serving optimization the paper's bottleneck
///                          analysis motivates: host build for batch k+1
///                          overlaps device compute for batch k. Inputs move
///                          via async pinned copies on the copy stream; the
///                          compute stream waits on the copy event; results
///                          return via an async D2H behind a compute event.
///                          A depth bound (default 2 = double buffering)
///                          throttles the host when it runs too far ahead.
///
/// Both issue a batch the same way (CopiesOf, StageToIssue): first, at
/// dispatch, the copies that carry only cache state; then its captured
/// stages (BatchStage) in order, so a stage's copies and kernels run while
/// the host does the next stage; then its result copy. On a runtime
/// without a GPU the copies are no-ops and every kernel runs on the host,
/// so the same replay costs what all host work followed by all kernels
/// would. Submit returns the batch's absolute completion time, which for
/// the pipelined executor generally lies beyond the host clock.

#include <cstdint>
#include <deque>
#include <optional>
#include <span>

#include "cache/device_cache.hpp"
#include "dispatch/dispatcher.hpp"
#include "serve/model_session.hpp"
#include "sim/runtime.hpp"

namespace dgnn::serve {

/// Per-batch cache outcome the serving loop resolved against the session's
/// live device cache: how the batch's state gather splits into hits and
/// misses, and how many evicted dirty rows owe a write-back. Inactive
/// (all-zero) for uncached sessions — the profile then already carries the
/// full transfer volume.
struct CacheBatchCost {
    int64_t hit_rows = 0;
    int64_t miss_rows = 0;
    int64_t row_bytes = 0;
    int64_t writeback_rows = 0;
    /// Whether some write-back row is one this batch's own kernels write: a
    /// row its gather touched and then evicted
    /// (cache::GatherResult::evicted_own_row), or a node-blind row's
    /// per-batch sync-back. Such rows cannot leave before the batch's
    /// kernels run.
    bool writes_back_own_rows = false;

    /// Generation-tagged row resources for the hazard checker
    /// (cache::GatherTrace semantics). Filled by the serving loop only
    /// when the runtime has an observer attached; empty otherwise.
    cache::GatherTrace row_trace;

    int64_t WritebackBytes() const { return writeback_rows * row_bytes; }
};

/// The copies of one batch outside its stages' input copies. Both
/// executors issue the dispatch-time ones before any host build, since they
/// carry only cache state whose bytes exist at dispatch.
struct BatchCopies {
    /// Evicted dirty rows written back at dispatch: when the batch returns
    /// no results and every such row was last written by an earlier batch.
    int64_t dispatch_d2h_bytes = 0;
    /// Missed state rows copied in at dispatch: when the stage that gathers
    /// them builds no inputs of its own.
    int64_t dispatch_h2d_bytes = 0;
    /// Evicted dirty rows written back after the last kernel: the
    /// write-backs that did not leave at dispatch.
    int64_t result_writeback_bytes = 0;
    /// The result copy after the last kernel: the batch's results plus
    /// result_writeback_bytes.
    int64_t result_d2h_bytes = 0;
};

/// How @p profile's batch with the resolved @p cache_cost splits its copies.
BatchCopies CopiesOf(const BatchProfile& profile, const CacheBatchCost& cache_cost);

/// One stage of a batch as both executors issue it and the dispatcher
/// prices it.
struct StageWork {
    /// Host build. The batch samples its still-unsampled members first: a
    /// stage's host work less its sampling, plus, on stage 0, the profile's
    /// sampling less the prep credit.
    sim::SimTime host_us = 0.0;
    /// Bytes of the stage's input copy, 0 when it issues none: its own
    /// inputs, on the first copying stage the batch's sampled
    /// neighbourhoods, and on the stage that gathers state the missed rows
    /// unless they left at dispatch.
    int64_t h2d_bytes = 0;
    std::span<const sim::KernelDesc> kernels;
    /// The stage gathers the batch's state rows: it runs the hit gather.
    bool gathers_state = false;
    /// The stage's input copy carries the batch's missed rows (they did not
    /// leave at dispatch).
    bool carries_misses = false;
    /// The stage's kernels update the gathered state rows in place (every
    /// stage from the gathering one on).
    bool updates_state = false;
};

/// Stage @p s of @p profile as the executors issue it, for a batch whose
/// members' sampling already done is worth @p prep_credit_us.
StageWork StageToIssue(const BatchProfile& profile, size_t s,
                       sim::SimTime prep_credit_us,
                       const CacheBatchCost& cache_cost);

/// Stage-boundary timestamps of one submitted batch, filled by the
/// executors for the observability layer (src/obs/). The six boundaries are
/// monotone non-decreasing and complete_us equals the completion time
/// Submit returns, so the consecutive differences partition the batch's
/// in-executor latency exactly:
///
///   dispatch -> stall    pipeline-depth throttle wait (0 for serial)
///   stall    -> host     host-side batch build of every stage, with the
///                        dispatch-time cache-state copies issued first and
///                        the copies and kernel submits issued between
///                        stages (pipelined: also the last stage's submits)
///   host     -> h2d      the last input copy landed on the device
///   h2d      -> compute  device kernels (incl. the cache hit-gather) done
///   compute  -> complete results (+ the write-backs that did not leave at
///                        dispatch) back on the host
///
/// Device work that ran under a later host stage counts as host in this
/// chain. For the pipelined executor the device-side boundaries are event
/// completion times clamped into [host_done, complete]: a batch's H2D may
/// queue behind the previous batch's D2H on the copy stream, and that wait
/// is attributed to the H2D stage. The busy times say how long the batch's
/// input copies and kernels actually ran, wherever the chain put them.
struct BatchSpans {
    sim::SimTime dispatch_us = 0.0;
    sim::SimTime stall_done_us = 0.0;
    sim::SimTime host_done_us = 0.0;
    sim::SimTime h2d_done_us = 0.0;
    sim::SimTime compute_done_us = 0.0;
    sim::SimTime complete_us = 0.0;
    /// Host time spent issuing the batch's input copies, us: the sum of
    /// BatchExecutor::CopyIssueUs over its stages' copies and its
    /// dispatch-time state copy.
    sim::SimTime copy_issue_us = 0.0;
    /// Summed link time of the batch's input copies, the dispatch-time
    /// state copy included, us (0 when nothing crossed PCIe).
    sim::SimTime h2d_busy_us = 0.0;
    /// Summed execution time of the batch's kernels and hit gather, us.
    sim::SimTime compute_busy_us = 0.0;
};

/// Issues batches to the simulated runtime.
class BatchExecutor {
  public:
    explicit BatchExecutor(sim::Runtime& runtime) : runtime_(runtime) {}
    virtual ~BatchExecutor() = default;

    virtual std::string Name() const = 0;

    /// Issues one batch; returns its absolute completion time (when its
    /// results are back on the host). @p prep_credit_us is the sampling the
    /// batch's requests already had done while the server idled (0 when
    /// none had); the batch samples the rest first, in stage 0's host
    /// build, and its sampled neighbourhoods ride its first input copy.
    /// @p cache_cost carries the batch's resolved hit/miss split when the
    /// session serves through a device cache (all-zero for uncached
    /// sessions); its hit gather runs in the stage that gathered state in
    /// the capture, and its misses ride that stage's input copy, or go out
    /// at dispatch when the stage builds no inputs of its own. Its
    /// write-backs ride the result copy, or go out at dispatch, ahead of
    /// the misses, when the batch returns no results (CopiesOf). When
    /// @p spans is non-null the executor records the batch's stage
    /// boundaries into it; the capture only reads the clock, so passing
    /// nullptr vs a target is simulation-identical.
    virtual sim::SimTime Submit(const BatchProfile& profile,
                                sim::SimTime prep_credit_us,
                                const CacheBatchCost& cache_cost,
                                BatchSpans* spans = nullptr) = 0;

    /// Placement-aware entry (the hybrid dispatcher's seam, shared by both
    /// executors). kGpu and kGpuFused forward to Submit with the profile
    /// the caller selected (the serving loop passes the fused profile for
    /// kGpuFused — the kernels arrive pre-collapsed). kCpu runs the batch
    /// synchronously on the host: the whole host build less
    /// @p prep_credit_us, then every kernel as a host op — nothing crosses
    /// PCIe, no streams, the host store stays authoritative. CPU placement
    /// requires an inactive cache_cost (serving only routes uncached
    /// sessions to the host).
    [[nodiscard]] sim::SimTime SubmitPlaced(dispatch::Placement placement,
                                            const BatchProfile& profile,
                                            sim::SimTime prep_credit_us,
                                            const CacheBatchCost& cache_cost,
                                            BatchSpans* spans = nullptr);

    /// Host time Submit spends issuing a stage's input copy of @p bytes
    /// before it goes on to the stage's kernels (0 when nothing moves): what
    /// the dispatcher charges between one host stage and the next.
    [[nodiscard]] virtual sim::SimTime CopyIssueUs(int64_t bytes) const = 0;

    /// Blocks the host until every in-flight batch completes.
    virtual sim::SimTime Drain();

  protected:
    sim::Runtime& runtime_;
};

/// Eager-mode executor: every stage blocks the host.
class SerialExecutor : public BatchExecutor {
  public:
    using BatchExecutor::BatchExecutor;

    std::string Name() const override { return "serial"; }
    sim::SimTime Submit(const BatchProfile& profile, sim::SimTime prep_credit_us,
                        const CacheBatchCost& cache_cost,
                        BatchSpans* spans = nullptr) override;
    /// The blocking copy: the host waits out the transfer.
    sim::SimTime CopyIssueUs(int64_t bytes) const override;
};

/// Multi-stream pipelined executor with bounded in-flight depth.
class PipelinedExecutor : public BatchExecutor {
  public:
    using BatchExecutor::BatchExecutor;

    std::string Name() const override { return "pipelined"; }
    sim::SimTime Submit(const BatchProfile& profile, sim::SimTime prep_credit_us,
                        const CacheBatchCost& cache_cost,
                        BatchSpans* spans = nullptr) override;
    /// The async copy's submit, its event record and the compute stream's
    /// wait on it.
    sim::SimTime CopyIssueUs(int64_t bytes) const override;
    sim::SimTime Drain() override;

  private:
    std::deque<sim::Event> in_flight_;
    /// The last batch's compute-done event: the last writer of any row a
    /// dispatch-time write-back reads (unset before the first batch).
    std::optional<sim::Event> last_compute_;
    /// Batches submitted so far; batch k stages through slot
    /// k % kMaxInFlight (the double-buffer rotation the hazard
    /// annotations describe).
    int64_t submitted_ = 0;
};

}  // namespace dgnn::serve
