#pragma once

/// @file
/// The runtime observability seam. sim::Runtime reports every issued
/// operation and every synchronization action through this passive
/// interface so an analysis layer (src/analysis/ — the happens-before
/// hazard checker) can reconstruct the exact concurrency structure of a
/// run, and serving's batch capture its cost profile, WITHOUT perturbing
/// it: hooks fire after the corresponding simulated work was scheduled,
/// carry read-only state, and a null observer (the default) short-circuits
/// everything, leaving the simulated timeline bit-identical.
///
/// Alongside the hooks, AccessSet/AccessScope let call sites declare the
/// LOGICAL RESOURCES an operation reads and writes (staging buffers,
/// device cache rows, host-side state stores). The declarations are purely
/// observational — they carry no simulated cost — and operations issued
/// with no declaration simply contribute their ordering edges without
/// being access-checked.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sim_time.hpp"

namespace dgnn::sim {

enum class StreamId;
struct Event;
struct KernelDesc;

/// The logical-resource footprint of one or more operations. Resource
/// names are free-form strings; by convention a ":<key>" (a cache row's
/// node) and a trailing "#<instance>" suffix (a staging slot, a cache-row
/// residency generation) separate an instance from its family, and hazard
/// reports deduplicate on the family (see analysis::HazardChecker).
struct AccessSet {
    std::vector<std::string> reads;
    std::vector<std::string> writes;

    bool Empty() const { return reads.empty() && writes.empty(); }
};

/// What kind of operation an OpRecord describes.
enum class OpKind {
    kHostOp,    ///< synchronous CPU work (RunHost / RunHostFor)
    kKernel,    ///< compute kernel (async on the compute stream when hybrid)
    kCopyH2D,   ///< host->device transfer
    kCopyD2H,   ///< device->host transfer
    kCopyPeer,  ///< device->device transfer over a topology peer link
};

/// Which device-cache transfer an op is; set by Runtime's cache helpers.
enum class CacheTag {
    kNone,
    kMissH2D,       ///< GatherToDevice's miss rows over the host link
    kHitGather,     ///< the device-side gather kernel of cached hit rows
    kWritebackD2H,  ///< WriteBackToHost's dirty rows over the host link
};

/// One issued operation, as reported to the observer. Timeline semantics
/// (which the hazard checker mirrors — DESIGN.md §11):
///   * on_host == true: the op ran synchronously on the host timeline.
///     A blocking D2H additionally drained the compute stream first
///     (kind == kCopyD2H && blocking), i.e. the host joined the compute
///     timeline before the access. A blocking H2D (kCopyH2D && blocking)
///     fences the compute stream behind its completion, but because the
///     host is blocked for the copy's duration, later device submissions
///     already order after it through submission order.
///   * on_host == false: the op was enqueued on @p stream (in-order
///     queue); it happens-after everything previously enqueued there and
///     after everything the host had observed at submission time.
struct OpRecord {
    OpKind kind = OpKind::kHostOp;
    /// Operation label (kernel name, copy tag). Borrowed; valid only for
    /// the duration of the hook.
    const std::string* name = nullptr;
    bool on_host = true;
    StreamId stream{};  ///< valid only when !on_host
    /// Blocking copy semantics (see above); false for async copies.
    bool blocking = true;
    SimTime start_us = 0.0;
    SimTime end_us = 0.0;
    int64_t bytes = 0;
    /// The innermost declared footprint, or nullptr when none is active.
    /// Borrowed; valid only for the duration of the hook.
    const AccessSet* access = nullptr;
    /// Read by the batch capture, ignored by the hazard checker: the issuing
    /// descriptor of a kernel or RunHost op (else nullptr; borrowed, valid
    /// only for the hook) and the cache tag.
    const KernelDesc* kernel = nullptr;
    CacheTag cache = CacheTag::kNone;
};

/// Passive observer of one Runtime. All hooks default to no-ops. Hooks are
/// invoked in issue order, which for a deterministic simulation is itself
/// deterministic.
class RuntimeObserver {
  public:
    virtual ~RuntimeObserver() = default;

    /// An operation was issued (host op, kernel launch, or copy).
    virtual void OnOp(const OpRecord&) {}

    /// RecordEvent: @p event completes when all work currently enqueued on
    /// @p stream has finished.
    virtual void OnEventRecorded(const Event& /*event*/, StreamId /*stream*/)
    {
    }

    /// StreamWaitEvent: future work on @p stream happens-after @p event.
    virtual void OnStreamWaitEvent(StreamId /*stream*/, const Event& /*event*/)
    {
    }

    /// WaitEvent: the host blocked until @p event completed (the edge
    /// exists even when the event had already passed).
    virtual void OnHostWaitEvent(const Event& /*event*/) {}

    /// Synchronize: the host drained every device stream.
    virtual void OnSynchronize() {}

    /// ResetMeasurementWindow: a new measurement window starts here (after
    /// the Synchronize it performs); ops issued earlier were set-up.
    virtual void OnWindowReset() {}
};

}  // namespace dgnn::sim
