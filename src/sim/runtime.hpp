#pragma once

/// @file
/// The simulated heterogeneous runtime. Models issue host ops, device
/// kernels, and PCIe copies through this class; it advances a deterministic
/// simulated clock, applies the analytic device cost models, tracks memory
/// and transfer volumes, and records everything into a Trace while tracing
/// is on (the default; see SetTracing).
///
/// Execution semantics mirror eager-mode PyTorch + CUDA:
///  * host ops run synchronously on the CPU timeline;
///  * device kernels are asynchronous — the host pays only a submit cost and
///    the kernel lands on the compute stream;
///  * copies block the host (pageable-memory semantics);
///  * Synchronize() blocks the host until every device stream drains.
///
/// On top of the eager substrate the runtime exposes the primitives a
/// pipelined server needs (serve/): a dedicated copy stream,
/// CopyToDeviceAsync/CopyToHostAsync with pinned-memory semantics (the host
/// pays only the submit cost; the DMA engine runs behind it), and Event
/// record/wait for cross-stream dependencies — the cudaEvent analogue.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/device.hpp"
#include "sim/kernel.hpp"
#include "sim/pcie.hpp"
#include "sim/runtime_observer.hpp"
#include "sim/stream.hpp"
#include "sim/topology.hpp"
#include "sim/trace.hpp"
#include "sim/warmup.hpp"
#include "support/check.hpp"

namespace dgnn::sim {

/// Whether inference runs on the CPU alone or offloads to the GPU.
enum class ExecMode {
    kCpuOnly,
    kHybrid,
};

const char* ToString(ExecMode mode);

/// Configuration for a simulated system. The hardware — CPU and GPU specs
/// and the host link — comes only from topology node @p device_index.
struct RuntimeConfig {
    ExecMode mode = ExecMode::kHybrid;
    /// Host-side cost of submitting one asynchronous kernel, us.
    SimTime submit_overhead_us = 1.5;
    /// Host-side cost of recording an event or enqueueing a stream wait, us.
    SimTime event_overhead_us = 0.5;
    /// The cluster this runtime belongs to. It models node @p device_index:
    /// that node's CPU, GPU and host link, and PeerCopyAsync prices
    /// transfers to the other nodes through the topology's peer links.
    /// Construction fails with dgnn::Error on an empty topology or an
    /// out-of-range index.
    Topology topology = Topology::SinglePair();
    int32_t device_index = 0;
};

/// The runtime's device-side in-order queues.
enum class StreamId {
    kCompute,  ///< Default kernel stream.
    kCopy,     ///< Async-copy (DMA engine) stream.
};

/// Cross-stream synchronization marker (the cudaEvent analogue). Obtained
/// from Runtime::RecordEvent; complete once the simulated clock passes
/// ready_us. Copyable value type — recording again returns a new Event.
/// The id is unique per Runtime and identifies the record site to
/// observers (the hazard checker matches waits to records through it).
struct Event {
    SimTime ready_us = 0.0;
    int64_t id = 0;
};

class Runtime;

/// RAII handle for a simulated device/host allocation.
class DeviceBuffer {
  public:
    DeviceBuffer() = default;
    DeviceBuffer(MemoryPool* pool, int64_t id, int64_t bytes)
        : pool_(pool), id_(id), bytes_(bytes) {}
    ~DeviceBuffer() { Release(); }

    DeviceBuffer(const DeviceBuffer&) = delete;
    DeviceBuffer& operator=(const DeviceBuffer&) = delete;
    DeviceBuffer(DeviceBuffer&& other) noexcept { *this = std::move(other); }
    DeviceBuffer& operator=(DeviceBuffer&& other) noexcept;

    int64_t Bytes() const { return bytes_; }
    bool Valid() const { return pool_ != nullptr; }

    /// Frees the allocation early.
    void Release();

  private:
    MemoryPool* pool_ = nullptr;
    int64_t id_ = 0;
    int64_t bytes_ = 0;
};

/// Scoped category annotation: trace events issued inside carry the label.
class CategoryScope;

/// The simulated system: one CPU, optionally one GPU, one PCIe link.
class Runtime {
  public:
    explicit Runtime(RuntimeConfig config = RuntimeConfig{});

    // The category stack caches pointers into this runtime's own
    // CategoryTimes() map, so a copy would write into the original's.
    Runtime(const Runtime&) = delete;
    Runtime& operator=(const Runtime&) = delete;
    Runtime(Runtime&&) = default;
    Runtime& operator=(Runtime&&) = default;

    ExecMode Mode() const { return config_.mode; }
    const RuntimeConfig& Config() const { return config_; }
    bool HasGpu() const { return config_.mode == ExecMode::kHybrid; }

    Device& Cpu() { return cpu_; }
    const Device& Cpu() const { return cpu_; }
    Device& Gpu();
    const Device& Gpu() const;

    /// The device compute kernels land on (GPU when hybrid, else CPU).
    Device& ComputeDevice() { return HasGpu() ? gpu_ : cpu_; }
    const Device& ComputeDevice() const { return HasGpu() ? gpu_ : cpu_; }

    PcieLink& Pcie() { return pcie_; }
    const PcieLink& Pcie() const { return pcie_; }

    /// --- Topology (scale-out) -------------------------------------------

    /// The topology node this runtime models: the CPU/GPU specs and host
    /// link it charges (the hybrid dispatcher prices the same node).
    const TopologyNode& Node() const
    {
        return config_.topology.NodeAt(config_.device_index);
    }

    /// This runtime's node index in the topology.
    int32_t DeviceIndex() const { return config_.device_index; }

    /// Devices in the cluster this runtime belongs to.
    int32_t ClusterDevices() const { return config_.topology.DeviceCount(); }

    /// The directed link from this device to @p peer (a distinct node).
    const LinkSpec& PeerLinkSpec(int32_t peer) const;

    /// Current host (CPU thread) simulated time, us.
    SimTime Now() const { return host_time_; }

    /// --- Category stack -------------------------------------------------
    /// Opens @p category (see CategoryScope). Inline: a frame re-opened at
    /// the same depth under the same name keeps its cached slot.
    void PushCategory(std::string_view category)
    {
        if (category_depth_ == category_stack_.size() ||
            category_stack_[category_depth_].name != category) {
            OpenFrame(category);
        }
        ++category_depth_;
    }
    void PopCategory()
    {
        DGNN_CHECK(category_depth_ > 0, "PopCategory on empty category stack");
        --category_depth_;
    }
    const std::string& CurrentCategory() const;

    /// --- Observer seam (src/analysis/) ----------------------------------

    /// Attaches a passive observer notified of every issued operation and
    /// synchronization action. Null (the default) disables all hooks; the
    /// simulated timeline is bit-identical either way because the hooks
    /// only read state. The observer is borrowed and must outlive the
    /// runtime or be detached first.
    void SetObserver(RuntimeObserver* observer) { observer_ = observer; }
    bool HasObserver() const { return observer_ != nullptr; }

    /// Declares the logical-resource footprint of subsequently issued
    /// operations (innermost declaration wins). Purely observational —
    /// consumed by the observer, never by the cost model. Prefer the RAII
    /// AccessScope below.
    void PushAccess(AccessSet set);
    void PopAccess();
    /// The innermost active declaration, or nullptr.
    const AccessSet* CurrentAccess() const;

    /// --- Work issue -----------------------------------------------------

    /// Runs a CPU-side op synchronously (sampling, batching, host math).
    /// Returns its completion time.
    SimTime RunHost(const KernelDesc& kernel);

    /// Host op with an explicitly modeled duration (e.g. disk load).
    SimTime RunHostFor(const std::string& name, SimTime duration_us);

    /// Launches a compute kernel on the compute device. Asynchronous when a
    /// GPU is present. Returns the kernel completion time on its stream.
    /// @p cache tags the op for observers; only the cache helpers set it.
    SimTime Launch(const KernelDesc& kernel, CacheTag cache = CacheTag::kNone);

    /// Blocking host->device copy. No-op (returns Now()) in CPU-only mode.
    SimTime CopyToDevice(int64_t bytes, const std::string& what,
                         CacheTag cache = CacheTag::kNone);

    /// Blocking device->host copy; waits for the compute stream first.
    SimTime CopyToHost(int64_t bytes, const std::string& what,
                       CacheTag cache = CacheTag::kNone);

    /// --- Cache-aware transfers (cache::DeviceCache cost surface) --------

    /// Host->device gather of @p hit_rows + @p miss_rows rows of
    /// @p row_bytes each through a device-resident cache: misses pay the
    /// blocking PCIe transfer exactly like CopyToDevice, hits cost only a
    /// device-side gather kernel that reads the cached rows into the
    /// batch's staging buffer. Hit bytes accumulate in CacheHitBytes()
    /// (the PCIe traffic the cache saved). No-op in CPU-only mode.
    SimTime GatherToDevice(int64_t hit_rows, int64_t miss_rows, int64_t row_bytes,
                           const std::string& what);

    /// The hit half alone: launches the device-side gather kernel for
    /// @p hit_rows cached rows and credits CacheHitBytes(). Used by the
    /// serving executors, which coalesce the miss rows into the batch's
    /// single staged input copy (blocking or async pinned) instead of
    /// paying a second PCIe transaction. No-op in CPU-only mode or with
    /// zero rows.
    SimTime GatherHits(int64_t hit_rows, int64_t row_bytes,
                       const std::string& what);

    /// Blocking device->host write-back of @p rows dirty cache rows
    /// (evicted or flushed). No-op in CPU-only mode.
    SimTime WriteBackToHost(int64_t rows, int64_t row_bytes,
                            const std::string& what);

    /// H2D bytes served from the device cache (hits) in this measurement
    /// window — the transfer volume the cache avoided.
    int64_t CacheHitBytes() const { return cache_hit_bytes_; }

    /// --- Async copies, events, streams (the pipelining primitives) ------

    /// Asynchronous host->device copy with pinned-memory semantics: the
    /// host pays only the submit overhead while the DMA engine performs the
    /// transfer on the copy stream. Returns the copy completion time.
    /// Ordering against compute kernels is the caller's responsibility
    /// (RecordEvent + StreamWaitEvent). No-op (returns Now()) in CPU-only
    /// mode. The completion time is how callers build that ordering —
    /// ignoring it is almost always a missing-sync bug, hence nodiscard.
    [[nodiscard]] SimTime CopyToDeviceAsync(int64_t bytes,
                                            const std::string& what);

    /// Asynchronous device->host copy on the copy stream (pinned
    /// destination). Does NOT implicitly wait for the compute stream —
    /// insert an event dependency first. No-op in CPU-only mode.
    [[nodiscard]] SimTime CopyToHostAsync(int64_t bytes,
                                          const std::string& what);

    /// Asynchronous device->device transfer from topology peer @p peer into
    /// this device, priced through the directed peer link (its own
    /// contended queue) and landing on the copy stream like the pinned
    /// copies above. Ordering against compute is the caller's
    /// responsibility (RecordEvent + StreamWaitEvent). Requires a peer
    /// node; no-op (returns Now()) in CPU-only mode. Counted in
    /// PeerBytes(), not in the host-link H2D/D2H counters.
    [[nodiscard]] SimTime PeerCopyAsync(int32_t peer, int64_t bytes,
                                        const std::string& what);

    /// Records an event on @p stream: it completes when all work currently
    /// enqueued there has finished (immediately if the stream is idle). In
    /// CPU-only mode events complete at the current host time. A recorded
    /// event only orders anything once somebody waits on it — discarding
    /// one is a dropped sync edge, hence nodiscard.
    [[nodiscard]] Event RecordEvent(StreamId stream);

    /// Makes future work on @p stream wait for @p event (cross-stream
    /// fence). Purely device-side: the host pays only the enqueue cost.
    void StreamWaitEvent(StreamId stream, const Event& event);

    /// Blocks the host until @p event completes; records the wait like
    /// Synchronize(). Returns the (possibly advanced) host time.
    [[nodiscard]] SimTime WaitEvent(const Event& event);

    /// Time at which all work enqueued on @p stream completes.
    [[nodiscard]] SimTime StreamReadyTime(StreamId stream) const;

    /// Advances the host clock to @p until_us without charging CPU busy
    /// time — the serving loop's "wait for the next request" idle state.
    /// No-op when @p until_us is in the past.
    SimTime IdleUntil(SimTime until_us);

    /// Blocks the host until every device stream drains; records the wait.
    /// Returns the drained host time. nodiscard like the rest of the async
    /// API: call sites that genuinely only want the barrier side effect
    /// say so with a (void) cast.
    [[nodiscard]] SimTime Synchronize();

    /// Zero-duration annotation in the trace (phase boundary).
    void Marker(const std::string& name);

    /// --- Memory ---------------------------------------------------------
    /// Discarding the returned RAII handle frees the allocation on the
    /// spot, which is never what a caller means — hence nodiscard.
    [[nodiscard]] DeviceBuffer AllocDevice(int64_t bytes,
                                           const std::string& label);

    /// --- Warm-up --------------------------------------------------------

    /// One-time GPU warm-up (context + model init + weight transfer); the
    /// first call advances the host clock and records marker events, later
    /// calls return the cached report. CPU-only mode pays model init only.
    const OneTimeWarmup& EnsureWarm(int64_t weight_bytes);

    /// Whether EnsureWarm has run.
    bool IsWarm() const { return one_time_warmup_.has_value(); }

    /// Per-run allocation warm-up; advances the host clock.
    PerRunWarmup RunAllocWarmup(int64_t working_set_bytes);

    /// --- Measurement ----------------------------------------------------

    /// Starts a measurement window: resets device busy counters and peak
    /// watermarks; utilization and busy times report from this point.
    void ResetMeasurementWindow();

    SimTime MeasureStart() const { return measure_start_; }

    /// Elapsed host time inside the current measurement window.
    SimTime ElapsedInWindow() const { return host_time_ - measure_start_; }

    /// Compute-device utilization over the current window, percent.
    double ComputeUtilizationPct() const;

    int64_t BytesToDevice() const { return h2d_bytes_; }
    int64_t BytesToHost() const { return d2h_bytes_; }
    int64_t TransferCount() const { return transfer_count_; }

    /// Cross-device (peer-link) traffic in this measurement window.
    int64_t PeerBytes() const { return peer_bytes_; }
    int64_t PeerCopyCount() const { return peer_copy_count_; }
    /// Time the peer links spent occupied by this window's peer copies.
    SimTime PeerLinkTime() const { return peer_link_time_us_; }

    /// Kernels launched in this measurement window (cache hit gathers
    /// included), and the sum of their occupancies: the figures a scan of
    /// the window's kernel trace events would add up, without a trace.
    int64_t KernelLaunches() const { return kernel_launches_; }
    double KernelOccupancySum() const { return kernel_occupancy_sum_; }

    /// Host time spent blocked in Synchronize() since window reset.
    SimTime SyncWaitTime() const { return sync_wait_us_; }

    /// Host time spent in PCIe copies since window reset.
    SimTime TransferTime() const { return transfer_time_us_; }

    /// Host time attributed to each category since the window reset. The
    /// values partition ElapsedInWindow() exactly (async kernel execution is
    /// captured through the Synchronize() waits the model performs), which
    /// is what the paper's per-module breakdowns (Fig 7) report.
    const std::map<std::string, SimTime>& CategoryTimes() const
    {
        return category_time_;
    }

    /// Sets whether issued operations are recorded into the trace; on by
    /// default. Turning it off stops the recording and nothing else: clocks,
    /// streams, links, counters, CategoryTimes() and observer hooks behave
    /// identically, and the trace keeps the events it already holds. A
    /// serving run turns it off because only an observer that reads the
    /// trace needs the per-op events, and that observer turns it back on.
    void SetTracing(bool on) { tracing_ = on; }

    Trace& GetTrace() { return trace_; }
    const Trace& GetTrace() const { return trace_; }

  private:
    /// Advances the host clock, attributing the delta to the current
    /// category. Every host-time mutation funnels through here, so it is
    /// inline.
    void AdvanceHost(SimTime delta_us)
    {
        DGNN_ASSERT(delta_us >= 0.0);
        host_time_ += delta_us;
        SimTime*& slot = category_depth_ == 0
                             ? uncategorized_slot_
                             : category_stack_[category_depth_ - 1].slot;
        if (slot == nullptr) {
            slot = &category_time_[CurrentCategory()];
        }
        *slot += delta_us;
    }

    /// Sets the frame at category_depth_ to @p category with no slot yet.
    void OpenFrame(std::string_view category);

    /// Reports one issued operation, once: into the trace while tracing
    /// (as an event on @p device with @p occupancy) and to the observer
    /// when one is attached. Does nothing when neither is on, inline: most
    /// serving runtimes neither trace nor carry an observer.
    void Report(OpRecord op, std::string_view device, double occupancy = 0.0)
    {
        if (tracing_ || observer_ != nullptr) {
            ReportOp(op, device, occupancy);
        }
    }
    void ReportOp(OpRecord op, std::string_view device, double occupancy);

    TraceEvent MakeEvent(EventKind kind, std::string name, std::string device,
                         SimTime start, SimTime end) const;

    Stream& StreamFor(StreamId id);
    const Stream& StreamFor(StreamId id) const;

    RuntimeConfig config_;
    Device cpu_;
    Device gpu_;
    PcieLink pcie_;
    /// One contended queue per topology peer (self entry never scheduled).
    std::vector<PcieLink> peer_links_;
    Stream compute_stream_;
    Stream copy_stream_;
    SimTime host_time_ = 0.0;
    SimTime measure_start_ = 0.0;
    RuntimeObserver* observer_ = nullptr;
    std::vector<AccessSet> access_stack_;
    int64_t next_event_id_ = 0;
    /// One CategoryScope frame. @c slot is its category_time_ entry, looked
    /// up at the scope's first host advance so AdvanceHost does no map
    /// lookup after that; ResetMeasurementWindow clears the map and with it
    /// every cached slot.
    struct OpenCategory {
        std::string name;
        SimTime* slot = nullptr;
    };
    /// The open scopes are the first category_depth_ frames. A closed frame
    /// stays behind with its slot, so a scope re-opened at the same depth
    /// under the same name (one per served batch or prep group) skips the
    /// map lookup.
    std::vector<OpenCategory> category_stack_;
    size_t category_depth_ = 0;
    /// The "Uncategorized" entry, cached like OpenCategory::slot.
    SimTime* uncategorized_slot_ = nullptr;
    std::map<std::string, SimTime> category_time_;
    std::optional<OneTimeWarmup> one_time_warmup_;
    Trace trace_;
    bool tracing_ = true;
    int64_t h2d_bytes_ = 0;
    int64_t d2h_bytes_ = 0;
    int64_t cache_hit_bytes_ = 0;
    int64_t transfer_count_ = 0;
    int64_t kernel_launches_ = 0;
    double kernel_occupancy_sum_ = 0.0;
    int64_t peer_bytes_ = 0;
    int64_t peer_copy_count_ = 0;
    SimTime peer_link_time_us_ = 0.0;
    SimTime sync_wait_us_ = 0.0;
    SimTime transfer_time_us_ = 0.0;
};

/// RAII helper declaring a logical-resource footprint for the duration of
/// a scope (see RuntimeObserver / AccessSet). Observational only.
class AccessScope {
  public:
    AccessScope(Runtime& runtime, AccessSet set) : runtime_(runtime)
    {
        runtime_.PushAccess(std::move(set));
    }
    ~AccessScope() { runtime_.PopAccess(); }

    AccessScope(const AccessScope&) = delete;
    AccessScope& operator=(const AccessScope&) = delete;

  private:
    Runtime& runtime_;
};

/// An AccessScope declared only when an observer is attached: @p build
/// runs lazily, so unobserved runs pay neither the declaration nor the
/// resource-name construction.
class MaybeAccess {
  public:
    template <typename BuildFn>
    MaybeAccess(Runtime& runtime, BuildFn&& build)
    {
        if (runtime.HasObserver()) {
            scope_.emplace(runtime, build());
        }
    }

  private:
    std::optional<AccessScope> scope_;
};

// The serving loop issues one of each per idle window and per prep group,
// so both are inline.
inline SimTime
Runtime::RunHostFor(const std::string& name, SimTime duration_us)
{
    DGNN_CHECK(duration_us >= 0.0, "negative host duration ", duration_us);
    const SimTime start = host_time_;
    AdvanceHost(duration_us);
    cpu_.AddBusy(duration_us, cpu_.Spec().occupancy_floor);
    Report({.kind = OpKind::kHostOp, .name = &name, .start_us = start,
            .end_us = host_time_},
           cpu_.Name());
    return host_time_;
}

inline SimTime
Runtime::IdleUntil(SimTime until_us)
{
    if (until_us > host_time_) {
        const SimTime start = host_time_;
        AdvanceHost(until_us - host_time_);
        if (tracing_) {
            trace_.Add(MakeEvent(EventKind::kHostOp, "idle", cpu_.Name(), start,
                                 host_time_));
        }
    }
    return host_time_;
}

/// RAII helper pushing a category for the duration of a scope.
class CategoryScope {
  public:
    CategoryScope(Runtime& runtime, std::string_view category)
        : runtime_(runtime)
    {
        runtime_.PushCategory(category);
    }
    ~CategoryScope() { runtime_.PopCategory(); }

    CategoryScope(const CategoryScope&) = delete;
    CategoryScope& operator=(const CategoryScope&) = delete;

  private:
    Runtime& runtime_;
};

}  // namespace dgnn::sim
