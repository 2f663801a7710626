#include "sim/runtime.hpp"

#include <algorithm>
#include <string_view>

#include "support/check.hpp"

namespace dgnn::sim {

namespace {

const std::string kUncategorized = "Uncategorized";

/// The trace device of a peer copy over a link of @p kind.
std::string_view
PeerDevice(LinkKind kind)
{
    return kind == LinkKind::kNvlink ? "peer:nvlink" : "peer:pcie";
}

}  // namespace

const char*
ToString(ExecMode mode)
{
    switch (mode) {
      case ExecMode::kCpuOnly:
        return "CPU";
      case ExecMode::kHybrid:
        return "GPU";
    }
    return "?";
}

DeviceBuffer&
DeviceBuffer::operator=(DeviceBuffer&& other) noexcept
{
    if (this != &other) {
        Release();
        pool_ = other.pool_;
        id_ = other.id_;
        bytes_ = other.bytes_;
        other.pool_ = nullptr;
        other.id_ = 0;
        other.bytes_ = 0;
    }
    return *this;
}

void
DeviceBuffer::Release()
{
    if (pool_ != nullptr) {
        pool_->Free(id_);
        pool_ = nullptr;
        id_ = 0;
        bytes_ = 0;
    }
}

// Node() fails on an empty topology or an out-of-range device index before
// any device is built from it.
Runtime::Runtime(RuntimeConfig config)
    : config_(std::move(config)),
      cpu_(Node().cpu),
      gpu_(Node().gpu),
      pcie_(Node().host_link),
      compute_stream_("compute"),
      copy_stream_("copy")
{
    DGNN_CHECK(cpu_.Spec().kind == DeviceKind::kCpu, "cpu spec must be a CPU");
    DGNN_CHECK(gpu_.Spec().kind == DeviceKind::kGpu, "gpu spec must be a GPU");
    const int32_t devices = ClusterDevices();
    peer_links_.reserve(static_cast<size_t>(devices));
    for (int32_t peer = 0; peer < devices; ++peer) {
        // The self entry keeps the indexing direct; it is never used.
        peer_links_.emplace_back(peer == config_.device_index
                                     ? Node().host_link
                                     : PeerLinkSpec(peer));
    }
}

const LinkSpec&
Runtime::PeerLinkSpec(int32_t peer) const
{
    return config_.topology.PeerLink(config_.device_index, peer);
}

Device&
Runtime::Gpu()
{
    DGNN_CHECK(HasGpu(), "no GPU in CPU-only mode");
    return gpu_;
}

const Device&
Runtime::Gpu() const
{
    DGNN_CHECK(HasGpu(), "no GPU in CPU-only mode");
    return gpu_;
}

void
Runtime::PushCategory(std::string category)
{
    category_stack_.push_back(std::move(category));
}

void
Runtime::PopCategory()
{
    DGNN_CHECK(!category_stack_.empty(), "PopCategory on empty category stack");
    category_stack_.pop_back();
}

const std::string&
Runtime::CurrentCategory() const
{
    return category_stack_.empty() ? kUncategorized : category_stack_.back();
}

void
Runtime::PushAccess(AccessSet set)
{
    access_stack_.push_back(std::move(set));
}

void
Runtime::PopAccess()
{
    DGNN_CHECK(!access_stack_.empty(), "PopAccess on empty access stack");
    access_stack_.pop_back();
}

const AccessSet*
Runtime::CurrentAccess() const
{
    return access_stack_.empty() ? nullptr : &access_stack_.back();
}

void
Runtime::Report(OpRecord op, std::string_view device, double occupancy)
{
    if (tracing_) {
        TraceEvent e = MakeEvent(EventKind::kTransfer, *op.name,
                                 std::string(device), op.start_us, op.end_us);
        switch (op.kind) {
          case OpKind::kHostOp:
            e.kind = EventKind::kHostOp;
            break;
          case OpKind::kKernel:
            e.kind = EventKind::kKernel;
            break;
          case OpKind::kCopyH2D:
            e.direction = CopyDirection::kHostToDevice;
            break;
          case OpKind::kCopyD2H:
            e.direction = CopyDirection::kDeviceToHost;
            break;
          case OpKind::kCopyPeer:
            break;
        }
        e.occupancy = occupancy;
        e.flops = op.kernel != nullptr ? op.kernel->flops : 0;
        e.bytes = op.bytes;
        trace_.Add(std::move(e));
    }
    if (observer_ != nullptr) {
        op.access = CurrentAccess();
        observer_->OnOp(op);
    }
}

void
Runtime::AdvanceHost(SimTime delta_us)
{
    DGNN_ASSERT(delta_us >= 0.0);
    host_time_ += delta_us;
    category_time_[CurrentCategory()] += delta_us;
}

TraceEvent
Runtime::MakeEvent(EventKind kind, std::string name, std::string device, SimTime start,
                   SimTime end) const
{
    TraceEvent e;
    e.kind = kind;
    e.name = std::move(name);
    e.category = CurrentCategory();
    e.device = std::move(device);
    e.start_us = start;
    e.end_us = end;
    return e;
}

SimTime
Runtime::RunHost(const KernelDesc& kernel)
{
    const SimTime duration = KernelDuration(cpu_.Spec(), kernel);
    const double occ = Occupancy(cpu_.Spec(), kernel);
    const SimTime start = host_time_;
    AdvanceHost(duration);
    cpu_.AddBusy(duration, occ);
    Report({.kind = OpKind::kHostOp, .name = &kernel.name, .start_us = start,
            .end_us = host_time_, .bytes = kernel.bytes, .kernel = &kernel},
           cpu_.Name(), occ);
    return host_time_;
}

SimTime
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

SimTime
Runtime::Launch(const KernelDesc& kernel, CacheTag cache)
{
    Device& dev = ComputeDevice();
    const SimTime duration = KernelDuration(dev.Spec(), kernel);
    const SimTime execution = ComputeTime(dev.Spec(), kernel);
    const double occ = Occupancy(dev.Spec(), kernel);

    SimTime start;
    SimTime end;
    if (HasGpu()) {
        // Asynchronous: host pays the submit cost, the kernel queues on the
        // compute stream behind previously launched work.
        const SimTime earliest = host_time_ + config_.submit_overhead_us;
        const Stream::Interval iv = compute_stream_.Enqueue(earliest, duration);
        start = iv.start;
        end = iv.end;
        AdvanceHost(config_.submit_overhead_us);
    } else {
        // Synchronous on the CPU: the host thread *is* the device.
        start = host_time_;
        end = start + duration;
        AdvanceHost(duration);
    }
    // Only the execution portion keeps the device busy; the launch gap is
    // idle time (this is what nvidia-smi-style utilization measures).
    dev.AddBusy(execution, occ);

    // The op spans the execution interval, after the launch gap.
    Report({.kind = OpKind::kKernel, .name = &kernel.name, .on_host = !HasGpu(),
            .blocking = !HasGpu(), .start_us = end - execution, .end_us = end,
            .bytes = kernel.bytes, .kernel = &kernel, .cache = cache},
           dev.Name(), occ);
    return end;
}

SimTime
Runtime::CopyToDevice(int64_t bytes, const std::string& what, CacheTag cache)
{
    if (!HasGpu()) {
        return host_time_;
    }
    const Stream::Interval iv = pcie_.Schedule(host_time_, bytes);
    const SimTime start = host_time_;
    AdvanceHost(iv.end - host_time_);
    h2d_bytes_ += bytes;
    ++transfer_count_;
    transfer_time_us_ += host_time_ - start;
    // Data is visible to later kernels: the stream may not start work that
    // was issued after this copy before the copy ends. Enqueue a zero-length
    // fence at the copy end.
    compute_stream_.Enqueue(iv.end, 0.0);
    Report({.kind = OpKind::kCopyH2D, .name = &what, .start_us = iv.start,
            .end_us = iv.end, .bytes = bytes, .cache = cache},
           "PCIe");
    return host_time_;
}

SimTime
Runtime::CopyToHost(int64_t bytes, const std::string& what, CacheTag cache)
{
    if (!HasGpu()) {
        return host_time_;
    }
    // The copy reads results produced on the compute stream: wait for it.
    const SimTime earliest = std::max(host_time_, compute_stream_.ReadyTime());
    const Stream::Interval iv = pcie_.Schedule(earliest, bytes);
    const SimTime start = host_time_;
    AdvanceHost(iv.end - host_time_);
    d2h_bytes_ += bytes;
    ++transfer_count_;
    transfer_time_us_ += host_time_ - start;
    Report({.kind = OpKind::kCopyD2H, .name = &what, .start_us = iv.start,
            .end_us = iv.end, .bytes = bytes, .cache = cache},
           "PCIe");
    return host_time_;
}

namespace {

/// The device-side gather assembling cached rows into the batch's staging
/// buffer (the index_select a real framework issues): one scattered read
/// plus one contiguous write per row.
KernelDesc
CacheHitGatherKernel(int64_t hit_rows, int64_t row_bytes, const std::string& what)
{
    return {.name = what + ":cache_hit_gather",
            .flops = hit_rows * row_bytes / 4,
            .bytes = 2 * hit_rows * row_bytes,
            .parallel_items = std::max<int64_t>(1, hit_rows * row_bytes / 4),
            .irregular = true};
}

}  // namespace

SimTime
Runtime::GatherToDevice(int64_t hit_rows, int64_t miss_rows, int64_t row_bytes,
                        const std::string& what)
{
    DGNN_CHECK(hit_rows >= 0 && miss_rows >= 0 && row_bytes > 0,
               "invalid cache gather: ", hit_rows, " hits, ", miss_rows,
               " misses, ", row_bytes, " bytes/row");
    if (!HasGpu()) {
        return host_time_;
    }
    if (miss_rows > 0) {
        CopyToDevice(miss_rows * row_bytes, what + ":cache_miss_h2d",
                     CacheTag::kMissH2D);
    }
    GatherHits(hit_rows, row_bytes, what);
    return host_time_;
}

SimTime
Runtime::GatherHits(int64_t hit_rows, int64_t row_bytes, const std::string& what)
{
    DGNN_CHECK(hit_rows >= 0 && row_bytes > 0, "invalid hit gather: ", hit_rows,
               " rows of ", row_bytes, " bytes");
    if (!HasGpu() || hit_rows == 0) {
        return host_time_;
    }
    cache_hit_bytes_ += hit_rows * row_bytes;
    return Launch(CacheHitGatherKernel(hit_rows, row_bytes, what),
                  CacheTag::kHitGather);
}

SimTime
Runtime::WriteBackToHost(int64_t rows, int64_t row_bytes, const std::string& what)
{
    DGNN_CHECK(rows >= 0 && row_bytes > 0, "invalid write-back: ", rows,
               " rows of ", row_bytes, " bytes");
    if (!HasGpu() || rows == 0) {
        return host_time_;
    }
    return CopyToHost(rows * row_bytes, what + ":cache_writeback_d2h",
                      CacheTag::kWritebackD2H);
}

Stream&
Runtime::StreamFor(StreamId id)
{
    return id == StreamId::kCompute ? compute_stream_ : copy_stream_;
}

const Stream&
Runtime::StreamFor(StreamId id) const
{
    return id == StreamId::kCompute ? compute_stream_ : copy_stream_;
}

SimTime
Runtime::StreamReadyTime(StreamId stream) const
{
    return StreamFor(stream).ReadyTime();
}

SimTime
Runtime::CopyToDeviceAsync(int64_t bytes, const std::string& what)
{
    if (!HasGpu()) {
        return host_time_;
    }
    // Pinned-memory semantics: the host only submits; the DMA engine runs
    // the transfer once both the PCIe link and the copy stream are free.
    AdvanceHost(config_.submit_overhead_us);
    const SimTime earliest = std::max(host_time_, copy_stream_.ReadyTime());
    const Stream::Interval iv = pcie_.Schedule(earliest, bytes);
    copy_stream_.Enqueue(iv.end, 0.0);
    h2d_bytes_ += bytes;
    ++transfer_count_;
    Report({.kind = OpKind::kCopyH2D, .name = &what, .on_host = false,
            .stream = StreamId::kCopy, .blocking = false, .start_us = iv.start,
            .end_us = iv.end, .bytes = bytes},
           "PCIe");
    return iv.end;
}

SimTime
Runtime::CopyToHostAsync(int64_t bytes, const std::string& what)
{
    if (!HasGpu()) {
        return host_time_;
    }
    AdvanceHost(config_.submit_overhead_us);
    const SimTime earliest = std::max(host_time_, copy_stream_.ReadyTime());
    const Stream::Interval iv = pcie_.Schedule(earliest, bytes);
    copy_stream_.Enqueue(iv.end, 0.0);
    d2h_bytes_ += bytes;
    ++transfer_count_;
    Report({.kind = OpKind::kCopyD2H, .name = &what, .on_host = false,
            .stream = StreamId::kCopy, .blocking = false, .start_us = iv.start,
            .end_us = iv.end, .bytes = bytes},
           "PCIe");
    return iv.end;
}

SimTime
Runtime::PeerCopyAsync(int32_t peer, int64_t bytes, const std::string& what)
{
    DGNN_CHECK(peer >= 0 && peer < ClusterDevices() &&
                   peer != config_.device_index,
               "invalid peer ", peer, " for device ", config_.device_index,
               " in a ", ClusterDevices(), "-device topology");
    DGNN_CHECK(bytes >= 0, "negative peer-copy size ", bytes);
    if (!HasGpu()) {
        return host_time_;
    }
    // Same submission semantics as the pinned async copies: the host only
    // submits; the transfer runs once both the directed peer link and the
    // copy stream are free.
    AdvanceHost(config_.submit_overhead_us);
    const SimTime earliest = std::max(host_time_, copy_stream_.ReadyTime());
    const Stream::Interval iv =
        peer_links_[static_cast<size_t>(peer)].Schedule(earliest, bytes);
    copy_stream_.Enqueue(iv.end, 0.0);
    peer_bytes_ += bytes;
    ++peer_copy_count_;
    peer_link_time_us_ += iv.end - iv.start;
    Report({.kind = OpKind::kCopyPeer, .name = &what, .on_host = false,
            .stream = StreamId::kCopy, .blocking = false, .start_us = iv.start,
            .end_us = iv.end, .bytes = bytes},
           PeerDevice(PeerLinkSpec(peer).kind));
    return iv.end;
}

Event
Runtime::RecordEvent(StreamId stream)
{
    Event event;
    event.id = next_event_id_++;
    if (!HasGpu()) {
        event.ready_us = host_time_;
    } else {
        AdvanceHost(config_.event_overhead_us);
        // The event completes when work already on the stream completes; an
        // idle stream completes it immediately (at the record point).
        event.ready_us = std::max(StreamFor(stream).ReadyTime(), host_time_);
    }
    if (observer_ != nullptr) {
        observer_->OnEventRecorded(event, stream);
    }
    return event;
}

void
Runtime::StreamWaitEvent(StreamId stream, const Event& event)
{
    if (!HasGpu()) {
        return;
    }
    AdvanceHost(config_.event_overhead_us);
    StreamFor(stream).Enqueue(event.ready_us, 0.0);
    if (observer_ != nullptr) {
        observer_->OnStreamWaitEvent(stream, event);
    }
}

SimTime
Runtime::WaitEvent(const Event& event)
{
    if (event.ready_us > host_time_) {
        const SimTime start = host_time_;
        sync_wait_us_ += event.ready_us - host_time_;
        AdvanceHost(event.ready_us - host_time_);
        if (tracing_) {
            trace_.Add(MakeEvent(EventKind::kSync, "event_wait", cpu_.Name(),
                                 start, host_time_));
        }
    }
    // The ordering edge exists even when the event had already completed.
    if (observer_ != nullptr) {
        observer_->OnHostWaitEvent(event);
    }
    return host_time_;
}

SimTime
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

SimTime
Runtime::Synchronize()
{
    if (!HasGpu()) {
        return host_time_;
    }
    const SimTime ready =
        std::max(compute_stream_.ReadyTime(), copy_stream_.ReadyTime());
    if (ready > host_time_) {
        const SimTime start = host_time_;
        sync_wait_us_ += ready - host_time_;
        AdvanceHost(ready - host_time_);
        if (tracing_) {
            trace_.Add(MakeEvent(EventKind::kSync, "cuda_synchronize",
                                 cpu_.Name(), start, host_time_));
        }
    }
    if (observer_ != nullptr) {
        observer_->OnSynchronize();
    }
    return host_time_;
}

void
Runtime::Marker(const std::string& name)
{
    if (tracing_) {
        trace_.Add(MakeEvent(EventKind::kMarker, name, cpu_.Name(), host_time_,
                             host_time_));
    }
}

DeviceBuffer
Runtime::AllocDevice(int64_t bytes, const std::string& label)
{
    Device& dev = ComputeDevice();
    const int64_t id = dev.Memory().Allocate(bytes, label);
    return DeviceBuffer(&dev.Memory(), id, bytes);
}

const OneTimeWarmup&
Runtime::EnsureWarm(int64_t weight_bytes)
{
    if (one_time_warmup_.has_value()) {
        return *one_time_warmup_;
    }
    const DeviceSpec& spec = ComputeDevice().Spec();
    OneTimeWarmup w = ComputeOneTimeWarmup(spec, pcie_, weight_bytes);

    const SimTime t0 = host_time_;
    AdvanceHost(w.context_init_us);
    if (tracing_) {
        trace_.Add(MakeEvent(EventKind::kMarker, "warmup:context_init",
                             ComputeDevice().Name(), t0, host_time_));
    }
    const SimTime t1 = host_time_;
    AdvanceHost(w.model_init_us);
    if (tracing_) {
        trace_.Add(MakeEvent(EventKind::kMarker, "warmup:model_init",
                             ComputeDevice().Name(), t1, host_time_));
    }
    if (w.weight_transfer_us > 0.0) {
        const SimTime t2 = host_time_;
        AdvanceHost(w.weight_transfer_us);
        if (tracing_) {
            TraceEvent e = MakeEvent(EventKind::kTransfer, "warmup:weights_h2d",
                                     "PCIe", t2, host_time_);
            e.bytes = weight_bytes;
            e.direction = CopyDirection::kHostToDevice;
            trace_.Add(std::move(e));
        }
    }
    // Warm-up stalls the compute stream too: nothing ran before it.
    compute_stream_.Enqueue(host_time_, 0.0);

    one_time_warmup_ = w;
    return *one_time_warmup_;
}

PerRunWarmup
Runtime::RunAllocWarmup(int64_t working_set_bytes)
{
    const PerRunWarmup w =
        ComputePerRunWarmup(ComputeDevice().Spec(), working_set_bytes);
    const SimTime start = host_time_;
    AdvanceHost(w.TotalUs());
    if (tracing_) {
        trace_.Add(MakeEvent(EventKind::kMarker, "warmup:alloc",
                             ComputeDevice().Name(), start, host_time_));
    }
    compute_stream_.Enqueue(host_time_, 0.0);
    return w;
}

void
Runtime::ResetMeasurementWindow()
{
    (void)Synchronize();
    measure_start_ = host_time_;
    cpu_.ResetBusy();
    gpu_.ResetBusy();
    cpu_.Memory().ResetPeak();
    gpu_.Memory().ResetPeak();
    h2d_bytes_ = 0;
    d2h_bytes_ = 0;
    cache_hit_bytes_ = 0;
    transfer_count_ = 0;
    peer_bytes_ = 0;
    peer_copy_count_ = 0;
    peer_link_time_us_ = 0.0;
    sync_wait_us_ = 0.0;
    transfer_time_us_ = 0.0;
    category_time_.clear();
    if (observer_ != nullptr) {
        observer_->OnWindowReset();
    }
}

double
Runtime::ComputeUtilizationPct() const
{
    const SimTime elapsed = ElapsedInWindow();
    return ComputeDevice().UtilizationPct(elapsed);
}

}  // namespace dgnn::sim
