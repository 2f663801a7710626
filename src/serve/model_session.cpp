#include "serve/model_session.hpp"

#include <bit>
#include <utility>

#include "models/fusion_catalog.hpp"
#include "support/check.hpp"

namespace dgnn::serve {

namespace {

/// Accumulates one probe batch's BatchProfile from the runtime's op
/// records, stage by stage. Only the measured window counts: set-up before
/// it (a model's one-time resident-table upload) is not paid per served
/// batch.
///
/// While recording, a stage's host_us and prep_us hold the running totals
/// at its end; Finish() turns them into each stage's increment. The
/// increments of one running sum fold back into that sum, so the stage
/// totals reproduce the host time summed op by op.
struct ProfileRecorder final : sim::RuntimeObserver {
    BatchProfile profile;
    /// Whether the open stage has issued device work yet: the next host op
    /// then opens a new stage.
    bool device_work = false;
    sim::SimTime host_total = 0.0;
    sim::SimTime prep_total = 0.0;

    void OnWindowReset() override
    {
        BatchProfile fresh;
        fresh.batch_size = profile.batch_size;
        fresh.state_row_bytes = profile.state_row_bytes;
        profile = std::move(fresh);
        device_work = false;
        host_total = 0.0;
        prep_total = 0.0;
    }

    /// The stage an op of the given side belongs to.
    BatchStage& StageFor(bool host_op)
    {
        if (profile.stages.empty() || (host_op && device_work)) {
            profile.stages.push_back(
                {.host_us = host_total, .prep_us = prep_total});
            device_work = false;
        }
        device_work = device_work || !host_op;
        return profile.stages.back();
    }

    void OnOp(const sim::OpRecord& op) override
    {
        switch (op.cache) {
          case sim::CacheTag::kMissH2D:
            StageFor(false).state_rows += op.bytes / profile.state_row_bytes;
            return;
          case sim::CacheTag::kHitGather:
            // The probe cache is fresh, so hits cannot occur; live gathers
            // are re-issued by the executor anyway.
          case sim::CacheTag::kWritebackD2H:
            // End-of-run flush of the probe; the live session keeps its
            // rows resident instead.
            return;
          case sim::CacheTag::kNone:
            break;
        }
        switch (op.kind) {
          case sim::OpKind::kHostOp: {
            BatchStage& stage = StageFor(true);
            host_total += op.end_us - op.start_us;
            stage.host_us = host_total;
            if (op.kernel != nullptr &&
                op.kernel->name == models::kSamplingKernelName) {
                prep_total += op.end_us - op.start_us;
                stage.prep_us = prep_total;
            }
            break;
          }
          case sim::OpKind::kKernel:
            ++StageFor(false).launches;
            profile.kernels.push_back(*op.kernel);
            break;
          case sim::OpKind::kCopyH2D: {
            BatchStage& stage = StageFor(false);
            stage.h2d_bytes += op.bytes;
            if (*op.name == models::kNeighborhoodCopyName) {
                stage.neighborhood_bytes += op.bytes;
            }
            break;
          }
          case sim::OpKind::kCopyD2H:
            StageFor(false).d2h_bytes += op.bytes;
            break;
          case sim::OpKind::kCopyPeer:
            break;
        }
    }

    /// Turns the stages' running totals into increments and sets the
    /// profile's totals to the sums over its stages.
    BatchProfile Finish()
    {
        std::vector<BatchStage>& stages = profile.stages;
        for (size_t i = stages.size(); i-- > 1;) {
            stages[i].host_us -= stages[i - 1].host_us;
            stages[i].prep_us -= stages[i - 1].prep_us;
        }
        profile.host_us = 0.0;
        profile.prep_us = 0.0;
        profile.h2d_bytes = 0;
        profile.d2h_bytes = 0;
        profile.state_rows = 0;
        for (const BatchStage& stage : stages) {
            profile.host_us += stage.host_us;
            profile.prep_us += stage.prep_us;
            profile.h2d_bytes += stage.h2d_bytes;
            profile.d2h_bytes += stage.d2h_bytes;
            profile.state_rows += stage.state_rows;
        }
        return std::move(profile);
    }
};

/// The first stage of @p profile for which @p holds is true, else 0.
template <typename Pred>
size_t
FirstStage(const BatchProfile& profile, Pred holds)
{
    for (size_t i = 0; i < profile.stages.size(); ++i) {
        if (holds(profile.stages[i])) {
            return i;
        }
    }
    return 0;
}

}  // namespace

size_t
BatchProfile::StateStage() const
{
    return FirstStage(*this, [](const BatchStage& s) { return s.state_rows > 0; });
}

size_t
BatchProfile::FirstCopyStage() const
{
    return FirstStage(*this, [](const BatchStage& s) { return s.h2d_bytes > 0; });
}

std::span<const sim::KernelDesc>
BatchProfile::StageKernels(size_t stage) const
{
    int64_t first = 0;
    for (size_t i = 0; i < stage; ++i) {
        first += stages[i].launches;
    }
    return std::span<const sim::KernelDesc>(kernels).subspan(
        static_cast<size_t>(first),
        static_cast<size_t>(stages[stage].launches));
}

ProfileTable::ProfileTable(models::DgnnModel& model, sim::ExecMode mode,
                           int64_t num_neighbors,
                           cache::DeviceCacheConfig cache_config)
    : model_(model), mode_(mode), num_neighbors_(num_neighbors)
{
    // The cache only exists where it acts: hybrid mode, positive capacity
    // and mutable per-node state (TGN memory, JODIE embeddings, keyed by
    // the request's endpoints); TGAT's read-only features stay resident.
    // Otherwise the sessions serve uncached, bit-identical to no cache.
    if (mode_ == sim::ExecMode::kHybrid && cache_config.capacity_bytes > 0 &&
        model_.CacheRowsMutable()) {
        cache_config.row_bytes = model_.CacheRowBytes();
        cache_config_ = cache_config;
    }
}

const BatchProfile&
ProfileTable::Profile(int64_t batch_size)
{
    DGNN_CHECK(batch_size > 0, "batch size must be positive, got ", batch_size);
    auto it = profiles_.find(batch_size);
    if (it == profiles_.end()) {
        auto priced = prepped_.extract(batch_size);
        it = profiles_
                 .emplace(batch_size, priced ? std::move(priced.mapped())
                                             : Capture(batch_size))
                 .first;
    }
    return it->second;
}

const BatchProfile&
ProfileTable::FusedProfile(int64_t batch_size)
{
    auto it = fused_profiles_.find(batch_size);
    if (it == fused_profiles_.end()) {
        BatchProfile fused = Profile(batch_size);
        std::vector<size_t> last_member;
        fused.kernels =
            models::FuseRegisteredChains(model_, fused.kernels, last_member);
        // A fused kernel runs in the stage of its chain's last member: the
        // stage whose unfused launches end past that member's index.
        size_t unfused_end = 0;
        size_t next = 0;
        for (BatchStage& stage : fused.stages) {
            unfused_end += static_cast<size_t>(stage.launches);
            const size_t first = next;
            while (next < last_member.size() && last_member[next] < unfused_end) {
                ++next;
            }
            stage.launches = static_cast<int64_t>(next - first);
        }
        it = fused_profiles_.emplace(batch_size, std::move(fused)).first;
    }
    return it->second;
}

sim::SimTime
ProfileTable::PrepUs(int64_t group_size)
{
    DGNN_CHECK(group_size > 0, "group size must be positive, got ", group_size);
    const auto lo = static_cast<int64_t>(
        std::bit_floor(static_cast<uint64_t>(group_size)));
    const sim::SimTime at_lo = CapturedPrepUs(lo);
    if (lo == group_size) {
        return at_lo;
    }
    return at_lo + (CapturedPrepUs(2 * lo) - at_lo) *
                       static_cast<double>(group_size - lo) /
                       static_cast<double>(lo);
}

sim::SimTime
ProfileTable::CapturedPrepUs(int64_t size)
{
    if (const auto it = profiles_.find(size); it != profiles_.end()) {
        return it->second.prep_us;
    }
    auto [it, inserted] = prepped_.try_emplace(size);
    if (inserted) {
        it->second = Capture(size);
    }
    return it->second.prep_us;
}

BatchProfile
ProfileTable::Capture(int64_t batch_size)
{
    // Replay the model's batched entry on a scratch runtime of the same
    // mode and record its ops. Warm-up is off, numerics are capped — cost
    // accounting is identical either way (the numeric_cap contract).
    ProfileRecorder recorder;
    recorder.profile.batch_size = batch_size;
    recorder.profile.state_row_bytes = Cached() ? model_.CacheRowBytes() : 0;
    sim::Runtime scratch = models::MakeRuntime(mode_);
    scratch.SetTracing(false);
    scratch.SetObserver(&recorder);
    models::RunConfig probe =
        models::SingleBatchProbe(mode_, batch_size, num_neighbors_);
    if (Cached()) {
        // Probe through an unbounded scratch cache: every unique state row
        // misses exactly once and no eviction write-backs occur, so the
        // cache tags cleanly separate "per-node state" from everything else.
        probe.cache = cache::DeviceCacheConfig::Unbounded(model_.CacheRowBytes());
    }
    model_.RunInference(scratch, probe);
    // In CPU-only mode kernels run as synchronous host ops through
    // Launch(); they still report as kKernel ops, so the profile is never
    // empty for a real model.
    DGNN_CHECK(!recorder.profile.kernels.empty(),
               "batch capture for ", model_.Name(),
               " recorded no device kernels — is the model issuing work "
               "through the runtime?");
    return recorder.Finish();
}

ModelSession::ModelSession(models::DgnnModel& model, sim::ExecMode mode,
                           int64_t num_neighbors,
                           cache::DeviceCacheConfig cache_config)
    : owned_(std::make_unique<ProfileTable>(model, mode, num_neighbors,
                                            cache_config)),
      profiles_(*owned_),
      cache_(profiles_.CacheConfig())
{
}

ModelSession::ModelSession(ProfileTable& profiles)
    : profiles_(profiles), cache_(profiles_.CacheConfig())
{
}

}  // namespace dgnn::serve
