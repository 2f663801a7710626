#include "serve/model_session.hpp"

#include <utility>

#include "models/fusion_catalog.hpp"
#include "support/check.hpp"

namespace dgnn::serve {

namespace {

/// Accumulates one probe batch's BatchProfile from the runtime's op
/// records. Only the measured window counts: set-up before it (a model's
/// one-time resident-table upload) is not paid per served batch.
struct ProfileRecorder final : sim::RuntimeObserver {
    BatchProfile profile;

    void OnWindowReset() override
    {
        profile = {.batch_size = profile.batch_size,
                   .state_row_bytes = profile.state_row_bytes,
                   .kernels = {}};
    }

    void OnOp(const sim::OpRecord& op) override
    {
        switch (op.cache) {
          case sim::CacheTag::kMissH2D:
            profile.state_rows += op.bytes / profile.state_row_bytes;
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
          case sim::OpKind::kHostOp:
            profile.host_us += op.end_us - op.start_us;
            break;
          case sim::OpKind::kKernel:
            profile.kernels.push_back(*op.kernel);
            break;
          case sim::OpKind::kCopyH2D:
            profile.h2d_bytes += op.bytes;
            break;
          case sim::OpKind::kCopyD2H:
            profile.d2h_bytes += op.bytes;
            break;
          case sim::OpKind::kCopyPeer:
            break;
        }
    }
};

}  // namespace

ProfileTable::ProfileTable(models::DgnnModel& model, sim::ExecMode mode,
                           int64_t num_neighbors,
                           cache::DeviceCacheConfig cache_config)
    : model_(model), mode_(mode), num_neighbors_(num_neighbors)
{
    // The cache only exists where it can act honestly: hybrid mode,
    // positive capacity, cacheable per-node state, AND state keyed by the
    // request's own endpoints — the serving loop can only resolve src/dst
    // against the cache, so a model whose gathers reach further (TGAT's
    // sampled-neighbor features) would under-account transfers. Otherwise
    // the sessions serve uncached — bit-identical to a cache-less session.
    if (mode_ == sim::ExecMode::kHybrid && cache_config.capacity_bytes > 0 &&
        model_.CacheRowBytes() > 0 && model_.CacheKeysAreRequestEndpoints()) {
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
        it = profiles_.emplace(batch_size, Capture(batch_size)).first;
    }
    return it->second;
}

const BatchProfile&
ProfileTable::FusedProfile(int64_t batch_size)
{
    auto it = fused_profiles_.find(batch_size);
    if (it == fused_profiles_.end()) {
        BatchProfile fused = Profile(batch_size);
        fused.kernels = models::FuseRegisteredChains(model_, fused.kernels);
        it = fused_profiles_.emplace(batch_size, std::move(fused)).first;
    }
    return it->second;
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
        probe.cache = cache::DeviceCacheConfig::Unbounded(
            model_.CacheRowBytes(), cache_config_.eviction);
    }
    model_.RunInference(scratch, probe);
    // In CPU-only mode kernels run as synchronous host ops through
    // Launch(); they still report as kKernel ops, so the profile is never
    // empty for a real model.
    DGNN_CHECK(!recorder.profile.kernels.empty(),
               "batch capture for ", model_.Name(),
               " recorded no device kernels — is the model issuing work "
               "through the runtime?");
    return std::move(recorder.profile);
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
