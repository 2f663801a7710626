#include "serve/model_session.hpp"

#include <string_view>
#include <utility>

#include "models/fusion_catalog.hpp"
#include "support/check.hpp"

namespace dgnn::serve {

namespace {

/// Trace-name markers the runtime's cache-aware helpers attach (see
/// sim::Runtime::GatherToDevice / WriteBackToHost).
constexpr std::string_view kCacheMissSuffix = ":cache_miss_h2d";
constexpr std::string_view kCacheWritebackSuffix = ":cache_writeback_d2h";

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
    // mode; the trace then holds every op the batch issues, with enough
    // descriptor detail (flops/bytes/parallelism/irregularity) to re-issue
    // it. Warm-up is off, numerics are capped — cost accounting is
    // identical either way (the numeric_cap contract).
    sim::Runtime scratch = models::MakeRuntime(mode_);
    models::RunConfig probe =
        models::SingleBatchProbe(mode_, batch_size, num_neighbors_);
    if (Cached()) {
        // Probe through an unbounded scratch cache: every unique state row
        // misses exactly once and no eviction write-backs occur, so the
        // trace cleanly separates "per-node state" from everything else.
        probe.cache = cache::DeviceCacheConfig::Unbounded(
            model_.CacheRowBytes(), cache_config_.eviction);
    }
    model_.RunInference(scratch, probe);

    BatchProfile profile;
    profile.batch_size = batch_size;
    profile.state_row_bytes = Cached() ? model_.CacheRowBytes() : 0;
    for (const sim::TraceEvent& e : scratch.GetTrace().Events()) {
        switch (e.kind) {
          case sim::EventKind::kHostOp:
            profile.host_us += e.Duration();
            break;
          case sim::EventKind::kKernel: {
            if (Cached() && e.name.ends_with(":cache_hit_gather")) {
                // The probe cache is fresh, so hits cannot occur; guard
                // anyway — live gathers are re-issued by the executor.
                break;
            }
            sim::KernelDesc k;
            k.name = e.name;
            k.flops = e.flops;
            k.bytes = e.bytes;
            k.parallel_items = e.parallel_items;
            k.irregular = e.irregular;
            profile.kernels.push_back(std::move(k));
            break;
          }
          case sim::EventKind::kTransfer:
            if (Cached() && e.name.ends_with(kCacheMissSuffix)) {
                profile.state_rows += e.bytes / profile.state_row_bytes;
            } else if (Cached() &&
                       e.name.ends_with(kCacheWritebackSuffix)) {
                // End-of-run flush of the probe; the live session keeps its
                // rows resident instead.
            } else if (e.direction == sim::CopyDirection::kHostToDevice) {
                profile.h2d_bytes += e.bytes;
            } else if (e.direction == sim::CopyDirection::kDeviceToHost) {
                profile.d2h_bytes += e.bytes;
            }
            break;
          case sim::EventKind::kSync:
          case sim::EventKind::kMarker:
            break;
        }
    }
    // In CPU-only mode kernels run as synchronous host ops through
    // Launch(); they still surface as kKernel events, so the profile is
    // never empty for a real model.
    DGNN_CHECK(!profile.kernels.empty(),
               "batch capture for ", model_.Name(),
               " recorded no device kernels — is the model issuing work "
               "through the runtime?");
    return profile;
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
