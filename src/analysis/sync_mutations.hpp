#pragma once

/// @file
/// The sync-edge mutation schedule: a synthetic double-buffered async
/// pipeline (mirroring serve::PipelinedExecutor's edge structure) in which
/// each happens-before edge can be individually deleted. Running the intact
/// schedule through the HazardChecker must come back clean; deleting any
/// edge must surface a hazard of a known kind on a known resource family.
/// The mutation wall (tests/analysis_test.cpp) drives this schedule — it
/// is the checker's own regression fixture: a detector that stops firing
/// on a deleted edge fails the wall. The scale-out exchange fence is
/// deleted in the real serving loop instead (ExchangeConfig::install_fence,
/// tests/shard_test.cpp).

#include <cstdint>

#include "analysis/hazard_checker.hpp"
#include "analysis/hazard_report.hpp"

namespace dgnn::analysis {

/// Which synchronization edge of the synthetic pipeline to delete.
/// kNone runs the intact (hazard-free) schedule.
enum class SyncEdge {
    kNone,
    kInputFence,     ///< StreamWaitEvent(compute, inputs_ready)
    kComputeFence,   ///< StreamWaitEvent(copy, compute_done)
    kThrottleWait,   ///< WaitEvent on the oldest batch before slot reuse
    kFinalDrain,     ///< WaitEvent sweep before the host reads results
};

const char* ToString(SyncEdge edge);

/// Runs the synthetic depth-2 pipeline — build, async H2D, kernel, async
/// D2H per batch staged through slot (batch % 2), then a host op consuming
/// every slot's results — over @p batches seeded batch sizes on a hybrid
/// runtime with a HazardChecker attached, deleting @p drop. Deterministic
/// in (drop, seed, batches).
HazardReport RunMutatedPipeline(SyncEdge drop, uint64_t seed,
                                int64_t batches = 6);

}  // namespace dgnn::analysis
