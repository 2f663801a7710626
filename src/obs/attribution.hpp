#pragma once

/// @file
/// Online bottleneck attribution — the paper's Fig 6/7 taxonomy applied
/// per batch, while serving. Each dispatched batch's time decomposes into
/// four components built from its spans:
///
///   queueing = mean member queue wait + pipeline-throttle stall
///              (time the work existed but the server couldn't start it)
///   host     = host-side batch build + submit overheads
///   transfer = PCIe input staging (H2D) + result/write-back return (D2H)
///   compute  = device kernel execution (incl. the cache hit-gather)
///
/// The batch is classified by its largest component. Aggregating the
/// classifications over a run yields the scenario's bottleneck profile —
/// the online analogue of the paper's offline breakdown. A flash crowd
/// drives batches queueing-dominated; otherwise CPU-side sampling keeps
/// TGN and TGAT batches host-dominated over the testbed's PCIe link, even
/// on cache-adversarial node streams (bench_serving_observability's
/// hotset-drift and community-churn cells). Batches turn
/// transfer-dominated when the host link itself is slow: a node whose link
/// is 1000x slower than PCIe gen4 does it.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/observer.hpp"

namespace dgnn::obs {

/// The dominant-cost taxonomy. kCrossShard (the peer-link time a batch's
/// alltoall exchange occupied — sharded serving only) is appended LAST so
/// every pre-scale-out consumer indexing the first four categories, and
/// every unsharded run (where it is identically zero), is unaffected.
enum class BottleneckCategory {
    kQueueing,
    kHost,
    kTransfer,
    kCompute,
    kCrossShard,
};

inline constexpr int kNumBottleneckCategories = 5;

const char* ToString(BottleneckCategory category);

/// One batch's component decomposition and verdict.
struct BatchAttribution {
    int64_t batch_index = 0;
    double queueing_us = 0.0;
    double host_us = 0.0;
    double transfer_us = 0.0;
    double compute_us = 0.0;
    /// Peer-link occupancy of the batch's cross-shard exchange. NOTE: the
    /// exchange overlaps the stage it delays (the copy stream), so unlike
    /// the other four this component does not extend the span telescope —
    /// it over-covers in sharded runs and is zero otherwise.
    double cross_shard_us = 0.0;
    BottleneckCategory dominant = BottleneckCategory::kQueueing;

    double TotalUs() const
    {
        return queueing_us + host_us + transfer_us + compute_us +
               cross_shard_us;
    }
};

/// Largest component wins; ties break in enum order (queueing first),
/// deterministically. The defaulted cross-shard component keeps every
/// pre-scale-out call site's verdicts unchanged.
BottleneckCategory Classify(double queueing_us, double host_us,
                            double transfer_us, double compute_us,
                            double cross_shard_us = 0.0);

/// Run-level aggregate of per-batch verdicts.
struct AttributionSummary {
    /// Batches classified into each category, indexed by BottleneckCategory.
    std::array<int64_t, kNumBottleneckCategories> batches{};
    /// Total component time accumulated across all batches, us.
    std::array<double, kNumBottleneckCategories> total_us{};
    int64_t total_batches = 0;

    /// Share of batches carrying the category's verdict, percent.
    double BatchSharePct(BottleneckCategory category) const;
    /// Share of summed component time, percent.
    double TimeSharePct(BottleneckCategory category) const;
    /// Category with the most batch verdicts (ties: enum order).
    BottleneckCategory Dominant() const;
    /// Category with the largest summed component time (ties: enum order).
    /// Batch votes weight every batch equally; this weights by time, so a
    /// few giant queueing batches can out-rank many small host-bound ones.
    BottleneckCategory DominantByTime() const;
};

/// Classifies every observed batch and aggregates the verdicts.
class BottleneckAttributor {
  public:
    void OnBatch(const serve::BatchObservation& ob);

    const std::vector<BatchAttribution>& Batches() const { return batches_; }
    AttributionSummary Summary() const;

    void Clear() { batches_.clear(); }

  private:
    std::vector<BatchAttribution> batches_;
};

/// Per-placement accounting of one run's dispatch verdicts.
struct PlacementBucket {
    int64_t batches = 0;
    /// Sum of the dispatcher's predicted service time for batches routed
    /// here, less each batch's prep credit (the sampling its members had
    /// done before dispatch), us.
    double predicted_us = 0.0;
    /// Sum of the measured in-executor service time (stall_done ->
    /// complete, i.e. excluding queue wait), us.
    double actual_us = 0.0;
};

/// Audits the hybrid dispatcher through the observation seam: how batches
/// were routed and how the cost-model predictions the routing was based on
/// compare against the measured executor spans (predict-then-place, then
/// verify). Every batch of a hybrid session carries a decision, the
/// device-only one when no dispatcher is set; batches without one (CPU-only
/// sessions) are ignored.
class DispatchLedger {
  public:
    void OnBatch(const serve::BatchObservation& ob);

    const std::array<PlacementBucket, dispatch::kNumPlacements>& Buckets()
        const
    {
        return buckets_;
    }
    const PlacementBucket& Bucket(dispatch::Placement placement) const
    {
        return buckets_[static_cast<size_t>(placement)];
    }

    /// Batches that carried a dispatch decision.
    int64_t RoutedBatches() const;

    /// Mean |predicted - actual| / actual over routed batches, the
    /// prediction-quality figure (0 when nothing was routed).
    double MeanRelativeError() const;

  private:
    std::array<PlacementBucket, dispatch::kNumPlacements> buckets_{};
    double rel_error_sum_ = 0.0;
    int64_t routed_ = 0;
};

}  // namespace dgnn::obs
