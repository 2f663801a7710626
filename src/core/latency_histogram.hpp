#pragma once

/// @file
/// Streaming serving metrics: a log-bucketed latency histogram (the
/// HdrHistogram idea at fixed ~1% value resolution) for p50/p90/p99/max
/// tail-latency reporting, and a running min/mean/max accumulator for
/// queue-depth and batch-size statistics. Both are O(1) per sample and
/// mergeable, so per-worker instances can be combined into fleet totals.

#include <cstdint>
#include <vector>

namespace dgnn::core {

/// Fixed-resolution streaming histogram over positive values (microseconds
/// by convention). Values are assigned to geometrically spaced buckets;
/// quantiles come back with a bounded relative error equal to the bucket
/// growth factor (default 1%). Exact min/max/mean are tracked on the side,
/// and Quantile(0) / Quantile(1) return them exactly.
class LatencyHistogram {
  public:
    /// @param min_value_us  lower edge of the first bucket; smaller samples
    ///                      clamp into it
    /// @param max_value_us  upper edge of the last bucket; larger samples
    ///                      clamp into it
    /// @param growth        per-bucket geometric growth factor (> 1)
    explicit LatencyHistogram(double min_value_us = 1e-1,
                              double max_value_us = 1e10, double growth = 1.01);

    /// Adds one sample. Non-positive samples count into the first bucket.
    void Record(double value_us);

    int64_t Count() const { return count_; }
    bool Empty() const { return count_ == 0; }

    /// Exact extrema and mean of the recorded samples (0 when empty).
    double Min() const { return count_ > 0 ? min_ : 0.0; }
    double Max() const { return count_ > 0 ? max_ : 0.0; }
    double Mean() const;

    /// Value at quantile @p q in [0, 1]: the smallest bucket representative
    /// v such that at least ceil(q * Count()) samples are <= its bucket.
    /// Within one growth factor of the exact order statistic; 0 when empty.
    double Quantile(double q) const;

    double P50() const { return Quantile(0.50); }
    double P90() const { return Quantile(0.90); }
    double P99() const { return Quantile(0.99); }

    /// Samples that exceeded max_value_us and were clamped into the top
    /// bucket. A non-zero count means upper quantiles are biased low (the
    /// saturation case) and the layout ceiling should be raised.
    int64_t OverflowCount() const { return overflow_count_; }

    /// Adds @p other's samples into this histogram. The two must share the
    /// same bucket layout (min/max/growth).
    void Merge(const LatencyHistogram& other);

  private:
    int64_t BucketIndex(double value_us) const;
    double BucketUpperEdge(int64_t index) const;

    double min_value_;
    double max_value_;
    double growth_;
    double log_growth_;
    std::vector<int64_t> counts_;
    int64_t count_ = 0;
    int64_t overflow_count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Running count/min/mean/max/variance over a scalar series (queue depths,
/// batch sizes, jitter gauges). O(1) memory, mergeable. Variance uses
/// Welford's online update, so it is numerically stable even when the mean
/// dwarfs the spread; Merge combines the M2 accumulators with the parallel
/// (Chan et al.) formula, so split streams reduce to the same moments as
/// one combined stream.
class RunningStat {
  public:
    void Record(double value);

    int64_t Count() const { return count_; }
    double Sum() const { return sum_; }
    double Min() const { return count_ > 0 ? min_ : 0.0; }
    double Max() const { return count_ > 0 ? max_ : 0.0; }
    double Mean() const;

    /// Population variance (M2 / n); 0 with fewer than two samples.
    double Variance() const;
    /// sqrt(Variance()) — the jitter gauge.
    double StdDev() const;

    void Merge(const RunningStat& other);

  private:
    int64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    /// Welford accumulators: running mean and sum of squared deviations.
    double mean_ = 0.0;
    double m2_ = 0.0;
};

}  // namespace dgnn::core
