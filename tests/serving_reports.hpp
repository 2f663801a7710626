#pragma once

// Exact ServingReport comparisons that the serving, dispatch and shard
// tests share.

#include <gtest/gtest.h>

#include "serve/server.hpp"

namespace dgnn::serve {

inline void
ExpectSameExchange(const ExchangeCost& a, const ExchangeCost& b)
{
    EXPECT_EQ(a.remote_rows, b.remote_rows);
    EXPECT_EQ(a.local_rows, b.local_rows);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.link_us, b.link_us);
}

/// Every ServingReport field of @p a equals @p b's, bit for bit, except the
/// exchange (a cluster's hook counts the local rows a hookless session
/// never sees).
inline void
ExpectSameServing(const ServingReport& a, const ServingReport& b)
{
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.executor, b.executor);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.offered_qps, b.offered_qps);
    EXPECT_EQ(a.achieved_qps, b.achieved_qps);
    EXPECT_EQ(a.makespan_us, b.makespan_us);

    EXPECT_EQ(a.latency.Count(), b.latency.Count());
    EXPECT_EQ(a.latency.Min(), b.latency.Min());
    EXPECT_EQ(a.latency.Max(), b.latency.Max());
    EXPECT_EQ(a.latency.Mean(), b.latency.Mean());
    EXPECT_EQ(a.latency.OverflowCount(), b.latency.OverflowCount());
    // Every percentile, so every occupied bucket, matches.
    for (int q = 0; q <= 100; ++q) {
        EXPECT_EQ(a.latency.Quantile(q / 100.0), b.latency.Quantile(q / 100.0))
            << "q" << q;
    }
    for (const auto& [x, y] : {std::pair{&a.queue_depth, &b.queue_depth},
                               std::pair{&a.batch_size, &b.batch_size}}) {
        EXPECT_EQ(x->Count(), y->Count());
        EXPECT_EQ(x->Sum(), y->Sum());
        EXPECT_EQ(x->Min(), y->Min());
        EXPECT_EQ(x->Max(), y->Max());
        EXPECT_EQ(x->Variance(), y->Variance());
    }

    EXPECT_EQ(a.h2d_bytes, b.h2d_bytes);
    EXPECT_EQ(a.d2h_bytes, b.d2h_bytes);
    EXPECT_EQ(a.cache_hit_bytes, b.cache_hit_bytes);
    EXPECT_EQ(a.cache_stats.lookups, b.cache_stats.lookups);
    EXPECT_EQ(a.cache_stats.hits, b.cache_stats.hits);
    EXPECT_EQ(a.cache_stats.misses, b.cache_stats.misses);
    EXPECT_EQ(a.cache_stats.insertions, b.cache_stats.insertions);
    EXPECT_EQ(a.cache_stats.evictions, b.cache_stats.evictions);
    EXPECT_EQ(a.cache_stats.writeback_rows, b.cache_stats.writeback_rows);
    EXPECT_EQ(a.cache_stats.hit_bytes, b.cache_stats.hit_bytes);
    EXPECT_EQ(a.cache_stats.miss_bytes, b.cache_stats.miss_bytes);
    EXPECT_EQ(a.placement_batches, b.placement_batches);
}

/// Every ServingReport field of @p a equals @p b's, bit for bit.
inline void
ExpectReportsIdentical(const ServingReport& a, const ServingReport& b)
{
    ExpectSameServing(a, b);
    ExpectSameExchange(a.exchange, b.exchange);
}

}  // namespace dgnn::serve
