#pragma once

/// @file
/// The alltoall exchange of sharded serving. Each dispatched batch's unique
/// state nodes split into local rows (resolved by the shard's own cache)
/// and remote rows owned by peers; the remote rows are pulled per-batch
/// over the topology's peer links (ShardExchangeHook plugs into the serving
/// loop through the serve::BatchShardHook seam). The schedule per batch:
///
///   back-fence   StreamWaitEvent(copy, prior unpack of this slot) — the
///                staging slot (round % 2) must drain before reuse
///   pulls        one PeerCopyAsync per owning peer, ascending shard id,
///                priced through that peer's link model; mutable-state
///                models (TGN memory, JODIE embeddings) pay 2x bytes for
///                the piggybacked return delta
///   fence        StreamWaitEvent(compute, exchange_ready) — the unpack
///                reads only rows the pulls have landed
///   unpack       one irregular kernel scattering the staged rows into the
///                shard's device state
///
/// When an observer is attached, every operation is annotated for the
/// hazard checker with the peer_store#<peer> / exchange_in#<slot> /
/// dev_state#<self> resources (unobserved runs build no footprint). The
/// hazard mutation wall (tests/analysis_test.cpp) withholds each fence's
/// waits from the checker through that observer seam: a dropped fence is a
/// RAW on exchange_in, while a dropped back-fence stays clean because both
/// serving executors already order the previous unpack before the next
/// pulls.
/// A batch with no remote rows issues ZERO runtime operations — the
/// 1-shard bit-identity contract of the seam.

#include <cstdint>
#include <string>
#include <vector>

#include "serve/shard_hook.hpp"
#include "shard/partition_book.hpp"
#include "sim/runtime.hpp"

namespace dgnn::shard {

/// How the exchange prices a batch's remote rows.
struct ExchangeConfig {
    /// Width of one state row, bytes (models::DgnnModel::CacheRowBytes()).
    int64_t row_bytes = 0;
    /// Mutable rows pay the piggybacked return delta: 2x bytes per pull.
    bool rows_mutable = false;
};

/// Rows a batch needs from each peer shard. Built per batch by the claim;
/// consumed by the next IssueExchange.
struct ExchangePlan {
    /// Rows owed by each shard, indexed by shard id (self entry stays 0).
    std::vector<int64_t> rows_per_shard;
    /// Rows the batch resolves locally (the complement of the claim).
    int64_t local_rows = 0;

    [[nodiscard]] int64_t RemoteRows() const;
    [[nodiscard]] bool Empty() const { return RemoteRows() == 0; }
};

/// Splits @p nodes (sorted unique) against @p book: nodes owned by
/// @p self_shard stay in @p nodes (order preserved); the rest are removed
/// and counted into the returned plan.
[[nodiscard]] ExchangePlan BuildExchangePlan(const PartitionBook& book,
                                             int32_t self_shard,
                                             std::vector<int64_t>& nodes);

/// The serving-loop hook: claims each batch's remote nodes and issues the
/// priced exchange on the shard's runtime. Stateful (staging-slot rotation,
/// run totals); create one per shard per run. With 1 shard every claim is
/// empty and the hook never touches the runtime.
class ShardExchangeHook final : public serve::BatchShardHook {
  public:
    /// @p book and @p topology (one device per shard; the shard runs on
    /// node @p self_shard) are borrowed and must outlive the hook.
    ShardExchangeHook(const PartitionBook& book, const sim::Topology& topology,
                      int32_t self_shard, ExchangeConfig config);

    const sim::Topology& Topology() const override { return topology_; }
    int32_t DeviceIndex() const override { return self_shard_; }
    int64_t ClaimRemote(std::vector<int64_t>& nodes) override;
    serve::ExchangeCost IssueExchange(sim::Runtime& runtime) override;

    /// Exchange cost accumulated over every issued batch.
    const serve::ExchangeCost& Totals() const { return totals_; }
    /// Batches that issued a (non-empty) exchange.
    int64_t Rounds() const { return round_; }

  private:
    static constexpr int64_t kSlots = 2;

    const PartitionBook& book_;
    const sim::Topology& topology_;
    int32_t self_shard_;
    ExchangeConfig config_;
    ExchangePlan staged_;
    int64_t round_ = 0;
    serve::ExchangeCost totals_;
    /// Unpack-completion event per staging slot (the back-fence source).
    sim::Event unpack_done_[kSlots];
    bool slot_used_[kSlots] = {false, false};
};

}  // namespace dgnn::shard
