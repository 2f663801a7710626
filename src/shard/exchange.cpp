#include "shard/exchange.hpp"

#include <string>
#include <utility>

#include "support/check.hpp"

namespace dgnn::shard {

int64_t
ExchangePlan::RemoteRows() const
{
    int64_t total = 0;
    for (const int64_t rows : rows_per_shard) {
        total += rows;
    }
    return total;
}

ExchangePlan
BuildExchangePlan(const PartitionBook& book, int32_t self_shard,
                  std::vector<int64_t>& nodes)
{
    DGNN_CHECK(self_shard >= 0 && self_shard < book.NumShards(),
               "self shard ", self_shard, " outside the book's ",
               book.NumShards(), " shards");
    ExchangePlan plan;
    plan.rows_per_shard.assign(static_cast<size_t>(book.NumShards()), 0);
    size_t keep = 0;
    for (const int64_t node : nodes) {
        const int32_t owner = book.ShardOf(node);
        if (owner == self_shard) {
            nodes[keep++] = node;
            ++plan.local_rows;
        } else {
            ++plan.rows_per_shard[static_cast<size_t>(owner)];
        }
    }
    nodes.resize(keep);
    return plan;
}

ShardExchangeHook::ShardExchangeHook(const PartitionBook& book,
                                     const sim::Topology& topology,
                                     int32_t self_shard,
                                     ExchangeConfig config)
    : book_(book),
      topology_(topology),
      self_shard_(self_shard),
      config_(std::move(config))
{
    DGNN_CHECK(topology.DeviceCount() == book.NumShards(), "a ",
               book.NumShards(), "-shard book needs a ", book.NumShards(),
               "-device topology, got ", topology.DeviceCount());
    DGNN_CHECK(self_shard >= 0 && self_shard < book.NumShards(), "shard ",
               self_shard, " out of range for a ", book.NumShards(),
               "-shard book");
    DGNN_CHECK(config_.row_bytes >= 0, "negative exchange row width ",
               config_.row_bytes);
    staged_.rows_per_shard.assign(static_cast<size_t>(book.NumShards()), 0);
}

int64_t
ShardExchangeHook::ClaimRemote(std::vector<int64_t>& nodes)
{
    staged_ = BuildExchangePlan(book_, self_shard_, nodes);
    return staged_.RemoteRows();
}

serve::ExchangeCost
ShardExchangeHook::IssueExchange(sim::Runtime& runtime)
{
    serve::ExchangeCost cost;
    cost.local_rows = staged_.local_rows;
    if (staged_.Empty()) {
        // Nothing remote: ZERO runtime operations (1-shard bit-identity).
        totals_ += cost;
        return cost;
    }

    const int64_t slot_index = round_ % kSlots;
    const double link_before = runtime.PeerLinkTime();
    const int64_t bytes_per_row =
        config_.row_bytes * (config_.rows_mutable ? 2 : 1);

    // Back-fence: the slot's previous unpack must finish before the pulls
    // overwrite the staging buffer (the serving executors' own fences order
    // this too under the pipelined executor, but the serial executor's
    // blocking D2H only joins the host with the copy stream).
    if (slot_used_[slot_index]) {
        runtime.StreamWaitEvent(sim::StreamId::kCopy,
                                unpack_done_[slot_index]);
    }
    for (int32_t peer = 0; peer < book_.NumShards(); ++peer) {
        const int64_t rows = staged_.rows_per_shard[static_cast<size_t>(peer)];
        if (rows == 0) {
            continue;
        }
        const int64_t bytes = rows * bytes_per_row;
        sim::MaybeAccess access(runtime, [&] {
            return sim::AccessSet{{"peer_store#" + std::to_string(peer)},
                                  {"exchange_in#" + std::to_string(slot_index)}};
        });
        (void)runtime.PeerCopyAsync(peer, bytes, "shard_exchange_pull");
        cost.remote_rows += rows;
        cost.bytes += bytes;
        ++cost.messages;
    }
    const sim::Event exchange_ready =
        runtime.RecordEvent(sim::StreamId::kCopy);
    if (config_.install_fence) {
        runtime.StreamWaitEvent(sim::StreamId::kCompute, exchange_ready);
    }
    {
        sim::MaybeAccess access(runtime, [&] {
            return sim::AccessSet{
                {"exchange_in#" + std::to_string(slot_index)},
                {"dev_state#" + std::to_string(self_shard_)}};
        });
        runtime.Launch({.name = "shard_unpack",
                        .flops = cost.remote_rows * config_.row_bytes / 4,
                        .bytes = 2 * cost.remote_rows * config_.row_bytes,
                        .parallel_items = cost.remote_rows,
                        .irregular = true});
    }
    unpack_done_[slot_index] = runtime.RecordEvent(sim::StreamId::kCompute);
    slot_used_[slot_index] = true;

    cost.link_us = runtime.PeerLinkTime() - link_before;
    ++round_;
    totals_ += cost;
    return cost;
}

}  // namespace dgnn::shard
