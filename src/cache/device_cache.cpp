#include "cache/device_cache.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <utility>

#include "support/check.hpp"

namespace dgnn::cache {

void
SortUnique(std::vector<int64_t>& keys)
{
    const size_t n = keys.size();
    if (n < 2) {
        return;
    }
    const auto [min_it, max_it] = std::minmax_element(keys.begin(), keys.end());
    // Unsigned offsets from the minimum: max - min fits even for keys at
    // both ends of the int64 range.
    const uint64_t min_key = static_cast<uint64_t>(*min_it);
    const uint64_t words = (static_cast<uint64_t>(*max_it) - min_key) / 64 + 1;
    if (words > 4 * n + 64) {
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
        return;
    }
    // One bit per key in [min, max], read back in ascending order. Spans
    // up to 8192 keys (a batch of node ids) stay on the stack.
    std::array<uint64_t, 128> stack_bits{};
    std::vector<uint64_t> heap_bits;
    uint64_t* bits = stack_bits.data();
    if (words > stack_bits.size()) {
        heap_bits.assign(words, 0);
        bits = heap_bits.data();
    }
    for (const int64_t key : keys) {
        const uint64_t offset = static_cast<uint64_t>(key) - min_key;
        bits[offset / 64] |= uint64_t{1} << (offset % 64);
    }
    size_t out = 0;
    for (uint64_t w = 0; w < words; ++w) {
        for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
            const auto bit = static_cast<uint64_t>(std::countr_zero(word));
            keys[out++] = static_cast<int64_t>(min_key + w * 64 + bit);
        }
    }
    keys.resize(out);
}

std::string
RowResource(int64_t key, int64_t generation)
{
    return "row:" + std::to_string(key) + "#g" + std::to_string(generation);
}

double
CacheStats::HitRate() const
{
    return lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                       : 0.0;
}

CacheStats&
CacheStats::operator+=(const CacheStats& other)
{
    lookups += other.lookups;
    hits += other.hits;
    misses += other.misses;
    insertions += other.insertions;
    evictions += other.evictions;
    writeback_rows += other.writeback_rows;
    hit_bytes += other.hit_bytes;
    miss_bytes += other.miss_bytes;
    return *this;
}

CacheStats
operator-(CacheStats lhs, const CacheStats& rhs)
{
    lhs.lookups -= rhs.lookups;
    lhs.hits -= rhs.hits;
    lhs.misses -= rhs.misses;
    lhs.insertions -= rhs.insertions;
    lhs.evictions -= rhs.evictions;
    lhs.writeback_rows -= rhs.writeback_rows;
    lhs.hit_bytes -= rhs.hit_bytes;
    lhs.miss_bytes -= rhs.miss_bytes;
    return lhs;
}

DeviceCacheConfig
DeviceCacheConfig::Unbounded(int64_t row_bytes)
{
    DeviceCacheConfig config;
    config.capacity_bytes = std::numeric_limits<int64_t>::max();
    config.row_bytes = row_bytes;
    return config;
}

DeviceCache::DeviceCache(DeviceCacheConfig config) : config_(config)
{
    DGNN_CHECK(config_.capacity_bytes >= 0,
               "cache capacity must be non-negative, got ",
               config_.capacity_bytes);
    if (config_.capacity_bytes > 0) {
        DGNN_CHECK(config_.row_bytes > 0,
                   "an enabled cache needs a positive row size, got ",
                   config_.row_bytes);
        DGNN_CHECK(config_.capacity_bytes >= config_.row_bytes,
                   "a cache of ", config_.capacity_bytes,
                   " bytes cannot hold one ", config_.row_bytes,
                   "-byte row; give it at least one row, or capacity 0 to "
                   "disable it");
        capacity_rows_ = config_.capacity_bytes / config_.row_bytes;
    }
}

GatherResult
DeviceCache::Gather(const std::vector<int64_t>& keys, GatherTrace* trace)
{
    GatherResult result;
    ++gathers_;
    for (const int64_t key : keys) {
        ++stats_.lookups;
        const int32_t hit = FindSlot(key);
        if (hit != kNoSlot) {
            ++result.hit_rows;
            ++stats_.hits;
            stats_.hit_bytes += config_.row_bytes;
            Slot& slot = At(hit);
            slot.dirty = true;
            slot.touched_by = gathers_;
            if (hit != tail_) {
                Unlink(hit);
                Append(hit);
            }
            if (trace != nullptr) {
                trace->hit_rows.push_back(RowResource(key, slot.generation));
            }
            continue;
        }
        ++result.miss_rows;
        ++stats_.misses;
        stats_.miss_bytes += config_.row_bytes;
        if (capacity_rows_ == 0) {
            // Disabled: nothing is retained, but a mutated row still owes
            // its sync-back to the host store.
            ++result.writeback_rows;
            ++stats_.writeback_rows;
            result.evicted_own_row = true;
            continue;
        }
        while (resident_rows_ >= capacity_rows_) {
            EvictOne(result, trace);
        }
        const int64_t generation = next_generation_++;
        Insert(key, generation);
        ++stats_.insertions;
        if (trace != nullptr) {
            trace->inserted_rows.push_back(RowResource(key, generation));
        }
    }
    return result;
}

size_t
DeviceCache::HomeBucket(int64_t key) const
{
    // Fibonacci hashing: the top table_bits_ bits of key * 2^64/phi.
    return static_cast<size_t>(
        (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> (64 - table_bits_));
}

int32_t
DeviceCache::FindSlot(int64_t key) const
{
    if (table_.empty()) {
        return kNoSlot;
    }
    const size_t mask = table_.size() - 1;
    for (size_t b = HomeBucket(key);; b = (b + 1) & mask) {
        const Bucket& bucket = table_[b];
        if (bucket.slot == kNoSlot || bucket.key == key) {
            return bucket.slot;
        }
    }
}

void
DeviceCache::Insert(int64_t key, int64_t generation)
{
    if (2 * (resident_rows_ + 1) > static_cast<int64_t>(table_.size())) {
        GrowTable();
    }
    int32_t index = free_;
    if (index != kNoSlot) {
        free_ = At(index).next;
    } else {
        constexpr auto kMaxSlots =
            static_cast<size_t>(std::numeric_limits<int32_t>::max());
        DGNN_CHECK(slots_.size() < kMaxSlots, "cache index is full at ",
                   slots_.size(), " resident rows");
        index = static_cast<int32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot& slot = At(index);
    slot.key = key;
    slot.generation = generation;
    slot.touched_by = gathers_;
    slot.dirty = true;
    Append(index);
    const size_t mask = table_.size() - 1;
    size_t b = HomeBucket(key);
    while (table_[b].slot != kNoSlot) {
        b = (b + 1) & mask;
    }
    table_[b] = Bucket{key, index};
    ++resident_rows_;
}

void
DeviceCache::GrowTable()
{
    table_bits_ = table_.empty() ? 4 : table_bits_ + 1;
    table_.assign(size_t{1} << table_bits_, Bucket{});
    const size_t mask = table_.size() - 1;
    for (int32_t s = head_; s != kNoSlot; s = At(s).next) {
        const int64_t key = At(s).key;
        size_t b = HomeBucket(key);
        while (table_[b].slot != kNoSlot) {
            b = (b + 1) & mask;
        }
        table_[b] = Bucket{key, s};
    }
}

void
DeviceCache::EraseFromTable(int64_t key)
{
    const size_t mask = table_.size() - 1;
    size_t hole = HomeBucket(key);
    while (table_[hole].key != key || table_[hole].slot == kNoSlot) {
        hole = (hole + 1) & mask;
    }
    // Backward shift: pull each later entry of the probe run into the hole
    // unless its home bucket lies cyclically in (hole, next], where moving
    // it would put it before its home.
    for (size_t next = (hole + 1) & mask; table_[next].slot != kNoSlot;
         next = (next + 1) & mask) {
        const size_t home = HomeBucket(table_[next].key);
        if (((next - home) & mask) >= ((next - hole) & mask)) {
            table_[hole] = table_[next];
            hole = next;
        }
    }
    table_[hole].slot = kNoSlot;
}

void
DeviceCache::Unlink(int32_t index)
{
    const Slot& slot = At(index);
    (slot.prev != kNoSlot ? At(slot.prev).next : head_) = slot.next;
    (slot.next != kNoSlot ? At(slot.next).prev : tail_) = slot.prev;
}

void
DeviceCache::Append(int32_t index)
{
    Slot& slot = At(index);
    slot.prev = tail_;
    slot.next = kNoSlot;
    (tail_ != kNoSlot ? At(tail_).next : head_) = index;
    tail_ = index;
}

void
DeviceCache::EvictOne(GatherResult& result, GatherTrace* trace)
{
    DGNN_ASSERT(head_ != kNoSlot);
    const int32_t victim = head_;
    Slot& slot = At(victim);
    if (slot.dirty) {
        ++result.writeback_rows;
        ++stats_.writeback_rows;
        result.evicted_own_row |= slot.touched_by == gathers_;
        if (trace != nullptr) {
            trace->evicted_dirty_rows.push_back(
                RowResource(slot.key, slot.generation));
        }
    }
    EraseFromTable(slot.key);
    Unlink(victim);
    slot.next = free_;
    free_ = victim;
    --resident_rows_;
    ++stats_.evictions;
}

int64_t
DeviceCache::FlushDirty(std::vector<std::string>* flushed_resources)
{
    int64_t flushed = 0;
    std::vector<std::pair<int64_t, int64_t>> dirty_rows;
    for (int32_t s = head_; s != kNoSlot; s = At(s).next) {
        Slot& slot = At(s);
        if (slot.dirty) {
            slot.dirty = false;
            ++flushed;
            if (flushed_resources != nullptr) {
                dirty_rows.emplace_back(slot.key, slot.generation);
            }
        }
    }
    if (flushed_resources != nullptr) {
        std::sort(dirty_rows.begin(), dirty_rows.end());
        for (const auto& [key, generation] : dirty_rows) {
            flushed_resources->push_back(RowResource(key, generation));
        }
    }
    stats_.writeback_rows += flushed;
    return flushed;
}

}  // namespace dgnn::cache
