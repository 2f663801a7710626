#include "cache/device_cache.hpp"

#include <algorithm>
#include <limits>

#include "support/check.hpp"

namespace dgnn::cache {

void
SortUnique(std::vector<int64_t>& keys)
{
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
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
DeviceCacheConfig::Unbounded(int64_t row_bytes, EvictionPolicy eviction)
{
    DeviceCacheConfig config;
    config.capacity_bytes = std::numeric_limits<int64_t>::max();
    config.row_bytes = row_bytes;
    config.eviction = eviction;
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
        capacity_rows_ = config_.capacity_bytes / config_.row_bytes;
    }
}

GatherResult
DeviceCache::Gather(const std::vector<int64_t>& keys, bool mark_dirty,
                    GatherTrace* trace)
{
    GatherResult result;
    for (const int64_t key : keys) {
        ++stats_.lookups;
        const auto it = map_.find(key);
        if (it != map_.end()) {
            ++result.hit_rows;
            ++stats_.hits;
            stats_.hit_bytes += config_.row_bytes;
            it->second.dirty = it->second.dirty || mark_dirty;
            if (config_.eviction == EvictionPolicy::kLru) {
                order_.splice(order_.end(), order_, it->second.pos);
            }
            if (trace != nullptr) {
                trace->hit_rows.push_back(
                    RowResource(key, it->second.generation));
            }
            continue;
        }
        ++result.miss_rows;
        ++stats_.misses;
        stats_.miss_bytes += config_.row_bytes;
        if (capacity_rows_ == 0) {
            // Disabled / degenerate: nothing is retained, but a mutated
            // row still owes its sync-back to the host store.
            if (mark_dirty) {
                ++result.writeback_rows;
                ++stats_.writeback_rows;
            }
            continue;
        }
        while (ResidentRows() >= capacity_rows_) {
            EvictOne(result, trace);
        }
        const int64_t generation = next_generation_++;
        order_.push_back(key);
        map_.emplace(key, Entry{std::prev(order_.end()), generation, mark_dirty});
        ++stats_.insertions;
        if (trace != nullptr) {
            trace->inserted_rows.push_back(RowResource(key, generation));
        }
    }
    return result;
}

void
DeviceCache::EvictOne(GatherResult& result, GatherTrace* trace)
{
    DGNN_ASSERT(!order_.empty());
    const int64_t victim = order_.front();
    order_.pop_front();
    const auto it = map_.find(victim);
    DGNN_ASSERT(it != map_.end());
    if (it->second.dirty) {
        ++result.writeback_rows;
        ++stats_.writeback_rows;
        if (trace != nullptr) {
            trace->evicted_dirty_rows.push_back(
                RowResource(victim, it->second.generation));
        }
    }
    map_.erase(it);
    ++stats_.evictions;
}

void
DeviceCache::MarkDirty(const std::vector<int64_t>& keys)
{
    for (const int64_t key : keys) {
        const auto it = map_.find(key);
        if (it != map_.end()) {
            it->second.dirty = true;
        }
    }
}

int64_t
DeviceCache::FlushDirty(std::vector<std::string>* flushed_resources)
{
    // Walk in ascending key order so the resource list (and with it every
    // hazard report built from it) is independent of the hash map's
    // internal layout.
    std::vector<std::pair<int64_t, int64_t>> dirty_keys;
    for (auto& [key, entry] : map_) {  // determinism-ok: sorted below
        if (entry.dirty) {
            entry.dirty = false;
            dirty_keys.emplace_back(key, entry.generation);
        }
    }
    std::sort(dirty_keys.begin(), dirty_keys.end());
    if (flushed_resources != nullptr) {
        for (const auto& [key, generation] : dirty_keys) {
            flushed_resources->push_back(RowResource(key, generation));
        }
    }
    const auto flushed = static_cast<int64_t>(dirty_keys.size());
    stats_.writeback_rows += flushed;
    return flushed;
}

}  // namespace dgnn::cache
