#pragma once

/// @file
/// Device-resident row cache for hybrid inference. The paper's Fig 6/7
/// breakdowns show CPU->GPU data movement — node features and, for the
/// memory-based models (TGN/JODIE/DyRep), mutable node-memory rows shipped
/// over PCIe every mini-batch — as a first-order bottleneck. Interaction
/// streams have heavy temporal locality (repeat talkers on Wikipedia/Reddit
/// style graphs), so keeping recently touched rows resident on the device
/// converts repeat gathers into on-device hits.
///
/// The cache is an *index*, not storage: it decides, deterministically,
/// which row keys are device-resident and which must move. The matching
/// costs are paid through sim::Runtime's cache-aware transfer helpers
/// (GatherToDevice / WriteBackToHost) — a hit costs a device-side gather
/// kernel, a miss pays the PCIe transfer, and evicted dirty rows pay a
/// write-back copy. Numerics are never routed through the cache: it changes
/// the cost model only, so checksums are identical with and without it.

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

namespace dgnn::cache {

/// Which resident row a full cache sacrifices for a new one.
enum class EvictionPolicy {
    kLru,   ///< least-recently-touched row leaves first
    kFifo,  ///< oldest-inserted row leaves first (no touch promotion)
};

/// Canonicalizes a cache-key list in place: ascending, duplicates removed.
/// The shared idiom for building a batch's unique touched-node set.
void SortUnique(std::vector<int64_t>& keys);

/// Counters one cache accumulates over its lifetime. All byte figures use
/// the configured row width, so hit_bytes is exactly the PCIe H2D traffic
/// the cache avoided ("bytes saved").
struct CacheStats {
    int64_t lookups = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t insertions = 0;
    int64_t evictions = 0;
    /// Dirty rows forced back to the host (evictions + explicit flushes).
    int64_t writeback_rows = 0;
    int64_t hit_bytes = 0;   ///< H2D bytes avoided by hits
    int64_t miss_bytes = 0;  ///< H2D bytes paid by misses

    /// hits / lookups, 0 when no lookups happened.
    double HitRate() const;

    CacheStats& operator+=(const CacheStats& other);
};

/// Field-wise difference (for "stats since the last snapshot" reporting).
CacheStats operator-(CacheStats lhs, const CacheStats& rhs);

/// Configuration of one cache instance.
struct DeviceCacheConfig {
    /// Device bytes the cache may occupy; 0 disables the cache entirely
    /// (every gather reports a miss and nothing is retained).
    int64_t capacity_bytes = 0;
    /// Width of one cached row in bytes (a node's feature or memory row).
    /// Set by the owning model; must be positive when the cache is enabled.
    int64_t row_bytes = 0;
    EvictionPolicy eviction = EvictionPolicy::kLru;

    /// A cache that never evicts — used when capturing serving cost
    /// profiles, where every unique row of the probe batch must miss
    /// exactly once.
    static DeviceCacheConfig Unbounded(int64_t row_bytes,
                                       EvictionPolicy eviction = EvictionPolicy::kLru);
};

/// Outcome of admitting one batch of row keys.
struct GatherResult {
    int64_t hit_rows = 0;
    int64_t miss_rows = 0;
    /// Dirty rows evicted by this gather — each owes a D2H write-back.
    int64_t writeback_rows = 0;
};

/// Logical-resource names of the rows one Gather touched, for the
/// happens-before hazard checker (analysis::HazardChecker). Each name is
/// generation-tagged ("row:<key>#g<gen>"): an insertion opens a new
/// residency episode with a fresh generation, so an evict-then-reinsert of
/// the same key yields a NEW resource and the checker never manufactures
/// false ordering requirements between unrelated episodes. Purely
/// observational — requesting a trace never changes cache state or stats.
struct GatherTrace {
    /// Resident rows the batch hit — read by the device-side hit-gather.
    std::vector<std::string> hit_rows;
    /// Rows this gather inserted — written by the batch's staged H2D copy.
    std::vector<std::string> inserted_rows;
    /// Dirty rows this gather evicted — read by the batch's write-back D2H.
    std::vector<std::string> evicted_dirty_rows;
};

/// The hazard-checker resource name of one residency episode of @p key.
std::string RowResource(int64_t key, int64_t generation);

/// Deterministic device-resident row cache (LRU or FIFO over row keys).
class DeviceCache {
  public:
    /// Disabled cache: every Gather is all-miss, nothing is retained.
    DeviceCache() = default;

    explicit DeviceCache(DeviceCacheConfig config);

    /// Whether the cache retains anything (positive capacity and row size).
    bool Enabled() const { return capacity_rows_ > 0; }

    int64_t RowBytes() const { return config_.row_bytes; }
    int64_t CapacityRows() const { return capacity_rows_; }
    int64_t ResidentRows() const { return static_cast<int64_t>(map_.size()); }
    int64_t ResidentBytes() const { return ResidentRows() * config_.row_bytes; }
    EvictionPolicy Eviction() const { return config_.eviction; }

    /// Looks up every key in order: residents count as hits (LRU promotes
    /// them), absences count as misses and are inserted, evicting per
    /// policy once capacity is reached. Duplicate keys within one call hit
    /// after their first occurrence. Deterministic in the key order.
    ///
    /// @p mark_dirty stamps every gathered row dirty at touch/insert time
    /// — the contract for mutable state (the batch WILL update these rows
    /// on the device). Marking at gather time rather than after the update
    /// keeps the accounting honest when the batch's working set exceeds
    /// capacity: a row inserted and evicted within the same batch still
    /// owes its write-back, which a later MarkDirty (absent keys ignored)
    /// would silently drop.
    /// When @p trace is non-null the touched rows' generation-tagged
    /// resource names are appended to it (observational only).
    GatherResult Gather(const std::vector<int64_t>& keys,
                        bool mark_dirty = false, GatherTrace* trace = nullptr);

    /// Marks resident rows dirty (mutated on the device; a write-back is
    /// owed when they leave). Absent keys are ignored.
    void MarkDirty(const std::vector<int64_t>& keys);

    /// Clears every dirty bit and returns how many rows need writing back
    /// (end-of-run synchronization of the host-side store). When
    /// @p flushed_resources is non-null the flushed rows' resource names
    /// are appended in ascending key order (deterministic regardless of
    /// the map's internal order).
    int64_t FlushDirty(std::vector<std::string>* flushed_resources = nullptr);

    bool Contains(int64_t key) const { return map_.count(key) > 0; }

    /// Lifetime counters (never reset by Gather/Flush).
    const CacheStats& Stats() const { return stats_; }
    void ResetStats() { stats_ = CacheStats{}; }

  private:
    /// Evicts the policy's victim row; accounts a write-back if dirty.
    void EvictOne(GatherResult& result, GatherTrace* trace);

    struct Entry {
        std::list<int64_t>::iterator pos;  ///< position in order_
        /// Residency episode this entry belongs to (see GatherTrace).
        int64_t generation = 0;
        bool dirty = false;
    };

    DeviceCacheConfig config_;
    int64_t capacity_rows_ = 0;
    /// Eviction order: front = next victim, back = most recently
    /// inserted/touched (touches promote only under LRU).
    std::list<int64_t> order_;
    std::unordered_map<int64_t, Entry> map_;
    CacheStats stats_;
    /// Residency-episode counter; bumped once per insertion.
    int64_t next_generation_ = 0;
};

}  // namespace dgnn::cache
