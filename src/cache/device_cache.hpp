#pragma once

/// @file
/// Device-resident row cache for hybrid inference. The paper's Fig 6/7
/// breakdowns show CPU->GPU data movement as a first-order bottleneck; for
/// the memory-based models (TGN memory, JODIE embeddings) that movement is
/// mutable per-node state shipped over PCIe every mini-batch and synced
/// back after it. Interaction streams have heavy temporal locality (repeat
/// talkers on Wikipedia/Reddit style graphs), so keeping recently touched
/// state rows resident on the device converts repeat gathers into
/// on-device hits and defers each row's sync-back to its eviction.
///
/// The cache is an *index*, not storage: it decides, deterministically,
/// which row keys are device-resident and which must move. The matching
/// costs are paid through sim::Runtime's cache-aware transfer helpers
/// (GatherToDevice / WriteBackToHost) — a hit costs a device-side gather
/// kernel, a miss pays the PCIe transfer, and evicted dirty rows pay a
/// write-back copy. Numerics are never routed through the cache: it changes
/// the cost model only, so checksums are identical with and without it.
///
/// The index is a flat slot pool: one slot per resident row holding its
/// key, residency generation and dirty bit, threaded on an intrusive
/// recency list of int32 slot indices (freed slots go on a free list), and
/// a power-of-two open-addressing table from key to slot (linear probing,
/// backward-shift deletion). Both grow with the resident rows, never with
/// the capacity, so an Unbounded cache costs only what it holds; once they
/// have grown, a gather allocates nothing. Callers gather a batch's unique
/// keys in ascending order (SortUnique), so which rows a batch evicts and
/// the generation each insertion gets depend only on the batch's key set.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dgnn::cache {

/// Which resident row a full cache sacrifices for a new one. LRU is the
/// only policy; the enum and DeviceCacheConfig::eviction remain for the
/// callers that still name it, and the cache never reads them.
enum class EvictionPolicy {
    kLru,  ///< least-recently-touched row leaves first
};

/// Canonicalizes a cache-key list in place: ascending, duplicates removed.
/// The shared idiom for building a batch's unique touched-node set. Dense
/// key spans (the usual batch of node ids) go through a bitmap over
/// [min, max]; sparse ones fall back to a sort.
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
    /// (every gather reports a miss and nothing is retained). A positive
    /// capacity must hold at least one row.
    int64_t capacity_bytes = 0;
    /// Width of one cached row in bytes (a node's memory or embedding row).
    /// Set by the owning model; must be positive when the cache is enabled.
    int64_t row_bytes = 0;
    /// Never read: LRU is the only policy (see EvictionPolicy).
    EvictionPolicy eviction = EvictionPolicy::kLru;

    /// A cache that never evicts — used when capturing serving cost
    /// profiles, where every unique row of the probe batch must miss
    /// exactly once.
    static DeviceCacheConfig Unbounded(int64_t row_bytes);
};

/// Outcome of admitting one batch of row keys.
struct GatherResult {
    int64_t hit_rows = 0;
    int64_t miss_rows = 0;
    /// Dirty rows evicted by this gather — each owes a D2H write-back.
    int64_t writeback_rows = 0;
    /// Whether one of those rows is a key of this very gather: its keys
    /// outnumbered the capacity (or, disabled, nothing was retained), so its
    /// write-back carries the update the caller's batch makes to the row.
    bool evicted_own_row = false;
};

/// Logical-resource names of the rows one Gather touched, for the
/// happens-before hazard checker (analysis::HazardChecker). Each name is
/// generation-tagged ("row:<key>#g<gen>"): an insertion opens a new
/// residency episode with a fresh generation, so an evict-then-reinsert of
/// the same key yields a NEW resource and the checker never manufactures
/// false ordering requirements between unrelated episodes. Every row is
/// one resource family ("row"), so a missing edge reports once per shape
/// however many rows the batches touch. Purely
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

/// Deterministic device-resident cache of mutable state rows (LRU over row
/// keys).
class DeviceCache {
  public:
    /// Disabled cache: every Gather is all-miss, nothing is retained.
    DeviceCache() = default;

    explicit DeviceCache(DeviceCacheConfig config);

    /// Whether the cache retains anything (positive capacity and row size).
    bool Enabled() const { return capacity_rows_ > 0; }

    int64_t RowBytes() const { return config_.row_bytes; }
    int64_t CapacityRows() const { return capacity_rows_; }
    int64_t ResidentRows() const { return resident_rows_; }
    int64_t ResidentBytes() const { return ResidentRows() * config_.row_bytes; }

    /// Looks up every key in order: residents count as hits and become
    /// the most recently touched, absences count as misses and are
    /// inserted, evicting the least recently touched row once capacity is
    /// reached. Duplicate keys within one call hit after their first
    /// occurrence. Deterministic in the key order.
    ///
    /// Every gathered row is mutable state the batch WILL update on the
    /// device, so the gather stamps it dirty at touch/insert time. Marking
    /// at gather time rather than after the update keeps the accounting
    /// honest when the batch's working set exceeds capacity: a row inserted
    /// and evicted within the same batch still owes its write-back. A
    /// disabled cache retains nothing, so each of its misses owes one.
    /// When @p trace is non-null the touched rows' generation-tagged
    /// resource names are appended to it (observational only).
    GatherResult Gather(const std::vector<int64_t>& keys,
                        GatherTrace* trace = nullptr);

    /// Clears every dirty bit and returns how many rows need writing back
    /// (end-of-run synchronization of the host-side store). A flushed row
    /// stays resident and clean until a gather touches it again. When
    /// @p flushed_resources is non-null the flushed rows' resource names
    /// are appended in ascending key order.
    int64_t FlushDirty(std::vector<std::string>* flushed_resources = nullptr);

    bool Contains(int64_t key) const { return FindSlot(key) != kNoSlot; }

    /// Lifetime counters (never reset by Gather/Flush).
    const CacheStats& Stats() const { return stats_; }

  private:
    static constexpr int32_t kNoSlot = -1;

    /// One resident row. prev/next thread the recency list; a free slot
    /// links the free list through next.
    struct Slot {
        int64_t key = 0;
        /// Residency episode this row belongs to (see GatherTrace).
        int64_t generation = 0;
        /// The Gather that last touched the row (gathers_ at that call).
        int64_t touched_by = 0;
        int32_t prev = kNoSlot;
        int32_t next = kNoSlot;
        bool dirty = false;
    };

    /// One open-addressing bucket; slot == kNoSlot marks it empty.
    struct Bucket {
        int64_t key = 0;
        int32_t slot = kNoSlot;
    };

    /// The slot holding @p key, or kNoSlot.
    int32_t FindSlot(int64_t key) const;
    /// Takes a dirty slot for @p key, indexes it and appends it to the list.
    void Insert(int64_t key, int64_t generation);
    /// Evicts the least recently touched row; accounts a write-back if dirty.
    void EvictOne(GatherResult& result, GatherTrace* trace);
    /// Removes @p key from the table, shifting its probe run back.
    void EraseFromTable(int64_t key);
    /// Doubles the table (or creates it) and reindexes every resident row.
    void GrowTable();
    size_t HomeBucket(int64_t key) const;
    void Unlink(int32_t index);
    void Append(int32_t index);
    Slot& At(int32_t index) { return slots_[static_cast<size_t>(index)]; }

    DeviceCacheConfig config_;
    int64_t capacity_rows_ = 0;
    int64_t resident_rows_ = 0;
    std::vector<Slot> slots_;
    /// Recency order: head_ = next victim, tail_ = most recently
    /// inserted or touched.
    int32_t head_ = kNoSlot;
    int32_t tail_ = kNoSlot;
    int32_t free_ = kNoSlot;
    /// Power-of-two size, at most half full; empty until the first insert.
    std::vector<Bucket> table_;
    /// log2(table_.size()), for the multiplicative hash.
    int table_bits_ = 0;
    CacheStats stats_;
    /// Residency-episode counter; bumped once per insertion.
    int64_t next_generation_ = 0;
    /// Gather calls so far (the current one included, during a Gather).
    int64_t gathers_ = 0;
};

}  // namespace dgnn::cache
