#include "sim/device.hpp"

#include "support/check.hpp"

namespace dgnn::sim {

int64_t
MemoryPool::Allocate(int64_t bytes, const std::string& label)
{
    DGNN_CHECK(bytes >= 0, "negative allocation of ", bytes, " bytes (", label, ")");
    DGNN_CHECK(capacity_ <= 0 || live_ + bytes <= capacity_,
               "device out of memory: live ", live_, " + request ", bytes,
               " exceeds capacity ", capacity_, " (", label, ")");
    const int64_t id = next_id_++;
    blocks_.emplace(id, Block{bytes, label});
    live_ += bytes;
    total_allocated_ += bytes;
    peak_ = std::max(peak_, live_);
    return id;
}

void
MemoryPool::Free(int64_t id)
{
    auto it = blocks_.find(id);
    DGNN_CHECK(it != blocks_.end(), "double free or unknown allocation id ", id);
    live_ -= it->second.bytes;
    DGNN_ASSERT(live_ >= 0);
    blocks_.erase(it);
}

double
Device::UtilizationPct(SimTime elapsed_us) const
{
    if (elapsed_us <= 0.0) {
        return 0.0;
    }
    return 100.0 * busy_us_ / elapsed_us;
}

double
Device::WeightedUtilizationPct(SimTime elapsed_us) const
{
    if (elapsed_us <= 0.0) {
        return 0.0;
    }
    return 100.0 * weighted_busy_us_ / elapsed_us;
}

void
Device::ResetBusy()
{
    busy_us_ = 0.0;
    weighted_busy_us_ = 0.0;
    kernel_count_ = 0;
}

}  // namespace dgnn::sim
