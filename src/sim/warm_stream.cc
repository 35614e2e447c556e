#include "sim/warm_stream.hh"

#include <algorithm>

#include "util/logging.hh"

namespace looppoint {

namespace {

/** Ring records across all shards: 4 MiB of WarmRefs in total. */
constexpr uint32_t kStreamRefs = (4u << 20) / sizeof(WarmRef);

/**
 * Records per publish. Independent of the capacity: a pass ends by
 * waiting for the last partial batch, so larger batches lengthen
 * every flush.
 */
constexpr uint32_t kBatchRefs = 4096;

} // namespace

WarmRing::WarmRing(WarmRef *slots, uint32_t capacity)
    : buf(slots), cap(capacity), batch(std::min(capacity / 8, kBatchRefs))
{
    LP_ASSERT(capacity >= 8 && (capacity & (capacity - 1)) == 0);
}

void
WarmRing::publish()
{
    if (published == tail)
        return;
    published = tail;
    pubTail.store(tail, std::memory_order_release);
    pubTail.notify_one();
}

void
WarmRing::waitForSpace()
{
    // The consumer may be waiting for exactly the records not yet
    // published.
    publish();
    for (;;) {
        headSeen = head.load(std::memory_order_acquire);
        if (tail - headSeen < cap)
            return;
        head.wait(headSeen, std::memory_order_acquire);
    }
}

void
WarmRing::flush()
{
    publish();
    // The consumer stores `head` after every chunk it applies, the
    // last one included.
    for (;;) {
        headSeen = head.load(std::memory_order_acquire);
        if (headSeen == tail)
            return;
        head.wait(headSeen, std::memory_order_acquire);
    }
}

void
WarmRing::close()
{
    put({0, 0, WarmRef::Kind::End});
    publish();
}

void
WarmRing::drain(CacheHierarchy &h)
{
    // Locals: apply() is opaque, so members would be reloaded per
    // record.
    const WarmRef *slots = buf;
    const uint32_t mask = cap - 1;
    const uint32_t step = batch;
    uint32_t done = 0;
    for (;;) {
        const uint32_t avail = pubTail.load(std::memory_order_acquire);
        if (avail == done) {
            pubTail.wait(done, std::memory_order_acquire);
            continue;
        }
        // Hand slots back a batch at a time so a producer blocked on
        // a full ring resumes while this backlog is still being
        // applied.
        while (done != avail) {
            const uint32_t end = avail - done > step ? done + step : avail;
            for (; done != end; ++done) {
                const WarmRef &ref = slots[done & mask];
                if (ref.kind == WarmRef::Kind::End)
                    return;
                WarmStream::apply(h, ref);
            }
            head.store(done, std::memory_order_release);
            head.notify_one();
        }
    }
}

WarmStream::WarmStream(CacheHierarchy &hierarchy_, uint32_t shards)
    : hierarchy(&hierarchy_), dedupe(hierarchy_.maxWarmShards() > 1),
      lineShift(hierarchy_.lineShift()),
      lastRefs(shards, WarmRef{0, 0, WarmRef::Kind::End})
{
    LP_ASSERT(shards >= 1 && (shards & (shards - 1)) == 0 &&
              shards <= hierarchy_.maxWarmShards());
    if (shards == 1)
        return;
    const auto log2 = [](uint32_t v) {
        return static_cast<uint32_t>(__builtin_ctz(v));
    };
    shardShift = lineShift + log2(hierarchy_.maxWarmShards()) - log2(shards);
    shardMask = shards - 1;
    slots.resize(kStreamRefs);
    const uint32_t cap = kStreamRefs / shards;
    for (uint32_t s = 0; s < shards; ++s)
        rings.push_back(
            std::make_unique<WarmRing>(slots.data() + s * cap, cap));
    try {
        for (auto &ring : rings)
            consumers.emplace_back(
                [ring = ring.get(), &h = hierarchy_] { ring->drain(h); });
    } catch (...) {
        finish();
        throw;
    }
}

WarmStream::~WarmStream()
{
    finish();
}

void
WarmStream::flush()
{
    for (auto &ring : rings)
        ring->flush();
    // The next pass starts from state this one did not see last.
    std::fill(lastRefs.begin(), lastRefs.end(),
              WarmRef{0, 0, WarmRef::Kind::End});
}

void
WarmStream::finish()
{
    for (auto &ring : rings)
        ring->close();
    for (auto &consumer : consumers)
        consumer.join();
    consumers.clear();
    rings.clear();
}

} // namespace looppoint
