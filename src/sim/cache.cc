#include "sim/cache.hh"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "util/logging.hh"

namespace looppoint {

namespace {

bool
isPowerOfTwo(uint32_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

uint32_t
log2u32(uint32_t v)
{
    return static_cast<uint32_t>(__builtin_ctz(v));
}

} // namespace

Cache::Cache(const CacheConfig &cfg_)
    : cfg(cfg_)
{
    LP_ASSERT(cfg.lineBytes > 0 && cfg.assoc > 0);
    LP_ASSERT(cfg.sizeBytes % (cfg.lineBytes * cfg.assoc) == 0);
    numSets = cfg.sizeBytes / (cfg.lineBytes * cfg.assoc);
    LP_ASSERT(numSets > 0);
    // Shift/mask indexing requires power-of-two geometry (true for
    // every Table I level and any sensible cache).
    LP_ASSERT(isPowerOfTwo(cfg.lineBytes));
    LP_ASSERT(isPowerOfTwo(numSets));
    lineShift = log2u32(cfg.lineBytes);
    setMask = numSets - 1;
    static_assert(std::is_trivially_copyable_v<Line>,
                  "recency reordering uses memmove");
    lines.resize(static_cast<size_t>(numSets) * cfg.assoc);
}

template <bool Count>
bool
Cache::access(Addr addr, uint32_t core, bool is_write,
              std::optional<Addr> *evicted)
{
    (void)is_write;
    if constexpr (Count)
        ++cacheStats.accesses;
    const uint64_t line = lineAddr(addr);
    const uint64_t bit = 1ull << core;
    Line *base =
        &lines[static_cast<size_t>(setIndex(line)) * cfg.assoc];

    // MRU fast path: recency order makes the common temporal-locality
    // hit a single compare, and a hit by a known sharer stores nothing.
    if (base[0].valid && base[0].tag == line) {
        if (!(base[0].sharerMask & bit))
            base[0].sharerMask |= bit;
        return true;
    }
    uint32_t w = 1;
    for (; w < cfg.assoc && base[w].valid; ++w) {
        if (base[w].tag == line) {
            Line hit = base[w];
            hit.sharerMask |= bit;
            std::memmove(base + 1, base, w * sizeof(Line));
            base[0] = hit;
            return true;
        }
    }
    // Miss. `w` is the insertion slot: the first invalid way, or one
    // past the end. A full set's LRU line is the last way — the victim.
    if constexpr (Count)
        ++cacheStats.misses;
    if (w == cfg.assoc) {
        --w;
        if (evicted)
            *evicted = base[w].tag << lineShift;
    }
    std::memmove(base + 1, base, w * sizeof(Line));
    base[0] = Line{line, bit, true};
    return false;
}

template bool Cache::access<true>(Addr, uint32_t, bool,
                                  std::optional<Addr> *);
template bool Cache::access<false>(Addr, uint32_t, bool,
                                   std::optional<Addr> *);

std::optional<Addr>
Cache::fill(Addr addr, uint32_t core)
{
    const uint64_t line = lineAddr(addr);
    Line *base =
        &lines[static_cast<size_t>(setIndex(line)) * cfg.assoc];
    uint32_t w = 0;
    for (; w < cfg.assoc && base[w].valid; ++w) {
        if (base[w].tag == line) {
            base[w].sharerMask |= (1ull << core);
            return std::nullopt; // already resident; don't touch LRU
        }
    }
    std::optional<Addr> evicted;
    if (w == cfg.assoc) {
        --w;
        evicted = base[w].tag << lineShift;
    }
    std::memmove(base + 1, base, w * sizeof(Line));
    base[0] = Line{line, 1ull << core, true};
    return evicted;
}

template <bool Count>
bool
Cache::invalidate(Addr addr)
{
    const uint64_t line = lineAddr(addr);
    Line *base = set(addr);
    for (uint32_t w = 0; w < cfg.assoc && base[w].valid; ++w) {
        if (base[w].tag == line) {
            // Compact the valid suffix so invalid ways stay at the
            // tail and relative recency is preserved.
            std::memmove(base + w, base + w + 1,
                         (cfg.assoc - 1 - w) * sizeof(Line));
            base[cfg.assoc - 1] = Line{};
            if constexpr (Count)
                ++cacheStats.invalidations;
            return true;
        }
    }
    return false;
}

template bool Cache::invalidate<true>(Addr);
template bool Cache::invalidate<false>(Addr);

bool
Cache::contains(Addr addr) const
{
    const uint64_t line = lineAddr(addr);
    const Line *base = set(addr);
    for (uint32_t w = 0; w < cfg.assoc && base[w].valid; ++w)
        if (base[w].tag == line)
            return true;
    return false;
}

uint64_t
Cache::sharers(Addr addr) const
{
    const uint64_t line = lineAddr(addr);
    const Line *base = set(addr);
    for (uint32_t w = 0; w < cfg.assoc && base[w].valid; ++w)
        if (base[w].tag == line)
            return base[w].sharerMask;
    return 0;
}

uint64_t
Cache::takeOtherSharers(Addr addr, uint32_t core)
{
    const uint64_t line = lineAddr(addr);
    const uint64_t keep = 1ull << core;
    Line *base = set(addr);
    for (uint32_t w = 0; w < cfg.assoc && base[w].valid; ++w) {
        if (base[w].tag == line) {
            const uint64_t others = base[w].sharerMask & ~keep;
            if (others)
                base[w].sharerMask &= keep;
            return others;
        }
    }
    return 0;
}

CacheHierarchy::CacheHierarchy(const SimConfig &cfg, uint32_t num_cores)
    : prefetchDegree(cfg.prefetchDegree), prefetchStride(cfg.l2.lineBytes),
      numCores(num_cores), l3(cfg.l3)
{
    LP_ASSERT(num_cores >= 1 && num_cores <= 64);
    for (uint32_t c = 0; c < num_cores; ++c) {
        l1d.emplace_back(cfg.l1d);
        l1i.emplace_back(cfg.l1i);
        l2.emplace_back(cfg.l2);
    }
    dataLat[0] = cfg.l1d.latency;
    dataLat[1] = dataLat[0] + cfg.l2.latency;
    dataLat[2] = dataLat[1] + cfg.l3.latency;
    dataLat[3] = dataLat[2] + cfg.memLatency;
    fetchLat[0] = cfg.l1i.latency;
    fetchLat[1] = fetchLat[0] + cfg.l2.latency;
    fetchLat[2] = fetchLat[1] + cfg.l3.latency;
    fetchLat[3] = fetchLat[2] + cfg.memLatency;
}

template <bool Timed>
void
CacheHierarchy::invalidateOthers(uint32_t core, Addr addr)
{
    // One L3 walk finds the line and clears every other sharer.
    uint64_t mask = l3.takeOtherSharers(addr, core);
    while (mask) {
        uint32_t other = static_cast<uint32_t>(__builtin_ctzll(mask));
        mask &= mask - 1;
        l1d[other].invalidate<Timed>(addr);
        l2[other].invalidate<Timed>(addr);
    }
}

template <bool Timed>
void
CacheHierarchy::backInvalidate(Addr addr)
{
    // Inclusive L3: evicting a line removes it from private caches.
    for (uint32_t c = 0; c < numCores; ++c) {
        l1d[c].invalidate<Timed>(addr);
        l1i[c].invalidate<Timed>(addr);
        l2[c].invalidate<Timed>(addr);
    }
}

template <bool Timed>
MemAccessResult
CacheHierarchy::accessImpl(uint32_t core, Addr addr, bool is_write)
{
    // No per-access bounds assert: core ids come from CoreModel
    // instances constructed against this hierarchy's core count.
    MemAccessResult r;
    std::optional<Addr> evicted;

    if (l1d[core].access<Timed>(addr, core, is_write, nullptr)) {
        r.hitLevel = 1;
    } else if (l2[core].access<Timed>(addr, core, is_write, nullptr)) {
        r.hitLevel = 2;
    } else if (l3.access<Timed>(addr, core, is_write, &evicted)) {
        r.hitLevel = 3;
    } else {
        r.hitLevel = 4;
        if constexpr (Timed)
            ++memCount;
        if (evicted)
            backInvalidate<Timed>(*evicted);
    }
    r.latency = dataLat[r.hitLevel - 1];
    if (is_write)
        invalidateOthers<Timed>(core, addr);

    // Next-line prefetcher: an L2 demand miss pulls the following
    // lines into the L2 and L3 without charging demand latency.
    if (prefetchDegree > 0 && r.hitLevel >= 3 && !is_write) {
        for (uint32_t d = 1; d <= prefetchDegree; ++d) {
            Addr pf = addr + static_cast<Addr>(d) * prefetchStride;
            if (auto evicted_l3 = l3.fill(pf, core))
                backInvalidate<Timed>(*evicted_l3);
            l2[core].fill(pf, core);
            ++prefetchCount;
        }
    }
    return r;
}

template <bool Timed>
MemAccessResult
CacheHierarchy::fetchImpl(uint32_t core, Addr pc)
{
    MemAccessResult r;
    std::optional<Addr> evicted;
    if (l1i[core].access<Timed>(pc, core, false, nullptr)) {
        r.hitLevel = 1;
    } else if (l2[core].access<Timed>(pc, core, false, nullptr)) {
        r.hitLevel = 2;
    } else if (l3.access<Timed>(pc, core, false, &evicted)) {
        r.hitLevel = 3;
    } else {
        r.hitLevel = 4;
        if constexpr (Timed)
            ++memCount;
        if (evicted)
            backInvalidate<Timed>(*evicted);
    }
    r.latency = fetchLat[r.hitLevel - 1];
    return r;
}

MemAccessResult
CacheHierarchy::access(uint32_t core, Addr addr, bool is_write)
{
    return accessImpl<true>(core, addr, is_write);
}

MemAccessResult
CacheHierarchy::fetch(uint32_t core, Addr pc)
{
    return fetchImpl<true>(core, pc);
}

void
CacheHierarchy::warmAccess(uint32_t core, Addr addr, bool is_write)
{
    accessImpl<false>(core, addr, is_write);
}

void
CacheHierarchy::warmFetch(uint32_t core, Addr pc)
{
    fetchImpl<false>(core, pc);
}

uint32_t
CacheHierarchy::maxWarmShards() const
{
    const CacheConfig &line_cfg = l3.config();
    uint32_t shards = l3.sets();
    for (uint32_t c = 0; c < numCores; ++c) {
        for (const Cache *cache : {&l1d[c], &l1i[c], &l2[c]}) {
            if (cache->config().lineBytes != line_cfg.lineBytes)
                return 1;
            shards = std::min(shards, cache->sets());
        }
    }
    return prefetchDegree > 0 ? 1 : shards;
}

uint32_t
CacheHierarchy::lineShift() const
{
    return log2u32(l3.config().lineBytes);
}

const CacheStats &
CacheHierarchy::l1dStats(uint32_t core) const
{
    return l1d[core].stats();
}

const CacheStats &
CacheHierarchy::l1iStats(uint32_t core) const
{
    return l1i[core].stats();
}

const CacheStats &
CacheHierarchy::l2Stats(uint32_t core) const
{
    return l2[core].stats();
}

const CacheStats &
CacheHierarchy::l3Stats() const
{
    return l3.stats();
}

void
CacheHierarchy::resetStats()
{
    for (uint32_t c = 0; c < numCores; ++c) {
        l1d[c].resetStats();
        l1i[c].resetStats();
        l2[c].resetStats();
    }
    l3.resetStats();
    memCount = 0;
}

size_t
CacheHierarchy::stateBytes() const
{
    // Every tag array, plus the cumulative prefetch counter.
    size_t bytes = sizeof(prefetchCount) + l3.linesBytes();
    for (uint32_t c = 0; c < numCores; ++c)
        bytes += l1d[c].linesBytes() + l1i[c].linesBytes() +
                 l2[c].linesBytes();
    return bytes;
}

} // namespace looppoint
