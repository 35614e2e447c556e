#include "sim/cache.hh"

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

bool
Cache::access(Addr addr, uint32_t core, bool is_write,
              std::optional<Addr> *evicted)
{
    (void)is_write;
    ++cacheStats.accesses;
    const uint64_t line = lineAddr(addr);
    Line *base =
        &lines[static_cast<size_t>(setIndex(line)) * cfg.assoc];

    // MRU fast path: recency order makes the common temporal-locality
    // hit a single compare.
    if (base[0].valid && base[0].tag == line) {
        base[0].lru = ++lruClock;
        base[0].sharerMask |= (1ull << core);
        return true;
    }
    uint32_t w = 1;
    for (; w < cfg.assoc && base[w].valid; ++w) {
        if (base[w].tag == line) {
            Line hit = base[w];
            hit.lru = ++lruClock;
            hit.sharerMask |= (1ull << core);
            std::memmove(base + 1, base, w * sizeof(Line));
            base[0] = hit;
            return true;
        }
    }
    // Miss. `w` is the insertion slot: the first invalid way, or one
    // past the end. A full set's LRU line is the last way — the victim.
    ++cacheStats.misses;
    if (w == cfg.assoc) {
        --w;
        if (evicted)
            *evicted = base[w].tag << lineShift;
    }
    std::memmove(base + 1, base, w * sizeof(Line));
    base[0] = Line{line, ++lruClock, 1ull << core, true};
    return false;
}

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
    base[0] = Line{line, ++lruClock, 1ull << core, true};
    return evicted;
}

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
            ++cacheStats.invalidations;
            return true;
        }
    }
    return false;
}

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

void
Cache::removeSharer(Addr addr, uint32_t core)
{
    const uint64_t line = lineAddr(addr);
    Line *base = set(addr);
    for (uint32_t w = 0; w < cfg.assoc && base[w].valid; ++w)
        if (base[w].tag == line)
            base[w].sharerMask &= ~(1ull << core);
}

CacheHierarchy::CacheHierarchy(const SimConfig &cfg_, uint32_t num_cores)
    : cfg(cfg_), numCores(num_cores), l3(cfg_.l3)
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

void
CacheHierarchy::invalidateOthers(uint32_t core, Addr addr)
{
    uint64_t mask = l3.sharers(addr) & ~(1ull << core);
    while (mask) {
        uint32_t other = static_cast<uint32_t>(__builtin_ctzll(mask));
        mask &= mask - 1;
        if (other >= numCores)
            continue;
        l1d[other].invalidate(addr);
        l2[other].invalidate(addr);
        l3.removeSharer(addr, other);
    }
}

void
CacheHierarchy::backInvalidate(Addr addr)
{
    // Inclusive L3: evicting a line removes it from private caches.
    for (uint32_t c = 0; c < numCores; ++c) {
        l1d[c].invalidate(addr);
        l1i[c].invalidate(addr);
        l2[c].invalidate(addr);
    }
}

MemAccessResult
CacheHierarchy::access(uint32_t core, Addr addr, bool is_write)
{
    // No per-access bounds assert: core ids come from CoreModel
    // instances constructed against this hierarchy's core count.
    MemAccessResult r;
    std::optional<Addr> evicted;

    if (l1d[core].access(addr, core, is_write, nullptr)) {
        r.hitLevel = 1;
    } else if (l2[core].access(addr, core, is_write, nullptr)) {
        r.hitLevel = 2;
    } else if (l3.access(addr, core, is_write, &evicted)) {
        r.hitLevel = 3;
    } else {
        r.hitLevel = 4;
        ++memCount;
        if (evicted)
            backInvalidate(*evicted);
    }
    r.latency = dataLat[r.hitLevel - 1];
    if (is_write)
        invalidateOthers(core, addr);

    // Next-line prefetcher: an L2 demand miss pulls the following
    // lines into the L2 and L3 without charging demand latency.
    if (cfg.prefetchDegree > 0 && r.hitLevel >= 3 && !is_write) {
        for (uint32_t d = 1; d <= cfg.prefetchDegree; ++d) {
            Addr pf = addr + static_cast<Addr>(d) * cfg.l2.lineBytes;
            if (auto evicted_l3 = l3.fill(pf, core))
                backInvalidate(*evicted_l3);
            l2[core].fill(pf, core);
            ++prefetchCount;
        }
    }
    return r;
}

MemAccessResult
CacheHierarchy::fetch(uint32_t core, Addr pc)
{
    MemAccessResult r;
    std::optional<Addr> evicted;
    if (l1i[core].access(pc, core, false, nullptr)) {
        r.hitLevel = 1;
    } else if (l2[core].access(pc, core, false, nullptr)) {
        r.hitLevel = 2;
    } else if (l3.access(pc, core, false, &evicted)) {
        r.hitLevel = 3;
    } else {
        r.hitLevel = 4;
        ++memCount;
        if (evicted)
            backInvalidate(*evicted);
    }
    r.latency = fetchLat[r.hitLevel - 1];
    return r;
}

void
CacheHierarchy::warmAccess(uint32_t core, Addr addr, bool is_write)
{
    access(core, addr, is_write);
}

void
CacheHierarchy::warmFetch(uint32_t core, Addr pc)
{
    fetch(core, pc);
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
    // Every tag array, plus one u64 per cache (its LRU clock) and the
    // cumulative prefetch counter.
    size_t bytes = (3 * numCores + 2) * sizeof(uint64_t) + l3.linesBytes();
    for (uint32_t c = 0; c < numCores; ++c)
        bytes += l1d[c].linesBytes() + l1i[c].linesBytes() +
                 l2[c].linesBytes();
    return bytes;
}

} // namespace looppoint
