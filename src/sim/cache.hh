/**
 * @file
 * Set-associative caches and the three-level hierarchy of paper
 * Table I: private L1-I/L1-D/L2 per core, one shared inclusive L3,
 * LRU replacement, write-invalidate coherence between the private
 * levels via the L3 sharer vector.
 *
 * Hot-path design: line and set derivation use precomputed shift/mask
 * (all geometries are powers of two, asserted at construction), and
 * each set keeps its ways in recency order — most recently used first,
 * invalid ways at the tail. The common temporal-locality hit is a
 * single compare against way 0, the victim of a full set is always the
 * last way, and invalid-way search never scans past the valid prefix.
 * The ordering is observationally identical to classic timestamp LRU,
 * so lines carry no timestamp: the way order *is* the LRU state.
 *
 * Set locality: every side effect of an access (recency reorder, fill,
 * the L3 victim and its back-invalidation, write-invalidation of other
 * cores' copies) stays within sets whose index has the same low bits
 * as the accessed line. The sharded warming pass (sim/warm_stream.hh)
 * relies on it, and the warm (uncounted) path writes nothing outside
 * the sets it touches.
 */

#ifndef LOOPPOINT_SIM_CACHE_HH
#define LOOPPOINT_SIM_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "isa/program.hh"
#include "sim/config.hh"

namespace looppoint {

/** Hit/miss counters for one cache. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;

    bool operator==(const CacheStats &other) const = default;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

/**
 * One set-associative LRU cache. Tags only — no data storage. The
 * optional sharer vector (enabled for the L3) tracks which cores hold
 * a copy, supporting inclusive coherence.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Look up and allocate on miss (LRU victim).
     * @tparam Count update the demand statistics; the functional
     *         warming path passes false and then touches only the set
     * @param core requesting core (for sharer tracking)
     * @param evicted receives the victim line address when a valid
     *        line was displaced; left untouched otherwise. An
     *        engaged optional is unambiguous even for a line at
     *        address 0.
     * @return true on hit
     */
    template <bool Count = true>
    bool access(Addr addr, uint32_t core, bool is_write,
                std::optional<Addr> *evicted);

    /**
     * Insert a line without touching demand statistics (prefetch
     * fill). Returns the evicted line address, or nullopt when no
     * valid line was displaced (including the already-resident case).
     */
    std::optional<Addr> fill(Addr addr, uint32_t core);

    /** Remove a line if present; returns true if it was. `Count` as
     * for access(). */
    template <bool Count = true>
    bool invalidate(Addr addr);

    /** True if the line is resident (no LRU update, no stats). */
    bool contains(Addr addr) const;

    /** Sharer bitmask of a resident line (L3 only); 0 if absent. */
    uint64_t sharers(Addr addr) const;

    /**
     * Drop every sharer except `core` from a resident line, in one
     * set walk; returns the dropped sharer bits (0 if absent).
     */
    uint64_t takeOtherSharers(Addr addr, uint32_t core);

    /** Number of sets (a power of two). */
    uint32_t sets() const { return numSets; }

    const CacheStats &stats() const { return cacheStats; }
    void resetStats() { cacheStats = CacheStats{}; }
    const CacheConfig &config() const { return cfg; }

    /** Same geometry, tags, way order, sharer masks and statistics. */
    bool operator==(const Cache &other) const = default;

    /** Size of the tag array in bytes (fixed by the geometry). */
    size_t
    linesBytes() const
    {
        return lines.size() * sizeof(Line);
    }

  private:
    struct Line
    {
        Addr tag = 0;
        uint64_t sharerMask = 0;
        bool valid = false;

        bool operator==(const Line &other) const = default;
    };

    uint64_t lineAddr(Addr addr) const { return addr >> lineShift; }
    uint32_t setIndex(uint64_t line) const
    {
        return static_cast<uint32_t>(line) & setMask;
    }
    Line *set(Addr addr)
    {
        return &lines[static_cast<size_t>(setIndex(lineAddr(addr))) *
                      cfg.assoc];
    }
    const Line *set(Addr addr) const
    {
        return &lines[static_cast<size_t>(setIndex(lineAddr(addr))) *
                      cfg.assoc];
    }

    CacheConfig cfg;
    uint32_t numSets;
    uint32_t lineShift; ///< log2(lineBytes)
    uint32_t setMask;   ///< numSets - 1
    /** Tag array, numSets x assoc, recency-ordered per set. */
    std::vector<Line> lines;
    CacheStats cacheStats;
};

/** Result of one hierarchy access. */
struct MemAccessResult
{
    uint32_t latency = 0;
    /** Deepest level that hit: 1=L1, 2=L2, 3=L3, 4=memory. */
    uint32_t hitLevel = 1;
};

/**
 * The full cache hierarchy. Coherence model: on a write, other cores'
 * private copies are invalidated (write-invalidate); the L3 is
 * inclusive of all private caches, so an L3 eviction back-invalidates
 * the private levels.
 */
class CacheHierarchy
{
  public:
    CacheHierarchy(const SimConfig &cfg, uint32_t num_cores);

    /** Data access from `core`. */
    MemAccessResult access(uint32_t core, Addr addr, bool is_write);

    /** Instruction fetch for one block. */
    MemAccessResult fetch(uint32_t core, Addr pc);

    /**
     * Warm the hierarchy without timing (functional warmup): the same
     * routines as access()/fetch(), but no statistic is counted, so a
     * call writes only the sets of the accessed line (plus the
     * prefetch counter when prefetching is on).
     */
    void warmAccess(uint32_t core, Addr addr, bool is_write);
    void warmFetch(uint32_t core, Addr pc);

    /**
     * Largest number of shards the warming pass may split this
     * hierarchy into (see sim/warm_stream.hh): the smallest set count
     * of any cache, since shards own disjoint set-index residues. 1
     * when next-line prefetch is on (it couples adjacent lines, which
     * live in different shards) or when the levels' line sizes differ
     * (a line would map to different shards at different levels).
     */
    uint32_t maxWarmShards() const;

    /** log2 of the line size shared by every level (valid whenever
     * maxWarmShards() > 1). */
    uint32_t lineShift() const;

    /** Prefetches issued into the L2s (demand-miss triggered). */
    uint64_t prefetchesIssued() const { return prefetchCount; }

    const CacheStats &l1dStats(uint32_t core) const;
    const CacheStats &l1iStats(uint32_t core) const;
    const CacheStats &l2Stats(uint32_t core) const;
    const CacheStats &l3Stats() const;
    uint64_t memAccesses() const { return memCount; }

    void resetStats();

    /**
     * Bytes of warm state a checkpoint carries — every tag array plus
     * the cumulative prefetch counter (stats are excluded: detailed
     * simulation resets them on entry). A pure function of the
     * geometry.
     */
    size_t stateBytes() const;

    /** Same caches (see Cache::operator==) and counters. */
    bool operator==(const CacheHierarchy &other) const = default;

  private:
    /** The one access routine; Timed counts demand statistics. */
    template <bool Timed>
    MemAccessResult accessImpl(uint32_t core, Addr addr, bool is_write);
    template <bool Timed>
    MemAccessResult fetchImpl(uint32_t core, Addr pc);
    template <bool Timed>
    void invalidateOthers(uint32_t core, Addr addr);
    template <bool Timed>
    void backInvalidate(Addr addr);

    uint32_t prefetchDegree;
    uint32_t prefetchStride; ///< L2 line bytes
    uint32_t numCores;
    std::vector<Cache> l1d;
    std::vector<Cache> l1i;
    std::vector<Cache> l2;
    Cache l3;
    /** Cumulative latency per hit level (index hitLevel - 1). */
    uint32_t dataLat[4];
    uint32_t fetchLat[4];
    uint64_t memCount = 0;
    uint64_t prefetchCount = 0;
};

} // namespace looppoint

#endif // LOOPPOINT_SIM_CACHE_HH
