/**
 * @file
 * The functional-warming pass's memory-access stream, optionally
 * sharded by cache set across consumer threads.
 *
 * Warming runs no timing model, so the sequence of instruction fetches
 * and data accesses it applies to the cache hierarchy is a pure
 * function of the execution. Every cache indexes its sets by the low
 * bits of the line address, and every side effect of an access (the
 * recency reorder, the fill, the L3 victim — same L3 set — with its
 * back-invalidation, and the write-invalidation of other cores'
 * copies) stays within sets whose index agrees with the accessed
 * line's in those low bits. So any log2(P) line-address bits inside
 * the smallest cache's set index split the hierarchy into P shards
 * that never touch each other's memory, and applying each shard's
 * accesses in stream order reproduces the serial final state bit for
 * bit. CacheHierarchy::maxWarmShards() gives the largest usable P (1
 * with next-line prefetch, which couples adjacent lines across
 * shards).
 *
 * The shard is the top log2(P) bits of the smallest set index, not
 * the bottom ones: a shard then owns runs of consecutive sets in every
 * cache, i.e. contiguous tag memory, instead of every P-th set, whose
 * neighbours would share host cache lines with other shards (a
 * measured 2x slowdown from false sharing).
 *
 * The producer — the thread stepping the engine — routes each access,
 * as a (core, addr, kind) record, into its shard's bounded ring; one
 * consumer thread per shard applies the records in order. Consumers
 * and a producer facing a full ring block (std::atomic::wait) rather
 * than spin. With one shard there are no rings and no threads: the
 * producer applies each record inline, so it is the same routine.
 *
 * A stream serves every pass of one warming simulation. Its consumers
 * start once and park on their empty rings between passes; flush()
 * ends a pass. Starting consumers per pass instead cost each pass
 * their start-up latency, which on a loaded host is milliseconds (a
 * new thread waits behind the running ones), and the producer then
 * waited for that backlog at the end of every pass. The rings hold
 * 4 MiB of records in total, about 5 ms of producer run-ahead, so a
 * consumer that is preempted or slow to wake falls behind and catches
 * up instead of stalling the producer. Repeated records are dropped
 * before they reach a ring (see push()), which keeps the consumers
 * faster than the producer.
 */

#ifndef LOOPPOINT_SIM_WARM_STREAM_HH
#define LOOPPOINT_SIM_WARM_STREAM_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "isa/program.hh"
#include "sim/cache.hh"

namespace looppoint {

/** One memory access of the warming stream. */
struct WarmRef
{
    enum class Kind : uint32_t
    {
        Fetch,
        Read,
        Write,
        End ///< ring sentinel: the stream is over
    };

    Addr addr = 0;
    uint32_t core = 0;
    Kind kind = Kind::Read;
};

/**
 * Bounded single-producer single-consumer ring of one shard's records.
 * The producer publishes in batches; the consumer hands slots back in
 * batches, so each side touches the other's index once per batch. The
 * indices are free-running 32-bit counts (capacity is far below 2^31),
 * so each side sleeps on the other's index word directly.
 */
class WarmRing
{
  public:
    /**
     * @param slots ring memory of `capacity` records, owned by the
     *        caller.
     * @param capacity records; a power of two, at least 8.
     */
    WarmRing(WarmRef *slots, uint32_t capacity);

    /** Producer: append one record, blocking while the ring is full. */
    void
    put(const WarmRef &ref)
    {
        if (tail - headSeen == cap)
            waitForSpace();
        buf[tail & (cap - 1)] = ref;
        if (++tail - published == batch)
            publish();
    }

    /** Producer: publish everything; block until it is all applied. */
    void flush();

    /** Producer: append the End sentinel and publish everything. */
    void close();

    /** Consumer: apply records to `h` up to the End sentinel. */
    void drain(CacheHierarchy &h);

  private:
    void publish();
    void waitForSpace();

    // Read-only after construction.
    WarmRef *buf;
    uint32_t cap;
    uint32_t batch;
    // Producer-local cursors, on their own host cache line.
    alignas(64) uint32_t tail = 0;
    uint32_t published = 0;
    uint32_t headSeen = 0;
    /** Records published to the consumer. */
    alignas(64) std::atomic<uint32_t> pubTail{0};
    /** Records the consumer has applied. */
    alignas(64) std::atomic<uint32_t> head{0};
};

/** See file comment. */
class WarmStream
{
  public:
    /**
     * @param shards 1 (apply inline), or a power of two no larger than
     *        hierarchy.maxWarmShards(): start that many consumers.
     */
    WarmStream(CacheHierarchy &hierarchy, uint32_t shards);

    /** Drains every ring and joins the consumers. */
    ~WarmStream();

    WarmStream(const WarmStream &) = delete;
    WarmStream &operator=(const WarmStream &) = delete;

    /** Route one instruction fetch / data access. */
    void
    fetch(uint32_t core, Addr pc)
    {
        push({pc, core, WarmRef::Kind::Fetch});
    }

    void
    data(uint32_t core, Addr addr, bool is_write)
    {
        push({addr, core,
              is_write ? WarmRef::Kind::Write : WarmRef::Kind::Read});
    }

    /**
     * End a pass: every record routed so far has been applied, so the
     * hierarchy holds the serial warm state. The consumers stay,
     * parked, for the next pass.
     */
    void flush();

    /** Apply one record (the consumer routine). */
    static void
    apply(CacheHierarchy &h, const WarmRef &ref)
    {
        switch (ref.kind) {
          case WarmRef::Kind::Fetch:
            h.warmFetch(ref.core, ref.addr);
            break;
          case WarmRef::Kind::Read:
            h.warmAccess(ref.core, ref.addr, false);
            break;
          case WarmRef::Kind::Write:
            h.warmAccess(ref.core, ref.addr, true);
            break;
          case WarmRef::Kind::End:
            break;
        }
    }

  private:
    /**
     * Barrier: every routed record has been applied and the consumers
     * have exited. Idempotent.
     */
    void finish();

    /**
     * Drops a record that repeats the previous record of its shard
     * (same core, kind and line): nothing between them touched that
     * line's sets, and the first left the line MRU in the core's L1
     * with its sharer bit set and, for a write, no other sharer — so
     * the repeat is an MRU hit that stores nothing. Spin loops make
     * about 40% of all records such repeats.
     */
    void
    push(const WarmRef &ref)
    {
        const uint32_t shard = (ref.addr >> shardShift) & shardMask;
        if (dedupe) {
            WarmRef &last = lastRefs[shard];
            if (last.core == ref.core && last.kind == ref.kind &&
                ((last.addr ^ ref.addr) >> lineShift) == 0)
                return;
            last = ref;
        }
        if (rings.empty())
            apply(*hierarchy, ref);
        else
            rings[shard]->put(ref);
    }

    CacheHierarchy *hierarchy;
    uint32_t shardShift = 0; ///< address bit of the lowest shard bit
    uint32_t shardMask = 0;
    /**
     * Drop repeats (see push). Sharding's preconditions — one line
     * size, no prefetch — are also what make a repeat a no-op: a
     * prefetch fill could evict the line again.
     */
    bool dedupe;
    uint32_t lineShift;
    /** Previous record per shard; Kind::End matches nothing. */
    std::vector<WarmRef> lastRefs;
    std::vector<WarmRef> slots; ///< every ring's memory
    std::vector<std::unique_ptr<WarmRing>> rings;
    std::vector<std::thread> consumers;
};

} // namespace looppoint

#endif // LOOPPOINT_SIM_WARM_STREAM_HH
