/**
 * @file
 * The region attempt loop of checkpointed region simulation.
 *
 * Checkpointed region simulation separates *producing* region work (a
 * warming pass that stops at each region start) from *executing*
 * it (warm snapshot in, metrics out). This file holds the execution
 * half's core: given a warm snapshot and a region's markers, run the
 * detailed simulation with the full retry/fault-injection/watchdog
 * semantics. The fanout in core/region_exec.hh calls it once per
 * region, on whichever pool thread picks the region up.
 */

#ifndef LOOPPOINT_CORE_REGION_RUN_HH
#define LOOPPOINT_CORE_REGION_RUN_HH

#include <cstdint>
#include <string>

#include "isa/program.hh"
#include "pinball/pinball.hh"
#include "profile/bbv.hh"
#include "sim/multicore.hh"
#include "util/fault.hh"

namespace looppoint {

/**
 * A deep snapshot of the warming simulation plus its private replay
 * arbiter. The arbiter is rebound in the constructor (the MulticoreSim
 * copy aliases the source's arbiter otherwise).
 */
struct WarmSnapshot
{
    MulticoreSim sim;
    ReplayArbiter arbiter;

    WarmSnapshot(const MulticoreSim &base,
                 const ReplayArbiter &base_arbiter, bool constrained)
        : sim(base), arbiter(base_arbiter)
    {
        if (constrained)
            sim.engine().setArbiter(&arbiter);
    }
};

/** Everything needed to simulate one region from its warm snapshot. */
struct RegionWorkItem
{
    /** Index into LoopPointResult::regions (and the output arrays). */
    uint32_t index = 0;
    Marker start;
    Marker end;
    double multiplier = 1.0;
    uint64_t filteredIcount = 0;
    /** Resolved end-marker block; kInvalidBlock = run to completion.
     * Resolved by the producer so execution can never hit a
     * missing-block FatalError. */
    BlockId endBlock = kInvalidBlock;
    /** Divergence watchdog budget in instructions; 0 = no watchdog. */
    uint64_t budget = 0;
    /** 1 + regionRetries. */
    uint32_t maxAttempts = 1;
    bool constrained = false;
};

/** What one region's attempt loop produced. */
struct RegionRunResult
{
    bool ok = false;
    /** Attempts consumed. */
    uint32_t attempts = 0;
    std::string error;
    SimMetrics metrics;
};

/**
 * Run the attempt loop for one region on a pristine warm state.
 *
 * `pristine` must hold the simulation warmed exactly to the region
 * start (the fanout passes its private WarmSnapshot copy).
 *
 * Semantics:
 *  - attempts run in [0, item.maxAttempts);
 *  - with retries in play (maxAttempts > 1) every attempt runs on a
 *    fresh copy of the pristine state; the single-attempt default
 *    runs in place, with no extra deep copy on the fault-free path;
 *  - kind=throw faults raise InjectedFault (retryable); kind=diverge
 *    retargets the stop at an unreachable count so the watchdog
 *    budget fires; kind=kill throws InjectedKill, which escapes the
 *    phase like a real host death would.
 *
 * On return `out` is fully written: ok + metrics on success, or
 * ok=false + the last attempt's error once the budget is exhausted.
 * Only InjectedKill propagates.
 */
void runRegionAttempts(const RegionWorkItem &item,
                       MulticoreSim &pristine,
                       const ReplayArbiter &pristine_arbiter,
                       const FaultPlan &faults, RegionRunResult &out);

} // namespace looppoint

#endif // LOOPPOINT_CORE_REGION_RUN_HH
