/**
 * @file
 * The executor of checkpointed region simulation: the in-process
 * thread-pool fanout.
 *
 * simulateRegionsCheckpointed is split into a *producer* — the
 * warming pass that advances one execution in program order (its
 * cache warming sharded by set, sim/warm_stream.hh) and stops at
 * every region start — and this fanout.
 * The producer hands each region's work item plus the warm simulation
 * state to submit(); the fanout deep-copies the state into a
 * WarmSnapshot, runs the region's attempt loop (core/region_run.hh) on
 * a pool thread, and reports the outcome through the completion sink,
 * so warming overlaps detailed simulation. Region metrics are
 * bit-identical for any worker count.
 */

#ifndef LOOPPOINT_CORE_REGION_EXEC_HH
#define LOOPPOINT_CORE_REGION_EXEC_HH

#include <functional>
#include <future>
#include <vector>

#include "core/region_run.hh"
#include "util/fault.hh"

namespace looppoint {

class ThreadPool;

/** One region's outcome, delivered by the fanout to the producer. */
struct RegionCompletion
{
    RegionWorkItem item;
    RegionRunResult result;
    /** Wall seconds the region's attempt loop ran (host-side; not part
     * of the simulated results). */
    double wallSeconds = 0.0;
};

/**
 * Called once per submitted region, with the final outcome — except
 * for a region that dies of InjectedKill, which unwinds the phase
 * like a real host death. Runs on pool worker threads (or the
 * producer thread), so it must only touch state that is safe under
 * that concurrency.
 */
using CompletionSink = std::function<void(const RegionCompletion &)>;

/** See file comment. */
class RegionFanout
{
  public:
    /**
     * Queue regions on `pool`; nullptr runs each region inline on the
     * producer thread (the serial jobs == 1 schedule).
     */
    RegionFanout(ThreadPool *pool, FaultPlan faults, CompletionSink sink);

    /**
     * If anything unwinds the phase while region tasks are still
     * running (an injected kill surfacing through the helping join, a
     * marker-resolution FatalError on the warming thread), the tasks
     * are drained, errors swallowed, before the producer's state
     * leaves scope.
     */
    ~RegionFanout();

    RegionFanout(const RegionFanout &) = delete;
    RegionFanout &operator=(const RegionFanout &) = delete;

    /**
     * Snapshot `warm_base` / `warm_arbiter` (the warming simulation
     * stopped exactly at the region start) and queue the region.
     */
    void submit(const RegionWorkItem &item, const MulticoreSim &warm_base,
                const ReplayArbiter &warm_arbiter);

    /**
     * Block until every submitted region has reported through the
     * sink; the producer thread helps run queued regions instead of
     * idling. Rethrows the first region exception that must escape
     * the phase (InjectedKill) once every task is quiescent.
     */
    void finish();

  private:
    void runOne(const RegionWorkItem &item, WarmSnapshot &snap);

    ThreadPool *pool;
    FaultPlan faults;
    CompletionSink sink;
    std::vector<std::future<void>> inflight;
};

} // namespace looppoint

#endif // LOOPPOINT_CORE_REGION_EXEC_HH
