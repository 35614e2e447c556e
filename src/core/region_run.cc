#include "core/region_run.hh"

#include <limits>
#include <memory>

#include "obs/trace.hh"

namespace looppoint {

void
runRegionAttempts(const RegionWorkItem &item, MulticoreSim &pristine,
                  const ReplayArbiter &pristine_arbiter,
                  const FaultPlan &faults, RegionRunResult &out)
{
    Tracer &tracer = Tracer::global();
    const uint32_t idx = item.index;
    const uint32_t max_attempts = item.maxAttempts;
    for (uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
        // Per-attempt spans only matter when retries are in play; the
        // common single-attempt case is already covered by region.sim.
        ScopedSpan attempt_span(max_attempts > 1 ? &tracer : nullptr,
                                "region.attempt");
        attempt_span.arg("region", static_cast<uint64_t>(idx))
            .arg("attempt", attempt);
        try {
            const auto fault = faults.simFault(idx, attempt);
            if (fault == FaultSpec::Kind::Kill)
                throw InjectedKill("injected host death in region " +
                                   std::to_string(idx));
            if (fault == FaultSpec::Kind::Throw)
                throw InjectedFault("injected failure in region " +
                                    std::to_string(idx) + ", attempt " +
                                    std::to_string(attempt));
            const bool diverge = fault == FaultSpec::Kind::Diverge;

            // With retries in play, every attempt gets its own copy of
            // the pristine snapshot so a failed attempt's partial
            // progress cannot leak into the next; the single-attempt
            // default runs in place (no extra deep copy on the
            // fault-free path).
            std::unique_ptr<WarmSnapshot> scratch;
            MulticoreSim *sim = &pristine;
            if (max_attempts > 1) {
                scratch = std::make_unique<WarmSnapshot>(
                    pristine, pristine_arbiter, item.constrained);
                sim = &scratch->sim;
            }

            SimMetrics m;
            bool reached = true;
            if (item.endBlock == kInvalidBlock && !diverge) {
                m = sim->runDetailed();
            } else {
                // A diverge fault retargets the stop at a count no
                // execution can reach.
                const BlockId stop_block =
                    item.endBlock == kInvalidBlock ? 0 : item.endBlock;
                const uint64_t stop_count =
                    diverge ? std::numeric_limits<uint64_t>::max()
                            : item.end.count;
                m = sim->runDetailedUntilBudget(stop_block, stop_count,
                                                item.budget, &reached);
            }
            if (!reached)
                throw std::runtime_error(
                    "end marker not reached (divergent region; "
                    "watchdog budget " + std::to_string(item.budget) +
                    " instructions)");

            out.metrics = m;
            out.ok = true;
            out.attempts = attempt + 1;
            out.error.clear();
            return;
        } catch (const InjectedKill &) {
            throw; // simulated host death: unwinds the whole phase
        } catch (const std::exception &e) {
            out.ok = false;
            out.attempts = attempt + 1;
            out.error = e.what();
        }
    }
}

} // namespace looppoint
