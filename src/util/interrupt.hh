/**
 * @file
 * Cooperative shutdown requests for long-running pipeline runs.
 *
 * The supervisor stops a job with SIGTERM and expects it to park at
 * the next region boundary, flush its run journal, and exit with the
 * documented "interrupted" code (4) so a later `--resume` continues
 * bit-identically. That contract lives here: signal handlers set an
 * async-signal-safe flag, the warming loop in the checkpointed
 * simulation polls it between regions, and the run driver turns the
 * resulting InterruptedRun into the exit code.
 *
 * Repeated signals escalate: the third delivery restores the default
 * disposition and re-raises, so a wedged process can still be killed
 * from the keyboard without reaching for SIGKILL.
 */

#ifndef LOOPPOINT_UTIL_INTERRUPT_HH
#define LOOPPOINT_UTIL_INTERRUPT_HH

#include <stdexcept>
#include <string>

namespace looppoint {

/** Thrown when a run stops at a region boundary on request. */
class InterruptedRun : public std::runtime_error
{
  public:
    explicit InterruptedRun(const std::string &what)
        : std::runtime_error(what) {}
};

/** Install SIGINT/SIGTERM handlers that request a boundary stop. */
void installInterruptHandlers();

/** Request a shutdown programmatically (fault injection, tests). */
void requestShutdown();

/** Has a shutdown been requested (by signal or requestShutdown)? */
bool shutdownRequested();

/** Number of shutdown requests so far (signals + programmatic). */
int shutdownSignalCount();

/** Reset the request state (tests; between campaigns). */
void clearShutdownRequest();

} // namespace looppoint

#endif // LOOPPOINT_UTIL_INTERRUPT_HH
