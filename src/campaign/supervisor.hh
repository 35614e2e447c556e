/**
 * @file
 * Campaign supervisor: crash-isolated job execution with retry,
 * watchdogs, and graceful degradation.
 *
 * Each job runs in a forked child, so a crashing simulation — real or
 * injected — costs one job attempt, never the sweep. Around the fork
 * the supervisor layers, from the inside out:
 *
 *   watchdog     a per-job wall-clock budget (`jobTimeoutSeconds`).
 *                On expiry the child gets SIGTERM (a healthy job
 *                parks at the next region boundary, journals, and
 *                exits 4 = resumable); after `killGraceSeconds` a
 *                still-alive child gets SIGKILL.
 *   classify     the wait status maps onto FailureClass: degraded
 *                and permanent outcomes are final; transient ones
 *                (exit 3, any signal death) and boundary interrupts
 *                are retried.
 *   retry        up to `jobRetries` extra attempts, spaced by
 *                BackoffPolicy with deterministic per-job jitter
 *                (seeded from the campaign seed and job index). The
 *                per-job region journal makes each retry resume
 *                completed regions bit-identically.
 *   journal      every launch and outcome lands in the crash-safe
 *                campaign journal before/after the fact, so a killed
 *                supervisor restarts with exactly-once accounting:
 *                completed jobs are adopted, mid-flight ones rerun.
 *   degrade      before each launch, a free-disk probe runs store GC
 *                below `gcWatermarkBytes` and parks the whole queue
 *                below `gcFloorBytes` rather than corrupt the store.
 *
 * Signal contract (SIGINT/SIGTERM): the first request drains — the
 * running child finishes, nothing new launches; the second kills the
 * child (SIGKILL), journals the kill, and flushes state; a third
 * falls through to default disposition. status.json is durably
 * rewritten (best effort) on every transition for
 * `lp_report --campaign` to render live.
 */

#ifndef LOOPPOINT_CAMPAIGN_SUPERVISOR_HH
#define LOOPPOINT_CAMPAIGN_SUPERVISOR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/campaign_journal.hh"
#include "util/backoff.hh"
#include "util/fault.hh"

namespace looppoint {

/** Supervision policy; see file comment for the model. */
struct SupervisorOptions
{
    /** Extra attempts after the first (so jobRetries=2 → 3 launches
     * max per job per supervisor invocation). */
    uint32_t jobRetries = 2;
    /** Wall-clock watchdog per attempt; 0 disables. */
    double jobTimeoutSeconds = 0.0;
    /** SIGTERM → SIGKILL escalation grace. */
    double killGraceSeconds = 5.0;
    /** Retry spacing; its seed is re-derived per job from the
     * campaign seed and the job index. */
    BackoffPolicy backoff;
    /** Run store GC before a launch when free disk under the store
     * falls below this; 0 disables. */
    uint64_t gcWatermarkBytes = 0;
    /** Park the queue (instead of launching) when free disk is still
     * below this after GC; 0 disables. */
    uint64_t gcFloorBytes = 0;
    /** gc() size target; the default only collects orphans, never
     * evicting live (manifest-bound) objects. */
    uint64_t gcTargetBytes = UINT64_MAX;
    /** Deterministic fault injection (job: clauses). */
    FaultPlan faults;
    /** Live surface path; default <outDir>/status.json. */
    std::string statusPath;
    /** Free bytes available at a path; injectable for tests
     * (default: statvfs). */
    std::function<uint64_t(const std::string &)> freeDiskProbe;
    /** Interruptible sleep; injectable for tests (default: chunked
     * nanosleep that returns early on a shutdown request). */
    std::function<void(double)> sleeper;
};

/** Outcome of one CampaignSupervisor::run(). */
struct SupervisorResult
{
    /** 0 all ok, 1 degraded/failed/parked jobs, 4 interrupted. */
    int exitCode = 0;
    std::vector<CampaignJob> jobs;
    uint32_t launches = 0;
    uint32_t retries = 0;
    uint32_t timeouts = 0;
    uint32_t gcRuns = 0;
    uint32_t adopted = 0; ///< completed jobs taken from the journal
    uint32_t staleResults = 0;
    /** A shutdown request stopped the campaign early. */
    bool interrupted = false;
    /** The disk floor parked the queue. */
    bool parked = false;
};

/** See file comment. */
class CampaignSupervisor
{
  public:
    CampaignSupervisor(CampaignSpec spec, SupervisorOptions opts);

    /**
     * Run the campaign to completion (or until interrupted/parked).
     * Writes campaign.json at the end and status.json on every
     * transition.
     */
    SupervisorResult run();

  private:
    struct ChildOutcome
    {
        FailureClass cls = FailureClass::Transient;
        int32_t code = -1;
        int32_t sig = 0;
        bool timedOut = false;
        bool killedByShutdown = false;
        double wallSeconds = 0.0;
    };

    /** One pass over the matrix; fills `result`. */
    void runPass(std::vector<CampaignJob> &jobs, CampaignJournal &jnl);
    /** Run one job's attempt loop (job is an element of jobs; the
     * whole vector is needed for status.json snapshots). */
    void superviseJob(std::vector<CampaignJob> &jobs, CampaignJob &job,
                      const std::string &job_dir, CampaignJournal &jnl);
    /** Fork, babysit (watchdog + shutdown), reap, classify. */
    ChildOutcome launchAttempt(CampaignJob &job,
                               const std::string &job_dir,
                               uint32_t attempt);
    /** GC/park disk-pressure check before a launch. True = proceed. */
    bool diskPressureOk(CampaignJob &job);
    /** Best-effort durable rewrite of status.json. */
    void writeStatus(const std::vector<CampaignJob> &jobs,
                     const std::string &state);

    CampaignSpec spec;
    SupervisorOptions opts;
    SupervisorResult result;
    std::string statusPath;
};

} // namespace looppoint

#endif // LOOPPOINT_CAMPAIGN_SUPERVISOR_HH
