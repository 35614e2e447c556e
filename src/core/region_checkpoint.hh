/**
 * @file
 * Region pinballs: self-contained, shareable region checkpoints.
 *
 * The paper argues for checkpoint-driven simulation partly on
 * deployment grounds: "checkpoints are easier to share among multiple
 * users than program binaries whose execution might require complex
 * setup" (Section II). A RegionPinball is this library's equivalent of
 * a PinPlay region pinball: a single serializable artifact from which
 * anyone can re-simulate one looppoint — it carries the workload
 * identity (our substitute for the memory image, see DESIGN.md), the
 * execution configuration, the whole-program synchronization log (for
 * deterministic reconstruction), the (PC, count) region boundaries,
 * and the extrapolation weight.
 */

#ifndef LOOPPOINT_CORE_REGION_CHECKPOINT_HH
#define LOOPPOINT_CORE_REGION_CHECKPOINT_HH

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/looppoint.hh"
#include "util/load_result.hh"
#include "workload/descriptor.hh"

namespace looppoint {

/** One shareable region checkpoint. See file comment. */
struct RegionPinball
{
    /** Workload identity: app name + input class regenerate the
     * program deterministically (the memory-image substitute). */
    std::string app;
    InputClass input = InputClass::Train;
    ExecConfig config;
    /** Whole-program schedule-resolution log. */
    SyncLog log;
    Marker start;
    Marker end;
    /** Eq. 2 extrapolation weight. */
    double multiplier = 1.0;
    /** Filtered instructions of the region (for bookkeeping). */
    uint64_t filteredIcount = 0;

    /** Versioned, CRC32-checksummed serialization (format v2). */
    void save(std::ostream &os) const;
    /**
     * Parse a region pinball with structured errors (truncation, bad
     * checksum, unknown version, NaN/negative multipliers, hostile
     * sync logs) instead of fatal().
     */
    static LoadResult<RegionPinball> tryLoad(std::istream &is);
    /** tryLoad, with failures rethrown as FatalError (legacy API). */
    static RegionPinball load(std::istream &is);

    bool operator==(const RegionPinball &other) const = default;
};

/**
 * Export one RegionPinball per looppoint of a completed analysis.
 */
std::vector<RegionPinball> exportRegionPinballs(
    const AppDescriptor &app, InputClass input,
    const LoopPointOptions &opts, const LoopPointResult &lp);

/**
 * Reconstruct a positioned functional checkpoint from a region
 * pinball: regenerates the program, replays deterministically to the
 * region start, and returns the engine snapshot. The caller owns the
 * returned program (the engine references it).
 */
struct RestoredCheckpoint
{
    std::unique_ptr<Program> program;
    Checkpoint checkpoint;
};
RestoredCheckpoint restoreCheckpoint(const RegionPinball &rp);

/**
 * Simulate a region pinball end to end (warmup fast-forward plus
 * detailed simulation of the region) on the given microarchitecture.
 */
SimMetrics simulateRegionPinball(const RegionPinball &rp,
                                 const SimConfig &sim_cfg);

/**
 * ELFie analog (paper Section II): an *executable* region checkpoint.
 * Where a RegionPinball is restored by replaying the program prefix,
 * an ELFie stores the positioned execution state itself, so restoring
 * is O(state) — the difference between sharing a recipe and sharing a
 * loadable snapshot.
 */
struct RestoredElfie
{
    std::unique_ptr<Program> program;
    ExecutionEngine engine;
    Marker end;
    double multiplier = 1.0;
};

/** Position the execution at rp's start and save it as an ELFie. */
void saveElfie(std::ostream &os, const RegionPinball &rp);

/** Load an ELFie saved with saveElfie(). */
RestoredElfie loadElfie(std::istream &is);

} // namespace looppoint

#endif // LOOPPOINT_CORE_REGION_CHECKPOINT_HH
