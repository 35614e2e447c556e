/**
 * @file
 * AnalysisRegistry: the one dispatcher of every analysis in
 * src/analysis/. It unifies the static lint passes (ProgramLint), the
 * dynamic replay checkers (race, lockset, deadlock), and the artifact
 * audit behind a single name-filtered entry point with a shared
 * DiagnosticSink. Every tool selects analyses by these names:
 * lp_lint --passes=LIST calls runAnalyses() directly, while
 * run_looppoint --passes=LIST and lp_campaign --audit reach it through
 * analyzeExperiment() after the run. The pipeline runs no analysis.
 *
 * Determinism contract: analyses run sequentially in registry order
 * and each dynamic analysis replays single-threaded, so the finding
 * order is identical for any --jobs setting. Findings are additionally
 * sorted canonically (sortDiagnosticsCanonical) before they reach the
 * caller's sink.
 */

#ifndef LOOPPOINT_ANALYSIS_REGISTRY_HH
#define LOOPPOINT_ANALYSIS_REGISTRY_HH

#include <string>
#include <vector>

#include "analysis/artifact_audit.hh"
#include "analysis/diagnostic.hh"
#include "analysis/program_lint.hh"

namespace looppoint {

/** Inputs for a full analysis run; only lint.prog is mandatory. */
struct AnalysisContext
{
    /** Static inputs (program, optional DCFG and pinball). */
    LintContext lint;
    /** Driver quantum for the dynamic replay analyses. */
    uint64_t replayQuantum = 1000;
    /** Per-pass cap on reported race/lockset/deadlock findings
     * (--max-findings). */
    size_t maxFindings = 32;
    /** Artifact-audit inputs; prog/dcfg/pinball default to lint's. */
    AuditContext audit;
};

/**
 * All analysis names, in run order: the lint passes, then "race",
 * "lockset", "deadlock", "audit".
 */
std::vector<std::string> analysisNames();

/**
 * fatal() on the first of `names` that analysisNames() does not list;
 * the tools call it while parsing, so a bad name is a usage error.
 */
void requireAnalysisNames(const std::vector<std::string> &names);

/**
 * Run the (optionally name-filtered) analyses and append the findings
 * to `sink` in canonical order. Dynamic analyses and the audit only
 * run when their inputs are present, and are skipped (like the later
 * lint passes) when the structure pass finds errors — they assume a
 * sound block table. Returns the number of errors added.
 */
size_t runAnalyses(const AnalysisContext &ctx, DiagnosticSink &sink,
                   const std::vector<std::string> &only = {});

} // namespace looppoint

#endif // LOOPPOINT_ANALYSIS_REGISTRY_HH
