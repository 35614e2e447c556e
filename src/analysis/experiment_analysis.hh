/**
 * @file
 * Post-run analyses of a whole experiment: builds one AnalysisContext
 * from an ExperimentConfig/ExperimentResult pair — the regenerated
 * program, the DCFG rebuilt from the recording, the pinball, and the
 * audit inputs (clustering, journal, store) — and runs the registry
 * over it. This is how run_looppoint --passes and lp_campaign --audit
 * reach the analyses; the pipeline itself runs none. Lives above
 * lp_core: the experiment runner cannot call the registry without
 * making the core/analysis dependency circular, so the tools invoke
 * this after runExperiment() returns.
 */

#ifndef LOOPPOINT_ANALYSIS_EXPERIMENT_ANALYSIS_HH
#define LOOPPOINT_ANALYSIS_EXPERIMENT_ANALYSIS_HH

#include <string>
#include <vector>

#include "core/experiment.hh"

namespace looppoint {

/**
 * Run the registry analyses named in `passes` (see analysisNames();
 * empty = all) over a completed experiment, each capped at
 * `max_findings` reported findings (0 = the registry default). Appends
 * the findings to res.analysis.diagnostics in canonical order, sets
 * res.auditFindings to the audit's warnings + errors, and returns the
 * number of error findings.
 */
size_t analyzeExperiment(const ExperimentConfig &cfg,
                         ExperimentResult &res,
                         const std::vector<std::string> &passes,
                         size_t max_findings);

} // namespace looppoint

#endif // LOOPPOINT_ANALYSIS_EXPERIMENT_ANALYSIS_HH
