#include "analysis/experiment_analysis.hh"

#include <string>
#include <utility>

#include "analysis/registry.hh"
#include "core/run_journal.hh"
#include "dcfg/dcfg.hh"
#include "obs/trace.hh"
#include "pinball/pinball.hh"
#include "workload/descriptor.hh"

namespace looppoint {

size_t
analyzeExperiment(const ExperimentConfig &cfg, ExperimentResult &res,
                  const std::vector<std::string> &passes,
                  size_t max_findings)
{
    ScopedSpan span(Tracer::global(), "phase.analysis");

    // Re-derive the run's identity the same way runExperiment() did;
    // program generation is deterministic, so this is the exact
    // program the recording was made from.
    const AppDescriptor &app = findApp(cfg.app);
    const uint32_t threads = res.threads;
    Program prog = generateProgram(app, cfg.input);
    LoopPointOptions opts = cfg.loopPoint;
    opts.numThreads = threads;
    opts.waitPolicy = cfg.waitPolicy;
    opts.jobs = cfg.jobs;
    SimConfig sim_cfg = cfg.sim;
    sim_cfg.jobs = cfg.jobs;

    // The lint and marker checks want the DCFG profile; rebuild it
    // from the recording (a constrained replay, cheap next to
    // simulation).
    DcfgBuilder dcfg_builder(prog, threads);
    replayPinball(prog, res.analysis.pinball, opts.flowQuantum,
                  &dcfg_builder);
    Dcfg dcfg = dcfg_builder.build();

    AnalysisContext ctx;
    ctx.lint.prog = &prog;
    ctx.lint.dcfg = &dcfg;
    ctx.lint.pinball = &res.analysis.pinball;
    ctx.lint.flowQuantum = opts.flowQuantum;
    ctx.replayQuantum = opts.flowQuantum;
    if (max_findings)
        ctx.maxFindings = max_findings;
    ctx.audit.result = &res.analysis;
    ctx.audit.app = &app;
    ctx.audit.input = cfg.input;
    ctx.audit.opts = &opts;
    ctx.audit.expectedThreads = threads;
    ctx.audit.storeDir = cfg.storeDir;
    RunKey journal_key;
    if (!cfg.journalPath.empty()) {
        journal_key = makeRunKey(
            cfg.app, std::string(inputClassName(cfg.input)), threads,
            cfg.waitPolicy, opts.seed, cfg.constrainedRegions,
            sim_cfg);
        ctx.audit.journalPath = cfg.journalPath;
        ctx.audit.journalKey = &journal_key;
    }

    DiagnosticSink sink;
    const size_t errors = runAnalyses(ctx, sink, passes);
    std::vector<Diagnostic> diags = sink.take();
    span.arg("findings", static_cast<uint64_t>(diags.size()));
    res.auditFindings = 0;
    for (Diagnostic &d : diags) {
        res.auditFindings +=
            d.pass == "audit" && d.severity != Severity::Info;
        res.analysis.diagnostics.push_back(std::move(d));
    }
    return errors;
}

} // namespace looppoint
