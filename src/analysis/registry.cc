#include "analysis/registry.hh"

#include <algorithm>

#include "analysis/lockset.hh"
#include "analysis/race_detector.hh"
#include "util/logging.hh"

namespace looppoint {

std::vector<std::string>
analysisNames()
{
    std::vector<std::string> names = lintPassNames();
    names.emplace_back("race");
    names.emplace_back("lockset");
    names.emplace_back("deadlock");
    names.emplace_back("audit");
    return names;
}

void
requireAnalysisNames(const std::vector<std::string> &names)
{
    const std::vector<std::string> known = analysisNames();
    for (const std::string &name : names)
        if (std::find(known.begin(), known.end(), name) == known.end())
            fatal("unknown pass '%s' (see lp_lint --list-passes)",
                  name.c_str());
}

size_t
runAnalyses(const AnalysisContext &ctx, DiagnosticSink &sink,
            const std::vector<std::string> &only)
{
    LP_ASSERT(ctx.lint.prog != nullptr);
    auto enabled = [&](std::string_view name) {
        if (only.empty())
            return true;
        return std::find(only.begin(), only.end(),
                         std::string(name)) != only.end();
    };

    DiagnosticSink local;
    // Lint passes ignore non-lint names in `only`, so the filter can
    // be forwarded as-is.
    ProgramLint().run(ctx.lint, local, only);

    // The replay analyses and the audit assume a structurally sound
    // program, exactly like the later lint passes. If the structure
    // pass did not run (filtered out), run it into a scratch sink
    // purely as the gate.
    bool structure_ok = true;
    for (const Diagnostic &d : local.diagnostics())
        if (d.pass == "structure" && d.severity == Severity::Error)
            structure_ok = false;
    const bool wants_dynamic =
        ctx.lint.pinball &&
        (enabled("race") || enabled("lockset") || enabled("deadlock"));
    const bool wants_audit = enabled("audit");
    if (structure_ok && !enabled("structure") &&
        (wants_dynamic || wants_audit)) {
        DiagnosticSink scratch;
        ProgramLint().run(ctx.lint, scratch, {"structure"});
        structure_ok = scratch.errors() == 0;
        if (!structure_ok)
            local.info("lint", "",
                       "structural errors found; dynamic analyses "
                       "and audit skipped");
    }

    if (structure_ok && ctx.lint.pinball) {
        if (enabled("race"))
            checkGuestRaces(*ctx.lint.prog, *ctx.lint.pinball, local,
                            ctx.replayQuantum, ctx.maxFindings);
        const bool ls = enabled("lockset");
        const bool dl = enabled("deadlock");
        if (ls || dl)
            checkGuestLockDiscipline(*ctx.lint.prog,
                                     *ctx.lint.pinball, local,
                                     ctx.replayQuantum,
                                     ctx.maxFindings, ls, dl);
    }

    if (structure_ok && wants_audit) {
        AuditContext audit = ctx.audit;
        if (!audit.prog)
            audit.prog = ctx.lint.prog;
        if (!audit.dcfg)
            audit.dcfg = ctx.lint.dcfg;
        if (!audit.pinball)
            audit.pinball = ctx.lint.pinball;
        runArtifactAudit(audit, local);
    }

    std::vector<Diagnostic> diags = local.take();
    sortDiagnosticsCanonical(diags);
    size_t errs = 0;
    for (Diagnostic &d : diags) {
        errs += d.severity == Severity::Error;
        sink.report(d.severity, std::move(d.pass),
                    std::move(d.location), std::move(d.message));
    }
    return errs;
}

} // namespace looppoint
