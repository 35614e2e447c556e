#include "core/region_checkpoint.hh"

#include <cmath>
#include <iomanip>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>

#include "exec/driver.hh"
#include "pinball/pinball_io.hh"
#include "util/logging.hh"

namespace looppoint {

namespace {

constexpr const char *kRegionMagicBase = "looppoint-region-pinball-v";
constexpr int kRegionVersion = 2;

std::optional<LoadError>
parseRegionPayload(std::istream &is, RegionPinball &rp)
{
    std::string key, value;
    if (!(is >> key >> rp.app) || key != "app")
        return streamError(is, "'app' field");
    if (!(is >> key >> value) || key != "input")
        return streamError(is, "'input' field");
    bool found = false;
    for (InputClass c : {InputClass::Test, InputClass::Train,
                         InputClass::Ref, InputClass::NpbA,
                         InputClass::NpbC, InputClass::NpbD}) {
        if (value == inputClassName(c)) {
            rp.input = c;
            found = true;
        }
    }
    if (!found)
        return LoadError{LoadErrorKind::Parse,
                         "unknown input class '" + value + "'"};
    if (!(is >> key >> rp.config.numThreads) || key != "threads")
        return streamError(is, "'threads' field");
    if (!(is >> key >> value) || key != "waitpolicy")
        return streamError(is, "'waitpolicy' field");
    if (value == "active")
        rp.config.waitPolicy = WaitPolicy::Active;
    else if (value == "passive")
        rp.config.waitPolicy = WaitPolicy::Passive;
    else
        return LoadError{LoadErrorKind::Parse,
                         "unknown wait policy '" + value + "'"};
    if (!(is >> key >> rp.config.seed) || key != "seed")
        return streamError(is, "'seed' field");
    if (auto err = loadSyncTids(is, rp.config.numThreads))
        return err;
    if (!(is >> key >> rp.start.pc >> rp.start.count) || key != "start")
        return streamError(is, "'start' marker");
    if (!(is >> key >> rp.end.pc >> rp.end.count) || key != "end")
        return streamError(is, "'end' marker");
    if (!(is >> key >> rp.multiplier) || key != "multiplier")
        return streamError(is, "'multiplier' field");
    if (!(is >> key >> rp.filteredIcount) || key != "icount")
        return streamError(is, "'icount' field");
    if (auto err = loadOrderTable(is, "locks", rp.log.lockOrder))
        return err;
    if (auto err = loadOrderTable(is, "chunks", rp.log.chunkOrder))
        return err;

    // Value-range checks beyond what parsing can see: a NaN or
    // negative multiplier silently poisons every Eq. 1 extrapolation
    // downstream, and a count-less marker is unreachable by
    // construction.
    if (!std::isfinite(rp.multiplier))
        return LoadError{LoadErrorKind::Validation,
                         "multiplier is not finite"};
    if (rp.multiplier < 0.0)
        return LoadError{LoadErrorKind::Validation,
                         "multiplier " + std::to_string(rp.multiplier) +
                             " is negative"};
    if (rp.start.pc != 0 && rp.start.count == 0)
        return LoadError{LoadErrorKind::Validation,
                         "start marker has a pc but a zero count"};
    if (rp.end.pc != 0 && rp.end.count == 0)
        return LoadError{LoadErrorKind::Validation,
                         "end marker has a pc but a zero count"};
    return validateExecutionRecord("region pinball",
                                   rp.config.numThreads,
                                   rp.log.lockOrder, rp.log.chunkOrder,
                                   {}, {});
}

} // namespace

void
RegionPinball::save(std::ostream &os) const
{
    std::ostringstream payload;
    payload << std::setprecision(17);
    payload << "app " << app << '\n';
    payload << "input " << inputClassName(input) << '\n';
    payload << "threads " << config.numThreads << '\n';
    payload << "waitpolicy "
            << (config.waitPolicy == WaitPolicy::Active ? "active"
                                                        : "passive")
            << '\n';
    payload << "seed " << config.seed << '\n';
    saveSyncTids(payload, config.numThreads);
    payload << "start " << start.pc << ' ' << start.count << '\n';
    payload << "end " << end.pc << ' ' << end.count << '\n';
    payload << "multiplier " << multiplier << '\n';
    payload << "icount " << filteredIcount << '\n';
    saveOrderTable(payload, "locks", log.lockOrder);
    saveOrderTable(payload, "chunks", log.chunkOrder);
    writeFramedArtifact(os, kRegionMagicBase, kRegionVersion,
                        payload.str());
}

LoadResult<RegionPinball>
RegionPinball::tryLoad(std::istream &is)
{
    auto framed = readFramedArtifact(is, kRegionMagicBase,
                                     kRegionVersion);
    if (!framed)
        return LoadResult<RegionPinball>::failure(framed.error());
    std::istringstream payload(std::move(framed.value()));
    RegionPinball rp;
    if (auto err = parseRegionPayload(payload, rp))
        return LoadResult<RegionPinball>::failure(std::move(*err));
    return LoadResult<RegionPinball>::success(std::move(rp));
}

RegionPinball
RegionPinball::load(std::istream &is)
{
    auto result = tryLoad(is);
    if (!result)
        fatal("region pinball load failed (%s)",
              result.error().describe().c_str());
    return std::move(result).value();
}

std::vector<RegionPinball>
exportRegionPinballs(const AppDescriptor &app, InputClass input,
                     const LoopPointOptions &opts,
                     const LoopPointResult &lp)
{
    std::vector<RegionPinball> out;
    for (const auto &region : lp.regions) {
        RegionPinball rp;
        rp.app = app.name;
        rp.input = input;
        rp.config.numThreads = opts.numThreads;
        rp.config.waitPolicy = opts.waitPolicy;
        rp.config.seed = opts.seed;
        rp.log = lp.pinball.log;
        rp.start = region.start;
        rp.end = region.end;
        rp.multiplier = region.multiplier;
        rp.filteredIcount = region.filteredIcount;
        out.push_back(std::move(rp));
    }
    return out;
}

RestoredCheckpoint
restoreCheckpoint(const RegionPinball &rp)
{
    auto program = std::make_unique<Program>(
        generateProgram(findApp(rp.app), rp.input));

    ExecutionEngine engine(*program, rp.config);
    if (rp.start.pc != 0 && rp.start.count > 0) {
        auto pc_index = buildPcIndex(*program);
        auto it = pc_index.find(rp.start.pc);
        if (it == pc_index.end())
            fatal("region pinball start pc %#llx not in program",
                  static_cast<unsigned long long>(rp.start.pc));
        BlockId start_block = it->second;
        RoundRobinDriver driver(engine, 1000);
        driver.run(nullptr, [&] {
            return engine.blockExecCount(start_block) >= rp.start.count;
        });
        if (engine.blockExecCount(start_block) < rp.start.count)
            fatal("region pinball start marker never reached "
                  "(mismatched workload?)");
    }
    Checkpoint ckpt{engine, engine.globalIcount(),
                    engine.globalFilteredIcount()};
    return RestoredCheckpoint{std::move(program), std::move(ckpt)};
}

SimMetrics
simulateRegionPinball(const RegionPinball &rp, const SimConfig &sim_cfg)
{
    Program prog = generateProgram(findApp(rp.app), rp.input);
    MulticoreSim sim(prog, rp.config, sim_cfg);
    return sim.runRegion(rp.start.pc, rp.start.count, rp.end.pc,
                         rp.end.count);
}

void
saveElfie(std::ostream &os, const RegionPinball &rp)
{
    RestoredCheckpoint rc = restoreCheckpoint(rp);
    os << std::setprecision(17);
    os << "looppoint-elfie-v1\n";
    os << "app " << rp.app << '\n';
    os << "input " << inputClassName(rp.input) << '\n';
    os << "end " << rp.end.pc << ' ' << rp.end.count << '\n';
    os << "multiplier " << rp.multiplier << '\n';
    rc.checkpoint.engine.save(os);
}

RestoredElfie
loadElfie(std::istream &is)
{
    std::string line, key, value;
    if (!std::getline(is, line) || line != "looppoint-elfie-v1")
        fatal("not a looppoint ELFie (bad magic)");
    std::string app;
    if (!(is >> key >> app) || key != "app")
        fatal("ELFie parse error: app");
    if (!(is >> key >> value) || key != "input")
        fatal("ELFie parse error: input");
    InputClass input = InputClass::Train;
    bool found = false;
    for (InputClass c : {InputClass::Test, InputClass::Train,
                         InputClass::Ref, InputClass::NpbA,
                         InputClass::NpbC, InputClass::NpbD}) {
        if (value == inputClassName(c)) {
            input = c;
            found = true;
        }
    }
    if (!found)
        fatal("ELFie parse error: unknown input class '%s'",
              value.c_str());
    Marker end;
    double multiplier = 1.0;
    if (!(is >> key >> end.pc >> end.count) || key != "end")
        fatal("ELFie parse error: end");
    if (!(is >> key >> multiplier) || key != "multiplier")
        fatal("ELFie parse error: multiplier");
    is.ignore(); // trailing newline before the engine block

    auto program = std::make_unique<Program>(
        generateProgram(findApp(app), input));
    ExecutionEngine engine = ExecutionEngine::load(is, *program);
    return RestoredElfie{std::move(program), std::move(engine), end,
                         multiplier};
}

} // namespace looppoint
