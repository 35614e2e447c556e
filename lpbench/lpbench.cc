/**
 * @file
 * lpbench: the end-to-end LoopPoint benchmark driver.
 *
 * Runs one named workload through the public library API for a fixed
 * number of seconds and prints one JSON object on stdout. Untraced
 * runs report the end-to-end metrics (medians over repeated workload
 * passes); traced runs arm the span tracer, time the same pass with
 * the tracer off and on, and time every layer from outside by calling
 * its public entry points on the workload's own program. Nothing is
 * timed inside src/; all host times are wall clock.
 *
 *   lpbench --workload=train-e2e --seed=42 --seconds=25 --trace=0 \
 *           [--store=DIR] [--trace-out=PATH]
 *
 * Workloads (see README.md for why each exists):
 *   train-e2e     654.roms_s.1 train, passive: analyze, checkpointed
 *                 region simulation, extrapolation, full simulation
 *   ref-analysis  654.roms_s.1 ref, passive: LoopPointPipeline::analyze
 *   uarch-sweep   628.pop2_s.1 train, active: every uarch preset over
 *                 one fresh artifact store, then the same presets again
 *                 as an all-hit pass
 *
 * Every pass is checked: a digest of chosen k, region markers,
 * per-region metrics and the prediction must repeat across the passes
 * of one input and between jobs=1 and the benchmark's jobs; each run
 * cycles over three inputs (seeds 3N..3N+2); coverage must be 1.0; the
 * predicted runtime must be within 15% of full simulation; the all-hit
 * sweep pass must be bit-identical to the cold pass with zero misses.
 * Each failed check counts in "failed". Exit status is 0 when the run
 * completed (even with failed checks), 2 on a usage error.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "core/looppoint.hh"
#include "dcfg/dcfg.hh"
#include "exec/driver.hh"
#include "obs/trace.hh"
#include "pinball/pinball.hh"
#include "profile/slicer.hh"
#include "sim/branch_predictor.hh"
#include "sim/cache.hh"
#include "sim/core_model.hh"
#include "util/rng.hh"
#include "util/sha1.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"
#include "workload/descriptor.hh"

#ifndef LPBENCH_BUILD_TYPE
#define LPBENCH_BUILD_TYPE "unknown"
#endif

using namespace looppoint;

namespace {

using Time = std::chrono::steady_clock::time_point;

Time
now()
{
    return std::chrono::steady_clock::now();
}

double
since(Time t0)
{
    return std::chrono::duration<double>(now() - t0).count();
}

double
median(const std::vector<double> &xs)
{
    return percentile(xs, 50.0);
}

/** Simulated threads of every workload. */
constexpr uint32_t kThreads = 8;
/**
 * Host workers of the timed passes: the warming thread plus 3 pool
 * workers fill a 4-core host; 4 would run 5 busy threads on 4 cores.
 */
constexpr uint32_t kJobs = 3;
/** Accuracy bound of Experiment.EndToEndAccuracyOnSmallApps. */
constexpr double kMaxRuntimeErrorPct = 15.0;
/**
 * Inputs one run cycles its passes over. The input seed moves k, where
 * the regions fall and how many checkpoints are alive at once, so a
 * run's medians cover several region selections instead of one.
 */
constexpr uint64_t kInputsPerRun = 3;
/** Timed passes per run, at least: every input twice. */
constexpr size_t kMinPasses = 2 * kInputsPerRun;

enum class Kind
{
    EndToEnd, ///< analyze + checkpointed phase + full simulation
    Analysis, ///< analyze only
    Sweep     ///< runExperiment over every uarch preset, cold then hit
};

struct Workload
{
    const char *name;
    const char *app;
    InputClass input;
    WaitPolicy wait;
    Kind kind;
};

const Workload kWorkloads[] = {
    {"train-e2e", "654.roms_s.1", InputClass::Train, WaitPolicy::Passive,
     Kind::EndToEnd},
    {"ref-analysis", "654.roms_s.1", InputClass::Ref, WaitPolicy::Passive,
     Kind::Analysis},
    {"uarch-sweep", "628.pop2_s.1", InputClass::Train, WaitPolicy::Active,
     Kind::Sweep},
};

struct Options
{
    const Workload *workload = nullptr;
    uint64_t seed = 42;
    double seconds = 20.0;
    bool trace = false;
    std::string storeDir = ".bench_out/store";
    std::string traceOut;
};

// ---------------------------------------------------------------------
// Output checks

/** Operations attempted and failed; failures keep their description. */
struct Ledger
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;

    void
    expect(bool ok, const std::string &what)
    {
        count(1, ok ? 0 : 1, what);
    }

    /** `n` operations of one kind, `bad` of which failed. */
    void
    count(uint64_t n, uint64_t bad, const std::string &what)
    {
        attempted += n;
        failed += bad;
        if (bad)
            failures.push_back(what);
    }
};

/** SHA-1 over a canonical text of exact (hex-float) values. */
class Digest
{
  public:
    void
    add(const char *key, uint64_t v)
    {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%s=%" PRIu64 ";", key, v);
        h.update(buf, std::strlen(buf));
    }

    void
    add(const char *key, double v)
    {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%s=%a;", key, v);
        h.update(buf, std::strlen(buf));
    }

    void
    add(const char *key, const std::string &v)
    {
        h.update(key, std::strlen(key));
        h.update(v);
    }

    std::string hex() { return h.hex(); }

  private:
    Sha1 h;
};

void
digestAnalysis(Digest &d, const LoopPointResult &lp)
{
    d.add("k", static_cast<uint64_t>(lp.chosenK));
    for (const LoopPointRegion &r : lp.regions) {
        d.add("start.pc", static_cast<uint64_t>(r.start.pc));
        d.add("start.count", r.start.count);
        d.add("end.pc", static_cast<uint64_t>(r.end.pc));
        d.add("end.count", r.end.count);
        d.add("mult", r.multiplier);
    }
}

void
digestMetrics(Digest &d, const SimMetrics &m)
{
    d.add("cycles", m.cycles);
    d.add("instrs", m.instructions);
    d.add("filtered", m.filteredInstructions);
    d.add("runtime", m.runtimeSeconds);
    d.add("br", m.branches);
    d.add("brmiss", m.branchMispredicts);
    d.add("l1d", m.l1dAccesses);
    d.add("l1dmiss", m.l1dMisses);
    d.add("l2", m.l2Accesses);
    d.add("l2miss", m.l2Misses);
    d.add("l3", m.l3Accesses);
    d.add("l3miss", m.l3Misses);
}

void
digestPrediction(Digest &d, const MetricPrediction &p)
{
    d.add("coverage", p.coverage);
    d.add("p.runtime", p.runtimeSeconds);
    d.add("p.cycles", p.cycles);
    d.add("p.instrs", p.instructions);
    d.add("p.filtered", p.filteredInstructions);
    d.add("p.brmiss", p.branchMispredicts);
    d.add("p.l1dmiss", p.l1dMisses);
    d.add("p.l2miss", p.l2Misses);
    d.add("p.l3miss", p.l3Misses);
}

/** Eq. (2) closure: the weighted regions account for all the work. */
bool
weightsClose(const LoopPointResult &lp)
{
    double covered = 0.0;
    for (const LoopPointRegion &r : lp.regions)
        covered += r.multiplier * static_cast<double>(r.filteredIcount);
    const double total = static_cast<double>(lp.totalFilteredIcount);
    return !lp.regions.empty() && total > 0.0 &&
           std::fabs(covered - total) <= 1e-9 * total;
}

// ---------------------------------------------------------------------
// Spans: the benchmark's own, written through the global tracer so the
// library's existing phase spans nest inside them in one document.

/** One run id for every span; span ids and parent links by stack. */
struct SpanTree
{
    std::string runId;
    uint64_t nextId = 1;
    std::vector<uint64_t> open;
};

SpanTree spanTree;

/** A ScopedSpan tagged with run_id, span_id and parent (0 = root). */
class BenchSpan
{
  public:
    explicit BenchSpan(std::string_view name)
        : span(Tracer::global(), name)
    {
        if (!span.active())
            return;
        id = spanTree.nextId++;
        span.arg("run_id", spanTree.runId)
            .arg("span_id", id)
            .arg("parent",
                 spanTree.open.empty() ? uint64_t{0} : spanTree.open.back());
        spanTree.open.push_back(id);
    }

    ~BenchSpan()
    {
        if (id)
            spanTree.open.pop_back();
    }

    BenchSpan(const BenchSpan &) = delete;
    BenchSpan &operator=(const BenchSpan &) = delete;

  private:
    ScopedSpan span;
    uint64_t id = 0;
};

/** Run `fn` inside a bench span and return its wall seconds. */
template <typename Fn>
double
timed(std::string_view name, Fn &&fn)
{
    BenchSpan span(name);
    Time t0 = now();
    fn();
    return since(t0);
}

// ---------------------------------------------------------------------
// Workload passes

LoopPointOptions
analysisOptions(const Workload &w, uint64_t seed, uint32_t jobs)
{
    LoopPointOptions opts;
    opts.numThreads = findApp(w.app).effectiveThreads(kThreads);
    opts.waitPolicy = w.wait;
    opts.seed = seed;
    opts.jobs = jobs;
    return opts;
}

SimConfig
simConfig(uint32_t jobs)
{
    SimConfig sim;
    sim.jobs = jobs;
    return sim;
}

std::vector<std::string>
presetNames()
{
    std::vector<std::string> names;
    const std::string all = uarchPresetNames();
    size_t pos = 0;
    while (pos <= all.size()) {
        size_t comma = all.find(',', pos);
        if (comma == std::string::npos)
            comma = all.size();
        names.push_back(all.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return names;
}

/** Timings and outputs of one workload pass. */
struct PassResult
{
    double wallS = 0.0;
    double estimateS = 0.0;
    double analysisS = 0.0;
    double effectiveMips = 0.0;
    /** Whole-program instructions the pass estimated (all threads). */
    uint64_t instructions = 0;
    std::string digest;
    uint32_t chosenK = 0;

    // EndToEnd only.
    double fullsimMips = 0.0;
    double runtimeErrorPct = 0.0;

    // Sweep only.
    double coldPointS = 0.0; ///< median over the cold-pass points
    double hitPointS = 0.0;  ///< median over the hit-pass points
    StoreStats store;        ///< summed over both passes
    uint64_t hitPassMisses = 0;
};

void
checkAnalysis(const LoopPointResult &lp, Ledger &ledger)
{
    ledger.expect(weightsClose(lp),
                  "Eq. 2 weights do not cover the whole program");
}

PassResult
runEndToEnd(const Program &prog, const Workload &w, uint64_t seed,
            uint32_t jobs, Ledger &ledger)
{
    BenchSpan pass_span("bench.pass");
    PassResult r;
    const SimConfig sim = simConfig(jobs);
    const Time t0 = now();
    LoopPointPipeline pipe(prog, analysisOptions(w, seed, jobs));
    LoopPointResult lp;
    timed("bench.analyze", [&] { lp = pipe.analyze(); });
    r.analysisS = since(t0);
    LoopPointPipeline::CheckpointedSimResult ckpt;
    timed("bench.checkpointed",
          [&] { ckpt = pipe.simulateRegionsCheckpointed(lp, sim); });
    MetricPrediction pred;
    timed("bench.extrapolate", [&] {
        pred = extrapolateMetrics(lp, ckpt.regionMetrics, ckpt.okMask(),
                                  sim);
    });
    r.estimateS = since(t0);
    SimMetrics full;
    const double fullsim_s =
        timed("bench.fullsim", [&] { full = pipe.simulateFull(sim); });
    r.wallS = since(t0);

    r.instructions = lp.totalIcount;
    r.effectiveMips = static_cast<double>(lp.totalIcount) / r.estimateS / 1e6;
    r.fullsimMips =
        static_cast<double>(full.instructions) / fullsim_s / 1e6;
    r.runtimeErrorPct =
        absRelErrorPct(pred.runtimeSeconds, full.runtimeSeconds);
    r.chosenK = lp.chosenK;

    checkAnalysis(lp, ledger);
    for (size_t i = 0; i < ckpt.regionOutcomes.size(); ++i)
        ledger.expect(ckpt.regionOutcomes[i].ok,
                      "region " + std::to_string(i) + " failed: " +
                          ckpt.regionOutcomes[i].error);
    ledger.expect(pred.coverage == 1.0, "coverage is not 1.0");
    ledger.expect(r.runtimeErrorPct <= kMaxRuntimeErrorPct,
                  "runtime error " + std::to_string(r.runtimeErrorPct) +
                      "% exceeds 15%");

    Digest d;
    digestAnalysis(d, lp);
    for (const SimMetrics &m : ckpt.regionMetrics)
        digestMetrics(d, m);
    digestPrediction(d, pred);
    digestMetrics(d, full);
    r.digest = d.hex();
    return r;
}

PassResult
runAnalysis(const Program &prog, const Workload &w, uint64_t seed,
            uint32_t jobs, Ledger &ledger)
{
    BenchSpan pass_span("bench.pass");
    PassResult r;
    const Time t0 = now();
    LoopPointPipeline pipe(prog, analysisOptions(w, seed, jobs));
    LoopPointResult lp;
    timed("bench.analyze", [&] { lp = pipe.analyze(); });
    r.analysisS = since(t0);
    // Region selection is this workload's estimate: no stage follows.
    r.estimateS = r.analysisS;
    r.wallS = r.analysisS;
    r.instructions = lp.totalIcount;
    r.effectiveMips = static_cast<double>(lp.totalIcount) / r.estimateS / 1e6;
    r.chosenK = lp.chosenK;

    checkAnalysis(lp, ledger);
    Digest d;
    digestAnalysis(d, lp);
    r.digest = d.hex();
    return r;
}

/** One runExperiment per preset over the store at `store_dir`. */
struct SweepPass
{
    std::vector<ExperimentResult> points;
    std::vector<double> seconds;
    std::vector<std::string> digests;
};

SweepPass
sweepOnce(const Workload &w, uint64_t seed, uint32_t jobs,
          const std::string &store_dir, const char *span_name)
{
    BenchSpan span(span_name);
    SweepPass pass;
    for (const std::string &preset : presetNames()) {
        ExperimentConfig cfg;
        cfg.app = w.app;
        cfg.input = w.input;
        cfg.requestedThreads = kThreads;
        cfg.waitPolicy = w.wait;
        applyUarchPreset(cfg.sim, preset);
        cfg.loopPoint.seed = seed;
        cfg.jobs = jobs;
        cfg.simulateFull = false;
        cfg.storeDir = store_dir;
        ExperimentResult res;
        pass.seconds.push_back(
            timed("bench.point", [&] { res = runExperiment(cfg); }));
        Digest d;
        d.add("preset", preset);
        digestAnalysis(d, res.analysis);
        for (const SimMetrics &m : res.regionMetrics)
            digestMetrics(d, m);
        digestPrediction(d, res.predicted);
        pass.digests.push_back(d.hex());
        pass.points.push_back(std::move(res));
    }
    return pass;
}

void
addStoreStats(StoreStats &into, const StoreStats &s)
{
    into.hits += s.hits;
    into.misses += s.misses;
    into.publishes += s.publishes;
    into.corruptEntries += s.corruptEntries;
    into.failedPublishes += s.failedPublishes;
    into.bytesStored += s.bytesStored;
    into.bytesDeduped += s.bytesDeduped;
    into.bytesRead += s.bytesRead;
}

PassResult
runSweep(const Workload &w, uint64_t seed, uint32_t jobs,
         const std::string &store_dir, Ledger &ledger)
{
    BenchSpan pass_span("bench.pass");
    PassResult r;
    const Time t0 = now();
    SweepPass cold = sweepOnce(w, seed, jobs, store_dir, "bench.cold_pass");
    r.estimateS = since(t0);
    SweepPass hit = sweepOnce(w, seed, jobs, store_dir, "bench.hit_pass");
    r.wallS = since(t0);

    // The first point computes the analysis; later points load it.
    const ExperimentResult &first = cold.points.front();
    r.analysisS = cold.seconds.front() - first.wallPhaseSeconds;
    r.instructions = first.analysis.totalIcount;
    r.effectiveMips = static_cast<double>(cold.points.size()) *
                      static_cast<double>(r.instructions) / r.estimateS /
                      1e6;
    r.chosenK = first.analysis.chosenK;
    r.coldPointS = median(cold.seconds);
    r.hitPointS = median(hit.seconds);

    Digest d;
    for (size_t i = 0; i < cold.points.size(); ++i) {
        const ExperimentResult &c = cold.points[i];
        const ExperimentResult &h = hit.points[i];
        const std::string at = "point " + std::to_string(i);
        checkAnalysis(c.analysis, ledger);
        ledger.count(c.analysis.regions.size(), c.failedRegions,
                     at + ": regions dropped");
        ledger.expect(c.coverage == 1.0 && c.predicted.coverage == 1.0,
                      at + ": coverage is not 1.0");
        ledger.expect(h.simStageHit && h.analysis.stageHashes.recordHit &&
                          h.analysis.stageHashes.profileHit &&
                          h.analysis.stageHashes.clusterHit &&
                          h.storeStats.misses == 0 &&
                          h.storeStats.publishes == 0,
                      at + ": hit pass missed the store");
        ledger.expect(hit.digests[i] == cold.digests[i],
                      at + ": hit pass differs from cold pass");
        addStoreStats(r.store, c.storeStats);
        addStoreStats(r.store, h.storeStats);
        r.hitPassMisses += h.storeStats.misses;
        d.add("point", cold.digests[i]);
    }
    ledger.expect(r.store.failedPublishes == 0, "store publish failed");
    r.digest = d.hex();
    return r;
}

// ---------------------------------------------------------------------
// Set-up: everything before the first pass can start.

/** Store wipe + program generation; the workload's set-up. */
Program
setUp(const Workload &w, const Options &opt)
{
    BenchSpan span("bench.setup");
    if (w.kind == Kind::Sweep) {
        std::filesystem::remove_all(opt.storeDir);
        std::filesystem::create_directories(opt.storeDir);
    }
    return generateProgram(findApp(w.app), w.input);
}

/** Seed of input `i` of a run: --seed N covers 3N, 3N+1, 3N+2. */
uint64_t
inputSeed(const Options &opt, size_t i)
{
    return opt.seed * kInputsPerRun + i;
}

PassResult
runPass(const Program &prog, const Workload &w, const Options &opt,
        size_t input, uint32_t jobs, Ledger &ledger)
{
    const uint64_t seed = inputSeed(opt, input);
    switch (w.kind) {
      case Kind::EndToEnd:
        return runEndToEnd(prog, w, seed, jobs, ledger);
      case Kind::Analysis:
        return runAnalysis(prog, w, seed, jobs, ledger);
      case Kind::Sweep:
        break;
    }
    return runSweep(w, seed, jobs, opt.storeDir, ledger);
}

// ---------------------------------------------------------------------
// Per-layer probes: each layer's public entry points, timed from
// outside on the workload's program.

/** A metric as printed: name, value, unit. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * The sim- and core-layer metrics with their units. A workload that
 * never calls those layers (ref-analysis) reports each of them as 0.
 */
const std::pair<const char *, const char *> kSimCoreMetrics[] = {
    {"sim.warm_ns_per_block", "ns"},   {"sim.detailed_ns_per_block", "ns"},
    {"sim.cache.access_ns", "ns"},     {"sim.cache.warm_access_ns", "ns"},
    {"sim.cache.l1d_hit_ratio", "ratio"},
    {"sim.cache.l3_miss_ratio", "ratio"},
    {"sim.bp.predict_ns", "ns"},       {"sim.bp.mispredict_ratio", "ratio"},
    {"sim.core.block_ns", "ns"},       {"sim.snapshot_bytes", "bytes"},
    {"sim.snapshot_ns", "ns"},         {"core.warm_s", "s"},
    {"core.phase_s", "s"},             {"core.region_s_p50", "s"},
    {"core.region_s_max", "s"},        {"core.parallel_efficiency", "ratio"},
    {"core.critical_path_share", "ratio"},
    {"core.fullsim_s", "s"},
};

/** Blocks a simulator probe runs; bounds probe cost on long inputs. */
constexpr uint64_t kProbeBlocks = 400'000;
/** Blocks captured for the cache/predictor/core replays. */
constexpr uint64_t kCaptureBlocks = 150'000;

ExecConfig
execConfig(const Workload &w, uint64_t seed, bool addresses)
{
    ExecConfig cfg;
    cfg.numThreads = findApp(w.app).effectiveThreads(kThreads);
    cfg.waitPolicy = w.wait;
    cfg.seed = seed;
    cfg.genAddresses = addresses;
    return cfg;
}

/** ns per block of a MulticoreSim mode over kProbeBlocks blocks. */
template <typename Fn>
double
simNsPerBlock(const Program &prog, const ExecConfig &exec,
              const SimConfig &sim_cfg, const char *span, Fn &&run)
{
    MulticoreSim sim(prog, exec, sim_cfg);
    uint64_t blocks = 0;
    auto stop = [&] { return ++blocks >= kProbeBlocks; };
    const double s = timed(span, [&] { run(sim, stop); });
    return s * 1e9 / static_cast<double>(blocks);
}

/** ns per block of the functional driver, addresses on or off. */
double
driverNsPerBlock(const Program &prog, const ExecConfig &exec,
                 const char *span)
{
    ExecutionEngine eng(prog, exec);
    RoundRobinDriver driver(eng, LoopPointOptions{}.flowQuantum);
    const double s = timed(span, [&] {
        driver.run(nullptr, [&] { return driver.steps() >= kProbeBlocks; });
    });
    return s * 1e9 / static_cast<double>(driver.steps());
}

/** A captured dynamic block with its memory references. */
struct BlockEvent
{
    uint32_t tid;
    BlockId block;
    bool taken;
    std::vector<MemRef> refs;
};

/** Listener that records the first kCaptureBlocks blocks. */
class StreamCapture : public ExecListener
{
  public:
    void
    onBlock(uint32_t tid, BlockId block,
            const ExecutionEngine &engine) override
    {
        if (events.size() < kCaptureBlocks)
            events.push_back({tid, block, engine.branchTaken(tid),
                              engine.memRefs(tid)});
    }

    std::vector<BlockEvent> events;
};

void
probeSimLayers(const Program &prog, const Workload &w, uint64_t seed,
               std::vector<Metric> &out, Ledger &ledger)
{
    const SimConfig sim_cfg = simConfig(1);
    const ExecConfig exec = execConfig(w, seed, false);
    const uint32_t threads = exec.numThreads;

    out.push_back({"sim.warm_ns_per_block",
                   simNsPerBlock(prog, exec, sim_cfg, "probe.sim.warm",
                                 [](MulticoreSim &sim, auto &stop) {
                                     sim.fastForward(stop, true);
                                 }),
                   "ns"});
    out.push_back({"sim.detailed_ns_per_block",
                   simNsPerBlock(prog, exec, sim_cfg,
                                 "probe.sim.detailed",
                                 [](MulticoreSim &sim, auto &stop) {
                                     sim.runDetailed(stop);
                                 }),
                   "ns"});

    StreamCapture cap;
    {
        BenchSpan span("probe.capture");
        ExecutionEngine eng(prog, execConfig(w, seed, true));
        RoundRobinDriver driver(eng, LoopPointOptions{}.flowQuantum);
        driver.run(&cap, [&] {
            return cap.events.size() >= kCaptureBlocks;
        });
    }

    uint64_t refs = 0;
    for (const BlockEvent &ev : cap.events)
        refs += ev.refs.size();
    CacheHierarchy timed_h(sim_cfg, threads);
    uint64_t latency = 0;
    const double access_s = timed("probe.cache.access", [&] {
        for (const BlockEvent &ev : cap.events)
            for (const MemRef &ref : ev.refs)
                latency +=
                    timed_h.access(ev.tid, ref.addr, ref.isWrite).latency;
    });
    CacheHierarchy warm_h(sim_cfg, threads);
    const double warm_s = timed("probe.cache.warm_access", [&] {
        for (const BlockEvent &ev : cap.events)
            for (const MemRef &ref : ev.refs)
                warm_h.warmAccess(ev.tid, ref.addr, ref.isWrite);
    });
    uint64_t l1d_acc = 0, l1d_miss = 0;
    for (uint32_t c = 0; c < threads; ++c) {
        l1d_acc += timed_h.l1dStats(c).accesses;
        l1d_miss += timed_h.l1dStats(c).misses;
    }
    const double per_ref = refs ? 1e9 / static_cast<double>(refs) : 0.0;
    out.push_back({"sim.cache.access_ns", access_s * per_ref, "ns"});
    out.push_back({"sim.cache.warm_access_ns", warm_s * per_ref, "ns"});
    out.push_back({"sim.cache.l1d_hit_ratio",
                   l1d_acc ? 1.0 - static_cast<double>(l1d_miss) /
                                       static_cast<double>(l1d_acc)
                           : 0.0,
                   "ratio"});
    out.push_back(
        {"sim.cache.l3_miss_ratio", timed_h.l3Stats().missRate(), "ratio"});
    ledger.expect(latency > 0, "cache probe: zero total latency");

    std::vector<PentiumMBranchPredictor> bps(threads);
    uint64_t branches = 0, mispredicts = 0;
    const double bp_s = timed("probe.bp", [&] {
        for (const BlockEvent &ev : cap.events) {
            const BasicBlock &bb = prog.blocks[ev.block];
            if (bb.endsWithBranch()) {
                ++branches;
                mispredicts +=
                    bps[ev.tid].predictAndTrain(bb.pc, ev.taken) ? 0 : 1;
            }
        }
    });
    out.push_back({"sim.bp.predict_ns",
                   branches ? bp_s * 1e9 / static_cast<double>(branches)
                            : 0.0,
                   "ns"});
    out.push_back({"sim.bp.mispredict_ratio",
                   branches ? static_cast<double>(mispredicts) /
                                  static_cast<double>(branches)
                            : 0.0,
                   "ratio"});

    CacheHierarchy core_h(sim_cfg, threads);
    std::vector<std::unique_ptr<CoreModel>> cores;
    for (uint32_t c = 0; c < threads; ++c)
        cores.push_back(std::make_unique<CoreModel>(sim_cfg, c, core_h));
    const double core_s = timed("probe.core", [&] {
        for (const BlockEvent &ev : cap.events)
            cores[ev.tid]->executeBlock(prog.blocks[ev.block], ev.refs,
                                        ev.taken);
    });
    out.push_back({"sim.core.block_ns",
                   core_s * 1e9 / static_cast<double>(cap.events.size()),
                   "ns"});

    // Snapshot: the deep copy a checkpoint takes, after warming.
    MulticoreSim warm(prog, exec, sim_cfg);
    uint64_t blocks = 0;
    warm.fastForward([&] { return ++blocks >= kProbeBlocks; }, true);
    std::vector<double> copies;
    bool same = true;
    for (int i = 0; i < 9; ++i)
        copies.push_back(timed("probe.snapshot", [&] {
            MulticoreSim copy(warm);
            same = same && copy.engine().globalIcount() ==
                               warm.engine().globalIcount();
        }));
    ledger.expect(same, "snapshot probe: copy diverged");
    out.push_back({"sim.snapshot_bytes",
                   static_cast<double>(warm.microarchStateBytes()),
                   "bytes"});
    out.push_back({"sim.snapshot_ns", median(copies) * 1e9, "ns"});
}

void
probeAnalysisLayers(const Program &prog, const Workload &w, uint64_t seed,
                    uint32_t pass_k, std::vector<Metric> &out,
                    Ledger &ledger)
{
    const LoopPointOptions opts = analysisOptions(w, seed, kJobs);
    const ExecConfig exec = execConfig(w, seed, false);

    const double ff = simNsPerBlock(
        prog, exec, simConfig(1), "probe.exec.fastforward",
        [](MulticoreSim &sim, auto &stop) { sim.fastForward(stop, false); });
    const double gen_on =
        driverNsPerBlock(prog, execConfig(w, seed, true), "probe.exec.addr_on");
    const double gen_off =
        driverNsPerBlock(prog, exec, "probe.exec.addr_off");
    out.push_back({"exec.ff_ns_per_block", ff, "ns"});
    out.push_back({"exec.addrgen_ns_per_block", gen_on - gen_off, "ns"});

    Pinball pb;
    out.push_back({"pinball.record_s", timed("probe.record", [&] {
                       pb = recordPinball(prog, exec, opts.flowQuantum);
                   }),
                   "s"});
    out.push_back({"pinball.replay_s", timed("probe.replay", [&] {
                       replayPinball(prog, pb, opts.flowQuantum);
                   }),
                   "s"});
    std::vector<BlockId> markers;
    out.push_back({"dcfg.build_s", timed("probe.dcfg", [&] {
                       DcfgBuilder listener(prog, exec.numThreads);
                       replayPinball(prog, pb, opts.flowQuantum, &listener);
                       markers = listener.build().mainImageLoopHeaders();
                   }),
                   "s"});
    std::vector<SliceRecord> slices;
    out.push_back({"profile.slice_s", timed("probe.profile", [&] {
                       SliceProfiler profiler(
                           prog, markers,
                           opts.sliceSizePerThread * exec.numThreads,
                           exec.numThreads, opts.filterSpin);
                       replayPinball(prog, pb, opts.flowQuantum, &profiler);
                       profiler.finalize();
                       slices = profiler.slices();
                   }),
                   "s"});

    ThreadPool pool(kJobs);
    ThreadPool *pool_ptr = &pool;
    FeatureMatrix features;
    out.push_back({"cluster.project_s", timed("probe.project", [&] {
                       features = buildFeatureMatrix(
                           prog, slices, opts.projectionDims, opts.seed,
                           pool_ptr);
                   }),
                   "s"});
    const uint64_t cluster_seed = hashCombine(opts.seed, 0xc1u);
    ClusteringResult par, serial;
    out.push_back({"cluster.sweep_s", timed("probe.cluster.sweep", [&] {
                       par = simpointCluster(features, opts.maxK,
                                             cluster_seed,
                                             opts.bicThreshold, pool_ptr);
                   }),
                   "s"});
    out.push_back({"cluster.sweep_serial_s",
                   timed("probe.cluster.sweep_serial", [&] {
                       serial = simpointCluster(features, opts.maxK,
                                                cluster_seed,
                                                opts.bicThreshold);
                   }),
                   "s"});
    out.push_back({"cluster.chosen_k", static_cast<double>(par.chosenK),
                   "count"});
    ledger.expect(par.chosenK == serial.chosenK &&
                      par.best.assignment == serial.best.assignment,
                  "parallel and serial k-means sweeps differ");
    ledger.expect(par.chosenK == pass_k,
                  "layer-by-layer analysis chose a different k");
}

/** Median checkpointed-phase statistics over 3 direct runs. */
void
probeCoreLayer(const Program &prog, const Workload &w, uint64_t seed,
               bool full_sim, std::vector<Metric> &out)
{
    const SimConfig sim = simConfig(kJobs);
    LoopPointPipeline pipe(prog, analysisOptions(w, seed, kJobs));
    const LoopPointResult lp = pipe.analyze();
    std::vector<double> warm, phase, p50, rmax, eff, share;
    for (int i = 0; i < 3; ++i) {
        LoopPointPipeline::CheckpointedSimResult ckpt;
        timed("probe.core.checkpointed",
              [&] { ckpt = pipe.simulateRegionsCheckpointed(lp, sim); });
        warm.push_back(ckpt.checkpointWallSeconds);
        phase.push_back(ckpt.phaseWallSeconds);
        p50.push_back(median(ckpt.regionWallSeconds));
        rmax.push_back(maxOf(ckpt.regionWallSeconds));
        eff.push_back(ckpt.parallelEfficiency());
        share.push_back(ckpt.checkpointWallSeconds / ckpt.phaseWallSeconds);
    }
    out.push_back({"core.warm_s", median(warm), "s"});
    out.push_back({"core.phase_s", median(phase), "s"});
    out.push_back({"core.region_s_p50", median(p50), "s"});
    out.push_back({"core.region_s_max", median(rmax), "s"});
    out.push_back({"core.parallel_efficiency", median(eff), "ratio"});
    out.push_back({"core.critical_path_share", median(share), "ratio"});
    double full_s = 0.0;
    if (full_sim)
        full_s = timed("probe.core.fullsim",
                       [&] { (void)pipe.simulateFull(sim); });
    out.push_back({"core.fullsim_s", full_s, "s"});
}

// ---------------------------------------------------------------------
// JSON output

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        const auto c = static_cast<unsigned char>(ch);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += ch;
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonSamples(const std::vector<double> &xs)
{
    std::string out = "[";
    for (size_t i = 0; i < xs.size(); ++i)
        out += (i ? ", " : "") + jsonNumber(xs[i]);
    return out + "]";
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "lpbench: %s\n"
                 "usage: lpbench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 [--store=DIR] "
                 "[--trace-out=PATH]\n"
                 "workloads: train-e2e, ref-analysis, uarch-sweep\n",
                 msg);
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const size_t eq = arg.find('=');
        if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
            return false;
        const std::string key = arg.substr(2, eq - 2);
        const std::string val = arg.substr(eq + 1);
        try {
            if (key == "workload") {
                for (const Workload &w : kWorkloads)
                    if (val == w.name)
                        opt.workload = &w;
                if (!opt.workload)
                    return false;
            } else if (key == "seed") {
                opt.seed = std::stoull(val);
            } else if (key == "seconds") {
                opt.seconds = std::stod(val);
            } else if (key == "trace") {
                opt.trace = val == "1";
            } else if (key == "store") {
                opt.storeDir = val;
            } else if (key == "trace-out") {
                opt.traceOut = val;
            } else {
                return false;
            }
        } catch (const std::exception &) {
            return false;
        }
    }
    return opt.workload != nullptr && opt.seconds > 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Time process_start = now();
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return usage("bad arguments");
    const Workload &w = *opt.workload;
    spanTree.runId = std::string(w.name) + "-s" +
                     std::to_string(opt.seed) + "-p" +
                     std::to_string(::getpid());

    Ledger ledger;
    std::vector<double> setup_s;

    // Warm-up pass at jobs=1 on the first input: its digest is the
    // reference that input's timed passes (at kJobs) must reproduce.
    // Each other input's first timed pass is its reference. The
    // warm-up's set-up is timed from process start.
    Program prog = setUp(w, opt);
    setup_s.push_back(since(process_start));
    const PassResult ref = runPass(prog, w, opt, 0, 1, ledger);
    std::vector<std::string> ref_digest(kInputsPerRun);
    ref_digest[0] = ref.digest;

    auto check_pass = [&](const PassResult &p, size_t input) {
        std::string &want = ref_digest[input];
        if (want.empty())
            want = p.digest;
        else
            ledger.expect(p.digest == want,
                          "input " + std::to_string(input) +
                              ": digest differs from its first pass");
    };

    std::vector<PassResult> passes;
    std::vector<Metric> layers;
    double overhead_s = 0.0;
    if (!opt.trace) {
        const Time t0 = now();
        while (passes.size() < kMinPasses || since(t0) < opt.seconds) {
            const size_t input = passes.size() % kInputsPerRun;
            const Time ts = now();
            prog = setUp(w, opt);
            setup_s.push_back(since(ts));
            passes.push_back(runPass(prog, w, opt, input, kJobs, ledger));
            check_pass(passes.back(), input);
        }
    } else {
        Tracer &tracer = Tracer::global();
        tracer.nameCurrentThread("main");
        // Alternate untraced and traced passes for half the run; the
        // difference of their medians is the tracing overhead.
        std::vector<double> plain, traced;
        const Time t0 = now();
        for (size_t i = 0; i < 2 || since(t0) < opt.seconds / 2; ++i) {
            const size_t input = i % kInputsPerRun;
            for (bool on : {i % 2 == 1, i % 2 == 0}) {
                tracer.setEnabled(on);
                const Time ts = now();
                prog = setUp(w, opt);
                setup_s.push_back(since(ts));
                PassResult p = runPass(prog, w, opt, input, kJobs, ledger);
                check_pass(p, input);
                (on ? traced : plain).push_back(p.wallS);
                if (on)
                    passes.push_back(std::move(p));
            }
        }
        overhead_s = median(traced) - median(plain);

        tracer.setEnabled(true);
        BenchSpan probes("bench.layers");
        // The layers run on the first input, the warm-up pass's.
        const uint64_t seed = inputSeed(opt, 0);
        probeAnalysisLayers(prog, w, seed, ref.chosenK, layers, ledger);
        if (w.kind != Kind::Analysis) {
            probeSimLayers(prog, w, seed, layers, ledger);
            probeCoreLayer(prog, w, seed, w.kind == Kind::EndToEnd, layers);
        }
    }
    if (w.kind == Kind::Sweep)
        std::filesystem::remove_all(opt.storeDir);

    auto collect = [&](double PassResult::*field) {
        std::vector<double> xs;
        for (const PassResult &p : passes)
            xs.push_back(p.*field);
        return xs;
    };
    if (opt.trace && !opt.traceOut.empty()) {
        Tracer::global().setEnabled(false);
        std::ofstream os(opt.traceOut);
        Tracer::global().writeChromeTrace(os);
        ledger.expect(static_cast<bool>(os), "cannot write the trace");
    }

    const double fail_ratio =
        static_cast<double>(ledger.failed) /
        static_cast<double>(std::max<uint64_t>(ledger.attempted, 1));

    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, std::vector<double>>> samples;
    if (!opt.trace) {
        auto e2e = [&](const char *name, double PassResult::*field,
                       const char *unit) {
            std::vector<double> xs = collect(field);
            metrics.push_back({name, median(xs), unit});
            samples.emplace_back(name, std::move(xs));
        };
        metrics.push_back({"setup_s", median(setup_s), "s"});
        samples.emplace_back("setup_s", setup_s);
        e2e("wall_s", &PassResult::wallS, "s");
        e2e("estimate_s", &PassResult::estimateS, "s");
        e2e("analysis_s", &PassResult::analysisS, "s");
        e2e("effective_mips", &PassResult::effectiveMips, "MIPS");
        metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    } else {
        // Per-layer metrics of layers this workload never calls read 0.
        const bool e2e = w.kind == Kind::EndToEnd;
        const bool sweep = w.kind == Kind::Sweep;
        metrics = layers;
        if (w.kind == Kind::Analysis)
            for (const auto &[name, unit] : kSimCoreMetrics)
                metrics.push_back({name, 0.0, unit});
        auto med = [&](double PassResult::*field) {
            return median(collect(field));
        };
        // Counts and the accuracy guard come from the first input.
        const PassResult &first = passes.front();
        metrics.push_back({"store.cold_point_s",
                           sweep ? med(&PassResult::coldPointS) : 0.0, "s"});
        metrics.push_back({"store.hit_point_s",
                           sweep ? med(&PassResult::hitPointS) : 0.0, "s"});
        const StoreStats &st = first.store;
        metrics.push_back({"store.hits", double(st.hits), "count"});
        metrics.push_back({"store.misses", double(st.misses), "count"});
        metrics.push_back({"store.publishes", double(st.publishes), "count"});
        metrics.push_back(
            {"store.bytes_stored", double(st.bytesStored), "bytes"});
        metrics.push_back({"store.bytes_read", double(st.bytesRead), "bytes"});
        metrics.push_back(
            {"store.failed_publishes", double(st.failedPublishes), "count"});
        metrics.push_back(
            {"store.hit_pass_misses", double(first.hitPassMisses), "count"});
        metrics.push_back({"fullsim_mips",
                           e2e ? med(&PassResult::fullsimMips) : 0.0, "MIPS"});
        metrics.push_back({"runtime_error_pct",
                           e2e ? first.runtimeErrorPct : 0.0, "%"});
        metrics.push_back({"trace.overhead_s", overhead_s, "s"});
    }
    metrics.push_back({"fail_ratio", fail_ratio, "ratio"});

    std::string json = "{\"workload\": " + jsonString(w.name) +
                       ", \"seed\": " + std::to_string(opt.seed) +
                       ", \"input_seeds\": [" +
                       std::to_string(inputSeed(opt, 0)) + ", " +
                       std::to_string(inputSeed(opt, 1)) + ", " +
                       std::to_string(inputSeed(opt, 2)) + "]" +
                       ", \"jobs\": " + std::to_string(kJobs) +
                       ", \"threads\": " + std::to_string(kThreads) +
                       ", \"nproc\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ", \"build_type\": " + jsonString(LPBENCH_BUILD_TYPE) +
                       ", \"trace\": " + (opt.trace ? "1" : "0") +
                       ", \"passes\": " + std::to_string(passes.size()) +
                       ", \"digest\": " + jsonString(ref.digest) +
                       ", \"chosen_k\": " + std::to_string(ref.chosenK) +
                       ", \"instructions\": " +
                       std::to_string(ref.instructions) +
                       ", \"attempted\": " +
                       std::to_string(ledger.attempted) +
                       ", \"failed\": " + std::to_string(ledger.failed) +
                       ", \"failures\": [";
    for (size_t i = 0; i < ledger.failures.size(); ++i)
        json += (i ? ", " : "") + jsonString(ledger.failures[i]);
    json += "], \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        json += (i ? ", " : "") + jsonString(metrics[i].name) +
                ": {\"value\": " + jsonNumber(metrics[i].value) +
                ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    json += "}, \"samples\": {";
    for (size_t i = 0; i < samples.size(); ++i)
        json += (i ? ", " : "") + jsonString(samples[i].first) + ": " +
                jsonSamples(samples[i].second);
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
