/**
 * @file
 * Google-Benchmark microbenchmarks of the substrate components: the
 * functional engine's stepping rate, cache hierarchy throughput,
 * branch predictor throughput, k-means clustering, and the random
 * projection — the pieces whose performance bounds how large an
 * analysis this library can run.
 */

#include <benchmark/benchmark.h>

#include "cluster/kmeans.hh"
#include "exec/driver.hh"
#include "exec/engine.hh"
#include "isa/program_builder.hh"
#include "pinball/pinball.hh"
#include "sim/branch_predictor.hh"
#include "sim/cache.hh"
#include "sim/multicore.hh"
#include "util/rng.hh"
#include "workload/descriptor.hh"

namespace looppoint {
namespace {

Program
benchProgram()
{
    ProgramBuilder b("bench", 71);
    uint32_t k = b.beginKernel("work", SchedPolicy::StaticFor, 4000);
    b.addStream({.footprintBytes = 4u << 20, .strideBytes = 8});
    b.addBlock({.numInstrs = 40, .fracMem = 0.3, .streams = {0}});
    b.endKernel();
    b.runKernels({k}, 100);
    return b.build();
}

void
BM_EngineFunctionalStep(benchmark::State &state)
{
    Program p = benchProgram();
    ExecConfig cfg;
    cfg.numThreads = static_cast<uint32_t>(state.range(0));
    uint64_t instrs = 0;
    for (auto _ : state) {
        ExecutionEngine e(p, cfg);
        RoundRobinDriver d(e, 1000);
        d.run(nullptr,
              [&] { return e.globalIcount() > 2'000'000; });
        instrs += e.globalIcount();
    }
    state.SetItemsProcessed(static_cast<int64_t>(instrs));
}
BENCHMARK(BM_EngineFunctionalStep)->Arg(1)->Arg(4)->Arg(8);

void
BM_DetailedSimulation(benchmark::State &state)
{
    Program p = benchProgram();
    ExecConfig cfg;
    cfg.numThreads = 4;
    SimConfig sc;
    uint64_t instrs = 0;
    for (auto _ : state) {
        MulticoreSim sim(p, cfg, sc);
        SimMetrics m = sim.runDetailed([&] {
            return sim.engine().globalIcount() > 500'000;
        });
        instrs += m.instructions;
    }
    state.SetItemsProcessed(static_cast<int64_t>(instrs));
}
BENCHMARK(BM_DetailedSimulation);

void
BM_CacheHierarchyAccess(benchmark::State &state)
{
    SimConfig cfg;
    CacheHierarchy h(cfg, 8);
    Rng rng(3);
    uint64_t n = 0;
    for (auto _ : state) {
        Addr addr = (rng.next() & 0xffffff) << 3;
        benchmark::DoNotOptimize(
            h.access(static_cast<uint32_t>(n % 8), addr,
                     (n & 7) == 0));
        ++n;
    }
    state.SetItemsProcessed(static_cast<int64_t>(n));
}
BENCHMARK(BM_CacheHierarchyAccess);

void
BM_BranchPredictor(benchmark::State &state)
{
    PentiumMBranchPredictor bp;
    Rng rng(7);
    uint64_t n = 0;
    for (auto _ : state) {
        Addr pc = 0x400000 + ((n * 37) & 0xfff);
        benchmark::DoNotOptimize(
            bp.predictAndTrain(pc, rng.nextBool(0.7)));
        ++n;
    }
    state.SetItemsProcessed(static_cast<int64_t>(n));
}
BENCHMARK(BM_BranchPredictor);

void
BM_Kmeans(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    Rng rng(11);
    FeatureMatrix points;
    for (size_t i = 0; i < n; ++i) {
        std::vector<double> row(100);
        for (auto &v : row)
            v = rng.nextGaussian();
        points.push_back(std::move(row));
    }
    for (auto _ : state) {
        Rng krng(13);
        benchmark::DoNotOptimize(kmeans(points, 10, krng));
    }
}
BENCHMARK(BM_Kmeans)->Arg(64)->Arg(256);

/**
 * The SimPoint model-selection sweep at an analysis's size: 1024
 * slices projected to 100 dimensions, drawn around 20 centres, every k
 * up to 16 then coarser steps to 50, serially.
 */
void
BM_SimpointSweep(benchmark::State &state)
{
    Rng rng(17);
    FeatureMatrix centers(20, std::vector<double>(100));
    for (auto &c : centers)
        for (auto &v : c)
            v = rng.nextGaussian() * 3.0;
    FeatureMatrix points;
    for (size_t i = 0; i < 1024; ++i) {
        std::vector<double> row = centers[rng.nextBounded(centers.size())];
        for (auto &v : row)
            v += rng.nextGaussian();
        points.push_back(std::move(row));
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(simpointCluster(points, 50, 23));
}
BENCHMARK(BM_SimpointSweep)->Unit(benchmark::kMillisecond);

void
BM_RandomProjection(benchmark::State &state)
{
    RandomProjector proj(100, 17);
    std::vector<std::pair<uint64_t, double>> row;
    Rng rng(19);
    for (int i = 0; i < 200; ++i)
        row.emplace_back(rng.next() % 100000, rng.nextDouble());
    for (auto _ : state)
        benchmark::DoNotOptimize(proj.project(row));
}
BENCHMARK(BM_RandomProjection);

void
BM_RecordReplay(benchmark::State &state)
{
    Program p = benchProgram();
    ExecConfig cfg;
    cfg.numThreads = 4;
    for (auto _ : state) {
        Pinball pb = recordPinball(p, cfg, 1000);
        benchmark::DoNotOptimize(pb);
    }
}
BENCHMARK(BM_RecordReplay);

} // namespace
} // namespace looppoint

BENCHMARK_MAIN();
