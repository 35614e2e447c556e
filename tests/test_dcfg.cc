/**
 * @file
 * Tests for DCFG construction and loop discovery: the discovered loops
 * must match the generator's ground truth (worker loops, inner loops,
 * spin self-loops), with correct images, trip counts, and marker sets.
 * The DCFG the pipeline collects while recording must equal the one a
 * replay of that recording collects.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "dcfg/dcfg.hh"
#include "exec/driver.hh"
#include "exec/engine.hh"
#include "isa/program_builder.hh"
#include "pinball/pinball.hh"
#include "util/logging.hh"
#include "workload/descriptor.hh"

namespace looppoint {
namespace {

Program
makeLoopProgram(uint64_t iters, uint64_t inner_trips,
                uint64_t timesteps)
{
    ProgramBuilder b("dcfg-test", 17);
    uint32_t k = b.beginKernel("work", SchedPolicy::StaticFor, iters);
    b.addStream({.footprintBytes = 1 << 16, .strideBytes = 8});
    b.addBlock({.numInstrs = 20, .fracMem = 0.3, .streams = {0}});
    if (inner_trips > 0) {
        b.beginInnerLoop(inner_trips);
        b.addBlock({.numInstrs = 12, .fracMem = 0.4, .streams = {0}});
        b.endInnerLoop();
    }
    b.endKernel();
    b.runKernels({k}, timesteps);
    return b.build();
}

Dcfg
buildDcfg(const Program &p, uint32_t threads, WaitPolicy policy)
{
    ExecConfig cfg{.numThreads = threads, .waitPolicy = policy};
    ExecutionEngine e(p, cfg);
    DcfgBuilder builder(p, threads);
    RoundRobinDriver d(e, 200);
    d.run(&builder);
    return builder.build();
}

TEST(Dcfg, FindsWorkerLoop)
{
    Program p = makeLoopProgram(64, 0, 2);
    Dcfg dcfg = buildDcfg(p, 4, WaitPolicy::Passive);

    const BlockId wh = p.kernels[0].workerHeader;
    ASSERT_TRUE(dcfg.isLoopHeader(wh));
    const DcfgLoop &loop = dcfg.loopAt(wh);
    EXPECT_EQ(loop.image, ImageId::Main);
    EXPECT_EQ(loop.headerExecs, 64u * 2u);
    // The loop body contains the header and the latch.
    EXPECT_NE(std::find(loop.body.begin(), loop.body.end(),
                        p.kernels[0].workerLatch),
              loop.body.end());
}

TEST(Dcfg, FindsInnerLoopWithTripCounts)
{
    Program p = makeLoopProgram(32, 5, 1);
    Dcfg dcfg = buildDcfg(p, 2, WaitPolicy::Passive);

    // Find the inner loop item and its header.
    const BodyItem *inner = nullptr;
    for (const auto &item : p.kernels[0].body)
        if (item.kind == BodyItem::Kind::Loop)
            inner = &item;
    ASSERT_NE(inner, nullptr);
    ASSERT_TRUE(dcfg.isLoopHeader(inner->blocks[0]));
    const DcfgLoop &loop = dcfg.loopAt(inner->blocks[0]);
    // 32 iterations, 5 trips each: header executes 160 times, entered
    // 32 times, back edge taken 4 times per entry.
    EXPECT_EQ(loop.headerExecs, 32u * 5u);
    EXPECT_EQ(loop.entries, 32u);
    EXPECT_EQ(loop.backEdgeCount, 32u * 4u);
}

TEST(Dcfg, FindsSpinLoopInLibraryImage)
{
    // Active policy + imbalance: the spin-wait block self-loops.
    ProgramBuilder b("spin-test", 23);
    uint32_t k = b.beginKernel("work", SchedPolicy::StaticFor, 100);
    b.setImbalance(2.0);
    b.addBlock({.numInstrs = 40, .fracMem = 0.2, .streams = {}});
    b.endKernel();
    b.runKernels({k}, 1);
    Program p = b.build();

    Dcfg dcfg = buildDcfg(p, 4, WaitPolicy::Active);
    ASSERT_TRUE(dcfg.isLoopHeader(p.runtime.spinWait));
    EXPECT_EQ(dcfg.loopAt(p.runtime.spinWait).image, ImageId::LibIomp);
}

TEST(Dcfg, MainImageMarkersExcludeSpinLoops)
{
    ProgramBuilder b("spin-test2", 29);
    uint32_t k = b.beginKernel("work", SchedPolicy::StaticFor, 100);
    b.setImbalance(2.0);
    b.addBlock({.numInstrs = 40, .fracMem = 0.2, .streams = {}});
    b.endKernel();
    b.runKernels({k}, 1);
    Program p = b.build();

    Dcfg dcfg = buildDcfg(p, 4, WaitPolicy::Active);
    auto markers = dcfg.mainImageLoopHeaders();
    EXPECT_FALSE(markers.empty());
    for (BlockId m : markers) {
        EXPECT_TRUE(p.inMainImage(m));
        EXPECT_NE(m, p.runtime.spinWait);
    }
}

TEST(Dcfg, MarkersSortedByPc)
{
    Program p = generateProgram(findApp("603.bwaves_s.1"),
                                InputClass::Test);
    Dcfg dcfg = buildDcfg(p, 4, WaitPolicy::Passive);
    auto markers = dcfg.mainImageLoopHeaders();
    ASSERT_GE(markers.size(), 3u); // one worker loop per kernel
    for (size_t i = 1; i < markers.size(); ++i)
        EXPECT_LT(p.blocks[markers[i - 1]].pc, p.blocks[markers[i]].pc);
}

TEST(Dcfg, EdgeCountsConserved)
{
    Program p = makeLoopProgram(16, 3, 2);
    ExecConfig cfg{.numThreads = 2, .waitPolicy = WaitPolicy::Passive};
    ExecutionEngine e(p, cfg);
    DcfgBuilder builder(p, 2);
    RoundRobinDriver d(e, 100);
    d.run(&builder);
    Dcfg dcfg = builder.build();

    // Total edge traversals = total block events - one start per
    // thread (the first block of each thread has no incoming edge).
    uint64_t edge_total = 0;
    for (const auto &edge : dcfg.edges())
        edge_total += edge.count;
    uint64_t block_events = 0;
    for (BlockId bid = 0; bid < p.numBlocks(); ++bid)
        block_events += dcfg.blockExecs(bid);
    EXPECT_EQ(edge_total, block_events - 2);
}

TEST(Dcfg, LoopAtUnknownBlockIsFatal)
{
    Program p = makeLoopProgram(8, 0, 1);
    Dcfg dcfg = buildDcfg(p, 1, WaitPolicy::Passive);
    EXPECT_THROW(dcfg.loopAt(p.kernels[0].entryBlock), FatalError);
}

TEST(Dcfg, WorkerLoopStableAcrossPolicies)
{
    // The discovered main-image loop structure must not depend on the
    // wait policy (spin loops stay in the library image).
    Program p = makeLoopProgram(48, 4, 2);
    Dcfg active = buildDcfg(p, 4, WaitPolicy::Active);
    Dcfg passive = buildDcfg(p, 4, WaitPolicy::Passive);
    EXPECT_EQ(active.mainImageLoopHeaders(),
              passive.mainImageLoopHeaders());
    const BlockId wh = p.kernels[0].workerHeader;
    EXPECT_EQ(active.loopAt(wh).headerExecs,
              passive.loopAt(wh).headerExecs);
}

void
expectSameEdges(const std::vector<DcfgEdge> &a,
                const std::vector<DcfgEdge> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(std::tie(a[i].from, a[i].to, a[i].count),
                  std::tie(b[i].from, b[i].to, b[i].count))
            << "edge " << i;
    }
}

TEST(Dcfg, BuiltWhileRecordingEqualsReplayed)
{
    // The pipeline collects the DCFG on the recording run instead of a
    // replay. A replay under the same flow quantum is the identical
    // execution, so the two graphs must match exactly: under both wait
    // policies (active wait adds the library spin loops) and for a
    // workload whose locks and dynamic chunks the replay must follow.
    const uint64_t quantum = 500;
    const std::pair<const char *, InputClass> apps[] = {
        {"603.bwaves_s.1", InputClass::Test},
        {"644.nab_s.1", InputClass::Test},
    };
    for (const auto &[name, input] : apps) {
        Program p = generateProgram(findApp(name), input);
        ASSERT_GT(p.numLocks, 0u) << name;
        for (WaitPolicy policy : {WaitPolicy::Passive, WaitPolicy::Active}) {
            SCOPED_TRACE(std::string(name) + " " + waitPolicyName(policy));
            ExecConfig cfg{.numThreads = 4, .waitPolicy = policy};
            DcfgBuilder on_record(p, cfg.numThreads);
            Pinball pb = recordPinball(p, cfg, quantum, &on_record);
            DcfgBuilder on_replay(p, cfg.numThreads);
            replayPinball(p, pb, quantum, &on_replay);
            const Dcfg rec = on_record.build();
            const Dcfg rep = on_replay.build();

            expectSameEdges(rec.edges(), rep.edges());
            expectSameEdges(rec.summaryEdges(), rep.summaryEdges());
            for (BlockId b = 0; b < p.numBlocks(); ++b)
                ASSERT_EQ(rec.blockExecs(b), rep.blockExecs(b)) << b;
            ASSERT_EQ(rec.loops().size(), rep.loops().size());
            for (size_t i = 0; i < rec.loops().size(); ++i) {
                const DcfgLoop &x = rec.loops()[i];
                const DcfgLoop &y = rep.loops()[i];
                EXPECT_EQ(x.header, y.header);
                EXPECT_EQ(x.body, y.body);
                EXPECT_EQ(x.backEdgeCount, y.backEdgeCount);
                EXPECT_EQ(x.headerExecs, y.headerExecs);
                EXPECT_EQ(x.entries, y.entries);
                EXPECT_EQ(x.image, y.image);
                EXPECT_EQ(x.routine, y.routine);
            }
            EXPECT_FALSE(rec.mainImageLoopHeaders().empty());
            EXPECT_EQ(rec.mainImageLoopHeaders(),
                      rep.mainImageLoopHeaders());
            if (policy == WaitPolicy::Active) {
                EXPECT_TRUE(rec.isLoopHeader(p.runtime.spinWait));
            }
        }
    }
}

/**
 * Forwards every block to a DcfgBuilder and tallies the same raw and
 * summary transitions in ordered maps, independently of the builder's
 * flat successor lists.
 */
class TallyListener : public ExecListener
{
  public:
    using Tally = std::map<std::pair<BlockId, BlockId>, uint64_t>;

    TallyListener(const Program &p, uint32_t threads, DcfgBuilder &b)
        : prog(p), builder(b), last(threads, kInvalidBlock),
          lastMain(threads, kInvalidBlock)
    {}

    void
    onBlock(uint32_t tid, BlockId block,
            const ExecutionEngine &engine) override
    {
        builder.onBlock(tid, block, engine);
        if (last[tid] != kInvalidBlock)
            ++edges[{last[tid], block}];
        last[tid] = block;
        if (prog.blocks[block].image != ImageId::Main)
            return;
        BlockId prev = lastMain[tid];
        if (prev != kInvalidBlock &&
            prog.blocks[prev].routine == prog.blocks[block].routine)
            ++summary[{prev, block}];
        lastMain[tid] = block;
    }

    Tally edges;
    Tally summary;

  private:
    const Program &prog;
    DcfgBuilder &builder;
    std::vector<BlockId> last;
    std::vector<BlockId> lastMain;
};

void
expectMatchesTally(const std::vector<DcfgEdge> &edges,
                   const TallyListener::Tally &tally)
{
    ASSERT_EQ(edges.size(), tally.size());
    auto it = tally.begin();
    for (size_t i = 0; i < edges.size(); ++i, ++it) {
        if (i > 0) {
            // Strictly increasing (from, to): sorted, no duplicates.
            EXPECT_LT(std::tie(edges[i - 1].from, edges[i - 1].to),
                      std::tie(edges[i].from, edges[i].to))
                << "edge " << i;
        }
        EXPECT_EQ(edges[i].from, it->first.first) << "edge " << i;
        EXPECT_EQ(edges[i].to, it->first.second) << "edge " << i;
        EXPECT_EQ(edges[i].count, it->second) << "edge " << i;
    }
}

TEST(Dcfg, FlatEdgeCountsMatchOrderedTally)
{
    // An inner loop and an if/else diamond give blocks several dynamic
    // successors; the locked critical section adds library blocks
    // between main-image blocks of one routine (summary edges).
    ProgramBuilder b("dcfg-fanout", 31);
    uint32_t k = b.beginKernel("work", SchedPolicy::DynamicFor, 96, 4);
    b.addStream({.footprintBytes = 1 << 14, .strideBytes = 8});
    b.addBlock({.numInstrs = 16, .fracMem = 0.3, .streams = {0}});
    b.beginInnerLoop(3, 2);
    b.addCond({.numInstrs = 6, .streams = {}},
              {.numInstrs = 10, .streams = {}},
              {.numInstrs = 8, .streams = {}},
              {.numInstrs = 4, .streams = {}}, 0.4);
    b.endInnerLoop();
    b.addCritical(0, {.numInstrs = 12, .streams = {}});
    b.endKernel();
    b.runKernels({k}, 3);
    Program p = b.build();

    DcfgBuilder builder(p, 4);
    TallyListener tally(p, 4, builder);
    ExecConfig cfg{.numThreads = 4, .waitPolicy = WaitPolicy::Active};
    recordPinball(p, cfg, 150, &tally);
    const Dcfg dcfg = builder.build();

    std::map<BlockId, size_t> fan_out;
    for (const auto &[edge, count] : tally.edges)
        ++fan_out[edge.first];
    size_t max_fan_out = 0;
    for (const auto &[from, n] : fan_out)
        max_fan_out = std::max(max_fan_out, n);
    ASSERT_GT(max_fan_out, 1u);
    ASSERT_FALSE(tally.summary.empty());

    expectMatchesTally(dcfg.edges(), tally.edges);
    expectMatchesTally(dcfg.summaryEdges(), tally.summary);
}

} // namespace
} // namespace looppoint
