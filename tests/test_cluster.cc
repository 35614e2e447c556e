/**
 * @file
 * Tests for k-means, BIC model selection, representatives, and the
 * random projection. The pruned k-means is checked bit for bit against
 * a reference copy of the unpruned algorithm kept here.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "cluster/kmeans.hh"
#include "core/looppoint.hh"
#include "util/logging.hh"
#include "workload/descriptor.hh"

namespace looppoint {
namespace {

// ---- Reference oracle: unpruned Lloyd with k-means++ seeding ----------
//
// The plain algorithm the library's bound-pruned kmeans() must match bit
// for bit. It lives only here so that src/ keeps a single code path.

double
refSqDist(const std::vector<double> &a, const std::vector<double> &b)
{
    double d = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
        double diff = a[i] - b[i];
        d += diff * diff;
    }
    return d;
}

/** `reseeds` counts empty-cluster reseeds, so tests can show one ran. */
KmeansResult
referenceKmeans(const FeatureMatrix &points, uint32_t k, Rng &rng,
                uint32_t max_iters = 100, uint32_t *reseeds = nullptr)
{
    const size_t n = points.size();
    const size_t d = points[0].size();
    KmeansResult res;
    res.k = k;

    std::vector<size_t> seeds;
    seeds.push_back(rng.nextBounded(n));
    std::vector<double> min_d2(n, std::numeric_limits<double>::max());
    while (seeds.size() < k) {
        for (size_t i = 0; i < n; ++i) {
            double d2 = refSqDist(points[i], points[seeds.back()]);
            min_d2[i] = std::min(min_d2[i], d2);
        }
        double total = 0.0;
        for (double v : min_d2)
            total += v;
        size_t chosen;
        if (total <= 0.0) {
            chosen = rng.nextBounded(n);
        } else {
            double target = rng.nextDouble() * total;
            double acc = 0.0;
            chosen = n - 1;
            for (size_t i = 0; i < n; ++i) {
                acc += min_d2[i];
                if (acc >= target) {
                    chosen = i;
                    break;
                }
            }
        }
        seeds.push_back(chosen);
    }
    for (size_t s : seeds)
        res.centroids.push_back(points[s]);

    res.assignment.assign(n, 0);
    for (uint32_t iter = 0; iter < max_iters; ++iter) {
        res.iterations = iter + 1;
        bool changed = false;
        for (size_t i = 0; i < n; ++i) {
            double best = std::numeric_limits<double>::max();
            uint32_t best_c = 0;
            for (uint32_t c = 0; c < k; ++c) {
                double d2 = refSqDist(points[i], res.centroids[c]);
                if (d2 < best) {
                    best = d2;
                    best_c = c;
                }
            }
            if (res.assignment[i] != best_c) {
                res.assignment[i] = best_c;
                changed = true;
            }
        }
        FeatureMatrix sums(k, std::vector<double>(d, 0.0));
        std::vector<size_t> counts(k, 0);
        for (size_t i = 0; i < n; ++i) {
            uint32_t c = res.assignment[i];
            ++counts[c];
            for (size_t j = 0; j < d; ++j)
                sums[c][j] += points[i][j];
        }
        for (uint32_t c = 0; c < k; ++c) {
            if (counts[c] == 0) {
                size_t far_i = 0;
                double far_d = -1.0;
                for (size_t i = 0; i < n; ++i) {
                    double d2 = refSqDist(points[i],
                                          res.centroids[res.assignment[i]]);
                    if (d2 > far_d) {
                        far_d = d2;
                        far_i = i;
                    }
                }
                res.centroids[c] = points[far_i];
                changed = true;
                if (reseeds)
                    ++*reseeds;
                continue;
            }
            for (size_t j = 0; j < d; ++j)
                res.centroids[c][j] =
                    sums[c][j] / static_cast<double>(counts[c]);
        }
        if (!changed)
            break;
    }

    res.distortion = 0.0;
    for (size_t i = 0; i < n; ++i)
        res.distortion += refSqDist(points[i],
                                    res.centroids[res.assignment[i]]);
    return res;
}

/** The SimPoint sweep over referenceKmeans (serial). */
ClusteringResult
referenceSweep(const FeatureMatrix &points, uint32_t max_k, uint64_t seed,
               double bic_threshold = 0.9)
{
    uint32_t limit = std::min<uint32_t>(
        max_k,
        points.size() > 1 ? static_cast<uint32_t>(points.size() - 1) : 1);
    limit = std::min<uint32_t>(
        limit,
        std::max<uint32_t>(1, static_cast<uint32_t>(points.size() / 2)));
    std::vector<uint32_t> ks;
    for (uint32_t k = 1; k <= limit && k <= 16; ++k)
        ks.push_back(k);
    if (limit > 16) {
        uint32_t step = std::max<uint32_t>(2, (limit - 16) / 12);
        for (uint32_t k = 16 + step; k <= limit; k += step)
            ks.push_back(k);
        if (ks.back() != limit)
            ks.push_back(limit);
    }
    ClusteringResult out;
    std::vector<KmeansResult> runs;
    for (uint32_t k : ks) {
        Rng rng(hashCombine(seed, k));
        runs.push_back(referenceKmeans(points, k, rng));
        out.bicByK.push_back({k, bicScore(points, runs.back())});
    }
    double best = out.bicByK[0].second;
    double worst = out.bicByK[0].second;
    for (const auto &[k, bic] : out.bicByK) {
        best = std::max(best, bic);
        worst = std::min(worst, bic);
    }
    double span = best - worst;
    size_t chosen_idx = out.bicByK.size() - 1;
    for (size_t i = 0; i < out.bicByK.size(); ++i) {
        double norm =
            span > 0.0 ? (out.bicByK[i].second - worst) / span : 1.0;
        if (norm >= bic_threshold) {
            chosen_idx = i;
            break;
        }
    }
    out.chosenK = out.bicByK[chosen_idx].first;
    out.best = std::move(runs[chosen_idx]);
    return out;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Assignment, iterations, centroids and distortion, bitwise. */
void
expectSameClustering(const FeatureMatrix &points, const KmeansResult &got,
                     const KmeansResult &want)
{
    ASSERT_EQ(got.k, want.k);
    EXPECT_EQ(got.assignment, want.assignment);
    EXPECT_EQ(got.iterations, want.iterations);
    ASSERT_EQ(got.centroids.size(), want.centroids.size());
    for (size_t c = 0; c < want.centroids.size(); ++c) {
        ASSERT_EQ(got.centroids[c].size(), want.centroids[c].size());
        EXPECT_EQ(std::memcmp(got.centroids[c].data(),
                              want.centroids[c].data(),
                              want.centroids[c].size() * sizeof(double)),
                  0)
            << "centroid " << c;
    }
    EXPECT_TRUE(sameBits(got.distortion, want.distortion));
    EXPECT_TRUE(sameBits(bicScore(points, got), bicScore(points, want)));
}

/** Gaussian blobs in `dims` dimensions around random centres. */
FeatureMatrix
makeWideBlobs(size_t blobs, size_t per_blob, size_t dims, uint64_t seed)
{
    Rng rng(seed);
    FeatureMatrix centers(blobs, std::vector<double>(dims));
    for (auto &c : centers)
        for (double &x : c)
            x = rng.nextGaussian() * 4.0;
    FeatureMatrix points;
    for (size_t i = 0; i < blobs * per_blob; ++i) {
        std::vector<double> p = centers[i % blobs];
        for (double &x : p)
            x += rng.nextGaussian();
        points.push_back(std::move(p));
    }
    return points;
}

/** Integer grid points, each repeated: many exact distance ties. */
FeatureMatrix
makeDuplicatedGrid()
{
    FeatureMatrix points;
    for (int rep = 0; rep < 3; ++rep)
        for (int x = 0; x < 4; ++x)
            for (int y = 0; y < 4; ++y)
                points.push_back({double(x), double(y), 0.5});
    return points;
}

/**
 * Two locations with ten copies each: after two seeds every min_d2 is
 * zero, so k-means++ draws a duplicate seed and Lloyd reseeds the
 * cluster that comes out empty.
 */
FeatureMatrix
makeTwoLocations()
{
    FeatureMatrix points;
    for (int i = 0; i < 20; ++i)
        points.push_back(i % 2 ? std::vector<double>{3.0, -1.0, 2.0}
                               : std::vector<double>{0.0, 0.25, 7.0});
    return points;
}

/** Projected features of a bundled workload, as analyze() builds them. */
FeatureMatrix
makeWorkloadFeatures()
{
    Program prog =
        generateProgram(findApp("654.roms_s.1"), InputClass::Test);
    LoopPointOptions opts;
    opts.numThreads = 4;
    opts.sliceSizePerThread = 5'000;
    LoopPointPipeline pipe(prog, opts);
    LoopPointResult lp = pipe.analyze();
    return buildFeatureMatrix(prog, lp.slices, opts.projectionDims,
                              opts.seed);
}

/** kmeans() == referenceKmeans() for every k up to min(50, n/2). */
void
expectMatchesReference(const FeatureMatrix &points, uint64_t seed,
                       uint32_t max_iters = 100)
{
    const uint32_t max_k = std::max<uint32_t>(
        1, std::min<uint32_t>(50, static_cast<uint32_t>(points.size() / 2)));
    for (uint32_t k = 1; k <= max_k; ++k) {
        SCOPED_TRACE("k=" + std::to_string(k));
        Rng r1(hashCombine(seed, k)), r2(hashCombine(seed, k));
        expectSameClustering(points, kmeans(points, k, r1, max_iters),
                             referenceKmeans(points, k, r2, max_iters));
    }
}

/** Three well-separated Gaussian blobs in 2-D. */
FeatureMatrix
makeBlobs(size_t per_blob, uint64_t seed)
{
    Rng rng(seed);
    FeatureMatrix points;
    const double centers[3][2] = {{0, 0}, {10, 10}, {-10, 12}};
    for (int b = 0; b < 3; ++b)
        for (size_t i = 0; i < per_blob; ++i)
            points.push_back({centers[b][0] + rng.nextGaussian() * 0.5,
                              centers[b][1] + rng.nextGaussian() * 0.5});
    return points;
}

TEST(Kmeans, RecoversBlobs)
{
    FeatureMatrix points = makeBlobs(30, 5);
    Rng rng(9);
    KmeansResult r = kmeans(points, 3, rng);
    EXPECT_EQ(r.k, 3u);
    // All points of one blob share a cluster.
    for (int b = 0; b < 3; ++b) {
        uint32_t c = r.assignment[b * 30];
        for (size_t i = 0; i < 30; ++i)
            EXPECT_EQ(r.assignment[b * 30 + i], c);
    }
    // Distinct blobs get distinct clusters.
    EXPECT_NE(r.assignment[0], r.assignment[30]);
    EXPECT_NE(r.assignment[30], r.assignment[60]);
    EXPECT_LT(r.distortion, 90 * 1.0);
}

TEST(Kmeans, DeterministicForSameRngSeed)
{
    FeatureMatrix points = makeBlobs(20, 7);
    Rng r1(3), r2(3);
    KmeansResult a = kmeans(points, 4, r1);
    KmeansResult b = kmeans(points, 4, r2);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_DOUBLE_EQ(a.distortion, b.distortion);
}

TEST(Kmeans, KEqualsNGivesZeroDistortion)
{
    FeatureMatrix points{{0, 0}, {5, 5}, {9, 1}};
    Rng rng(1);
    KmeansResult r = kmeans(points, 3, rng);
    EXPECT_NEAR(r.distortion, 0.0, 1e-12);
}

TEST(Kmeans, RejectsBadK)
{
    FeatureMatrix points{{0, 0}, {1, 1}};
    Rng rng(1);
    EXPECT_THROW(kmeans(points, 0, rng), FatalError);
    EXPECT_THROW(kmeans(points, 3, rng), FatalError);
    EXPECT_THROW(kmeans({}, 1, rng), FatalError);
}

TEST(Kmeans, HandlesIdenticalPoints)
{
    FeatureMatrix points(10, std::vector<double>{1.0, 2.0});
    Rng rng(2);
    KmeansResult r = kmeans(points, 2, rng);
    EXPECT_NEAR(r.distortion, 0.0, 1e-12);
}

TEST(Kmeans, RejectsRaggedRows)
{
    FeatureMatrix points{{0, 0}, {1, 1, 1}, {2, 2}};
    Rng rng(1);
    EXPECT_THROW(kmeans(points, 2, rng), FatalError);
}

TEST(Kmeans, PrunedMatchesReferenceLloyd)
{
    {
        SCOPED_TRACE("2-D blobs");
        expectMatchesReference(makeBlobs(40, 5), 31);
    }
    {
        SCOPED_TRACE("100-D blobs");
        expectMatchesReference(makeWideBlobs(12, 20, 100, 8), 32);
    }
    {
        SCOPED_TRACE("100-D blobs, iteration cap");
        expectMatchesReference(makeWideBlobs(12, 20, 100, 8), 33, 2);
    }
    {
        SCOPED_TRACE("identical points");
        expectMatchesReference(
            FeatureMatrix(20, std::vector<double>{1.0, 2.0}), 34);
    }
    {
        SCOPED_TRACE("duplicated grid");
        expectMatchesReference(makeDuplicatedGrid(), 35);
    }
    {
        SCOPED_TRACE("empty-cluster reseed");
        FeatureMatrix points = makeTwoLocations();
        uint32_t reseeds = 0;
        for (uint32_t k = 1; k <= points.size() / 2; ++k) {
            Rng rng(hashCombine(36, k));
            referenceKmeans(points, k, rng, 100, &reseeds);
        }
        EXPECT_GT(reseeds, 0u);
        expectMatchesReference(points, 36);
    }
    {
        SCOPED_TRACE("roms features");
        FeatureMatrix points = makeWorkloadFeatures();
        ASSERT_GE(points.size(), 40u);
        expectMatchesReference(points, 37);
    }
}

TEST(Kmeans, PruningSkipsDistances)
{
    FeatureMatrix points = makeWideBlobs(12, 20, 100, 8);
    Rng rng(5);
    KmeansResult r = kmeans(points, 12, rng);
    // An unpruned run evaluates n * k distances per iteration.
    EXPECT_LT(r.distances,
              uint64_t{r.iterations} * points.size() * r.k);
}

TEST(Bic, PrefersTrueK)
{
    FeatureMatrix points = makeBlobs(40, 11);
    double bic1, bic3, bic7;
    {
        Rng rng(4);
        bic1 = bicScore(points, kmeans(points, 1, rng));
    }
    {
        Rng rng(4);
        bic3 = bicScore(points, kmeans(points, 3, rng));
    }
    {
        Rng rng(4);
        bic7 = bicScore(points, kmeans(points, 7, rng));
    }
    EXPECT_GT(bic3, bic1);
    // BIC's parameter penalty keeps k=7 from dominating k=3.
    EXPECT_GT(bic3, bic7 - std::fabs(bic7) * 0.05);
}

TEST(SimpointCluster, ChoosesNearTrueK)
{
    FeatureMatrix points = makeBlobs(40, 13);
    ClusteringResult r = simpointCluster(points, 20, 99);
    EXPECT_GE(r.chosenK, 3u);
    EXPECT_LE(r.chosenK, 6u);
    EXPECT_EQ(r.best.assignment.size(), points.size());
}

TEST(SimpointCluster, ClampsKToPointCount)
{
    FeatureMatrix points{{0, 0}, {10, 10}};
    ClusteringResult r = simpointCluster(points, 50, 1);
    EXPECT_LE(r.chosenK, 2u);
}

TEST(SimpointCluster, ScansCoarselyAboveSixteen)
{
    FeatureMatrix points = makeBlobs(30, 17); // 90 points
    ClusteringResult r = simpointCluster(points, 50, 21);
    // k=1..16 all scanned, then steps; far fewer than 50 runs. The
    // scan is capped at n/2 = 45 to avoid degenerate clusterings.
    EXPECT_LT(r.bicByK.size(), 35u);
    EXPECT_EQ(r.bicByK.front().first, 1u);
    EXPECT_EQ(r.bicByK.back().first, 45u);
}

TEST(SimpointCluster, MatchesReferenceSweep)
{
    for (const FeatureMatrix &points :
         {makeWideBlobs(10, 12, 100, 41), makeDuplicatedGrid(),
          makeWorkloadFeatures()}) {
        ClusteringResult got = simpointCluster(points, 50, 77);
        ClusteringResult want = referenceSweep(points, 50, 77);
        ASSERT_EQ(got.bicByK.size(), want.bicByK.size());
        for (size_t i = 0; i < want.bicByK.size(); ++i) {
            EXPECT_EQ(got.bicByK[i].first, want.bicByK[i].first);
            EXPECT_TRUE(
                sameBits(got.bicByK[i].second, want.bicByK[i].second))
                << "k=" << want.bicByK[i].first;
        }
        EXPECT_EQ(got.chosenK, want.chosenK);
        expectSameClustering(points, got.best, want.best);
    }
}

TEST(Representatives, ClosestToCentroid)
{
    FeatureMatrix points = makeBlobs(25, 19);
    Rng rng(6);
    KmeansResult km = kmeans(points, 3, rng);
    auto reps = pickRepresentatives(points, km);
    ASSERT_EQ(reps.size(), 3u);
    for (uint32_t c = 0; c < 3; ++c) {
        // The representative belongs to its own cluster.
        EXPECT_EQ(km.assignment[reps[c]], c);
    }
}

TEST(RandomProjector, DeterministicAndLinear)
{
    RandomProjector proj(16, 77);
    std::vector<std::pair<uint64_t, double>> row{{5, 1.0}, {900, 2.0}};
    auto a = proj.project(row);
    auto b = proj.project(row);
    EXPECT_EQ(a, b);

    // Linearity: project(2x) == 2 * project(x).
    std::vector<std::pair<uint64_t, double>> row2{{5, 2.0}, {900, 4.0}};
    auto c = proj.project(row2);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(c[i], 2.0 * a[i], 1e-12);
}

TEST(RandomProjector, SeparatesDistinctRows)
{
    RandomProjector proj(32, 88);
    auto a = proj.project({{1, 1.0}});
    auto b = proj.project({{2, 1.0}});
    double dist = 0;
    for (size_t i = 0; i < a.size(); ++i)
        dist += (a[i] - b[i]) * (a[i] - b[i]);
    EXPECT_GT(dist, 1.0);
}

TEST(RandomProjector, DifferentSeedsDiffer)
{
    RandomProjector p1(8, 1), p2(8, 2);
    auto a = p1.project({{42, 1.0}});
    auto b = p2.project({{42, 1.0}});
    EXPECT_NE(a, b);
}

} // namespace
} // namespace looppoint
