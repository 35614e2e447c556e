#include "cluster/kmeans.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace looppoint {

namespace {

/**
 * Relative margin of every pruning test. A computed squared distance is
 * within (d + 2) * 2^-53 of the true one (every term is non-negative;
 * below 1e-10 for any d under 1e6), and the bounds gather ~2^-53 of
 * relative error per iteration, so a test that passes by this margin
 * also holds between the exact distances and between the rounded ones.
 */
constexpr double kMargin = 1e-9;
/**
 * Relative slack taken off a lower bound each time it drops by a
 * centroid's movement, so the subtraction's rounding and the movement's
 * own error can only make the bound smaller than the true distance.
 */
constexpr double kSlack = 1e-12;
/**
 * Bounds at or below this distance are never trusted: squares of
 * smaller differences underflow, and the relative error argument above
 * needs normal doubles.
 */
constexpr double kMinPrunable = 1e-140;

/** Squared distance, summed j = 0..d-1 (the order every caller needs). */
double
sqDist(const double *a, const double *b, size_t d)
{
    double s = 0.0;
    for (size_t j = 0; j < d; ++j) {
        double diff = a[j] - b[j];
        s += diff * diff;
    }
    return s;
}

/** Two doubles operated on lane by lane (SSE2 on x86-64). */
using Pair = double __attribute__((vector_size(16)));

/**
 * Squared distances from `p` to centroids c0 .. c0 + 2 * NV - 1 of the
 * transposed centroid matrix `ct` (d rows of kp columns). Each lane
 * accumulates j = 0..d-1 exactly as sqDist does, so the values are
 * identical; the NV accumulators stay in registers.
 */
template <uint32_t NV>
void
scanBlock(const double *__restrict p, const double *__restrict ct,
          size_t d, uint32_t kp, uint32_t c0, double *__restrict out)
{
    Pair acc[NV] = {};
    for (size_t j = 0; j < d; ++j) {
        const Pair pj = {p[j], p[j]};
        const double *row = ct + j * kp + c0;
#pragma GCC unroll 8
        for (uint32_t v = 0; v < NV; ++v) {
            Pair r;
            std::memcpy(&r, row + 2 * v, sizeof r);
            Pair diff = pj - r;
            acc[v] += diff * diff;
        }
    }
    std::memcpy(out + c0, acc, sizeof acc);
}

/**
 * Squared distances from `p` to every column of `ct`, in one pass over
 * p's dimensions per block of 16 (then 4) centroids. kp, the padded
 * column count, is a multiple of 4.
 */
void
sqDistToAll(const double *p, const double *ct, size_t d, uint32_t kp,
            double *out)
{
    uint32_t c0 = 0;
    for (; c0 + 16 <= kp; c0 += 16)
        scanBlock<8>(p, ct, d, kp, c0, out);
    for (; c0 < kp; c0 += 4)
        scanBlock<2>(p, ct, d, kp, c0, out);
}

/** True when `near` is below `far` by the pruning margin. */
bool
clearlyBelow(double near, double far)
{
    return far > kMinPrunable &&
           near * (1.0 + kMargin) < far * (1.0 - kMargin);
}

} // namespace

KmeansResult
kmeans(const FeatureMatrix &points, uint32_t k, Rng &rng,
       uint32_t max_iters)
{
    const size_t n = points.size();
    if (n == 0)
        fatal("kmeans: empty input");
    if (k == 0 || k > n)
        fatal("kmeans: k=%u out of range for %zu points", k, n);
    const size_t d = points[0].size();
    for (size_t i = 1; i < n; ++i)
        if (points[i].size() != d)
            fatal("kmeans: row %zu has %zu dimensions, row 0 has %zu", i,
                  points[i].size(), d);

    KmeansResult res;
    res.k = k;

    // k-means++ seeding. owner[i] is the seed that set min_d2[i]; when
    // the new seed is more than 2 * sqrt(min_d2[i]) from it, the
    // triangle inequality puts point i farther from the new seed than
    // from its owner, so min_d2[i] cannot drop and the distance is not
    // computed. min_d2 holds the same doubles as a full scan would, so
    // the sampled seeds are the same too.
    constexpr uint32_t kNoOwner = ~uint32_t{0};
    std::vector<size_t> seeds;
    seeds.reserve(k);
    seeds.push_back(rng.nextBounded(n));
    std::vector<double> min_d2(n, std::numeric_limits<double>::max());
    std::vector<uint32_t> owner(n, kNoOwner);
    std::vector<double> gap2(k); // new seed to each earlier seed, squared
    while (seeds.size() < k) {
        const uint32_t s = static_cast<uint32_t>(seeds.size() - 1);
        const double *ps = points[seeds[s]].data();
        for (uint32_t t = 0; t < s; ++t)
            gap2[t] = sqDist(points[seeds[t]].data(), ps, d);
        res.distances += s;
        for (size_t i = 0; i < n; ++i) {
            if (owner[i] != kNoOwner &&
                clearlyBelow(4.0 * min_d2[i], gap2[owner[i]]))
                continue;
            double d2 = sqDist(points[i].data(), ps, d);
            ++res.distances;
            if (d2 < min_d2[i]) {
                min_d2[i] = d2;
                owner[i] = s;
            }
        }
        double total = 0.0;
        for (double v : min_d2)
            total += v;
        size_t chosen;
        if (total <= 0.0) {
            chosen = rng.nextBounded(n); // all points identical
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
    res.centroids.clear();
    for (size_t s : seeds)
        res.centroids.push_back(points[s]);

    // Lloyd's iterations, pruned with Hamerly's bounds: upper[i] bounds
    // the distance from point i to its centroid, lower[i] the distance
    // to every other centroid. Both follow the centroids' movement by
    // the triangle inequality. A point whose upper bound is clearly
    // below its lower bound keeps its centroid: that centroid is
    // strictly nearest, which is what a full scan's first strict
    // minimum would pick. Every other point scans all k centroids as
    // before. Bounds are rebuilt after an empty-cluster reseed.
    const uint32_t kp = (k + 3) & ~3u; // k padded for sqDistToAll
    std::vector<double> ct(d * kp);    // centroids, transposed
    std::vector<double> sums(k * d); // per-cluster coordinate sums
    std::vector<size_t> counts(k);
    std::vector<double> dist2(kp), moved(k);
    std::vector<double> upper(n), lower(n);
    auto transpose = [&] {
        for (uint32_t c = 0; c < k; ++c)
            for (size_t j = 0; j < d; ++j)
                ct[j * kp + c] = res.centroids[c][j];
    };
    transpose();
    bool bounds_valid = false;

    res.assignment.assign(n, 0);
    for (uint32_t iter = 0; iter < max_iters; ++iter) {
        res.iterations = iter + 1;
        // Assignment step.
        bool changed = false;
        for (size_t i = 0; i < n; ++i) {
            const double *p = points[i].data();
            if (bounds_valid) {
                if (clearlyBelow(upper[i], lower[i]))
                    continue;
                upper[i] = std::sqrt(sqDist(
                    p, res.centroids[res.assignment[i]].data(), d));
                ++res.distances;
                if (clearlyBelow(upper[i], lower[i]))
                    continue;
            }
            sqDistToAll(p, ct.data(), d, kp, dist2.data());
            res.distances += k;
            double best = std::numeric_limits<double>::max();
            double second = std::numeric_limits<double>::max();
            uint32_t best_c = 0;
            for (uint32_t c = 0; c < k; ++c) {
                if (dist2[c] < best) {
                    second = best;
                    best = dist2[c];
                    best_c = c;
                } else if (dist2[c] < second) {
                    second = dist2[c];
                }
            }
            upper[i] = std::sqrt(best);
            lower[i] = std::sqrt(second);
            if (res.assignment[i] != best_c) {
                res.assignment[i] = best_c;
                changed = true;
            }
        }
        bounds_valid = true;
        // Update step.
        std::fill(sums.begin(), sums.end(), 0.0);
        std::fill(counts.begin(), counts.end(), 0);
        for (size_t i = 0; i < n; ++i) {
            uint32_t c = res.assignment[i];
            ++counts[c];
            double *sum = &sums[c * d];
            for (size_t j = 0; j < d; ++j)
                sum[j] += points[i][j];
        }
        for (uint32_t c = 0; c < k; ++c) {
            if (counts[c] == 0) {
                // Re-seed an empty cluster at the point farthest from
                // its centroid.
                size_t far_i = 0;
                double far_d = -1.0;
                for (size_t i = 0; i < n; ++i) {
                    double d2 = sqDist(
                        points[i].data(),
                        res.centroids[res.assignment[i]].data(), d);
                    if (d2 > far_d) {
                        far_d = d2;
                        far_i = i;
                    }
                }
                res.distances += n;
                res.centroids[c] = points[far_i];
                changed = true;
                bounds_valid = false;
                continue;
            }
            for (size_t j = 0; j < d; ++j)
                res.centroids[c][j] =
                    sums[c * d + j] / static_cast<double>(counts[c]);
        }
        if (!changed)
            break;

        // Move the bounds by how far each centroid moved (ct still
        // holds the old centroids), then refresh ct.
        if (bounds_valid) {
            double max1 = 0.0, max2 = 0.0;
            uint32_t max1_c = 0;
            for (uint32_t c = 0; c < k; ++c) {
                double m2 = 0.0;
                for (size_t j = 0; j < d; ++j) {
                    double diff = res.centroids[c][j] - ct[j * kp + c];
                    m2 += diff * diff;
                }
                moved[c] = std::sqrt(m2);
                if (moved[c] > max1) {
                    max2 = max1;
                    max1 = moved[c];
                    max1_c = c;
                } else if (moved[c] > max2) {
                    max2 = moved[c];
                }
            }
            res.distances += k;
            for (size_t i = 0; i < n; ++i) {
                const uint32_t a = res.assignment[i];
                const double drop = a == max1_c ? max2 : max1;
                upper[i] += moved[a];
                lower[i] = (lower[i] - drop) - kSlack * (lower[i] + drop);
            }
        }
        transpose();
    }

    res.distortion = 0.0;
    for (size_t i = 0; i < n; ++i)
        res.distortion += sqDist(
            points[i].data(), res.centroids[res.assignment[i]].data(), d);
    res.distances += n;
    return res;
}

double
bicScore(const FeatureMatrix &points, const KmeansResult &result)
{
    const double n = static_cast<double>(points.size());
    const double d = static_cast<double>(points[0].size());
    const double k = static_cast<double>(result.k);

    std::vector<double> cluster_sizes(result.k, 0.0);
    for (uint32_t c : result.assignment)
        cluster_sizes[c] += 1.0;

    double sigma2 = n > k ? result.distortion / (d * (n - k)) : 0.0;
    sigma2 = std::max(sigma2, 1e-12);

    double log_likelihood = 0.0;
    for (double rn : cluster_sizes) {
        if (rn <= 0.0)
            continue;
        log_likelihood += rn * std::log(rn / n);
    }
    log_likelihood -= n * d / 2.0 * std::log(2.0 * M_PI * sigma2);
    log_likelihood -= (n - k) * d / 2.0;

    const double num_params = k * (d + 1.0);
    return log_likelihood - num_params / 2.0 * std::log(n);
}

ClusteringResult
simpointCluster(const FeatureMatrix &points, uint32_t max_k,
                uint64_t seed, double bic_threshold, ThreadPool *pool)
{
    if (points.empty())
        fatal("simpointCluster: no slices to cluster");
    // k == n is degenerate (zero distortion makes the BIC spike and
    // poisons the normalized threshold), so keep at least two points
    // per potential cluster on average.
    uint32_t limit = std::min<uint32_t>(
        max_k,
        points.size() > 1
            ? static_cast<uint32_t>(points.size() - 1)
            : 1);
    limit = std::min<uint32_t>(
        limit, std::max<uint32_t>(1,
                                  static_cast<uint32_t>(points.size() / 2)));
    LP_ASSERT(limit >= 1);

    // Scan every k up to 16, then coarser steps up to the limit, so
    // model selection stays cheap for runs with many slices.
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

    // One pool task per K candidate; results land in index-addressed
    // slots and each candidate's RNG is seeded from (seed, k), so the
    // sweep is bit-identical for any jobs count and schedule.
    using clock = std::chrono::steady_clock;
    auto t_sweep = clock::now();
    ClusteringResult out;
    std::vector<KmeansResult> runs(ks.size());
    out.bicByK.resize(ks.size());
    std::vector<double> candidate_wall(ks.size(), 0.0);
    Counter &stat_iterations =
        MetricsRegistry::global().counter("cluster.kmeans.iterations");
    Counter &stat_distances =
        MetricsRegistry::global().counter("cluster.kmeans.distances");
    ThreadPool::forEach(pool, 0, ks.size(), [&](size_t i) {
        auto t0 = clock::now();
        const uint32_t k = ks[i];
        ScopedSpan span(Tracer::global(), "cluster.kmeans");
        Rng rng(hashCombine(seed, k));
        runs[i] = kmeans(points, k, rng);
        out.bicByK[i] = {k, bicScore(points, runs[i])};
        span.arg("k", k)
            .arg("iterations", runs[i].iterations)
            .arg("distances", runs[i].distances)
            .arg("bic", out.bicByK[i].second);
        stat_iterations.add(runs[i].iterations);
        stat_distances.add(runs[i].distances);
        candidate_wall[i] =
            std::chrono::duration<double>(clock::now() - t0).count();
    });
    for (double w : candidate_wall)
        out.candidateWallSeconds += w;
    out.sweepWallSeconds =
        std::chrono::duration<double>(clock::now() - t_sweep).count();

    double best = out.bicByK[0].second;
    double worst = out.bicByK[0].second;
    for (const auto &[k, bic] : out.bicByK) {
        best = std::max(best, bic);
        worst = std::min(worst, bic);
    }
    double span = best - worst;
    size_t chosen_idx = out.bicByK.size() - 1;
    for (size_t i = 0; i < out.bicByK.size(); ++i) {
        double norm = span > 0.0
                          ? (out.bicByK[i].second - worst) / span
                          : 1.0;
        if (norm >= bic_threshold) {
            chosen_idx = i;
            break;
        }
    }
    out.chosenK = out.bicByK[chosen_idx].first;
    out.best = std::move(runs[chosen_idx]);
    return out;
}

size_t
nearestMemberToCentroid(const FeatureMatrix &points,
                        const KmeansResult &result, uint32_t cluster,
                        size_t exclude)
{
    const std::vector<double> &centroid = result.centroids[cluster];
    const size_t d = centroid.size();
    size_t best_i = points.size();
    double best_d = std::numeric_limits<double>::max();
    for (size_t i = 0; i < points.size(); ++i) {
        if (i == exclude || result.assignment[i] != cluster)
            continue;
        LP_ASSERT(points[i].size() == d);
        double d2 = sqDist(points[i].data(), centroid.data(), d);
        if (d2 < best_d) {
            best_d = d2;
            best_i = i;
        }
    }
    return best_i;
}

std::vector<uint32_t>
pickRepresentatives(const FeatureMatrix &points,
                    const KmeansResult &result)
{
    std::vector<uint32_t> reps(result.k, 0);
    for (uint32_t c = 0; c < result.k; ++c) {
        size_t i = nearestMemberToCentroid(points, result, c);
        if (i != points.size())
            reps[c] = static_cast<uint32_t>(i);
    }
    return reps;
}

RandomProjector::RandomProjector(uint32_t out_dims, uint64_t seed_)
    : dims(out_dims), seed(seed_)
{
    if (dims == 0)
        fatal("RandomProjector: need at least one output dimension");
}

std::vector<double>
RandomProjector::project(
    const std::vector<std::pair<uint64_t, double>> &row) const
{
    std::vector<double> out(dims, 0.0);
    for (const auto &[dim, value] : row) {
        for (uint32_t d = 0; d < dims; ++d) {
            uint64_t h = hashCombine(seed, dim * 0x9e3779b1ull + d);
            // Map the hash to a deterministic value in [-1, 1].
            double r = static_cast<double>(h >> 11) * 0x1.0p-53;
            out[d] += value * (2.0 * r - 1.0);
        }
    }
    return out;
}

} // namespace looppoint
