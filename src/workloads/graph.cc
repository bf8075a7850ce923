#include "workloads/graph.h"

#include <algorithm>
#include <memory>
#include <thread>

#include "common/logging.h"
#include "common/rng.h"

namespace ndpext {

namespace {

// R-MAT quadrant probabilities (Graph500 defaults).
constexpr double kA = 0.57;
constexpr double kB = 0.19;
constexpr double kC = 0.19;

// Rng::nextDouble() is u * 2^-53 for u = next() >> 11, and each
// cumulative probability is a double in [0.5, 1), so it times 2^53 is an
// integer: nextDouble() < p holds exactly when u < p * 2^53.
constexpr std::uint64_t kT1 = static_cast<std::uint64_t>(kA * 0x1.0p53);
constexpr std::uint64_t kT2 = static_cast<std::uint64_t>((kA + kB) * 0x1.0p53);
constexpr std::uint64_t kT3 =
    static_cast<std::uint64_t>((kA + kB + kC) * 0x1.0p53);
static_assert(static_cast<double>(kT1) * 0x1.0p-53 == kA);
static_assert(static_cast<double>(kT2) * 0x1.0p-53 == kA + kB);
static_assert(static_cast<double>(kT3) * 0x1.0p-53 == kA + kB + kC);

// Smaller graphs are drawn serially: they take under ~40 ms on one core,
// and each extra worker costs a thread start plus a ~1 ms jump-ahead.
constexpr std::uint64_t kParallelMinEdges = 1ULL << 20;

std::uint64_t
rmatEdgeCount(std::uint32_t scale, std::uint32_t avg_degree)
{
    NDP_ASSERT(scale >= 4 && scale <= 28, "scale=", scale);
    NDP_ASSERT(avg_degree >= 1);
    return (1ULL << scale) * avg_degree;
}

/** Draw edges [begin, end); `rng` stands at draw begin * scale. */
void
drawEdges(Rng rng, std::uint32_t scale, std::uint64_t begin,
          std::uint64_t end, std::uint32_t* src, std::uint32_t* dst)
{
    for (std::uint64_t e = begin; e < end; ++e) {
        std::uint32_t s = 0;
        std::uint32_t d = 0;
        for (std::uint32_t bit = 0; bit < scale; ++bit) {
            // Quadrants a, b, c, d set (src, dst) bits 00, 01, 10, 11.
            const std::uint64_t u = rng.next() >> 11;
            const bool ge1 = u >= kT1;
            const bool ge2 = u >= kT2;
            const bool ge3 = u >= kT3;
            s = (s << 1) | static_cast<std::uint32_t>(ge2);
            d = (d << 1) | static_cast<std::uint32_t>(ge1 ^ ge2 ^ ge3);
        }
        src[e] = s;
        dst[e] = d;
    }
}

} // namespace

CsrGraph
makeRmatGraph(std::uint32_t scale, std::uint32_t avg_degree,
              std::uint64_t seed)
{
    unsigned workers = 1;
    if (rmatEdgeCount(scale, avg_degree) >= kParallelMinEdges) {
        workers = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    }
    return makeRmatGraphWithWorkers(scale, avg_degree, seed, workers);
}

CsrGraph
makeRmatGraphWithWorkers(std::uint32_t scale, std::uint32_t avg_degree,
                         std::uint64_t seed, unsigned workers)
{
    NDP_ASSERT(workers >= 1);
    const std::uint64_t e_count = rmatEdgeCount(scale, avg_degree);
    const std::uint64_t v_count = 1ULL << scale;

    // Left uninitialized: every slot is drawn, and each worker touches
    // its own slice's pages first.
    const auto src = std::make_unique_for_overwrite<std::uint32_t[]>(e_count);
    const auto dst = std::make_unique_for_overwrite<std::uint32_t[]>(e_count);

    // Chunk k holds edges [e_count * k / chunks, e_count * (k+1) / chunks).
    // This thread draws chunk 0 from the seeded state; every other chunk
    // runs on its own thread from that state jumped to its first edge.
    const std::uint64_t chunks = std::min<std::uint64_t>(workers, e_count);
    const auto chunkBegin = [&](std::uint64_t k) {
        return e_count * k / chunks;
    };
    {
        std::vector<std::jthread> pool; // joins every worker at scope end
        for (std::uint64_t k = 1; k < chunks; ++k) {
            pool.emplace_back([&, k] {
                Rng rng(seed);
                rng.advance(chunkBegin(k) * scale);
                drawEdges(rng, scale, chunkBegin(k), chunkBegin(k + 1),
                          src.get(), dst.get());
            });
        }
        drawEdges(Rng(seed), scale, 0, chunkBegin(1), src.get(), dst.get());
    }

    // Counting sort into CSR.
    CsrGraph g;
    g.numVertices = v_count;
    g.numEdges = e_count;
    g.offsets.assign(v_count + 1, 0);
    for (std::uint64_t e = 0; e < e_count; ++e) {
        ++g.offsets[src[e] + 1];
    }
    for (std::uint64_t v = 0; v < v_count; ++v) {
        g.offsets[v + 1] += g.offsets[v];
    }
    g.edges.resize(e_count);
    std::vector<std::uint64_t> cursor(g.offsets.begin(),
                                      g.offsets.end() - 1);
    for (std::uint64_t e = 0; e < e_count; ++e) {
        g.edges[cursor[src[e]]++] = dst[e];
    }
    return g;
}

std::uint32_t
scaleForFootprint(std::uint64_t target_bytes, std::uint32_t avg_degree)
{
    // CSR bytes ~ V * 8 + V * degree * 4.
    for (std::uint32_t scale = 26; scale > 4; --scale) {
        const std::uint64_t v = 1ULL << scale;
        const std::uint64_t bytes =
            v * 8 + v * static_cast<std::uint64_t>(avg_degree) * 4;
        if (bytes <= target_bytes) {
            return scale;
        }
    }
    return 4;
}

} // namespace ndpext
