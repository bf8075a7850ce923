/**
 * @file
 * Synthetic power-law graph generation (R-MAT) in CSR form, standing in
 * for the GAP/Reddit datasets (see DESIGN.md substitution table). R-MAT
 * with (a, b, c) = (0.57, 0.19, 0.19) reproduces the skewed degree
 * distribution that makes graph property accesses cache-unfriendly and
 * hot vertices replication-friendly.
 */

#ifndef NDPEXT_WORKLOADS_GRAPH_H
#define NDPEXT_WORKLOADS_GRAPH_H

#include <cstdint>
#include <vector>

namespace ndpext {

struct CsrGraph
{
    std::uint64_t numVertices = 0;
    std::uint64_t numEdges = 0;
    /** offsets[v]..offsets[v+1] index into `edges`. Size V+1. */
    std::vector<std::uint64_t> offsets;
    /** Destination vertex ids. Size E. */
    std::vector<std::uint32_t> edges;

    std::uint64_t
    degree(std::uint64_t v) const
    {
        return offsets[v + 1] - offsets[v];
    }
};

/**
 * Generate an R-MAT graph with 2^scale vertices and
 * 2^scale * avg_degree directed edges (self-loops allowed, duplicates
 * kept -- both exist in real edge lists).
 *
 * Determinism contract: the edges come from one Rng seeded with `seed`,
 * `scale` draws per edge in edge order, so edge e starts at draw
 * e * scale. Graphs of at least 2^20 edges are drawn by up to four
 * threads, each jumping its own Rng to its first edge
 * (Rng::advance); the graph is the same for any worker count.
 */
CsrGraph makeRmatGraph(std::uint32_t scale, std::uint32_t avg_degree,
                       std::uint64_t seed);

/** makeRmatGraph drawn by exactly `workers` (>= 1) threads. */
CsrGraph makeRmatGraphWithWorkers(std::uint32_t scale,
                                  std::uint32_t avg_degree,
                                  std::uint64_t seed, unsigned workers);

/** Pick a scale so the CSR (8 B offsets + 4 B edges) is ~target bytes. */
std::uint32_t scaleForFootprint(std::uint64_t target_bytes,
                                std::uint32_t avg_degree);

} // namespace ndpext

#endif // NDPEXT_WORKLOADS_GRAPH_H
