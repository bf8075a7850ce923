/** Tests for the workload generators (all 13, parameterized). */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"

#include "workloads/gap_workloads.h"
#include "workloads/graph.h"
#include "workloads/workload.h"

namespace ndpext {
namespace {

WorkloadParams
smallParams()
{
    WorkloadParams p;
    p.numCores = 8;
    p.footprintBytes = 8_MiB;
    p.accessesPerCore = 2000;
    p.seed = 42;
    return p;
}

TEST(Graph, RmatShapeAndDegrees)
{
    const auto g = makeRmatGraph(10, 8, 1);
    EXPECT_EQ(g.numVertices, 1024u);
    EXPECT_EQ(g.numEdges, 8192u);
    EXPECT_EQ(g.offsets.size(), 1025u);
    EXPECT_EQ(g.offsets.front(), 0u);
    EXPECT_EQ(g.offsets.back(), g.numEdges);
    for (std::uint64_t v = 0; v < g.numVertices; ++v) {
        EXPECT_LE(g.offsets[v], g.offsets[v + 1]);
    }
    for (const auto dst : g.edges) {
        EXPECT_LT(dst, g.numVertices);
    }
}

TEST(Graph, RmatIsSkewed)
{
    const auto g = makeRmatGraph(12, 16, 2);
    // Power law: the max degree dwarfs the average.
    std::uint64_t max_deg = 0;
    for (std::uint64_t v = 0; v < g.numVertices; ++v) {
        max_deg = std::max(max_deg, g.degree(v));
    }
    EXPECT_GT(max_deg, 16u * 10);
}

TEST(Graph, Deterministic)
{
    const auto a = makeRmatGraph(8, 4, 7);
    const auto b = makeRmatGraph(8, 4, 7);
    EXPECT_EQ(a.edges, b.edges);
    EXPECT_EQ(a.offsets, b.offsets);
}

template <typename T>
std::uint64_t
fnv1a(const std::vector<T>& v)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const T x : v) {
        for (unsigned i = 0; i < sizeof(T); ++i) {
            h ^= (static_cast<std::uint64_t>(x) >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

struct RmatGolden
{
    std::uint32_t scale;
    std::uint32_t degree;
    std::uint64_t seed;
    std::uint64_t offsetsHash;
    std::uint64_t edgesHash;
};

// FNV-1a (little-endian element bytes) of graphs built by the original
// serial, branchy generator. (13, 5) has 40960 edges, which 3 workers
// cannot split evenly; (17, 16) has 2 Mi edges, enough to be drawn in
// parallel.
constexpr RmatGolden kRmatGolden[] = {
    {4, 1, 3, 0xfe05a6a85251a64bULL, 0x40982f2554f9c4b8ULL},
    {10, 8, 1, 0x6c57a90a6262baabULL, 0xa5e945191215af48ULL},
    {13, 5, 99, 0xb7363ca106149233ULL, 0x7dc03086570b6ab7ULL},
    {14, 7, 2024, 0x70994d2de671d787ULL, 0x1b9133497bfbad67ULL},
    {17, 16, 42, 0x8027134ff66ae26aULL, 0x80d95b676e5770a7ULL},
};

TEST(Graph, RmatMatchesGoldenHashes)
{
    for (const RmatGolden& c : kRmatGolden) {
        const auto g = makeRmatGraph(c.scale, c.degree, c.seed);
        EXPECT_EQ(fnv1a(g.offsets), c.offsetsHash) << "scale " << c.scale;
        EXPECT_EQ(fnv1a(g.edges), c.edgesHash) << "scale " << c.scale;
    }
}

TEST(Graph, RmatIsTheSameForAnyWorkerCount)
{
    for (const RmatGolden& c : kRmatGolden) {
        for (const unsigned workers : {1u, 2u, 3u, 4u, 7u}) {
            const auto g = makeRmatGraphWithWorkers(c.scale, c.degree,
                                                    c.seed, workers);
            EXPECT_EQ(fnv1a(g.offsets), c.offsetsHash)
                << "scale " << c.scale << " workers " << workers;
            EXPECT_EQ(fnv1a(g.edges), c.edgesHash)
                << "scale " << c.scale << " workers " << workers;
        }
    }
}

/** The original edge loop: one nextDouble() per bit, an if/else ladder. */
void
branchyRmatEdges(std::uint32_t scale, std::uint64_t e_count,
                 std::uint64_t seed, std::vector<std::uint32_t>* src,
                 std::vector<std::uint32_t>* dst)
{
    constexpr double kA = 0.57;
    constexpr double kB = 0.19;
    constexpr double kC = 0.19;
    Rng rng(seed);
    src->assign(e_count, 0);
    dst->assign(e_count, 0);
    for (std::uint64_t e = 0; e < e_count; ++e) {
        std::uint64_t s = 0;
        std::uint64_t d = 0;
        for (std::uint32_t bit = 0; bit < scale; ++bit) {
            const double p = rng.nextDouble();
            s <<= 1;
            d <<= 1;
            if (p < kA) {
                // top-left: no bits set
            } else if (p < kA + kB) {
                d |= 1;
            } else if (p < kA + kB + kC) {
                s |= 1;
            } else {
                s |= 1;
                d |= 1;
            }
        }
        (*src)[e] = static_cast<std::uint32_t>(s);
        (*dst)[e] = static_cast<std::uint32_t>(d);
    }
}

TEST(Graph, RmatMatchesBranchySerialLoop)
{
    const std::uint32_t scale = 12;
    const std::uint32_t degree = 7;
    const std::uint64_t seed = 31337;
    std::vector<std::uint32_t> src;
    std::vector<std::uint32_t> dst;
    branchyRmatEdges(scale, (1ULL << scale) * degree, seed, &src, &dst);

    // Each vertex's edge list, in edge order (the stable counting sort).
    std::vector<std::vector<std::uint32_t>> adj(1ULL << scale);
    for (std::size_t e = 0; e < src.size(); ++e) {
        adj[src[e]].push_back(dst[e]);
    }
    for (const unsigned workers : {1u, 3u}) {
        const auto g = makeRmatGraphWithWorkers(scale, degree, seed, workers);
        ASSERT_EQ(g.numEdges, src.size());
        for (std::uint64_t v = 0; v < g.numVertices; ++v) {
            ASSERT_EQ(g.degree(v), adj[v].size()) << "vertex " << v;
            for (std::uint64_t i = 0; i < g.degree(v); ++i) {
                ASSERT_EQ(g.edges[g.offsets[v] + i], adj[v][i])
                    << "vertex " << v << " edge " << i << " workers "
                    << workers;
            }
        }
    }
}

TEST(Graph, ScaleForFootprint)
{
    const auto s = scaleForFootprint(12_MiB, 16);
    const std::uint64_t v = 1ULL << s;
    EXPECT_LE(v * 8 + v * 16 * 4, 12_MiB);
    EXPECT_GT((v * 2) * 8 + (v * 2) * 16 * 4, 12_MiB);
}

class WorkloadSuite : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadSuite, PreparesAndRegisters)
{
    auto w = makeWorkload(GetParam());
    EXPECT_EQ(w->name(), GetParam());
    w->prepare(smallParams());
    EXPECT_TRUE(w->prepared());
    EXPECT_GE(w->streamConfigs().size(), 2u);
    StreamTable table;
    w->registerStreams(table);
    EXPECT_EQ(table.numStreams(), w->streamConfigs().size());
}

TEST_P(WorkloadSuite, GeneratorsEmitBoundedValidAccesses)
{
    auto w = makeWorkload(GetParam());
    w->prepare(smallParams());
    StreamTable table;
    w->registerStreams(table);
    for (CoreId c = 0; c < 8; c += 7) { // first and last core
        auto gen = w->makeGenerator(c);
        Access a;
        std::uint64_t count = 0;
        while (gen->next(a)) {
            ++count;
            ASSERT_NE(a.sid, kNoStream);
            const StreamConfig& cfg = table.stream(a.sid);
            ASSERT_TRUE(cfg.contains(a.addr))
                << GetParam() << " stream " << cfg.name;
            ASSERT_EQ(cfg.addrOf(a.elem), a.addr);
            ASSERT_GE(a.computeCycles, 1u);
        }
        EXPECT_EQ(count, smallParams().accessesPerCore);
    }
}

TEST_P(WorkloadSuite, GeneratorsAreDeterministic)
{
    auto w = makeWorkload(GetParam());
    w->prepare(smallParams());
    auto g1 = w->makeGenerator(3);
    auto g2 = w->makeGenerator(3);
    Access a1;
    Access a2;
    for (int i = 0; i < 500; ++i) {
        ASSERT_TRUE(g1->next(a1));
        ASSERT_TRUE(g2->next(a2));
        ASSERT_EQ(a1.addr, a2.addr);
        ASSERT_EQ(a1.sid, a2.sid);
        ASSERT_EQ(a1.isWrite, a2.isWrite);
    }
}

TEST_P(WorkloadSuite, DifferentCoresDiffer)
{
    auto w = makeWorkload(GetParam());
    w->prepare(smallParams());
    auto g0 = w->makeGenerator(0);
    auto g5 = w->makeGenerator(5);
    Access a0;
    Access a5;
    int same = 0;
    for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(g0->next(a0));
        ASSERT_TRUE(g5->next(a5));
        same += a0.addr == a5.addr ? 1 : 0;
    }
    EXPECT_LT(same, 200); // not an identical trace
}

TEST_P(WorkloadSuite, WritesTouchOnlyWritableStreamsEventually)
{
    // Streams marked read-only may still be written (backprop phase 2
    // flips w); but streams marked read-write must actually see writes
    // OR reads -- sanity that isWrite is populated at all.
    auto w = makeWorkload(GetParam());
    w->prepare(smallParams());
    auto gen = w->makeGenerator(0);
    Access a;
    bool any_read = false;
    while (gen->next(a)) {
        any_read = any_read || !a.isWrite;
    }
    EXPECT_TRUE(any_read);
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadSuite,
    ::testing::ValuesIn(allWorkloadNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        return info.param;
    });

TEST(WorkloadFidelity, RecsysEmbeddingLookupsAreSkewed)
{
    auto w = makeWorkload("recsys");
    w->prepare(smallParams());
    auto gen = w->makeGenerator(0);
    Access a;
    std::map<Addr, int> counts;
    std::uint64_t emb_accesses = 0;
    while (gen->next(a)) {
        // Embedding streams are the indirect ones.
        const auto& cfg = w->streamConfigs()[a.sid];
        if (cfg.type == StreamType::Indirect) {
            ++counts[a.addr];
            ++emb_accesses;
        }
    }
    ASSERT_GT(emb_accesses, 100u);
    // Zipf skew: the hottest 10% of touched rows take far more than 10%
    // of the accesses.
    std::vector<int> sorted;
    for (const auto& [addr, c] : counts) {
        sorted.push_back(c);
    }
    std::sort(sorted.rbegin(), sorted.rend());
    std::uint64_t hot = 0;
    for (std::size_t i = 0; i < sorted.size() / 10 + 1; ++i) {
        hot += sorted[i];
    }
    // (Loose bound: the exact head mass depends on the scaled table
    // size; uniform access would give ~0.1.)
    EXPECT_GT(static_cast<double>(hot) / emb_accesses, 0.15);
}

TEST(WorkloadFidelity, HotspotHaloReadsCrossBandBoundaries)
{
    // The stencil's up-neighbor read from the first row of core 1's band
    // must target a row inside core 0's band (halo sharing).
    auto w = makeWorkload("hotspot");
    w->prepare(smallParams());
    const StreamConfig& temp = w->streamConfigs()[0];
    ASSERT_EQ(temp.name, "temp");
    auto g1 = w->makeGenerator(1);
    Access a;
    Addr min_temp_addr = temp.end();
    for (int i = 0; i < 2000 && g1->next(a); ++i) {
        if (a.sid == temp.sid) {
            min_temp_addr = std::min(min_temp_addr, a.addr);
        }
    }
    // Core 1's band starts at rows/8 (8 cores); its up-halo read reaches
    // one row below that, i.e., below the band-start address.
    const std::uint64_t rows =
        temp.numElems() / 4096; // cols fixed at 4096 in the workload
    const Addr band_start =
        temp.base + (rows / 8) * 4096 * 4;
    EXPECT_LT(min_temp_addr, band_start)
        << "core 1 should read into core 0's band (halo)";
}

TEST(WorkloadFidelity, BackpropFlipsToWritesLate)
{
    auto w = makeWorkload("backprop");
    w->prepare(smallParams());
    auto gen = w->makeGenerator(0);
    Access a;
    std::uint64_t i = 0;
    std::uint64_t early_writes = 0;
    std::uint64_t late_writes = 0;
    const std::uint64_t half = smallParams().accessesPerCore / 2;
    while (gen->next(a)) {
        if (a.isWrite) {
            (i < half ? early_writes : late_writes) += 1;
        }
        ++i;
    }
    // Phase 2 (adjust_weights) is write-heavy; phase 1 is read-heavy.
    EXPECT_GT(late_writes, early_writes * 2);
}

TEST(WorkloadFidelity, GraphGathersFollowEdges)
{
    // pr's rank gathers must target exactly the neighbor ids of the
    // synthetic graph (the indirection is real, not random).
    auto w = makeWorkload("pr");
    w->prepare(smallParams());
    auto* gap = dynamic_cast<PageRankWorkload*>(w.get());
    ASSERT_NE(gap, nullptr);
    const CsrGraph& g = gap->graph();
    auto gen = w->makeGenerator(0);
    Access a;
    // Collect the set of vertex ids the rank stream touches.
    std::set<ElemId> touched;
    StreamId ranks_sid = kNoStream;
    for (const auto& cfg : w->streamConfigs()) {
        if (cfg.name == "ranks") {
            ranks_sid = cfg.sid;
        }
    }
    ASSERT_NE(ranks_sid, kNoStream);
    while (gen->next(a)) {
        if (a.sid == ranks_sid) {
            touched.insert(a.elem);
        }
    }
    ASSERT_FALSE(touched.empty());
    for (const auto v : touched) {
        ASSERT_LT(v, g.numVertices);
    }
}

TEST(WorkloadRegistry, UnknownNameIsFatal)
{
    EXPECT_DEATH(makeWorkload("nope"), "unknown workload");
}

TEST(WorkloadRegistry, ThirteenWorkloads)
{
    EXPECT_EQ(allWorkloadNames().size(), 13u);
}

TEST(Workload, StreamsAnnotatedWithTypes)
{
    // recsys should expose indirect embedding tables + affine weights,
    // mirroring the paper's affine/indirect mix.
    auto w = makeWorkload("recsys");
    w->prepare(smallParams());
    bool has_indirect = false;
    bool has_affine = false;
    bool has_read_only = false;
    bool has_read_write = false;
    for (const auto& cfg : w->streamConfigs()) {
        has_indirect |= cfg.type == StreamType::Indirect;
        has_affine |= cfg.type == StreamType::Affine;
        has_read_only |= cfg.readOnly;
        has_read_write |= !cfg.readOnly;
    }
    EXPECT_TRUE(has_indirect);
    EXPECT_TRUE(has_affine);
    EXPECT_TRUE(has_read_only);
    EXPECT_TRUE(has_read_write);
}

} // namespace
} // namespace ndpext
