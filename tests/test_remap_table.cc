/** Tests for the stream remap table (RShares/RRowBase/RGroups). */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "ndp/remap_table.h"

namespace ndpext {
namespace {

constexpr std::uint32_t kUnits = 8;
constexpr std::uint32_t kRowsPerUnit = 64;
constexpr std::uint32_t kRowBytes = 2048;

struct Fixture
{
    MeshTopology topo{2, 1, 2, 2}; // 2 stacks x 4 units = 8 units
    NocParams nocParams;
    NocModel noc{topo, nocParams};
};

StreamAlloc
twoGroupAlloc()
{
    StreamAlloc a(kUnits);
    a.numGroups = 2;
    a.shareRows = {8, 6, 0, 0, 4, 2, 0, 0};
    a.groupOf = {0, 0, 0, 0, 1, 1, 0, 0};
    a.rowBase = {0, 0, 0, 0, 0, 0, 0, 0};
    return a;
}

TEST(StreamAlloc, TotalsAndGroups)
{
    const auto a = twoGroupAlloc();
    EXPECT_EQ(a.totalRows(), 20u);
    EXPECT_EQ(a.rowsOfGroup(0), 14u);
    EXPECT_EQ(a.rowsOfGroup(1), 6u);
    EXPECT_FALSE(a.empty());
}

TEST(RemapTable, AllocAccounting)
{
    Fixture f;
    StreamRemapTable t(kUnits, kRowsPerUnit, kRowBytes, RemapMode::Modulo);
    EXPECT_EQ(t.freeRows(0), kRowsPerUnit);
    t.setAlloc(0, twoGroupAlloc(), 8, f.noc);
    EXPECT_EQ(t.usedRows(0), 8u);
    EXPECT_EQ(t.freeRows(0), kRowsPerUnit - 8);
    EXPECT_EQ(t.usedRows(4), 4u);
    t.clearAlloc(0);
    EXPECT_EQ(t.usedRows(0), 0u);
    EXPECT_EQ(t.alloc(0), nullptr);
}

TEST(RemapTable, UnitSlotsFromShares)
{
    Fixture f;
    StreamRemapTable t(kUnits, kRowsPerUnit, kRowBytes, RemapMode::Modulo);
    t.setAlloc(0, twoGroupAlloc(), 8, f.noc);
    EXPECT_EQ(t.unitSlots(0, 0), 8u * kRowBytes / 8);
    EXPECT_EQ(t.unitSlots(0, 2), 0u);
}

TEST(RemapTable, ServingGroupPrefersNearby)
{
    Fixture f;
    StreamRemapTable t(kUnits, kRowsPerUnit, kRowBytes, RemapMode::Modulo);
    t.setAlloc(0, twoGroupAlloc(), 8, f.noc);
    // Units 0/1 (stack 0) hold group 0; units 4/5 (stack 1) hold group 1.
    EXPECT_EQ(t.servingGroup(0, 0), 0u);
    EXPECT_EQ(t.servingGroup(0, 1), 0u);
    EXPECT_EQ(t.servingGroup(0, 4), 1u);
    EXPECT_EQ(t.servingGroup(0, 5), 1u);
}

TEST(RemapTable, LocateStaysInServingGroup)
{
    Fixture f;
    StreamRemapTable t(kUnits, kRowsPerUnit, kRowBytes, RemapMode::Modulo);
    t.setAlloc(0, twoGroupAlloc(), 8, f.noc);
    for (std::uint64_t g = 0; g < 5000; ++g) {
        const auto loc0 = t.locate(0, g, /*from=*/0);
        EXPECT_TRUE(loc0.unit == 0 || loc0.unit == 1) << loc0.unit;
        const auto loc1 = t.locate(0, g, /*from=*/4);
        EXPECT_TRUE(loc1.unit == 4 || loc1.unit == 5) << loc1.unit;
    }
}

TEST(RemapTable, LocateRowWithinAllocation)
{
    Fixture f;
    StreamRemapTable t(kUnits, kRowsPerUnit, kRowBytes, RemapMode::Modulo);
    auto alloc = twoGroupAlloc();
    alloc.rowBase = {10, 20, 0, 0, 30, 40, 0, 0};
    t.setAlloc(0, alloc, 8, f.noc);
    for (std::uint64_t g = 0; g < 5000; ++g) {
        const auto loc = t.locate(0, g, 0);
        const std::uint32_t base = alloc.rowBase[loc.unit];
        const std::uint32_t rows = alloc.shareRows[loc.unit];
        EXPECT_GE(loc.deviceRow, base);
        EXPECT_LT(loc.deviceRow, base + rows);
        EXPECT_LT(loc.unitSlot, t.unitSlots(0, loc.unit));
    }
}

TEST(RemapTable, LocateSpreadsAcrossUnitsByShare)
{
    Fixture f;
    StreamRemapTable t(kUnits, kRowsPerUnit, kRowBytes, RemapMode::Modulo);
    t.setAlloc(0, twoGroupAlloc(), 8, f.noc);
    std::map<UnitId, int> counts;
    for (std::uint64_t g = 0; g < 20000; ++g) {
        ++counts[t.locate(0, g, 0).unit];
    }
    // Unit 0 has 8 rows vs unit 1's 6: expect roughly 8:6 split.
    const double ratio =
        static_cast<double>(counts[0]) / static_cast<double>(counts[1]);
    EXPECT_NEAR(ratio, 8.0 / 6.0, 0.15);
}

TEST(RemapTable, OverAllocationFailsValidation)
{
    Fixture f;
    StreamRemapTable t(kUnits, 4, kRowBytes, RemapMode::Modulo);
    StreamAlloc a(kUnits);
    a.numGroups = 1;
    a.shareRows[0] = 5; // > 4 rows per unit
    t.setAlloc(0, a, 8, f.noc); // batch members may transiently overshoot
    EXPECT_EQ(t.freeRows(0), 0u);
    EXPECT_DEATH(t.validateCapacity(), "over-allocated");
}

TEST(RemapTable, ConsistentHashSurvivalOnShrink)
{
    Fixture f;
    StreamRemapTable t(kUnits, kRowsPerUnit, kRowBytes,
                       RemapMode::ConsistentHash);
    t.setAlloc(0, twoGroupAlloc(), 8, f.noc);
    auto shrunk = twoGroupAlloc();
    shrunk.shareRows = {6, 6, 0, 0, 4, 2, 0, 0}; // unit 0 loses 2 rows
    t.setAlloc(0, shrunk, 8, f.noc);
    EXPECT_NEAR(t.lastSurvivalFraction(0), 18.0 / 20.0, 1e-9);
    EXPECT_EQ(t.survivingRows(0).size(), 18u);
}

TEST(RemapTable, ModuloSurvivalOnlyWhenIdentical)
{
    Fixture f;
    StreamRemapTable t(kUnits, kRowsPerUnit, kRowBytes, RemapMode::Modulo);
    t.setAlloc(0, twoGroupAlloc(), 8, f.noc);
    t.setAlloc(0, twoGroupAlloc(), 8, f.noc); // identical
    EXPECT_DOUBLE_EQ(t.lastSurvivalFraction(0), 1.0);
    auto changed = twoGroupAlloc();
    changed.shareRows[0] = 7;
    t.setAlloc(0, changed, 8, f.noc);
    EXPECT_DOUBLE_EQ(t.lastSurvivalFraction(0), 0.0);
}

TEST(RemapTable, ConsistentHashKeepsMostMappingsStable)
{
    Fixture f;
    StreamRemapTable t(kUnits, kRowsPerUnit, kRowBytes,
                       RemapMode::ConsistentHash);
    StreamAlloc a(kUnits);
    a.numGroups = 1;
    a.shareRows = {16, 16, 16, 16, 0, 0, 0, 0};
    t.setAlloc(0, a, 8, f.noc);
    std::map<std::uint64_t, CacheLocation> before;
    for (std::uint64_t g = 0; g < 4000; ++g) {
        before[g] = t.locate(0, g, 0);
    }
    // Shrink one unit slightly.
    auto b = a;
    b.shareRows[3] = 12;
    t.setAlloc(0, b, 8, f.noc);
    int moved = 0;
    for (std::uint64_t g = 0; g < 4000; ++g) {
        const auto loc = t.locate(0, g, 0);
        if (loc.unit != before[g].unit
            || loc.deviceRow != before[g].deviceRow) {
            ++moved;
        }
    }
    // Only ~4/64 of the spots vanished; far fewer than half the keys move.
    EXPECT_LT(moved, 4000 / 2);
    EXPECT_GT(moved, 0);
}

/** Inverse of mix64 (each of its steps is a bijection on 64 bits). */
std::uint64_t
unmix64(std::uint64_t x)
{
    const auto unshift = [](std::uint64_t y, int s) {
        std::uint64_t v = y;
        for (int i = 0; i * s < 64; ++i) {
            v = y ^ (v >> s);
        }
        return v;
    };
    const auto inverse = [](std::uint64_t c) {
        std::uint64_t inv = c; // Newton's iteration: doubles the bits
        for (int i = 0; i < 6; ++i) {
            inv *= 2 - c * inv;
        }
        return inv;
    };
    x = unshift(x, 31);
    x *= inverse(0x94d049bb133111ebULL);
    x = unshift(x, 27);
    x *= inverse(0xbf58476d1ce4e5b9ULL);
    x = unshift(x, 30);
    return x - 0x9e3779b97f4a7c15ULL;
}

/**
 * Oracle: consistent-hash locate() as first written -- the whole ring
 * built from the spot identities, ordered by std::sort, searched with
 * std::lower_bound. One replication group; 256 B rows (one spot each).
 */
struct RingOracle
{
    struct Spot
    {
        std::uint64_t hash;
        UnitId unit;
        std::uint32_t rowOffset;

        bool operator<(const Spot& o) const { return hash < o.hash; }
    };

    static constexpr std::uint32_t kRowBytes = 256;
    StreamId sid;
    StreamAlloc alloc;
    std::uint32_t granule;
    std::vector<Spot> ring;

    static std::uint64_t
    streamSeed(StreamId sid)
    {
        return mix64(0x5757ULL + sid);
    }

    RingOracle(StreamId s, const StreamAlloc& a, std::uint32_t g)
        : sid(s), alloc(a), granule(g)
    {
        for (UnitId u = 0; u < alloc.shareRows.size(); ++u) {
            for (std::uint32_t r = 0; r < alloc.shareRows[u]; ++r) {
                const std::uint64_t id =
                    (static_cast<std::uint64_t>(sid) << 48)
                    ^ (static_cast<std::uint64_t>(u) << 32) ^ r;
                ring.push_back(Spot{mix64(id), u, r});
            }
        }
        std::sort(ring.begin(), ring.end());
    }

    /** Granule id whose lookup hash is exactly `h`. */
    std::uint64_t
    granuleFor(std::uint64_t h) const
    {
        return unmix64(h) ^ streamSeed(sid);
    }

    CacheLocation
    locate(std::uint64_t granule_id) const
    {
        const std::uint64_t h = mix64(granule_id ^ streamSeed(sid));
        auto it = std::lower_bound(ring.begin(), ring.end(), Spot{h, 0, 0});
        if (it == ring.end()) {
            it = ring.begin();
        }
        CacheLocation loc;
        loc.unit = it->unit;
        if (granule <= kRowBytes) {
            const std::uint64_t per_row = kRowBytes / granule;
            loc.unitSlot = it->rowOffset * per_row + mix64(h) % per_row;
            loc.deviceRow = alloc.rowBase[loc.unit] + it->rowOffset;
        } else {
            const std::uint64_t rows_per = granule / kRowBytes;
            const std::uint64_t slots =
                alloc.shareRows[loc.unit] * kRowBytes / granule;
            const std::uint64_t slot =
                std::min(it->rowOffset / rows_per, slots == 0 ? 0 : slots - 1);
            loc.unitSlot = slot;
            loc.deviceRow = alloc.rowBase[loc.unit]
                + static_cast<std::uint32_t>(slot * rows_per);
        }
        return loc;
    }
};

TEST(RemapTable, ConsistentHashLocateMatchesSortedRingOracle)
{
    Fixture f;
    std::vector<std::uint32_t> sizes = {1, 2, 3, 9973, 10007};
    for (std::uint32_t k = 2; k <= 12; ++k) {
        sizes.push_back((1u << k) - 1);
        sizes.push_back(1u << k);
        sizes.push_back((1u << k) + 1);
    }
    Rng rng(0x51);
    for (const std::uint32_t n : sizes) {
        // Spread n rows over 1-4 units of one group.
        const auto sid = static_cast<StreamId>(rng.nextBounded(512));
        StreamAlloc a(kUnits);
        a.numGroups = 1;
        const auto spread = static_cast<std::uint32_t>(
            1 + rng.nextBounded(std::min<std::uint32_t>(n, 4)));
        for (std::uint32_t i = 0; i < n; ++i) {
            ++a.shareRows[(i % spread) * 2];
        }
        for (UnitId u = 0; u < kUnits; ++u) {
            a.rowBase[u] = static_cast<std::uint32_t>(rng.nextBounded(64));
        }
        for (const std::uint32_t granule : {8u, 1024u}) {
            if (granule > RingOracle::kRowBytes && n < 16) {
                continue; // no unit holds a whole 4-row block
            }
            StreamRemapTable t(kUnits, 1u << 16, RingOracle::kRowBytes,
                               RemapMode::ConsistentHash);
            t.setAlloc(sid, a, granule, f.noc);
            const RingOracle oracle(sid, a, granule);
            ASSERT_EQ(oracle.ring.size(), n);

            std::vector<std::uint64_t> ids;
            for (int i = 0; i < 1000; ++i) {
                ids.push_back(rng.next());
            }
            // Keys landing exactly on, just below and just above spots,
            // plus both ends of the hash space (the wrap-around).
            for (std::size_t i = 0; i < oracle.ring.size();
                 i += 1 + oracle.ring.size() / 1000) {
                const std::uint64_t h = oracle.ring[i].hash;
                for (const std::uint64_t key : {h - 1, h, h + 1}) {
                    ids.push_back(oracle.granuleFor(key));
                }
            }
            ids.push_back(oracle.granuleFor(0));
            ids.push_back(
                oracle.granuleFor(std::numeric_limits<std::uint64_t>::max()));

            for (const std::uint64_t id : ids) {
                const CacheLocation want = oracle.locate(id);
                const CacheLocation got = t.locate(sid, id, 0);
                ASSERT_EQ(got.unit, want.unit) << "n=" << n << " id=" << id;
                ASSERT_EQ(got.deviceRow, want.deviceRow) << "n=" << n;
                ASSERT_EQ(got.unitSlot, want.unitSlot) << "n=" << n;
            }
        }
    }
}

/** Property sweep over granule sizes: locate() is always in-bounds. */
class RemapGranuleTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(RemapGranuleTest, LocateInBounds)
{
    Fixture f;
    const std::uint32_t granule = GetParam();
    for (const auto mode :
         {RemapMode::Modulo, RemapMode::ConsistentHash}) {
        StreamRemapTable t(kUnits, kRowsPerUnit, kRowBytes, mode);
        t.setAlloc(0, twoGroupAlloc(), granule, f.noc);
        for (std::uint64_t g = 0; g < 2000; ++g) {
            for (UnitId from = 0; from < kUnits; ++from) {
                const auto loc = t.locate(0, g, from);
                ASSERT_LT(loc.unit, kUnits);
                ASSERT_GT(t.unitSlots(0, loc.unit), loc.unitSlot);
                ASSERT_LT(loc.deviceRow, kRowsPerUnit);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Granules, RemapGranuleTest,
                         ::testing::Values(4u, 8u, 64u, 128u, 1024u,
                                           4096u));

} // namespace
} // namespace ndpext
