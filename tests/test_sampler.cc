/** Tests for miss curves and the set-based samplers. */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "sampler/miss_curve.h"
#include "sampler/sampler.h"

namespace ndpext {
namespace {

SamplerParams
smallParams()
{
    SamplerParams p;
    p.kSets = 32;
    p.numCapacities = 16;
    p.minCapacityBytes = 1_KiB;
    p.maxCapacityBytes = 1_MiB;
    return p;
}

TEST(MissCurve, InterpolationAndClamping)
{
    MissCurve c({1024, 4096, 16384}, {100.0, 50.0, 10.0});
    EXPECT_DOUBLE_EQ(c.missesAt(512), 100.0);
    EXPECT_DOUBLE_EQ(c.missesAt(1024), 100.0);
    EXPECT_DOUBLE_EQ(c.missesAt(16384), 10.0);
    EXPECT_DOUBLE_EQ(c.missesAt(1_MiB), 10.0);
    const double mid = c.missesAt(2048);
    EXPECT_LT(mid, 100.0);
    EXPECT_GT(mid, 50.0);
}

TEST(MissCurve, EnforcesMonotonicity)
{
    MissCurve c({1024, 4096}, {50.0, 80.0}); // noisy increase clamped
    EXPECT_DOUBLE_EQ(c.missesAt(4096), 50.0);
}

TEST(MissCurve, NextPointAndSlope)
{
    MissCurve c({1024, 4096, 16384}, {100.0, 50.0, 10.0});
    EXPECT_EQ(c.nextPointAbove(0), 1024u);
    EXPECT_EQ(c.nextPointAbove(1024), 4096u);
    EXPECT_EQ(c.nextPointAbove(16384), 0u);
    EXPECT_GT(c.slopeAt(1024), 0.0);
    EXPECT_DOUBLE_EQ(c.slopeAt(16384), 0.0);
}

TEST(MissCurve, EmptyCurveIsSafe)
{
    MissCurve c;
    EXPECT_TRUE(c.empty());
    EXPECT_DOUBLE_EQ(c.missesAt(1024), 0.0);
    EXPECT_EQ(c.nextPointAbove(0), 0u);
}

TEST(Sampler, GeometricCapacities)
{
    MissCurveSampler s(smallParams());
    const auto& caps = s.capacities();
    ASSERT_EQ(caps.size(), 16u);
    EXPECT_EQ(caps.front(), 1_KiB);
    EXPECT_EQ(caps.back(), 1_MiB);
    for (std::size_t i = 1; i < caps.size(); ++i) {
        EXPECT_GT(caps[i], caps[i - 1]);
    }
}

TEST(Sampler, SmallWorkingSetHitsAtLargeCapacity)
{
    MissCurveSampler s(smallParams());
    s.configure(0, 64);
    // Working set of 64 granules x 64 B = 4 kB, looped many times.
    for (int rep = 0; rep < 200; ++rep) {
        for (std::uint64_t g = 0; g < 64; ++g) {
            s.observe(g);
        }
    }
    const MissCurve c = s.curve(12800);
    // At 1 MiB everything fits: near-zero miss rate.
    EXPECT_LT(c.missesAt(1_MiB) / 12800.0, 0.1);
    // At 1 KiB the set does not fit: high miss rate.
    EXPECT_GT(c.missesAt(1_KiB) / 12800.0, 0.5);
}

TEST(Sampler, RandomStreamKeepsMissingEverywhere)
{
    MissCurveSampler s(smallParams());
    s.configure(0, 64);
    Rng rng(5);
    // Working set far beyond max capacity, uniformly random.
    for (int i = 0; i < 100000; ++i) {
        s.observe(rng.nextBounded(1u << 22));
    }
    const MissCurve c = s.curve(100000);
    EXPECT_GT(c.missesAt(1_MiB) / 100000.0, 0.7);
}

TEST(Sampler, CurveIsMonotoneNonIncreasing)
{
    MissCurveSampler s(smallParams());
    s.configure(0, 64);
    Rng rng(9);
    ZipfSampler zipf(1 << 16, 0.8, 11);
    for (int i = 0; i < 50000; ++i) {
        s.observe(zipf.next());
    }
    const MissCurve c = s.curve(50000);
    for (std::size_t i = 1; i < c.numPoints(); ++i) {
        EXPECT_LE(c.misses()[i], c.misses()[i - 1] + 1e-9);
    }
}

/**
 * Oracle: MissCurveSampler's shadow-set state as first written, with
 * hardware `%` and `/`. state() is laid out like serialize(), so the two
 * compare byte for byte.
 */
struct SamplerOracle
{
    struct Case
    {
        std::uint64_t totalSlots = 0;
        std::uint64_t sampleStep = 0;
        std::vector<std::uint64_t> tags;
        std::uint64_t observed = 0;
        std::uint64_t hits = 0;
    };

    StreamId sid = kNoStream;
    std::uint32_t granule = 0;
    std::vector<Case> cases;
    std::uint64_t accesses = 0;

    /** The state configure(sid, granule) leaves in `s`. */
    static SamplerOracle
    configured(const MissCurveSampler& s, StreamId sid, std::uint32_t granule)
    {
        SamplerOracle o;
        o.sid = sid;
        o.granule = granule;
        const std::uint32_t k = s.params().kSets;
        for (const std::uint64_t cap : s.capacities()) {
            Case c;
            c.totalSlots = std::max<std::uint64_t>(1, cap / granule);
            c.sampleStep = std::max<std::uint64_t>(1, c.totalSlots / k);
            c.tags.assign(std::min<std::uint64_t>(k, c.totalSlots), 0);
            o.cases.push_back(std::move(c));
        }
        return o;
    }

    void
    observe(std::uint64_t granule_id)
    {
        ++accesses;
        const std::uint64_t h = mix64(granule_id ^ mix64(0xa11ce + sid));
        for (Case& c : cases) {
            const std::uint64_t slot = h % c.totalSlots;
            if (slot % c.sampleStep != 0) {
                continue;
            }
            const std::uint64_t idx = slot / c.sampleStep;
            if (idx >= c.tags.size()) {
                continue;
            }
            ++c.observed;
            if (c.tags[idx] == granule_id + 1) {
                ++c.hits;
            } else {
                c.tags[idx] = granule_id + 1;
            }
        }
    }

    std::vector<std::uint8_t>
    state() const
    {
        ckpt::Writer w;
        w.u32(sid);
        w.u32(granule);
        w.u64(cases.size());
        for (const Case& c : cases) {
            w.u64(c.totalSlots);
            w.u64(c.sampleStep);
            w.vecU64(c.tags);
            w.u64(c.observed);
            w.u64(c.hits);
        }
        w.u64(accesses);
        return w.bytes();
    }
};

std::vector<std::uint8_t>
stateOf(const MissCurveSampler& s)
{
    ckpt::Writer w;
    s.serialize(w);
    return w.bytes();
}

TEST(Sampler, ShadowSetsMatchDivisionOracle)
{
    // 1 KiB..256 MiB: a 4 KiB granule gives single-slot cases, and small
    // capacities give sampleStep == 1.
    SamplerParams p;
    p.minCapacityBytes = 1_KiB;
    p.maxCapacityBytes = 256_MiB;
    bool saw_unit_step = false;
    bool saw_single_slot = false;
    for (const std::uint32_t granule : {8u, 24u, 64u, 1000u, 4096u}) {
        MissCurveSampler s(p);
        s.configure(7, granule);
        SamplerOracle o = SamplerOracle::configured(s, 7, granule);
        ASSERT_EQ(stateOf(s), o.state());
        for (const auto& c : o.cases) {
            saw_unit_step |= c.sampleStep == 1;
            saw_single_slot |= c.totalSlots == 1;
        }

        std::vector<MissCurveSampler> live(1, s);
        Rng rng(granule);
        ZipfSampler zipf(1 << 16, 0.8, granule + 1);
        constexpr int kSteps = 40000;
        for (int i = 0; i < kSteps; ++i) {
            if (i == kSteps / 2) {
                ckpt::Writer w;
                live[0].serialize(w);
                ckpt::Reader r(w.bytes());
                MissCurveSampler restored(p);
                restored.deserialize(r);
                EXPECT_TRUE(r.atEnd());
                live.push_back(std::move(restored));
            }
            std::uint64_t id = 0;
            const std::uint64_t kind = rng.nextBounded(8);
            if (kind < 4) {
                id = rng.nextBounded(64); // small loop: hits everywhere
            } else if (kind < 7) {
                id = zipf.next();
            } else {
                id = std::numeric_limits<std::uint64_t>::max()
                    - rng.nextBounded(4);
            }
            o.observe(id);
            for (MissCurveSampler& sampler : live) {
                sampler.observe(id);
            }
            if (i % 997 == 0 || i + 1 == kSteps) {
                for (const MissCurveSampler& sampler : live) {
                    ASSERT_EQ(stateOf(sampler), o.state())
                        << "granule " << granule << " step " << i;
                }
            }
        }
        std::uint64_t hits = 0;
        for (const auto& c : o.cases) {
            hits += c.hits;
        }
        EXPECT_GT(hits, 0u);
    }
    EXPECT_TRUE(saw_unit_step);
    EXPECT_TRUE(saw_single_slot);
}

TEST(Sampler, DeassignClearsState)
{
    MissCurveSampler s(smallParams());
    s.configure(3, 64);
    s.observe(1);
    EXPECT_TRUE(s.assigned());
    s.configure(kNoStream, 0);
    EXPECT_FALSE(s.assigned());
    EXPECT_EQ(s.accesses(), 0u);
}

TEST(SamplerBank, TracksBitvectorAndCounts)
{
    SamplerBank bank(4, smallParams());
    bank.assign({{2, 64}, {5, 8}});
    bank.observe(2, 10);
    bank.observe(2, 11);
    bank.observe(9, 1); // not sampled, still counted
    EXPECT_TRUE(bank.accessedBitvector()[2]);
    EXPECT_TRUE(bank.accessedBitvector()[9]);
    EXPECT_FALSE(bank.accessedBitvector()[3]);
    EXPECT_EQ(bank.accessCount(2), 2u);
    EXPECT_EQ(bank.accessCount(9), 1u);
    ASSERT_NE(bank.samplerFor(2), nullptr);
    EXPECT_EQ(bank.samplerFor(2)->accesses(), 2u);
    EXPECT_EQ(bank.samplerFor(9), nullptr);
}

TEST(SamplerBank, NewEpochClearsCountersNotAssignments)
{
    SamplerBank bank(4, smallParams());
    bank.assign({{2, 64}});
    bank.observe(2, 10);
    bank.newEpoch();
    EXPECT_FALSE(bank.accessedBitvector()[2]);
    EXPECT_EQ(bank.accessCount(2), 0u);
    ASSERT_NE(bank.samplerFor(2), nullptr); // still assigned
}

TEST(MissCurve, ZeroMissesEnablesFirstSegmentSlope)
{
    MissCurve c({1024, 4096}, {100.0, 100.0}); // flat measured curve
    EXPECT_DOUBLE_EQ(c.slopeAt(0), 0.0);
    c.setZeroMisses(1000.0);
    EXPECT_GT(c.slopeAt(0), 0.0);
    EXPECT_DOUBLE_EQ(c.missesAt(0), 1000.0);
    EXPECT_DOUBLE_EQ(c.missesAt(1024), 100.0);
}

TEST(MissCurve, ZeroMissesClampedToFirstPoint)
{
    MissCurve c({1024}, {100.0});
    c.setZeroMisses(5.0); // below the first point: clamped up
    EXPECT_DOUBLE_EQ(c.zeroMisses(), 100.0);
}

TEST(MissCurve, BestSegmentSeesPastFlatRegions)
{
    // Flat from 1k to 4k, cliff at 16k: one-point slope at 1024 is zero
    // but the lookahead must find the 16k target.
    MissCurve c({1024, 4096, 16384}, {100.0, 100.0, 10.0});
    EXPECT_DOUBLE_EQ(c.slopeAt(1024), 0.0);
    const auto seg = c.bestSegment(1024);
    EXPECT_EQ(seg.target, 16384u);
    EXPECT_GT(seg.slope, 0.0);
}

TEST(MissCurve, BestSegmentAtEndIsEmpty)
{
    MissCurve c({1024, 4096}, {100.0, 50.0});
    const auto seg = c.bestSegment(4096);
    EXPECT_EQ(seg.target, 0u);
    EXPECT_DOUBLE_EQ(seg.slope, 0.0);
}

TEST(MissCurve, PointwiseMinBlends)
{
    MissCurve a({1024, 4096}, {100.0, 80.0});
    MissCurve b({1024, 4096}, {90.0, 95.0});
    a.setZeroMisses(120.0);
    b.setZeroMisses(110.0);
    const auto m = MissCurve::pointwiseMin(a, b);
    EXPECT_DOUBLE_EQ(m.missesAt(1024), 90.0);
    EXPECT_DOUBLE_EQ(m.missesAt(4096), 80.0);
    EXPECT_DOUBLE_EQ(m.zeroMisses(), 120.0);
}

TEST(SamplerBank, ReassignmentKeepsMatchingStreams)
{
    SamplerBank bank(4, smallParams());
    bank.assign({{2, 64}, {5, 8}});
    bank.observe(2, 10);
    bank.observe(2, 10);
    // Stream 2 stays assigned: its shadow-set state must persist so
    // reuse accumulates across epochs.
    bank.assign({{2, 64}, {7, 8}});
    ASSERT_NE(bank.samplerFor(2), nullptr);
    EXPECT_EQ(bank.samplerFor(2)->accesses(), 2u);
    // Stream 5 was dropped, 7 added fresh.
    EXPECT_EQ(bank.samplerFor(5), nullptr);
    ASSERT_NE(bank.samplerFor(7), nullptr);
    EXPECT_EQ(bank.samplerFor(7)->accesses(), 0u);
}

/** Property: different k values produce consistent curve shapes. */
class SamplerKTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(SamplerKTest, WorkingSetKneeDetected)
{
    SamplerParams p = smallParams();
    p.kSets = GetParam();
    MissCurveSampler s(p);
    s.configure(0, 64);
    // 256-granule working set = 16 kB.
    for (int rep = 0; rep < 100; ++rep) {
        for (std::uint64_t g = 0; g < 256; ++g) {
            s.observe(g);
        }
    }
    const MissCurve c = s.curve(25600);
    // Well above the knee: low misses; well below: high misses.
    EXPECT_LT(c.missesAt(256_KiB), c.missesAt(2_KiB));
}

INSTANTIATE_TEST_SUITE_P(KSets, SamplerKTest,
                         ::testing::Values(8u, 16u, 32u, 64u, 128u));

} // namespace
} // namespace ndpext
