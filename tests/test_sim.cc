/** Tests for the simulation substrate: stats, events, resources. */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "sim/breakdown.h"
#include "sim/event_queue.h"
#include "sim/resource.h"
#include "sim/stats.h"

namespace ndpext {
namespace {

TEST(StatGroup, AddSetGet)
{
    StatGroup s;
    s.add("a.x", 2.0);
    s.add("a.x", 3.0);
    s.set("a.y", 7.0);
    EXPECT_DOUBLE_EQ(s.get("a.x"), 5.0);
    EXPECT_DOUBLE_EQ(s.get("a.y"), 7.0);
    EXPECT_DOUBLE_EQ(s.get("missing"), 0.0);
    EXPECT_TRUE(s.has("a.x"));
    EXPECT_FALSE(s.has("missing"));
}

TEST(StatGroup, MergeWithPrefix)
{
    StatGroup a;
    a.add("x", 1.0);
    StatGroup b;
    b.merge(a, "unit0");
    EXPECT_DOUBLE_EQ(b.get("unit0.x"), 1.0);
}

TEST(StatGroup, SumPrefix)
{
    StatGroup s;
    s.add("dram.reads", 5.0);
    s.add("dram.writes", 3.0);
    s.add("noc.hops", 11.0);
    EXPECT_DOUBLE_EQ(s.sumPrefix("dram."), 8.0);
    EXPECT_DOUBLE_EQ(s.sumPrefix("noc."), 11.0);
    EXPECT_DOUBLE_EQ(s.sumPrefix("zzz"), 0.0);
}

TEST(StatGroup, SumPrefixMatchesWholeSegmentsOnly)
{
    // "unit1" must not swallow "unit1x.*": prefixes match whole
    // dot-separated segments, not raw characters.
    StatGroup s;
    s.add("unit1", 1.0);
    s.add("unit1.dram.reads", 2.0);
    s.add("unit1.dram.writes", 4.0);
    s.add("unit1x.dram.reads", 100.0);
    s.add("unit10.dram.reads", 200.0);
    EXPECT_DOUBLE_EQ(s.sumPrefix("unit1"), 7.0);
    EXPECT_DOUBLE_EQ(s.sumPrefix("unit1x"), 100.0);
    EXPECT_DOUBLE_EQ(s.sumPrefix("unit1.dram"), 6.0);
    // Trailing dot keeps plain string-prefix semantics (no exact-name
    // match, no segment check).
    EXPECT_DOUBLE_EQ(s.sumPrefix("unit1."), 6.0);
    // Empty prefix sums everything.
    EXPECT_DOUBLE_EQ(s.sumPrefix(""), 307.0);
}

TEST(StatGroup, MergePrefixCollisionAccumulates)
{
    // Merging under a prefix that collides with an existing name adds
    // into it rather than overwriting.
    StatGroup a;
    a.add("x", 1.0);
    StatGroup b;
    b.add("unit1.x", 10.0);
    b.merge(a, "unit1");
    EXPECT_DOUBLE_EQ(b.get("unit1.x"), 11.0);
}

TEST(StatGroup, AbsorbIsSameNameReduction)
{
    StatGroup shard0;
    shard0.add("noc.hops", 5.0);
    shard0.add("noc.flits", 2.0);
    StatGroup shard1;
    shard1.add("noc.hops", 7.0);
    shard1.add("ext.reads", 3.0);
    shard0.absorb(shard1);
    EXPECT_DOUBLE_EQ(shard0.get("noc.hops"), 12.0);
    EXPECT_DOUBLE_EQ(shard0.get("noc.flits"), 2.0);
    EXPECT_DOUBLE_EQ(shard0.get("ext.reads"), 3.0);
}

TEST(StatGroup, DumpJsonOrderedAndRoundTrippable)
{
    StatGroup s;
    s.add("b.y", 2.5);
    s.add("a.x", 1.0);
    std::ostringstream oss;
    s.dumpJson(oss);
    EXPECT_EQ(oss.str(), "{\n  \"a.x\": 1,\n  \"b.y\": 2.5\n}");
}

TEST(StatGroup, DumpJsonEmptyGroup)
{
    StatGroup s;
    std::ostringstream oss;
    s.dumpJson(oss);
    EXPECT_EQ(oss.str(), "{}");
}

TEST(StatGroup, DumpOrdered)
{
    StatGroup s;
    s.add("b", 2.0);
    s.add("a", 1.0);
    std::ostringstream oss;
    s.dump(oss);
    EXPECT_EQ(oss.str(), "a 1\nb 2\n");
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> fired;
    q.schedule(30, [&](Cycles) { fired.push_back(3); });
    q.schedule(10, [&](Cycles) { fired.push_back(1); });
    q.schedule(20, [&](Cycles) { fired.push_back(2); });
    q.runAll();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> fired;
    q.schedule(5, [&](Cycles) { fired.push_back(1); });
    q.schedule(5, [&](Cycles) { fired.push_back(2); });
    q.runAll();
    EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RunUntilStopsEarly)
{
    EventQueue q;
    int count = 0;
    q.schedule(10, [&](Cycles) { ++count; });
    q.schedule(100, [&](Cycles) { ++count; });
    q.runUntil(50);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(q.now(), 50u);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.nextTick(), 100u);
}

TEST(EventQueue, RunUntilKeepsSameTickFifoOrder)
{
    // Draining up to a boundary must preserve FIFO order among
    // same-tick events, including ones scheduled from callbacks.
    EventQueue q;
    std::vector<int> fired;
    q.schedule(10, [&](Cycles now) {
        fired.push_back(1);
        q.schedule(now, [&](Cycles) { fired.push_back(3); });
    });
    q.schedule(10, [&](Cycles) { fired.push_back(2); });
    q.runUntil(10);
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTickAfterPartialDrain)
{
    EventQueue q;
    q.schedule(10, [](Cycles) {});
    q.schedule(20, [](Cycles) {});
    q.schedule(30, [](Cycles) {});
    EXPECT_EQ(q.nextTick(), 10u);
    q.runUntil(15);
    EXPECT_EQ(q.nextTick(), 20u);
    EXPECT_EQ(q.size(), 2u);
    q.runUntil(20);
    EXPECT_EQ(q.nextTick(), 30u);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.now(), 20u);
}

TEST(EventQueue, RunUntilBoundaryIsInclusive)
{
    EventQueue q;
    int count = 0;
    q.schedule(10, [&](Cycles) { ++count; });
    q.runUntil(10);
    EXPECT_EQ(count, 1) << "events at exactly `until` must fire";
    EXPECT_EQ(q.now(), 10u);
}

TEST(EventQueue, CallbackCanReschedule)
{
    EventQueue q;
    int count = 0;
    std::function<void(Cycles)> cb = [&](Cycles now) {
        ++count;
        if (count < 3) {
            q.schedule(now + 10, cb);
        }
    };
    q.schedule(0, cb);
    q.runAll();
    EXPECT_EQ(count, 3);
    EXPECT_EQ(q.now(), 20u);
}

TEST(EventQueueDeathTest, SchedulingInThePastIsAHardError)
{
    // A past-dated event would silently reorder time; the queue must
    // reject it loudly rather than fire it out of order.
    EventQueue q;
    q.schedule(10, [](Cycles) {});
    q.runAll();
    EXPECT_EQ(q.now(), 10u);
    EXPECT_DEATH(q.schedule(5, [](Cycles) {}), "scheduling in the past");
}

TEST(BandwidthResource, NoContentionStartsImmediately)
{
    BandwidthResource r(16.0);
    EXPECT_EQ(r.reserve(64, 100), 100u);
    EXPECT_EQ(r.serviceCycles(64), 4u);
}

TEST(BandwidthResource, BackToBackQueues)
{
    BandwidthResource r(16.0);
    EXPECT_EQ(r.reserve(64, 0), 0u);  // busy until 4
    EXPECT_EQ(r.reserve(64, 0), 4u);  // queued
    EXPECT_EQ(r.reserve(64, 100), 100u); // idle again
    EXPECT_EQ(r.reservations(), 3u);
    EXPECT_EQ(r.totalQueueCycles(), 4u);
}

TEST(BandwidthResource, FractionalBandwidthRoundsUp)
{
    BandwidthResource r(0.5); // half a byte per cycle
    EXPECT_EQ(r.serviceCycles(3), 6u);
    EXPECT_EQ(r.serviceCycles(1), 2u);
}

TEST(BandwidthResource, OutOfOrderReservationFillsGaps)
{
    // A reservation far in the future must not delay an earlier request:
    // the gap-filling interval model is what keeps end-to-end analytic
    // evaluation from fabricating phantom queueing.
    BandwidthResource r(16.0);
    EXPECT_EQ(r.reserve(64, 10000), 10000u);
    EXPECT_EQ(r.reserve(64, 0), 0u); // earlier arrival, free gap
    EXPECT_EQ(r.reserve(64, 9998), 9998u + 6u)
        << "overlap with the future interval queues behind it";
}

TEST(BandwidthResource, GapTooSmallSkipsToNextSlot)
{
    BandwidthResource r(16.0); // 64 B = 4 cycles
    r.reserveFor(4, 0);   // [0,4)
    r.reserveFor(4, 6);   // [6,10)
    // A 4-cycle job arriving at 3 cannot fit into [4,6); lands at 10.
    EXPECT_EQ(r.reserveFor(4, 3), 10u);
    // A 2-cycle job arriving at 3 fits the [4,6) gap.
    EXPECT_EQ(r.reserveFor(2, 3), 4u);
}

TEST(BandwidthResource, ReserveForZeroTakesOneCycle)
{
    BandwidthResource r(1.0);
    EXPECT_EQ(r.reserveFor(0, 5), 5u);
    EXPECT_EQ(r.reserveFor(0, 5), 6u);
}

TEST(BandwidthResource, NextFreeTracksLatestInterval)
{
    BandwidthResource r(16.0);
    r.reserve(64, 100);
    r.reserve(64, 10);
    EXPECT_EQ(r.nextFree(), 104u);
}

/**
 * Oracle: the first-fit busy list as first written -- a sorted vector
 * walked linearly from the front, with the same 128-interval drop-oldest
 * cap.
 */
struct FirstFitOracle
{
    struct Interval
    {
        Cycles start;
        Cycles end;
    };

    double bytesPerCycle;
    std::vector<Interval> ivs;
    std::uint64_t reservations = 0;
    Cycles queueCycles = 0;

    Cycles
    serviceCycles(std::uint64_t bytes) const
    {
        const double c = static_cast<double>(bytes) / bytesPerCycle;
        const auto whole = static_cast<Cycles>(c);
        return whole + (static_cast<double>(whole) < c ? 1 : 0);
    }

    Cycles
    reserveFor(Cycles duration, Cycles now)
    {
        duration = std::max<Cycles>(duration, 1);
        auto it = ivs.begin();
        while (it != ivs.end() && it->end <= now) {
            ++it;
        }
        Cycles t = now;
        for (; it != ivs.end() && it->start < t + duration; ++it) {
            t = it->end;
        }
        ivs.insert(it, Interval{t, t + duration});
        if (ivs.size() > 128) {
            ivs.erase(ivs.begin());
        }
        ++reservations;
        queueCycles += t - now;
        return t;
    }

    Cycles nextFree() const { return ivs.empty() ? 0 : ivs.back().end; }
};

/**
 * Next arrival for a list in the oracle's state. Arrivals land near the
 * tail as on the engine's hot lists (about 37% exactly at its end, 63%
 * within 3 intervals, 88% within 15, 99.7% within 63); the rest arrive
 * before every tracked interval, where the 128-interval cap bites.
 */
Cycles
tailBiasedArrival(const FirstFitOracle& o, Rng& rng)
{
    if (o.ivs.empty()) {
        return rng.nextBounded(100);
    }
    const std::uint64_t r = rng.nextBounded(1000);
    const std::size_t n = o.ivs.size();
    std::size_t distance = 0;
    if (r < 370) {
        // At the tail end, or idle time after it.
        return o.ivs.back().end + (rng.nextBool(0.8) ? 0 : rng.nextBounded(9));
    } else if (r < 630) {
        distance = 1 + rng.nextBounded(3);
    } else if (r < 880) {
        distance = 4 + rng.nextBounded(12);
    } else if (r < 997) {
        distance = 16 + rng.nextBounded(48);
    } else {
        const Cycles first = o.ivs.front().start;
        return first - std::min<Cycles>(first, rng.nextBounded(200));
    }
    const auto& iv = o.ivs[n - 1 - std::min(distance, n - 1)];
    // Inside the interval, at its start, or in the gap before it.
    return iv.start - std::min<Cycles>(iv.start, rng.nextBounded(4))
        + rng.nextBounded(iv.end - iv.start + 1);
}

TEST(BandwidthResource, MatchesFirstFitOracle)
{
    for (const double bw : {16.0, 0.75, 16.0 / 3.0}) {
        Rng rng(0xb05e + static_cast<std::uint64_t>(bw * 1000));
        FirstFitOracle o{bw, {}};
        // The original, then (from mid-run) a restored checkpoint and a
        // copy, all kept in lockstep with the oracle.
        std::vector<BandwidthResource> live(1, BandwidthResource(bw));
        constexpr int kSteps = 120000;
        for (int i = 0; i < kSteps; ++i) {
            if (i == kSteps / 2) {
                ckpt::Writer w;
                live[0].serialize(w);
                ckpt::Reader rd(w.bytes());
                BandwidthResource restored(bw);
                restored.deserialize(rd);
                EXPECT_TRUE(rd.atEnd());
                const BandwidthResource copied(live[0]);
                live.push_back(std::move(restored));
                live.push_back(copied);
            }
            const Cycles now = tailBiasedArrival(o, rng);
            const std::uint64_t kind = rng.nextBounded(4);
            const Cycles d = kind == 0 ? 0 : rng.nextBounded(40);
            const std::uint64_t bytes = 1 + rng.nextBounded(256);
            const Cycles service = o.serviceCycles(bytes);
            const Cycles expect = o.reserveFor(kind < 2 ? d : service, now);
            for (BandwidthResource& r : live) {
                Cycles got = 0;
                if (kind < 2) {
                    got = r.reserveFor(d, now); // d == 0 takes one cycle
                } else if (kind == 2) {
                    got = r.reserve(bytes, now);
                } else {
                    ASSERT_EQ(r.serviceCycles(bytes), service);
                    got = r.reserveUntilDone(bytes, now) - service;
                }
                ASSERT_EQ(got, expect) << "step " << i << " now " << now;
                ASSERT_EQ(r.reservations(), o.reservations);
                ASSERT_EQ(r.totalQueueCycles(), o.queueCycles);
                ASSERT_EQ(r.nextFree(), o.nextFree());
            }
        }
        // The cap was reached, so far-past arrivals met a full list.
        EXPECT_EQ(o.ivs.size(), 128u);
        EXPECT_GT(o.queueCycles, 0u);
    }
}

TEST(LatencyBreakdown, TotalsAndAverages)
{
    LatencyBreakdown bd;
    bd.metadata = 10;
    bd.icnIntra = 20;
    bd.icnInter = 30;
    bd.dramCache = 40;
    bd.extMem = 50;
    bd.requests = 10;
    EXPECT_EQ(bd.total(), 150u);
    EXPECT_EQ(bd.icn(), 50u);
    EXPECT_DOUBLE_EQ(bd.avg(bd.extMem), 5.0);
}

} // namespace
} // namespace ndpext
