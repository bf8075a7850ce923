/**
 * Per-layer microbenchmarks of the engine's per-access lookup kernels
 * (busy-list reservation, consistent-hash locate and ring rebuild,
 * miss-curve sampler observe, the checkpoint CRC) and of the epoch
 * barrier. Each case times one component in isolation on
 * google-benchmark, so a change to one kernel can be measured without
 * the noise of a whole simulation. Advisory only: no baseline gates
 * these numbers.
 *
 *     ./build/bench/bench_layers [--benchmark_filter=Locate]
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "ndp/remap_table.h"
#include "noc/noc_model.h"
#include "sampler/sampler.h"
#include "sim/checkpoint.h"
#include "sim/resource.h"
#include "sim/sharded_executor.h"

using namespace ndpext;

namespace {

/**
 * Reservations whose arrivals sit near the busy list's tail, as on the
 * engine's hot lists: about 37% after its end, 63% within 3 intervals,
 * 88% within 15, 99.7% within 63, the rest far in the past. Transfers
 * take 4 cycles (64 B at 16 B/cycle); an arrival after the tail idles
 * the resource for 60 cycles, so a list settles at about one interval
 * per 25 cycles with most gaps free, and an arrival k intervals back is
 * drawn 25k cycles before the tail. Reservations go to 4096 lists in
 * random order (the engine has about 5k), so the lists do not all stay
 * in cache.
 */
void
BM_ReserveTailMix(benchmark::State& state)
{
    constexpr Cycles kSpacing = 25;
    constexpr Cycles kIdle = 60;
    std::vector<Cycles> back; // cycles before the tail; 0 = after it
    std::vector<std::uint32_t> list;
    Rng rng(1);
    for (int i = 0; i < 1 << 16; ++i) {
        list.push_back(static_cast<std::uint32_t>(rng.nextBounded(4096)));
        const std::uint64_t r = rng.nextBounded(1000);
        std::uint64_t intervals = 0;
        if (r < 370) {
            intervals = 0;
        } else if (r < 630) {
            intervals = 1 + rng.nextBounded(3);
        } else if (r < 880) {
            intervals = 4 + rng.nextBounded(12);
        } else if (r < 997) {
            intervals = 16 + rng.nextBounded(48);
        } else {
            intervals = 1000;
        }
        back.push_back(intervals * kSpacing);
    }
    std::vector<BandwidthResource> lists(4096, BandwidthResource(16.0));
    std::size_t i = 0;
    for (auto _ : state) {
        BandwidthResource& res = lists[list[i]];
        const Cycles tail = res.nextFree();
        const Cycles b = back[i];
        const Cycles now = b == 0 ? tail + kIdle : (tail > b ? tail - b : 0);
        benchmark::DoNotOptimize(res.reserve(64, now));
        i = (i + 1) & (back.size() - 1);
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_ReserveTailMix);

/** One consistent-hash group of `rows` 256 B rows (one spot each). */
struct RingFixture
{
    MeshTopology topo{2, 1, 2, 2};
    NocParams nocParams;
    NocModel noc{topo, nocParams};
    StreamRemapTable table{8, 1u << 16, 256, RemapMode::ConsistentHash};

    StreamAlloc
    alloc(std::uint32_t rows) const
    {
        StreamAlloc a(8);
        a.numGroups = 1;
        for (std::uint32_t u = 0; u < 4; ++u) {
            a.shareRows[u] = rows / 4 + (u < rows % 4 ? 1 : 0);
        }
        return a;
    }
};

void
BM_Locate(benchmark::State& state)
{
    RingFixture f;
    const auto rows = static_cast<std::uint32_t>(state.range(0));
    f.table.setAlloc(3, f.alloc(rows), 64, f.noc);
    std::uint64_t id = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.table.locate(3, id++, 0));
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_Locate)->Arg(600)->Arg(4000)->Arg(10000);

/** setAlloc alternating two shapes, so every call rebuilds the ring. */
void
BM_SetAllocRebuild(benchmark::State& state)
{
    RingFixture f;
    const auto rows = static_cast<std::uint32_t>(state.range(0));
    const StreamAlloc shapes[2] = {f.alloc(rows), f.alloc(rows - 4)};
    std::size_t i = 0;
    for (auto _ : state) {
        f.table.setAlloc(3, shapes[i++ & 1], 64, f.noc);
    }
    state.SetItemsProcessed(state.iterations() * rows);
}

BENCHMARK(BM_SetAllocRebuild)
    ->Arg(600)
    ->Arg(6500)
    ->Unit(benchmark::kMicrosecond);

/** One sampler (64 capacity cases) observing a Zipf stream. */
void
BM_SamplerObserve(benchmark::State& state)
{
    MissCurveSampler sampler{SamplerParams{}};
    sampler.configure(5, static_cast<std::uint32_t>(state.range(0)));
    ZipfSampler zipf(1 << 20, 0.9, 7);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 4096; ++i) {
        ids.push_back(zipf.next());
    }
    std::size_t i = 0;
    for (auto _ : state) {
        sampler.observe(ids[i++ & (ids.size() - 1)]);
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_SamplerObserve)->Arg(8)->Arg(64)->Arg(4096);

void
BM_Crc32(benchmark::State& state)
{
    std::vector<std::uint8_t> buf(1u << 20);
    Rng rng(3);
    for (std::uint8_t& b : buf) {
        b = static_cast<std::uint8_t>(rng.next());
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(ckpt::crc32(buf.data(), buf.size()));
    }
    const auto bytes = static_cast<std::int64_t>(buf.size());
    state.SetBytesProcessed(state.iterations() * bytes);
}

BENCHMARK(BM_Crc32)->Unit(benchmark::kMicrosecond);

/**
 * One forEachShard round trip with empty shard bodies on one thread per
 * shard (the default): the fixed cost every epoch barrier pays to wake
 * the workers and wait for them. Real time, since the caller mostly
 * waits. With empty bodies the caller may claim every shard before a
 * worker wakes, so this is a lower bound on a real barrier's cost.
 */
void
BM_ShardBarrier(benchmark::State& state)
{
    const auto shards = static_cast<std::size_t>(state.range(0));
    ShardedExecutor exec(static_cast<std::uint32_t>(shards));
    const std::function<void(std::size_t)> body = [](std::size_t) {};
    for (auto _ : state) {
        exec.forEachShard(shards, body);
    }
}

BENCHMARK(BM_ShardBarrier)->Arg(2)->Arg(8)->UseRealTime();

} // namespace

BENCHMARK_MAIN();
