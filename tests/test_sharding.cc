/**
 * Determinism regression for the sharded epoch-parallel executor: the
 * shard decomposition is fixed (one shard per stack), so every
 * numThreads value must produce a bit-identical RunResult -- cycles,
 * latency breakdown, energy, degraded counters, and the full StatGroup.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serving/serving_workload.h"
#include "sim/sharded_executor.h"
#include "system/ndp_system.h"
#include "telemetry/telemetry.h"
#include "workloads/workload.h"

namespace ndpext {
namespace {

SystemConfig
tinyConfig(std::uint32_t threads)
{
    SystemConfig cfg = SystemConfig::scaledDefault();
    cfg.stacksX = 2;
    cfg.stacksY = 1;
    cfg.unitsX = 2;
    cfg.unitsY = 2; // 8 units, 2 shards
    cfg.unitCacheBytes = 256_KiB;
    cfg.runtime.epochCycles = 200'000;
    cfg.numThreads = threads;
    cfg.finalize();
    return cfg;
}

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.numCores = 8;
    p.footprintBytes = 16_MiB;
    p.accessesPerCore = 4000;
    p.seed = 7;
    return p;
}

/** Assert two runs are bit-identical in every reported quantity. */
void
expectIdentical(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.l1Hits, b.l1Hits);

    EXPECT_EQ(a.bd.requests, b.bd.requests);
    EXPECT_EQ(a.bd.metadata, b.bd.metadata);
    EXPECT_EQ(a.bd.icnIntra, b.bd.icnIntra);
    EXPECT_EQ(a.bd.icnInter, b.bd.icnInter);
    EXPECT_EQ(a.bd.dramCache, b.bd.dramCache);
    EXPECT_EQ(a.bd.extMem, b.bd.extMem);

    EXPECT_DOUBLE_EQ(a.missRate, b.missRate);
    EXPECT_DOUBLE_EQ(a.metadataHitRate, b.metadataHitRate);

    EXPECT_DOUBLE_EQ(a.energy.staticNj, b.energy.staticNj);
    EXPECT_DOUBLE_EQ(a.energy.ndpDramNj, b.energy.ndpDramNj);
    EXPECT_DOUBLE_EQ(a.energy.extDramNj, b.energy.extDramNj);
    EXPECT_DOUBLE_EQ(a.energy.cxlLinkNj, b.energy.cxlLinkNj);
    EXPECT_DOUBLE_EQ(a.energy.icnNj, b.energy.icnNj);
    EXPECT_DOUBLE_EQ(a.energy.sramNj, b.energy.sramNj);

    EXPECT_EQ(a.writeExceptions, b.writeExceptions);
    EXPECT_EQ(a.invalidatedRows, b.invalidatedRows);
    EXPECT_EQ(a.survivedRows, b.survivedRows);
    EXPECT_EQ(a.reconfigurations, b.reconfigurations);
    EXPECT_EQ(a.slbMisses, b.slbMisses);

    EXPECT_EQ(a.degraded.linkRetries, b.degraded.linkRetries);
    EXPECT_EQ(a.degraded.retriesExhausted, b.degraded.retriesExhausted);
    EXPECT_EQ(a.degraded.poisonedReads, b.degraded.poisonedReads);
    EXPECT_EQ(a.degraded.poisonEscalations, b.degraded.poisonEscalations);
    EXPECT_EQ(a.degraded.failedUnitRedirects,
              b.degraded.failedUnitRedirects);
    EXPECT_EQ(a.degraded.dramFaultRefetches, b.degraded.dramFaultRefetches);
    EXPECT_EQ(a.degraded.failedUnits, b.degraded.failedUnits);
    EXPECT_EQ(a.degraded.emergencyReconfigs, b.degraded.emergencyReconfigs);
    EXPECT_EQ(a.degraded.cyclesDegraded, b.degraded.cyclesDegraded);

    // The full counter map, bit for bit. Stats ending in "Micros" are
    // host wall-clock measurements of the simulator itself (solver
    // timing); they vary between any two runs and are outside the
    // determinism contract (DESIGN.md section 5.3).
    const auto isWallClock = [](const std::string& name) {
        return name.size() >= 6
            && name.compare(name.size() - 6, 6, "Micros") == 0;
    };
    for (const auto& [name, value] : a.stats.raw()) {
        EXPECT_TRUE(b.stats.has(name)) << "missing stat " << name;
        if (!isWallClock(name)) {
            EXPECT_DOUBLE_EQ(value, b.stats.get(name)) << "stat " << name;
        }
    }
    EXPECT_EQ(a.stats.raw().size(), b.stats.raw().size());
}

RunResult
runWith(std::uint32_t threads, const Workload& w, PolicyKind policy,
        const FaultParams* faults = nullptr)
{
    SystemConfig cfg = tinyConfig(threads);
    if (faults != nullptr) {
        cfg.faults = *faults;
    }
    NdpSystem sys(cfg, policy);
    return sys.run(w);
}

class ThreadCountTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(ThreadCountTest, BitIdenticalToSingleThread)
{
    auto w = makeWorkload("pr");
    w->prepare(tinyParams());
    const RunResult base = runWith(1, *w, PolicyKind::NdpExt);
    const RunResult got = runWith(GetParam(), *w, PolicyKind::NdpExt);
    expectIdentical(base, got);
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadCountTest,
                         ::testing::Values(2u, 8u),
                         [](const ::testing::TestParamInfo<std::uint32_t>&
                                info) {
                             return "t" + std::to_string(info.param);
                         });

TEST(Sharding, CachelineBaselineIdenticalAcrossThreads)
{
    auto w = makeWorkload("bfs");
    w->prepare(tinyParams());
    const RunResult base = runWith(1, *w, PolicyKind::StaticInterleave);
    const RunResult got = runWith(8, *w, PolicyKind::StaticInterleave);
    expectIdentical(base, got);
}

TEST(Sharding, WriteHeavyWorkloadIdenticalAcrossThreads)
{
    // backprop raises write-to-read-only exceptions, exercising the
    // deferred (barrier-applied) markWritten/collapseReplication path.
    auto w = makeWorkload("backprop");
    w->prepare(tinyParams());
    const RunResult base = runWith(1, *w, PolicyKind::NdpExt);
    const RunResult got = runWith(8, *w, PolicyKind::NdpExt);
    EXPECT_GE(base.writeExceptions, 1u);
    expectIdentical(base, got);
}

TEST(Sharding, FaultyRunIdenticalAcrossThreads)
{
    auto w = makeWorkload("pr");
    w->prepare(tinyParams());
    FaultParams faults;
    faults.seed = 99;
    faults.cxlTransientProb = 1e-3;
    faults.cxlPoisonProb = 1e-5;
    faults.dramBitProb = 1e-5;
    faults.unitFailures.push_back({3, 150'000});
    const RunResult base = runWith(1, *w, PolicyKind::NdpExt, &faults);
    const RunResult got = runWith(8, *w, PolicyKind::NdpExt, &faults);
    EXPECT_EQ(base.degraded.failedUnits, 1u);
    EXPECT_EQ(base.degraded.emergencyReconfigs, 1u);
    expectIdentical(base, got);
}

TEST(Sharding, ExcessThreadsAreClamped)
{
    auto w = makeWorkload("mv");
    w->prepare(tinyParams());
    // More threads than shards (2 stacks) must still work and match.
    const RunResult base = runWith(1, *w, PolicyKind::NdpExt);
    const RunResult got = runWith(64, *w, PolicyKind::NdpExt);
    expectIdentical(base, got);
}

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

const char* const kTelemetryFiles[] = {".metrics.jsonl", ".trace.json",
                                       ".decisions.jsonl",
                                       ".exemplars.jsonl"};

/**
 * The CI serving-smoke colocation on 2 shards, shortened: four Poisson
 * tenants, one of them reserved. numThreads keeps its default.
 */
SystemConfig
servingConfig()
{
    SystemConfig cfg = SystemConfig::scaledDefault();
    cfg.stacksX = 2;
    cfg.stacksY = 1;
    cfg.unitsX = 2;
    cfg.unitsY = 2;
    cfg.unitCacheBytes = 256_KiB;
    cfg.runtime.epochCycles = 100'000;
    for (const char* spec :
         {"name=emb,workload=recsys,period=6000,qos=reserved,"
          "reserve-pct=25,slo=60000,footprint-mb=4",
          "name=graph,workload=pr,period=14000,slo=60000,footprint-mb=4",
          "name=tensor,workload=mv,period=14000,slo=60000,footprint-mb=4",
          "name=web,workload=bfs,period=14000,slo=60000,footprint-mb=4"}) {
        TenantSpec tenant;
        std::string error;
        EXPECT_TRUE(parseTenantSpec(spec, &tenant, &error)) << error;
        cfg.serving.tenants.push_back(tenant);
    }
    cfg.serving.horizonCycles = 1'000'000;
    cfg.finalize();
    return cfg;
}

struct ServingRun
{
    RunResult result;
    /** writeAll's output, one entry per kTelemetryFiles suffix. */
    std::vector<std::string> files;
};

/**
 * One serving run with request tracing and a checkpoint every epoch
 * (each snapshot flushes the telemetry into .part side files, which
 * writeAll stitches back together).
 */
ServingRun
runServing(const SystemConfig& cfg, const std::string& prefix)
{
    ServingWorkload w(cfg.serving, cfg.runtime.epochCycles);
    w.prepare(tinyParams());
    TelemetryConfig tc;
    tc.outPrefix = prefix;
    tc.traceRequests = true;
    tc.traceSlowK = 4;
    tc.traceUniformK = 4;
    Telemetry tel(tc);
    NdpSystem sys(cfg, PolicyKind::NdpExt);
    sys.attachTelemetry(&tel);
    sys.setCheckpointing(prefix + ".ckpt", 1);
    ServingRun out;
    out.result = sys.run(w);
    std::string error;
    EXPECT_TRUE(tel.writeAll(&error)) << error;
    for (const char* suffix : kTelemetryFiles) {
        out.files.push_back(slurp(prefix + suffix));
    }
    return out;
}

TEST(ShardedExecutor, ThreadCountClampsToShards)
{
    // The default config runs one thread per shard ...
    const std::uint32_t byDefault = SystemConfig().numThreads;
    EXPECT_EQ(shardThreads(byDefault, 1), 1u);
    EXPECT_EQ(shardThreads(byDefault, 2), 2u);
    EXPECT_EQ(shardThreads(byDefault, 8), 8u);
    EXPECT_EQ(shardThreads(byDefault, 1024), 1024u);
    // ... and an explicit N runs min(N, shards).
    EXPECT_EQ(shardThreads(1, 8), 1u);
    EXPECT_EQ(shardThreads(3, 8), 3u);
    EXPECT_EQ(shardThreads(8, 8), 8u);
    EXPECT_EQ(shardThreads(64, 8), 8u);
    EXPECT_EQ(shardThreads(4, 2), 2u);
}

TEST(Sharding, DefaultMatchesSerial)
{
    const SystemConfig byDefault = servingConfig();
    ASSERT_EQ(shardThreads(byDefault.numThreads,
                           byDefault.stacksX * byDefault.stacksY),
              2u);
    SystemConfig serial = byDefault;
    serial.numThreads = 1;

    const ServingRun got =
        runServing(byDefault, ::testing::TempDir() + "shard_default");
    const ServingRun base =
        runServing(serial, ::testing::TempDir() + "shard_serial");

    EXPECT_GT(base.result.stats.get("tenant.emb.retired"), 0.0);
    EXPECT_GE(base.result.reconfigurations, 1u);
    expectIdentical(base.result, got.result);
    for (std::size_t i = 0; i < base.files.size(); ++i) {
        EXPECT_FALSE(base.files[i].empty()) << kTelemetryFiles[i];
        EXPECT_EQ(base.files[i], got.files[i]) << kTelemetryFiles[i];
    }
}

TEST(ShardedExecutor, BackToBackJobsRunEachShardOnce)
{
    // Jobs of different sizes, each set up right after the previous one
    // returns: a worker that wakes late must neither run a shard of the
    // finished job nor read the next job before it is set up.
    ShardedExecutor exec(4);
    std::vector<int> runs(9, 0);
    for (int job = 0; job < 20000; ++job) {
        const std::size_t count = 2 + static_cast<std::size_t>(job % 8);
        exec.forEachShard(count, [&runs](std::size_t i) { ++runs[i]; });
        for (std::size_t i = 0; i < runs.size(); ++i) {
            ASSERT_EQ(runs[i], i < count ? 1 : 0) << "job " << job;
            runs[i] = 0;
        }
    }
}

} // namespace
} // namespace ndpext
