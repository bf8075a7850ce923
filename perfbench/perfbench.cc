/**
 * ndpext_perfbench -- host-time benchmark of the NDPExt simulator.
 *
 *   ndpext_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
 *                    --out=DIR
 *
 * One process prepares workloads and runs systems through the libraries'
 * public API (Workload::prepare, makeRmatGraph, NdpSystem, HostSystem,
 * Telemetry::writeAll), times each call from outside, and checks every
 * RunResult it gets back. Workloads (see NOTES.md for why each exists):
 *
 *   graph-fig5      one Fig. 5 point: pr on host, Nexus and NDPExt
 *                   (NDPExt with telemetry written to disk)
 *   recsys-engine   one long closed-loop NDPExt run of recsys
 *   serving-resume  four-tenant open-loop serving run with checkpoints,
 *                   then a second system resumed from a mid-run image
 *
 * A run repeats whole workload iterations, each one starting when the
 * previous one returned, until S seconds have passed (at least three).
 * --trace=0 reports end-to-end medians over the iterations; --trace=1
 * alternates traced and untraced iterations, writes the traced spans to
 * DIR as Chrome/Perfetto JSON and reports per-layer metrics. The last
 * stdout line is one JSON object with the keys correct, attempted,
 * failed and metrics. Scratch files (checkpoints, telemetry) live in a
 * per-process directory under DIR and are removed before exit.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serving/serving_workload.h"
#include "system/host_system.h"
#include "system/ndp_system.h"
#include "telemetry/telemetry.h"
#include "workloads/gap_workloads.h"
#include "workloads/graph.h"
#include "workloads/workload.h"

using namespace ndpext;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Accesses per core at the scaled default (ndpext_sim's default): the
 * Fig. 5 point's length and the serving tenants' generator length.
 */
constexpr std::uint64_t kDefaultAccessesPerCore = 20'000;
/** Accesses per core of the long recsys run. */
constexpr std::uint64_t kRecsysAccessesPerCore = 40'000;
/** serving-resume snapshots the machine every this many epochs. */
constexpr std::uint64_t kCheckpointEvery = 10;
/** Every run makes at least this many iterations (a median of three). */
constexpr std::size_t kMinIterations = 3;

const char* const kWorkloads[] = {"graph-fig5", "recsys-engine",
                                  "serving-resume"};

/** The CI serving-smoke colocation (poisson leg). */
const char* const kTenants[] = {
    "name=emb,workload=recsys,period=6000,qos=reserved,reserve-pct=25,"
    "slo=60000,footprint-mb=4",
    "name=graph,workload=pr,period=14000,slo=60000,footprint-mb=4",
    "name=tensor,workload=mv,period=14000,slo=60000,footprint-mb=4",
    "name=web,workload=bfs,period=14000,slo=60000,footprint-mb=4",
};

// ---------------------------------------------------------------- spans

/** One timed call into a layer. Times are seconds since the origin. */
struct SpanRecord
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    /** Index of the enclosing span in Tracer::spans; -1 = none. */
    int parent = -1;
    /** Iteration id shared by one iteration's spans; -1 = probe. */
    int iteration = -1;
};

/** In-memory span store, written once at the end of a traced run. */
class Tracer
{
  public:
    bool enabled = false;
    int iteration = -1;

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    int
    open(std::string name, double start)
    {
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({std::move(name), start, start, parent,
                          iteration});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int index, double end)
    {
        NDP_ASSERT(!stack_.empty() && stack_.back() == index,
                   "spans must close innermost first");
        spans_[static_cast<std::size_t>(index)].end = end;
        stack_.pop_back();
    }

    /** Summed duration of the spans called `name` in `iteration`. */
    double
    seconds(int it, const std::string& name) const
    {
        double total = 0.0;
        for (const SpanRecord& s : spans_) {
            if (s.iteration == it && s.name == name) {
                total += s.end - s.start;
            }
        }
        return total;
    }

    const std::vector<SpanRecord>& spans() const { return spans_; }

    /** Chrome/Perfetto JSON: one complete ("X") event per span. */
    bool
    writeChrome(const fs::path& path) const
    {
        std::ofstream out(path);
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const SpanRecord& s = spans_[i];
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                          "\"ts\":%.3f,\"dur\":%.3f",
                          s.start * 1e6, (s.end - s.start) * 1e6);
            out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
                << "\"," << buf << ",\"args\":{\"id\":" << i
                << ",\"parent\":" << s.parent
                << ",\"iteration\":" << s.iteration << "}}";
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    const Clock::time_point origin_ = Clock::now();
    std::vector<SpanRecord> spans_;
    std::vector<int> stack_;
};

/**
 * Times one scope from outside the layer it calls into. The duration is
 * always measured (the end-to-end metrics need it); the span is recorded
 * only while tracing is on.
 */
class Span
{
  public:
    Span(Tracer& tracer, std::string name)
        : tracer_(tracer), start_(tracer.now())
    {
        if (tracer_.enabled) {
            index_ = tracer_.open(std::move(name), start_);
        }
    }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    ~Span() { stop(); }

    /** Close the span (idempotent); returns its duration in seconds. */
    double
    stop()
    {
        if (!stopped_) {
            stopped_ = true;
            end_ = tracer_.now();
            if (index_ >= 0) {
                tracer_.close(index_, end_);
            }
        }
        return end_ - start_;
    }

  private:
    Tracer& tracer_;
    double start_;
    double end_ = 0.0;
    int index_ = -1;
    bool stopped_ = false;
};

// --------------------------------------------------------------- checks

bool
endsWith(const std::string& s, const char* suffix)
{
    const std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/**
 * FNV-1a over every deterministic counter of a RunResult: each name and
 * the bits of its value. Host wall-clock fields (`*Micros`, `*PerSec`)
 * are left out, so equal simulations hash equal.
 */
std::uint64_t
statsHash(const StatGroup& stats)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](const void* data, std::size_t size) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < size; ++i) {
            h = (h ^ p[i]) * 0x100000001b3ull;
        }
    };
    for (const auto& [name, value] : stats.raw()) {
        if (endsWith(name, "Micros") || endsWith(name, "PerSec")) {
            continue;
        }
        mix(name.c_str(), name.size() + 1);
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof(bits));
        mix(&bits, sizeof(bits));
    }
    return h;
}

/** One simulate call and what the checks made of it. */
struct Call
{
    /** Stable name across iterations: "host", "nexus", "ndpext", ... */
    std::string label;
    RunResult result;
    /** Wall time inside the run() call. */
    double seconds = 0.0;
    /** NdpSystem (true) or HostSystem (false). */
    bool ndp = true;
    /** Resumed from a checkpoint: its counters repeat the full run's. */
    bool resumed = false;
    /** cores x accesses per core for closed-loop runs; 0 = open loop. */
    std::uint64_t expectedAccesses = 0;
    std::uint64_t hash = 0;
    /** Empty when the call returned and passed every check. */
    std::string failure;
};

/** Counts attempted and failed simulate calls. */
class Checker
{
  public:
    /**
     * Check one call: it returned, its stats hash equals the first
     * iteration's hash for the same label (and `must_match`'s hash, for
     * a resumed run), every DRAM-cache request is exactly one of hit,
     * miss, uncached (stream without cache space) or bypass (no
     * stream), and a closed-loop run retired exactly its accesses.
     */
    void
    check(Call& call, const Call* must_match = nullptr)
    {
        ++attempted;
        call.hash = statsHash(call.result.stats);
        const StatGroup& st = call.result.stats;
        if (!call.failure.empty()) {
            // Threw: nothing to compare.
        } else if (const auto it = reference_.find(call.label);
                   it != reference_.end() && it->second != call.hash) {
            call.failure = "stats hash differs from the first iteration";
        } else if (must_match != nullptr
                   && must_match->hash != call.hash) {
            call.failure = "stats hash differs from the '"
                + must_match->label + "' run";
        } else if (call.ndp
                   && st.get("cache.hits") + st.get("cache.misses")
                           + st.get("cache.uncached")
                           + st.get("cache.bypasses")
                       != st.get("cache.lat.requests")) {
            call.failure = "cache.hits + cache.misses + cache.uncached + "
                           "cache.bypasses != cache.lat.requests";
        } else if (call.expectedAccesses != 0
                   && call.result.accesses != call.expectedAccesses) {
            call.failure = "retired " + std::to_string(call.result.accesses)
                + " accesses, expected "
                + std::to_string(call.expectedAccesses);
        }
        if (!call.failure.empty()) {
            ++failed;
            std::fprintf(stderr, "perfbench: %s call failed: %s\n",
                         call.label.c_str(), call.failure.c_str());
        } else if (reference_.emplace(call.label, call.hash).second) {
            order_.push_back(call.label);
        }
    }

    /** Labels with their first passing hash, in first-seen order. */
    std::vector<std::pair<std::string, std::uint64_t>>
    hashes() const
    {
        std::vector<std::pair<std::string, std::uint64_t>> out;
        for (const std::string& label : order_) {
            out.emplace_back(label, reference_.at(label));
        }
        return out;
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  private:
    std::map<std::string, std::uint64_t> reference_;
    std::vector<std::string> order_;
};

// ----------------------------------------------------------- workloads

/** Per-process state shared by every iteration of one run. */
struct Bench
{
    std::string workload;
    std::uint64_t seed = 0;
    /** Checkpoints and telemetry of the current iteration. */
    fs::path scratch;
    Tracer tracer;
    Checker checker;
};

/** One workload iteration: set-up, simulate calls, outputs, checks. */
struct Iteration
{
    /** Shared by this iteration's spans (Tracer::iteration). */
    int id = 0;
    /** Workload::prepare and system construction (see setupSeconds). */
    double setupS = 0.0;
    double wallS = 0.0;
    /** serving-resume: second system's set-up, setResume and run. */
    double resumeS = 0.0;
    std::vector<Call> calls;
    /** Index of the NDPExt call whose simulated counters are reported. */
    std::size_t primary = 0;
    std::uint64_t telemetryBytes = 0;
    std::uint64_t checkpointImages = 0;
    std::uint64_t checkpointBytes = 0;
    std::uint64_t resumeEpoch = 0;
    std::uint64_t lastImageEpoch = 0;
    /** The prepared workload, kept only for the traced run's probes. */
    std::unique_ptr<Workload> workload;
};

/** Run one simulate call under a span; an exception fails the call. */
Call
simulate(Bench& b, std::string label, const std::string& span,
         const std::function<RunResult()>& run)
{
    Call call;
    call.label = std::move(label);
    Span s(b.tracer, span);
    try {
        call.result = run();
    } catch (const std::exception& e) {
        call.failure = std::string("exception: ") + e.what();
    }
    call.seconds = s.stop();
    return call;
}

WorkloadParams
workloadParams(const SystemConfig& cfg, std::uint64_t accesses_per_core,
               std::uint64_t seed)
{
    WorkloadParams p;
    p.numCores = cfg.numUnits();
    p.footprintBytes = 96_MiB; // 1.5x the 64 MiB aggregate DRAM cache
    p.accessesPerCore = accesses_per_core;
    p.seed = seed;
    return p;
}

std::unique_ptr<Workload>
prepare(Bench& b, std::unique_ptr<Workload> w, const WorkloadParams& p)
{
    Span s(b.tracer, "workloads.prepare");
    w->prepare(p);
    return w;
}

/** Fig. 5's host baseline: LLC scaled with the 96 MiB footprint. */
HostParams
fig5HostParams(std::uint32_t num_cores)
{
    HostParams hp;
    hp.llcBankBytes = 4_KiB;
    hp.numCores = num_cores;
    hp.meshX = 8;
    hp.meshY = num_cores / 8;
    return hp;
}

/** Total size of the files in `dir` whose names start with `stem`. */
std::pair<std::uint64_t, std::uint64_t>
filesWithStem(const fs::path& dir, const std::string& stem)
{
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
        if (e.is_regular_file()
            && e.path().filename().string().rfind(stem, 0) == 0) {
            ++count;
            bytes += e.file_size();
        }
    }
    return {count, bytes};
}

void
removeScratchFiles(const fs::path& dir)
{
    for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
        fs::remove_all(e.path());
    }
}

Iteration
runGraphFig5(Bench& b)
{
    Iteration it;
    Span iter(b.tracer, "iteration");
    SystemConfig cfg = SystemConfig::scaledDefault();
    cfg.finalize();
    const WorkloadParams params =
        workloadParams(cfg, kDefaultAccessesPerCore, b.seed);
    const std::uint64_t expected =
        std::uint64_t{params.numCores} * params.accessesPerCore;

    Span setup(b.tracer, "setup");
    it.workload = prepare(b, makeWorkload("pr"), params);
    std::unique_ptr<HostSystem> host;
    std::unique_ptr<NdpSystem> nexus;
    std::unique_ptr<NdpSystem> ndpext;
    std::unique_ptr<Telemetry> telemetry;
    {
        Span s(b.tracer, "system.construct");
        host = std::make_unique<HostSystem>(
            fig5HostParams(cfg.numUnits()));
        nexus = std::make_unique<NdpSystem>(cfg, PolicyKind::Nexus);
        ndpext = std::make_unique<NdpSystem>(cfg, PolicyKind::NdpExt);
        TelemetryConfig tcfg;
        tcfg.outPrefix = (b.scratch / "fig5").string();
        telemetry = std::make_unique<Telemetry>(tcfg);
        ndpext->attachTelemetry(telemetry.get());
    }
    it.setupS = setup.stop();

    const Workload& w = *it.workload;
    it.calls.push_back(simulate(b, "host", "baselines.host_run",
                                [&] { return host->run(w); }));
    it.calls.back().ndp = false;
    it.calls.push_back(simulate(b, "nexus", "system.run.nexus",
                                [&] { return nexus->run(w); }));
    it.calls.push_back(simulate(b, "ndpext", "system.run.ndpext",
                                [&] { return ndpext->run(w); }));
    it.primary = 2;
    for (Call& c : it.calls) {
        c.expectedAccesses = expected;
    }
    {
        Span s(b.tracer, "telemetry.write");
        std::string error;
        if (!telemetry->writeAll(&error)) {
            it.calls[2].failure = "telemetry: " + error;
        }
    }
    it.telemetryBytes = filesWithStem(b.scratch, "fig5").second;
    {
        Span s(b.tracer, "checks");
        for (Call& c : it.calls) {
            b.checker.check(c);
        }
    }
    it.wallS = iter.stop();
    removeScratchFiles(b.scratch);
    return it;
}

Iteration
runRecsysEngine(Bench& b)
{
    Iteration it;
    Span iter(b.tracer, "iteration");
    SystemConfig cfg = SystemConfig::scaledDefault();
    cfg.finalize();
    const WorkloadParams params =
        workloadParams(cfg, kRecsysAccessesPerCore, b.seed);

    Span setup(b.tracer, "setup");
    it.workload = prepare(b, makeWorkload("recsys"), params);
    std::unique_ptr<NdpSystem> ndpext;
    {
        Span s(b.tracer, "system.construct");
        ndpext = std::make_unique<NdpSystem>(cfg, PolicyKind::NdpExt);
    }
    it.setupS = setup.stop();

    const Workload& w = *it.workload;
    it.calls.push_back(simulate(b, "ndpext", "system.run.ndpext",
                                [&] { return ndpext->run(w); }));
    it.calls[0].expectedAccesses =
        std::uint64_t{params.numCores} * params.accessesPerCore;
    {
        Span s(b.tracer, "checks");
        b.checker.check(it.calls[0]);
    }
    it.wallS = iter.stop();
    return it;
}

SystemConfig
servingConfig()
{
    SystemConfig cfg = SystemConfig::scaledDefault();
    cfg.stacksX = 2;
    cfg.stacksY = 1;
    cfg.unitsX = 2;
    cfg.unitsY = 2;
    cfg.runtime.epochCycles = 100'000;
    for (const char* spec : kTenants) {
        TenantSpec tenant;
        std::string error;
        NDP_ASSERT(parseTenantSpec(spec, &tenant, &error), error);
        cfg.serving.tenants.push_back(std::move(tenant));
    }
    cfg.serving.horizonCycles = 12'000'000;
    std::string error;
    NDP_ASSERT(cfg.validate(&error), error);
    cfg.finalize();
    return cfg;
}

Iteration
runServingResume(Bench& b)
{
    Iteration it;
    Span iter(b.tracer, "iteration");
    const SystemConfig cfg = servingConfig();
    const std::string prefix = (b.scratch / "serve").string();

    Span setup(b.tracer, "setup");
    it.workload = prepare(
        b,
        std::make_unique<ServingWorkload>(cfg.serving,
                                          cfg.runtime.epochCycles),
        workloadParams(cfg, kDefaultAccessesPerCore, b.seed));
    std::unique_ptr<NdpSystem> first;
    {
        Span s(b.tracer, "system.construct");
        first = std::make_unique<NdpSystem>(cfg, PolicyKind::NdpExt);
        first->setCheckpointing(prefix, kCheckpointEvery);
    }
    it.setupS = setup.stop();

    const Workload& w = *it.workload;
    it.calls.push_back(simulate(b, "ndpext", "system.run.ndpext",
                                [&] { return first->run(w); }));

    // Resume from the middle image written by the uninterrupted run.
    std::vector<std::uint64_t> epochs;
    for (const fs::directory_entry& e : fs::directory_iterator(b.scratch)) {
        const std::string name = e.path().filename().string();
        if (name.rfind("serve.", 0) == 0 && endsWith(name, ".ckpt")) {
            epochs.push_back(std::stoull(name.substr(6)));
        }
    }
    std::sort(epochs.begin(), epochs.end());
    std::tie(it.checkpointImages, it.checkpointBytes) =
        filesWithStem(b.scratch, "serve.");
    {
        Span resume(b.tracer, "resume");
        std::unique_ptr<NdpSystem> second;
        {
            Span s(b.tracer, "system.construct");
            second = std::make_unique<NdpSystem>(cfg, PolicyKind::NdpExt);
        }
        std::string error = "the run wrote no checkpoint image";
        bool loaded = false;
        if (!epochs.empty()) {
            it.resumeEpoch = epochs[(epochs.size() - 1) / 2];
            it.lastImageEpoch = epochs.back();
            Span s(b.tracer, "sim.checkpoint_load");
            loaded = second->setResume(
                prefix + "." + std::to_string(it.resumeEpoch) + ".ckpt", w,
                &error);
        }
        if (loaded) {
            it.calls.push_back(simulate(b, "ndpext.resumed",
                                        "system.run.resumed",
                                        [&] { return second->run(w); }));
        } else {
            it.calls.emplace_back();
            it.calls.back().label = "ndpext.resumed";
            it.calls.back().failure = "resume: " + error;
        }
        it.calls.back().resumed = true;
        it.resumeS = resume.stop();
    }
    {
        Span s(b.tracer, "checks");
        b.checker.check(it.calls[0]);
        b.checker.check(it.calls[1], &it.calls[0]);
    }
    it.wallS = iter.stop();
    removeScratchFiles(b.scratch);
    return it;
}

Iteration
runIteration(Bench& b)
{
    if (b.workload == "graph-fig5") {
        return runGraphFig5(b);
    }
    if (b.workload == "recsys-engine") {
        return runRecsysEngine(b);
    }
    return runServingResume(b);
}

// -------------------------------------------------------------- metrics

struct Metric
{
    std::string name;
    double value;
    const char* unit;
};

double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Simulated accesses per second inside the run() calls (not resumed). */
double
accessesPerSecond(const Iteration& it)
{
    double accesses = 0.0;
    double seconds = 0.0;
    for (const Call& c : it.calls) {
        if (!c.resumed) {
            accesses += static_cast<double>(c.result.accesses);
            seconds += c.seconds;
        }
    }
    return ratio(accesses, seconds);
}

/**
 * setup_s of one iteration: its set-up before the first simulate call,
 * plus each uninterrupted NDP run's host time outside its engine loop.
 * NdpSystem::run builds the machine (stream table, NoC, caches, memory
 * models, cores) before the loop and collects stats and tears the
 * machine down after it; the library times only the loop, so all of
 * the rest counts here. The host baseline and the resumed serving run
 * (counted in resume_s) are left out.
 */
double
setupSeconds(const Iteration& it)
{
    double seconds = it.setupS;
    for (const Call& c : it.calls) {
        if (c.ndp && !c.resumed) {
            seconds += c.seconds
                - static_cast<double>(c.result.engineWallMicros) * 1e-6;
        }
    }
    return seconds;
}

/**
 * The pr workload whose R-MAT graph the workload uses (for
 * serving-resume: the pr tenant); null when the workload has none.
 */
const GapWorkload*
prWorkload(const Workload& w)
{
    const Workload* pr = &w;
    if (const auto* serving = dynamic_cast<const ServingWorkload*>(&w)) {
        pr = nullptr;
        for (std::size_t t = 0; t < serving->serving().tenants.size(); ++t) {
            if (serving->serving().tenants[t].workload == "pr") {
                pr = &serving->sub(t);
            }
        }
    }
    return dynamic_cast<const GapWorkload*>(pr);
}

/**
 * Layer probes of the traced run, outside any iteration: the workload's
 * own makeRmatGraph call repeated (same scale, degree and seed), and
 * one core's access generator drained to the end.
 */
std::vector<Metric>
probeLayers(Bench& b, const Workload& w)
{
    b.tracer.iteration = -1;
    double rmat = 0.0;
    if (const GapWorkload* pr = prWorkload(w)) {
        const CsrGraph& g = pr->graph();
        std::uint32_t scale = 0;
        while ((std::uint64_t{1} << scale) < g.numVertices) {
            ++scale;
        }
        const auto degree =
            static_cast<std::uint32_t>(g.numEdges / g.numVertices);
        // GapWorkload::doPrepare seeds its graph with params().seed + 13.
        Span s(b.tracer, "workloads.rmat");
        const CsrGraph direct =
            makeRmatGraph(scale, degree, pr->params().seed + 13);
        rmat = s.stop();
        NDP_ASSERT(direct.offsets == g.offsets && direct.edges == g.edges,
                   "direct R-MAT call built another graph than prepare");
    }
    std::uint64_t drained = 0;
    Span s(b.tracer, "workloads.gen_drain");
    std::unique_ptr<AccessGenerator> gen = w.makeGenerator(0);
    Access access;
    while (gen->next(access)) {
        ++drained;
    }
    return {
        {"workloads.rmat_s", rmat, "s"},
        {"workloads.gen_ns_per_access",
         ratio(s.stop() * 1e9, static_cast<double>(drained)), "ns"},
    };
}

/** Per-layer metrics of one traced iteration (spans + counters). */
std::vector<Metric>
layerMetrics(const Tracer& t, const Iteration& it)
{
    const int id = it.id;
    std::vector<Metric> m;
    double engine = 0.0;
    double engine_fresh = 0.0;
    double run_fresh = 0.0;
    double accesses_fresh = 0.0;
    double events_fresh = 0.0;
    double engine_resumed = 0.0;
    for (const Call& c : it.calls) {
        if (!c.ndp) {
            continue;
        }
        const double e =
            static_cast<double>(c.result.engineWallMicros) * 1e-6;
        engine += e;
        if (c.resumed) {
            engine_resumed += e;
        } else {
            engine_fresh += e;
            run_fresh += t.seconds(id, "system.run." + c.label);
            accesses_fresh += static_cast<double>(c.result.accesses);
            events_fresh += c.result.stats.get("engine.eventsFired");
        }
    }
    const auto span = [&t, id](const char* name) {
        return t.seconds(id, name);
    };
    m.push_back({"workloads.prepare_s", span("workloads.prepare"), "s"});
    m.push_back({"system.construct_s", span("system.construct"), "s"});
    m.push_back({"system.run_s.ndpext", span("system.run.ndpext"), "s"});
    m.push_back({"system.run_s.nexus", span("system.run.nexus"), "s"});
    m.push_back({"system.engine_s", engine, "s"});
    m.push_back({"system.run_overhead_s", run_fresh - engine_fresh, "s"});
    m.push_back({"system.engine_ns_per_access",
                 ratio(engine_fresh * 1e9, accesses_fresh), "ns"});
    m.push_back({"system.engine_ns_per_event",
                 ratio(engine_fresh * 1e9, events_fresh), "ns"});

    const RunResult& r = it.calls[it.primary].result;
    const StatGroup& st = r.stats;
    const auto count = [&m, &st](const char* name, const char* stat) {
        m.push_back({name, st.get(stat), "count"});
    };
    count("sim.events_fired", "engine.eventsFired");
    count("sim.packet_pool_high_water", "engine.packetPool.highWater");
    m.push_back({"cpu.accesses", static_cast<double>(r.accesses), "count"});
    m.push_back({"cpu.l1_hit_ratio",
                 ratio(static_cast<double>(r.l1Hits),
                       static_cast<double>(r.accesses)),
                 "ratio"});
    m.push_back({"ndp.cache_hit_ratio",
                 ratio(st.get("cache.hits"),
                       st.get("cache.hits") + st.get("cache.misses")),
                 "ratio"});
    count("ndp.slb_misses", "cache.slbMisses");
    count("ndp.write_exceptions", "cache.writeExceptions");
    count("noc.transfers", "noc.transfers");
    m.push_back({"noc.link_queue_cycles", st.get("noc.linkQueueCycles"),
                 "cycles"});
    count("cxl.accesses", "ext.accesses");
    m.push_back({"cxl.link_queue_cycles", st.get("ext.linkQueueCycles"),
                 "cycles"});
    m.push_back({"mem.ext_row_hit_ratio",
                 ratio(st.get("ext.dram.rowHits"),
                       st.get("ext.dram.rowHits")
                           + st.get("ext.dram.rowMisses")),
                 "ratio"});
    count("runtime.decisions", "runtime.solver.decisions");
    count("runtime.solver_iterations", "runtime.solver.iterations");
    m.push_back({"runtime.solver_s",
                 st.get("runtime.solver.wallMicros") * 1e-6, "s"});

    m.push_back({"baselines.host_run_s", span("baselines.host_run"), "s"});
    m.push_back({"telemetry.write_s", span("telemetry.write"), "s"});
    m.push_back({"telemetry.bytes", static_cast<double>(it.telemetryBytes),
                 "bytes"});

    m.push_back({"sim.checkpoint_images",
                 static_cast<double>(it.checkpointImages), "count"});
    m.push_back({"sim.checkpoint_bytes",
                 static_cast<double>(it.checkpointBytes), "bytes"});
    m.push_back({"sim.checkpoint_load_s", span("sim.checkpoint_load"), "s"});
    m.push_back({"system.resume_replay_s",
                 span("system.run.resumed") - engine_resumed, "s"});
    m.push_back({"resume_s", span("resume"), "s"});
    double retired = 0.0;
    for (const auto& [name, value] : st.raw()) {
        if (name.rfind("tenant.", 0) == 0 && endsWith(name, ".retired")) {
            retired += value;
        }
    }
    m.push_back({"serving.requests_retired", retired, "count"});
    m.push_back({"bench.traced_wall_s", it.wallS, "s"});
    return m;
}

/** Median duration per span name over the traced iterations. */
std::vector<std::pair<std::string, double>>
spanMedians(const Tracer& t)
{
    std::map<std::string, std::map<int, double>> per;
    for (const SpanRecord& s : t.spans()) {
        if (s.iteration >= 0) {
            per[s.name][s.iteration] += s.end - s.start;
        }
    }
    std::vector<std::pair<std::string, double>> out;
    for (const auto& [name, by_iter] : per) {
        std::vector<double> v;
        for (const auto& kv : by_iter) {
            v.push_back(kv.second);
        }
        out.emplace_back(name, median(v));
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
        return a.second > b.second;
    });
    return out;
}

/** Spans that only group other spans; not layers of their own. */
bool
isGroupSpan(const std::string& name)
{
    return name == "iteration" || name == "setup" || name == "resume";
}

/** One end-to-end metric's samples: median, count and range. */
void
printSamples(const char* name, std::vector<double> v, const char* unit)
{
    std::sort(v.begin(), v.end());
    std::printf("%-20s %14.6g %-10s median of %zu (min %.6g, max %.6g)\n",
                name, median(v), unit, v.size(), v.front(), v.back());
}

std::string
resultJson(bool correct, const Checker& c, const std::vector<Metric>& ms)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(c.attempted);
    out += ", \"failed\": " + std::to_string(c.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", ms[i].value);
        out += (i == 0 ? "\"" : ", \"") + ms[i].name + "\": {\"value\": "
            + buf + ", \"unit\": \"" + ms[i].unit + "\"}";
    }
    return out + "}}";
}

/** Simulated Fig. 5 speedups beside the paper's (never gated). */
void
printModelStatement(const Iteration& it)
{
    const auto cycles = [&it](const char* label) {
        for (const Call& c : it.calls) {
            if (c.label == label) {
                return static_cast<double>(c.result.cycles);
            }
        }
        return 0.0;
    };
    std::printf(
        "model  unvalidated simulator output, informational, not gated "
        "(no error figure is given)\n"
        "model  pr cycles: host %.0f, nexus %.0f, ndpext %.0f\n"
        "model  NDPExt/host speedup  %.3fx (paper: 4.3-7.3x)\n"
        "model  NDPExt/Nexus speedup %.3fx (paper: about 1.41x)\n"
        "model  simulated caches start cold in every run (no warm-up)\n",
        cycles("host"), cycles("nexus"), cycles("ndpext"),
        ratio(cycles("host"), cycles("ndpext")),
        ratio(cycles("nexus"), cycles("ndpext")));
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string out;
};

bool
parseArgs(int argc, char** argv, Args* a)
{
    bool have[5] = {};
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string val =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        try {
            if (key == "--workload") {
                a->workload = val;
                have[0] = true;
            } else if (key == "--seed") {
                a->seed = std::stoull(val);
                have[1] = true;
            } else if (key == "--seconds") {
                a->seconds = std::stod(val);
                have[2] = a->seconds > 0.0;
            } else if (key == "--trace") {
                a->trace = val == "1";
                have[3] = val == "0" || val == "1";
            } else if (key == "--out") {
                a->out = val;
                have[4] = !val.empty();
            } else {
                return false;
            }
        } catch (const std::exception&) {
            return false;
        }
    }
    const bool known =
        std::find(std::begin(kWorkloads), std::end(kWorkloads), a->workload)
        != std::end(kWorkloads);
    return known && std::all_of(std::begin(have), std::end(have),
                                [](bool h) { return h; });
}

template <typename Field>
std::vector<double>
collect(const std::vector<Iteration>& its, Field field)
{
    std::vector<double> v;
    for (const Iteration& it : its) {
        v.push_back(std::invoke(field, it));
    }
    return v;
}

/**
 * --trace 0: end-to-end medians over the untraced iterations (setup_s:
 * setupSeconds) and the process's peak RSS.
 */
std::vector<Metric>
endToEnd(const Bench& b, const std::vector<Iteration>& plain)
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double rss = static_cast<double>(usage.ru_maxrss) / 1024.0;

    const std::vector<double> setups = collect(plain, setupSeconds);
    const std::vector<double> walls = collect(plain, &Iteration::wallS);
    const std::vector<double> rates = collect(plain, accessesPerSecond);
    printSamples("setup_s", setups, "s");
    printSamples("wall_s", walls, "s");
    printSamples("sim_accesses_per_s", rates, "accesses/s");
    printSamples("peak_rss_mb", {rss}, "MiB");
    if (b.workload == "serving-resume") {
        printSamples("resume_s", collect(plain, &Iteration::resumeS), "s");
    }
    return {
        {"setup_s", median(setups), "s"},
        {"wall_s", median(walls), "s"},
        {"sim_accesses_per_s", median(rates), "accesses/s"},
        {"peak_rss_mb", rss, "MiB"},
    };
}

/**
 * --trace 1: per-layer medians over the traced iterations, the layer
 * probes, the tracing overhead, and the design checks NOTES.md names.
 */
std::vector<Metric>
perLayer(Bench& b, const std::vector<Iteration>& traced,
         const std::vector<Iteration>& plain, const Workload& probe)
{
    // name -> (unit, samples)
    std::map<std::string, std::pair<const char*, std::vector<double>>>
        samples;
    const auto add = [&samples](const Metric& metric) {
        samples[metric.name].first = metric.unit;
        samples[metric.name].second.push_back(metric.value);
    };
    for (const Iteration& it : traced) {
        for (const Metric& metric : layerMetrics(b.tracer, it)) {
            add(metric);
        }
    }
    for (const Metric& metric : probeLayers(b, probe)) {
        add(metric);
    }
    add({"bench.trace_overhead_s",
         median(collect(traced, &Iteration::wallS))
             - median(collect(plain, &Iteration::wallS)),
         "s"});
    std::map<std::string, double> m;
    std::vector<Metric> metrics;
    for (const auto& [name, unit_values] : samples) {
        m[name] = median(unit_values.second);
        metrics.push_back({name, m[name], unit_values.first});
    }

    std::printf("spans (median over %zu traced iterations, %zu untraced "
                "alongside):\n",
                traced.size(), plain.size());
    std::string largest;
    for (const auto& [name, secs] : spanMedians(b.tracer)) {
        std::printf("  %-24s %10.4f s\n", name.c_str(), secs);
        if (largest.empty() && !isGroupSpan(name)) {
            largest = name;
        }
    }
    std::printf("design  largest layer span: %s\n", largest.c_str());
    std::printf("design  system.engine_s is %.1f%% of traced wall_s\n",
                100.0 * ratio(m["system.engine_s"], m["bench.traced_wall_s"]));
    std::printf("design  checkpoint/resume layers loaded: %s\n",
                m["sim.checkpoint_images"] > 0.0 && m["resume_s"] > 0.0
                    ? "yes"
                    : "no");
    return metrics;
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parseArgs(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: ndpext_perfbench --workload=graph-fig5|"
                     "recsys-engine|serving-resume --seed=N --seconds=S "
                     "--trace=0|1 --out=DIR\n");
        return 2;
    }

    Bench b;
    b.workload = args.workload;
    b.seed = args.seed;
    b.scratch = fs::path(args.out)
        / (args.workload + ".tmp." + std::to_string(::getpid()));
    fs::create_directories(b.scratch);

    // Whole iterations, each starting when the previous one returned.
    // A traced run alternates traced and untraced iterations, so the
    // difference of their wall times is the tracing overhead.
    std::vector<Iteration> plain;
    std::vector<Iteration> traced;
    std::unique_ptr<Workload> probe_workload;
    const Clock::time_point start = Clock::now();
    for (int i = 0;; ++i) {
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (plain.size() + traced.size() >= kMinIterations
            && elapsed >= args.seconds) {
            break;
        }
        const bool trace_this = args.trace && i % 2 == 0;
        b.tracer.enabled = trace_this;
        b.tracer.iteration = i;
        Iteration it = runIteration(b);
        it.id = i;
        if (trace_this) {
            probe_workload = std::move(it.workload);
            traced.push_back(std::move(it));
        } else {
            it.workload.reset();
            plain.push_back(std::move(it));
        }
    }

    const Iteration& first = args.trace ? traced.front() : plain.front();
    if (b.workload == "graph-fig5") {
        printModelStatement(first);
    }
    if (b.workload == "serving-resume") {
        std::printf("resume  from the epoch-%llu image (last image: epoch "
                    "%llu, %llu images)\n",
                    static_cast<unsigned long long>(first.resumeEpoch),
                    static_cast<unsigned long long>(first.lastImageEpoch),
                    static_cast<unsigned long long>(first.checkpointImages));
    }
    for (const auto& [label, hash] : b.checker.hashes()) {
        std::printf("stats_hash  %-16s %016llx\n", label.c_str(),
                    static_cast<unsigned long long>(hash));
    }
    const Call& primary = first.calls[first.primary];
    const StatGroup& st = primary.result.stats;
    std::printf("cache_requests  %s: hits %.0f + misses %.0f + uncached "
                "%.0f + bypasses %.0f = lat.requests %.0f\n",
                primary.label.c_str(), st.get("cache.hits"),
                st.get("cache.misses"), st.get("cache.uncached"),
                st.get("cache.bypasses"), st.get("cache.lat.requests"));
    std::printf("failed_ratio  %.6f ratio (%llu failed of %llu simulate "
                "calls)\n",
                ratio(static_cast<double>(b.checker.failed),
                      static_cast<double>(b.checker.attempted)),
                static_cast<unsigned long long>(b.checker.failed),
                static_cast<unsigned long long>(b.checker.attempted));

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = endToEnd(b, plain);
    } else {
        metrics = perLayer(b, traced, plain, *probe_workload);
        probe_workload.reset();
        const fs::path trace_path = fs::path(args.out)
            / (b.workload + ".seed" + std::to_string(b.seed)
               + ".trace.json");
        if (!b.tracer.writeChrome(trace_path)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         trace_path.c_str());
        }
        std::printf("trace  %s\n", trace_path.c_str());
    }
    fs::remove_all(b.scratch);

    const bool correct = b.checker.failed == 0;
    std::printf("%s\n", resultJson(correct, b.checker, metrics).c_str());
    return 0;
}
