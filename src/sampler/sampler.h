/**
 * @file
 * Set-based hardware miss-curve samplers (Section V-A) and the per-unit
 * sampler bank with the stream-access bitvector (Section V-B).
 *
 * NDPExt's DRAM cache is hash-indexed with low associativity, so capacity
 * is partitioned along sets and the stack property does not hold; each
 * sampler therefore simulates c = 64 independent capacity cases spanning a
 * geometric range, sampling k = 32 sets per case via static interleaving
 * and counting hits/misses on single-tag shadow sets. A sampler costs
 * 32 x 64 x 4 B = 8 kB of SRAM; four fit in each unit (32 kB).
 */

#ifndef NDPEXT_SAMPLER_SAMPLER_H
#define NDPEXT_SAMPLER_SAMPLER_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitutils.h"
#include "common/types.h"
#include "sampler/miss_curve.h"
#include "sim/checkpoint.h"
#include "sim/stats.h"
#include "stream/stream_table.h"

namespace ndpext {

struct SamplerParams
{
    /** Sampled sets per capacity case (k). */
    std::uint32_t kSets = 32;
    /** Number of capacity cases (c). */
    std::uint32_t numCapacities = 64;
    /** Smallest simulated capacity in bytes (paper: 32 kB). */
    std::uint64_t minCapacityBytes = 32_KiB;
    /** Largest simulated capacity (paper: full 256 MB unit DRAM). */
    std::uint64_t maxCapacityBytes = 256_MiB;
};

/** One hardware sampler: derives the miss curve for one stream. */
class MissCurveSampler
{
  public:
    explicit MissCurveSampler(const SamplerParams& params);

    /** (Re)assign the sampler to a stream and clear its shadow sets. */
    void configure(StreamId sid, std::uint32_t granule_bytes);

    bool assigned() const { return sid_ != kNoStream; }
    StreamId sid() const { return sid_; }

    /** Observe one access to the stream (granule id in access order). */
    void observe(std::uint64_t granule_id);

    /** Accesses observed (pre-sampling). */
    std::uint64_t accesses() const { return accesses_; }

    /**
     * Build the stream's miss curve, scaled so the curve represents
     * `total_stream_accesses` accesses (the global count; this sampler saw
     * only its own unit's share of them).
     */
    MissCurve curve(std::uint64_t total_stream_accesses) const;

    const SamplerParams& params() const { return params_; }
    const std::vector<std::uint64_t>& capacities() const
    {
        return capacities_;
    }

    /** Checkpoint hooks (params/capacity points are configuration). */
    void
    serialize(ckpt::Writer& w) const
    {
        w.u32(sid_);
        w.u32(granuleBytes_);
        w.u64(cases_.size());
        for (const CapacityCase& c : cases_) {
            w.u64(c.totalSlots.divisor());
            w.u64(c.sampleStep.divisor());
            w.vecU64(c.tags);
            w.u64(c.observed);
            w.u64(c.hits);
        }
        w.u64(accesses_);
    }

    void
    deserialize(ckpt::Reader& r)
    {
        sid_ = static_cast<StreamId>(r.u32());
        granuleBytes_ = r.u32();
        // cases_ is rebuilt from the stream: its size is dynamic state
        // (empty while unassigned, one per capacity point once
        // configure() ran).
        cases_.assign(r.u64(), CapacityCase{});
        for (CapacityCase& c : cases_) {
            const std::uint64_t slots = r.u64();
            const std::uint64_t step = r.u64();
            NDP_ASSERT(slots > 0 && step > 0, "bad sampler geometry");
            c.totalSlots = FastDivisor(slots);
            c.sampleStep = FastDivisor(step);
            c.tags = r.vecU64();
            c.observed = r.u64();
            c.hits = r.u64();
        }
        accesses_ = r.u64();
    }

  private:
    /** Divisors carry their reciprocals: observe() never divides. */
    struct CapacityCase
    {
        FastDivisor totalSlots;
        FastDivisor sampleStep; ///< slot % step == 0 is sampled
        std::vector<std::uint64_t> tags; ///< kSets single-tag shadow sets
        std::uint64_t observed = 0;
        std::uint64_t hits = 0;
    };

    SamplerParams params_;
    std::vector<std::uint64_t> capacities_; ///< geometric points
    StreamId sid_ = kNoStream;
    std::uint32_t granuleBytes_ = 0;
    std::vector<CapacityCase> cases_;
    std::uint64_t accesses_ = 0;
};

/**
 * The per-unit sampling hardware: S = 4 samplers, the 512-bit bitvector of
 * streams accessed this epoch, and per-stream access counters.
 */
class SamplerBank
{
  public:
    SamplerBank(std::uint32_t num_samplers, const SamplerParams& params);

    std::uint32_t numSamplers() const
    {
        return static_cast<std::uint32_t>(samplers_.size());
    }

    /**
     * Install the epoch's assignments: stream (and its caching granule)
     * per sampler slot; kNoStream leaves a slot idle.
     */
    void assign(const std::vector<std::pair<StreamId, std::uint32_t>>&
                    stream_granules);

    /** Record an access from this unit to `sid`. */
    void observe(StreamId sid, std::uint64_t granule_id);

    /** Streams accessed this epoch (the bitvector sent to the host). */
    const std::vector<bool>& accessedBitvector() const { return accessed_; }

    /** Per-stream access count from this unit this epoch. */
    std::uint64_t accessCount(StreamId sid) const;

    const MissCurveSampler* samplerFor(StreamId sid) const;

    /** Clear bitvector/counters for the next epoch (samplers keep state
     *  until reassigned). */
    void newEpoch();

    /** Checkpoint hooks. */
    void
    serialize(ckpt::Writer& w) const
    {
        w.u64(samplers_.size());
        for (const MissCurveSampler& s : samplers_) {
            s.serialize(w);
        }
        w.vecB(accessed_);
        w.vecU64(counts_);
    }

    void
    deserialize(ckpt::Reader& r)
    {
        const std::uint64_t n = r.u64();
        NDP_ASSERT(n == samplers_.size(), "sampler count mismatch");
        for (MissCurveSampler& s : samplers_) {
            s.deserialize(r);
        }
        accessed_ = r.vecB();
        counts_ = r.vecU64();
        NDP_ASSERT(accessed_.size() == counts_.size());
    }

  private:
    std::vector<MissCurveSampler> samplers_;
    std::vector<bool> accessed_;
    std::vector<std::uint64_t> counts_;
};

} // namespace ndpext

#endif // NDPEXT_SAMPLER_SAMPLER_H
