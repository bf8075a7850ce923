/**
 * @file
 * Contention primitives of the cycle-approximate model.
 *
 * A BandwidthResource represents anything that serializes transfers (a DRAM
 * bank data bus, an inter-stack SerDes link, the CXL port). Because one
 * access's latency chain is evaluated end-to-end, reservations arrive out
 * of simulated-time order (a miss reserves its response link far in the
 * future before another core's earlier request is seen). A scalar
 * next-free-time would turn that into phantom queueing, so reservations
 * are kept as busy *intervals* and new requests fill the earliest gap at
 * or after their arrival time.
 *
 * The busy list is a fixed-capacity ring of disjoint intervals sorted by
 * start time, wrapped by compare (kMaxTracked + 1 slots, the transient
 * size before the oldest interval is dropped). Disjoint + sorted-by-start
 * implies the end times are strictly increasing too, so the prefix of
 * intervals entirely before an arrival is a contiguous run that can be
 * searched for. Arrivals land near the tail -- this is the simulator's
 * hottest loop (every NoC inter-stack hop, DRAM bank and CXL link
 * reservation lands here) -- so the end of the last interval is kept
 * inline (an arrival at or after it appends without touching the ring),
 * and otherwise the search gallops backwards from the tail and
 * binary-searches only the last bracket. The first-fit semantics, the
 * kMaxTracked drop-oldest cap and every returned start time are exactly
 * those of the original linear implementation (pinned by the bench
 * baselines' bit-identity gate and a differential test).
 */

#ifndef NDPEXT_SIM_RESOURCE_H
#define NDPEXT_SIM_RESOURCE_H

#include <cstdint>
#include <memory>

#include "common/logging.h"
#include "common/types.h"
#include "sim/checkpoint.h"

namespace ndpext {

class BandwidthResource
{
  public:
    /**
     * @param bytes_per_cycle Service bandwidth. Fractional values are
     *        supported (e.g., 32 GB/s at 2 GHz = 16 bytes/cycle).
     */
    explicit BandwidthResource(double bytes_per_cycle = 0.0)
        : bytesPerCycle_(bytes_per_cycle)
    {
    }

    BandwidthResource(const BandwidthResource& other)
        : bytesPerCycle_(other.bytesPerCycle_), head_(other.head_),
          count_(other.count_), tailEnd_(other.tailEnd_),
          reservations_(other.reservations_), queueCycles_(other.queueCycles_)
    {
        if (other.ring_ != nullptr) {
            ring_ = std::make_unique<Interval[]>(kCap);
            for (std::size_t i = 0; i < kCap; ++i) {
                ring_[i] = other.ring_[i];
            }
        }
    }

    BandwidthResource&
    operator=(const BandwidthResource& other)
    {
        if (this != &other) {
            *this = BandwidthResource(other);
        }
        return *this;
    }

    BandwidthResource(BandwidthResource&&) = default;
    BandwidthResource& operator=(BandwidthResource&&) = default;

    void
    setBandwidth(double bytes_per_cycle)
    {
        bytesPerCycle_ = bytes_per_cycle;
    }

    /**
     * Reserve the resource for a transfer of `bytes` arriving at `now`.
     * @return the time the transfer starts (>= now); the transfer
     *         completes at start + serviceCycles(bytes).
     */
    Cycles
    reserve(std::uint64_t bytes, Cycles now)
    {
        NDP_ASSERT(bytesPerCycle_ > 0.0, "unconfigured bandwidth resource");
        return reserveFor(serviceCycles(bytes), now);
    }

    /**
     * reserve() for callers that need the completion time: returns
     * start + serviceCycles(bytes), computing the service time once.
     */
    Cycles
    reserveUntilDone(std::uint64_t bytes, Cycles now)
    {
        NDP_ASSERT(bytesPerCycle_ > 0.0, "unconfigured bandwidth resource");
        const Cycles service = serviceCycles(bytes);
        return reserveFor(service, now) + service;
    }

    /**
     * Occupy the resource for `duration` cycles starting at the earliest
     * gap at or after `now` (first-fit insertion into the busy list).
     */
    Cycles
    reserveFor(Cycles duration, Cycles now)
    {
        if (duration == 0) {
            duration = 1;
        }
        if (ring_ == nullptr) {
            ring_ = std::make_unique<Interval[]>(kCap);
        }
        Cycles t = now;
        // Every interval ending at or before the arrival is skipped; the
        // rest is walked as the (short) run of collisions.
        std::size_t pos = count_;
        if (now < tailEnd_) {
            pos = firstEndAfter(now);
            for (; pos < count_; ++pos) {
                const Interval& iv = at(pos);
                if (iv.start >= t + duration) {
                    break; // we fit in the gap before this interval
                }
                t = iv.end; // collide: try right after it
            }
        }
        // Every interval before `pos` starts before `t` and every one at
        // or after it starts at `t + duration` or later, so `pos` IS the
        // sorted insertion point for (t, t + duration).
        insertAt(pos, Interval{t, t + duration});
        if (pos + 1 == count_) {
            tailEnd_ = t + duration;
        }
        if (count_ > kMaxTracked) {
            popFront(); // oldest interval: far in the past
        }
        ++reservations_;
        queueCycles_ += t - now;
        return t;
    }

    /** Cycles to push `bytes` through the resource. */
    Cycles
    serviceCycles(std::uint64_t bytes) const
    {
        const double c = static_cast<double>(bytes) / bytesPerCycle_;
        const auto whole = static_cast<Cycles>(c);
        return whole + (static_cast<double>(whole) < c ? 1 : 0);
    }

    /** End of the latest tracked reservation. */
    Cycles nextFree() const { return tailEnd_; }

    std::uint64_t reservations() const { return reservations_; }
    Cycles totalQueueCycles() const { return queueCycles_; }

    void
    reset()
    {
        head_ = 0;
        count_ = 0;
        tailEnd_ = 0;
        reservations_ = 0;
        queueCycles_ = 0;
    }

    /**
     * Checkpoint hooks. The bandwidth is configuration (rebuilt by the
     * owner); only the busy list and counters travel. Intervals are
     * stored in logical order, so the restored ring is equivalent with
     * head_ = 0 regardless of the original ring phase.
     */
    void
    serialize(ckpt::Writer& w) const
    {
        w.u64(count_);
        for (std::size_t i = 0; i < count_; ++i) {
            w.u64(at(i).start);
            w.u64(at(i).end);
        }
        w.u64(reservations_);
        w.u64(queueCycles_);
    }

    void
    deserialize(ckpt::Reader& r)
    {
        reset();
        const std::uint64_t n = r.u64();
        NDP_ASSERT(n <= kMaxTracked, "bad interval count ", n);
        if (n > 0 && ring_ == nullptr) {
            ring_ = std::make_unique<Interval[]>(kCap);
        }
        for (std::uint64_t i = 0; i < n; ++i) {
            ring_[i].start = r.u64();
            ring_[i].end = r.u64();
            NDP_ASSERT(ring_[i].start < ring_[i].end
                           && (i == 0 || ring_[i - 1].end <= ring_[i].start),
                       "busy intervals not disjoint and sorted");
        }
        count_ = n;
        tailEnd_ = n == 0 ? 0 : ring_[n - 1].end;
        reservations_ = r.u64();
        queueCycles_ = r.u64();
    }

  private:
    struct Interval
    {
        Cycles start;
        Cycles end;
    };

    /** Intervals kept; older ones are in the past and prunable. */
    static constexpr std::size_t kMaxTracked = 128;
    /** Ring capacity: the transient size before popFront(). */
    static constexpr std::size_t kCap = kMaxTracked + 1;

    std::size_t
    slot(std::size_t i) const
    {
        const std::size_t s = head_ + i;
        return s >= kCap ? s - kCap : s;
    }

    const Interval& at(std::size_t i) const { return ring_[slot(i)]; }
    Interval& at(std::size_t i) { return ring_[slot(i)]; }

    /**
     * Index of the first interval with end > t. Requires t < tailEnd_, so
     * the answer is a valid index. Gallops backwards from the tail over
     * distances 1, 2, 4, ... and binary-searches the last bracket; ends
     * are strictly increasing, so this is the index a full binary search
     * finds.
     */
    std::size_t
    firstEndAfter(Cycles t) const
    {
        std::size_t hi = count_ - 1; // at(hi).end > t
        std::size_t lo = 0;
        for (std::size_t step = 1; step <= hi; step *= 2) {
            const std::size_t probe = hi - step;
            if (at(probe).end <= t) {
                lo = probe + 1;
                break;
            }
            hi = probe;
        }
        while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            if (at(mid).end <= t) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        return lo;
    }

    /** Insert `iv` at logical index `pos`, shifting the shorter side. */
    void
    insertAt(std::size_t pos, Interval iv)
    {
        if (pos * 2 >= count_) {
            // Shift the tail [pos, count_) right by one.
            for (std::size_t i = count_; i > pos; --i) {
                at(i) = at(i - 1);
            }
        } else {
            // Shift the head [0, pos) left by one.
            head_ = head_ == 0 ? kCap - 1 : head_ - 1;
            for (std::size_t i = 0; i < pos; ++i) {
                at(i) = at(i + 1);
            }
        }
        ++count_;
        at(pos) = iv;
    }

    void
    popFront()
    {
        head_ = head_ + 1 == kCap ? 0 : head_ + 1;
        --count_;
    }

    double bytesPerCycle_;
    /** Disjoint busy intervals sorted by start (lazily allocated). */
    std::unique_ptr<Interval[]> ring_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    /** End of the last interval (0 when empty): the append test. */
    Cycles tailEnd_ = 0;
    std::uint64_t reservations_ = 0;
    Cycles queueCycles_ = 0;
};

} // namespace ndpext

#endif // NDPEXT_SIM_RESOURCE_H
