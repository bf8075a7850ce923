/**
 * @file
 * Thread pool that runs per-stack simulation shards between epoch
 * barriers.
 *
 * forEachShard(n, fn) invokes fn(0..n-1) exactly once each and returns
 * only when all invocations are done (a barrier). Shards must touch only
 * shard-private state (see DESIGN.md section 5), so the invocation order
 * is irrelevant to the results: the same shard decomposition runs with
 * any thread count -- including 1, where everything executes inline on
 * the caller -- and produces bit-identical output.
 */

#ifndef NDPEXT_SIM_SHARDED_EXECUTOR_H
#define NDPEXT_SIM_SHARDED_EXECUTOR_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ndpext {

/**
 * Threads that run `shards` shards when `requested` are asked for: at
 * least one (the caller) and at most one per shard, since a thread with
 * no shard to claim only idles at the barrier.
 */
constexpr std::uint32_t
shardThreads(std::uint32_t requested, std::uint32_t shards)
{
    return std::max<std::uint32_t>(std::min(requested, shards), 1);
}

class ShardedExecutor
{
  public:
    /** @param threads total worker count including the caller (>= 1). */
    explicit ShardedExecutor(std::uint32_t threads);
    ~ShardedExecutor();

    ShardedExecutor(const ShardedExecutor&) = delete;
    ShardedExecutor& operator=(const ShardedExecutor&) = delete;

    /** Run fn(0..count-1), each exactly once; blocks until all done. */
    void forEachShard(std::size_t count,
                      const std::function<void(std::size_t)>& fn);

    std::uint32_t threads() const
    {
        return static_cast<std::uint32_t>(workers_.size()) + 1;
    }

  private:
    void workerLoop();
    void runJob(const std::function<void(std::size_t)>& fn, std::size_t count);

    std::vector<std::thread> workers_;

    // A worker reads job_ and count_ under the mutex and counts itself in
    // active_ before running any shard; forEachShard returns (and clears
    // job_) only once active_ is back to 0. So a worker that wakes late
    // either sees no job or a job whose caller is still waiting for it.
    std::mutex mutex_;
    std::condition_variable jobReady_;
    std::condition_variable jobDone_;
    std::uint64_t generation_ = 0;
    bool stop_ = false;
    const std::function<void(std::size_t)>* job_ = nullptr;
    std::size_t count_ = 0;
    std::size_t active_ = 0;

    std::atomic<std::size_t> next_{0};
};

} // namespace ndpext

#endif // NDPEXT_SIM_SHARDED_EXECUTOR_H
