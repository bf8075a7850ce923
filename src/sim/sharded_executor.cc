#include "sim/sharded_executor.h"

namespace ndpext {

ShardedExecutor::ShardedExecutor(std::uint32_t threads)
{
    // The caller participates in every job, so spawn threads-1 workers.
    for (std::uint32_t i = 1; i < threads; ++i) {
        workers_.emplace_back([this] { workerLoop(); });
    }
}

ShardedExecutor::~ShardedExecutor()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    jobReady_.notify_all();
    for (std::thread& worker : workers_) {
        worker.join();
    }
}

void
ShardedExecutor::forEachShard(std::size_t count,
                              const std::function<void(std::size_t)>& fn)
{
    if (count == 0) {
        return;
    }
    if (workers_.empty() || count == 1) {
        for (std::size_t i = 0; i < count; ++i) {
            fn(i);
        }
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_ = &fn;
        count_ = count;
        next_.store(0, std::memory_order_relaxed);
        ++generation_;
    }
    jobReady_.notify_all();
    runJob(fn, count);
    // Every shard was claimed once runJob returns; those claimed by
    // workers are done when no worker is left inside runJob.
    std::unique_lock<std::mutex> lock(mutex_);
    jobDone_.wait(lock, [this] { return active_ == 0; });
    job_ = nullptr;
}

void
ShardedExecutor::runJob(const std::function<void(std::size_t)>& fn,
                        std::size_t count)
{
    for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
         i < count; i = next_.fetch_add(1, std::memory_order_relaxed)) {
        fn(i);
    }
}

void
ShardedExecutor::workerLoop()
{
    std::uint64_t seen = 0;
    while (true) {
        const std::function<void(std::size_t)>* job = nullptr;
        std::size_t count = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            jobReady_.wait(lock, [this, seen] {
                return stop_ || generation_ != seen;
            });
            if (stop_) {
                return;
            }
            seen = generation_;
            if (job_ == nullptr) {
                continue; // woke after that job finished
            }
            job = job_;
            count = count_;
            ++active_;
        }
        runJob(*job, count);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --active_;
        }
        jobDone_.notify_all();
    }
}

} // namespace ndpext
