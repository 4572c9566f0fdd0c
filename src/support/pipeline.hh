/**
 * @file
 * Generic asynchronous-pipeline primitives: a multi-producer
 * single-consumer-per-item work queue and a joinable worker pool.
 *
 * These are the building blocks of the hot-translation pipeline
 * (core/hot_pipeline.hh) but carry no translator knowledge, so future
 * subsystems (sharded dispatch, persistent-cache writeback) can reuse
 * them. Everything here is synchronized with a mutex + condition
 * variable; the performance-sensitive determinism machinery (simulated
 * worker timelines) lives with the consumer, not here.
 */

#ifndef EL_SUPPORT_PIPELINE_HH
#define EL_SUPPORT_PIPELINE_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace el::support
{

/**
 * Bounded-free MPSC-style work queue. Multiple producers may push;
 * any number of workers may pop (each item is delivered exactly once).
 * close() wakes every blocked pop, which then drains remaining items
 * and finally returns false.
 */
template <typename T>
class WorkQueue
{
  public:
    /** Enqueue one item (wakes one waiting worker). */
    void
    push(T item)
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            items_.push_back(std::move(item));
        }
        cv_.notify_one();
    }

    /**
     * Blocking pop: waits for an item or queue closure. Returns false
     * only when the queue is closed and fully drained.
     */
    bool
    pop(T *out)
    {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return closed_ || !items_.empty(); });
        if (items_.empty())
            return false;
        *out = std::move(items_.front());
        items_.pop_front();
        return true;
    }

    /** Close the queue: no further pushes are expected. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            closed_ = true;
        }
        cv_.notify_all();
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return items_.size();
    }

  private:
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<T> items_;
    bool closed_ = false;
};

/**
 * A fixed set of joinable threads. The body is invoked once per thread
 * with the worker index and is expected to loop until its input source
 * (typically a WorkQueue) is closed.
 */
class WorkerPool
{
  public:
    using Body = std::function<void(unsigned worker)>;

    WorkerPool() = default;
    ~WorkerPool() { join(); }

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Spawn @p count threads running @p body(worker_index). */
    void start(unsigned count, Body body);

    /** Join every thread (idempotent). Close the input source first. */
    void join();

    unsigned size() const { return static_cast<unsigned>(threads_.size()); }

  private:
    std::vector<std::thread> threads_;
};

} // namespace el::support

#endif // EL_SUPPORT_PIPELINE_HH
