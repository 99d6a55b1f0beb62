/**
 * @file
 * Bounded MPMC work queue with reject-on-full admission control.
 *
 * The serving engine's backpressure point: producers tryPush() and
 * get an immediate reject when the queue is at capacity (the caller
 * answers RequestStatus::Rejected), consumers block in pop() until an
 * item or shutdown arrives.  FIFO order is total across producers —
 * the engine relies on this for per-session ordering (a session's
 * requests are admitted under one lock, so queue order == submission
 * order == session sequence order).
 *
 * Storage is a fixed ring buffer sized at construction, so tryPush
 * never allocates and the queue's memory is bounded by its capacity.
 * T must therefore be default-constructible and move-assignable.
 *
 * Header-only template so tests can exercise it on plain ints; the
 * engine instantiates it over move-only pending-request records.
 */

#ifndef SNAP_SERVE_REQUEST_QUEUE_HH
#define SNAP_SERVE_REQUEST_QUEUE_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace snap
{
namespace serve
{

template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(std::size_t capacity)
        : slots_(capacity), cap_(capacity)
    {
        snap_assert(capacity > 0, "BoundedQueue capacity 0");
    }

    BoundedQueue(const BoundedQueue &) = delete;
    BoundedQueue &operator=(const BoundedQueue &) = delete;

    /**
     * Admit @p item unless the queue is full or closed.
     * @return true when enqueued; on false @p item is left unmoved,
     *         so the caller still owns it (rejection path).
     */
    bool
    tryPush(T &item)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (closed_ || size_ >= cap_)
                return false;
            slots_[(head_ + size_) % cap_] = std::move(item);
            ++size_;
            if (size_ > highWater_)
                highWater_ = size_;
        }
        notEmpty_.notify_one();
        return true;
    }

    bool
    tryPush(T &&item)
    {
        return tryPush(item);
    }

    /**
     * Blocking dequeue.  @return the next item in FIFO order, or
     * nullopt once the queue is closed and drained (consumer exit
     * signal).
     */
    std::optional<T>
    pop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        notEmpty_.wait(lock, [&] { return closed_ || size_ > 0; });
        if (size_ == 0)
            return std::nullopt;
        T item = std::move(slots_[head_]);
        head_ = (head_ + 1) % cap_;
        --size_;
        return item;
    }

    /** Stop admissions and wake every blocked consumer; already-
     *  queued items still drain. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            closed_ = true;
        }
        notEmpty_.notify_all();
    }

    std::size_t
    depth() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return size_;
    }

    std::size_t
    highWater() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return highWater_;
    }

    std::size_t capacity() const { return cap_; }

    bool
    closed() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return closed_;
    }

  private:
    mutable std::mutex mu_;
    std::condition_variable notEmpty_;
    std::vector<T> slots_;  // fixed ring; tryPush never allocates
    const std::size_t cap_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::size_t highWater_ = 0;
    bool closed_ = false;
};

} // namespace serve
} // namespace snap

#endif // SNAP_SERVE_REQUEST_QUEUE_HH
