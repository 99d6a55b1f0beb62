#include "sim/event_queue.hh"

#include <algorithm>

namespace snap
{

Event::~Event()
{
    snap_assert(!scheduled_,
                "event '%s' destroyed while scheduled",
                name_.c_str());
}

EventQueue::~EventQueue()
{
    // Pooled wrappers still sitting in the queue (simulation torn
    // down mid-flight) are owned by poolChunks_; silence the
    // still-scheduled assertion before the chunks are freed.
    std::uint64_t remaining = poolAllocs_;
    for (auto &chunk : poolChunks_) {
        const std::uint64_t used =
            std::min<std::uint64_t>(remaining, poolChunkSize);
        for (std::uint64_t i = 0; i < used; ++i)
            chunk[i].scheduled_ = false;
        remaining -= used;
    }
}

void
EventQueue::schedule(Event *event, Tick when)
{
    scheduleImpl(event, when);
}

void
EventQueue::insertSorted(Bucket &bk, const Entry &e)
{
    // Out-of-order arrivals still land near the tail (interleaved
    // wire-latency streams put them a handful of slots back, measured
    // ~5 on the fig17 trace), so a backward linear scan finds the slot
    // in a few well-predicted compares where a binary search would eat
    // log2(n) mispredicts.
    std::size_t i = bk.entries.size();
    const std::size_t lo = bk.drainPos;
    while (i > lo) {
        const Entry &p = bk.entries[i - 1];
        if (p.when < e.when || (p.when == e.when && p.seq < e.seq))
            break;
        --i;
    }
    bk.entries.insert(bk.entries.begin() + i, e);
}

std::uint32_t
EventQueue::nextOccupied(std::uint32_t cursor) const
{
    // Pass 1: buckets [cursor, numBuckets).
    std::uint32_t w = cursor >> 6;
    std::uint64_t word = occ_[w] & (~0ull << (cursor & 63));
    for (;;) {
        if (word)
            return (w << 6) +
                   static_cast<std::uint32_t>(__builtin_ctzll(word));
        if (++w == occ_.size())
            break;
        word = occ_[w];
    }
    // Pass 2 (wrap): buckets [0, cursor).
    const std::uint32_t cw = cursor >> 6;
    for (w = 0; w <= cw; ++w) {
        word = occ_[w];
        if (w == cw) {
            const std::uint32_t bits = cursor & 63;
            word &= bits ? ((1ull << bits) - 1) : 0ull;
        }
        if (word)
            return (w << 6) +
                   static_cast<std::uint32_t>(__builtin_ctzll(word));
    }
    return noBucket;
}

void
EventQueue::resetBucket(std::uint32_t b)
{
    Bucket &bk = buckets_[b];
    bk.entries.clear();
    bk.drainPos = 0;
    occ_[b >> 6] &= ~(1ull << (b & 63));
}

EventQueue::Head
EventQueue::findHead()
{
    // Ring candidate: first occupied bucket in ring order from the
    // current-time cursor.  Ring entries are always within nearSpan
    // of curTick_ (delta < nearSpan at insert, and time only moves
    // forward), so no two entries in one bucket are a lap apart and
    // the first occupied bucket holds the ring minimum.
    Head head;
    if (ringCount_ != 0) {
        const std::uint32_t cursor =
            static_cast<std::uint32_t>(curTick_ >> bucketShift) &
            bucketMask;
        std::uint32_t b;
        while ((b = nextOccupied(cursor)) != noBucket) {
            Bucket &bk = buckets_[b];
            while (staleEntries_ != 0 &&
                   bk.drainPos < bk.entries.size() &&
                   stale(bk.entries[bk.drainPos])) {
                ++bk.drainPos;
                --ringCount_;
                --staleEntries_;
            }
            if (bk.drainPos == bk.entries.size()) {
                resetBucket(b);
                if (ringCount_ == 0)
                    break;
                continue;
            }
            const Entry &e = bk.entries[bk.drainPos];
            head.when = e.when;
            head.bucket = b;
            head.valid = true;
            break;
        }
    }

    // Heap candidate, pruning stale tops.
    while (!overflow_.empty()) {
        const Entry &top = overflow_.top();
        if (staleEntries_ != 0 && stale(top)) {
            overflow_.pop();
            --staleEntries_;
            continue;
        }
        bool heapWins = !head.valid || top.when < head.when;
        if (!heapWins && top.when == head.when) {
            const Bucket &bk = buckets_[head.bucket];
            heapWins = top.seq < bk.entries[bk.drainPos].seq;
        }
        if (heapWins) {
            head.when = top.when;
            head.bucket = noBucket;
            head.valid = true;
        }
        break;
    }
    return head;
}

void
EventQueue::serviceHead(const Head &head)
{
    snap_assert(head.valid, "servicing an empty queue");
    hostprof::Scope hpq(hostprof::Phase::Queue);
    Event *ev;
    if (head.bucket != noBucket) {
        Bucket &bk = buckets_[head.bucket];
        ev = bk.entries[bk.drainPos].event;
        ++bk.drainPos;
        --ringCount_;
        if (bk.drainPos == bk.entries.size())
            resetBucket(head.bucket);
    } else {
        ev = overflow_.top().event;
        overflow_.pop();
    }

    snap_assert(head.when >= curTick_, "time went backwards");
    curTick_ = head.when;
    ev->scheduled_ = false;
    --live_;
    ++processed_;

    if (trace_) [[unlikely]]
        trace_->fanout.push_back(0);

    hostprof::Scope hpd(hostprof::Phase::Dispatch);
    if (ev->pooled_) {
        // Pooled one-shots are the hot case: call through the stored
        // function pointer directly (no virtual dispatch) and return
        // the wrapper to the free list.
        auto *cb = static_cast<PooledCallback *>(ev);
        cb->invoke_(cb->store_);
        recycle(cb);
    } else {
        ev->process();
    }
}

void
EventQueue::deschedule(Event *event)
{
    snap_assert(event != nullptr && event->scheduled_,
                "descheduling an unscheduled event");
    // Lazy deletion: mark unscheduled; the stale queue entry is
    // discarded when it surfaces.  Pooled one-shots go straight back
    // to the free list (the pool keeps the storage alive, so the
    // stale entry is safe to examine later; its seq check rejects
    // any reuse).
    event->scheduled_ = false;
    --live_;
    ++staleEntries_;
    if (event->pooled_)
        recycle(event);
}

void
EventQueue::reschedule(Event *event, Tick when)
{
    snap_assert(event != nullptr && !event->pooled_,
                "rescheduling a pooled one-shot");
    if (event->scheduled_)
        deschedule(event);
    schedule(event, when);
}

void
EventQueue::recycle(Event *ev)
{
    auto *cb = static_cast<PooledCallback *>(ev);
    cb->reset();  // drop captured state now, not at reuse
    cb->inFreeList_ = true;
    cb->nextFree_ = freeHead_;
    freeHead_ = cb;
}

EventQueue::PooledCallback *
EventQueue::growPool()
{
    const std::uint64_t used = poolAllocs_ % poolChunkSize;
    if (used == 0)
        poolChunks_.push_back(
            std::make_unique<PooledCallback[]>(poolChunkSize));
    PooledCallback *cb = &poolChunks_.back()[used];
    cb->pooled_ = true;
    ++poolAllocs_;
    return cb;
}

void
EventQueue::clearPending()
{
    auto drop = [this](const Entry &e) {
        Event *ev = e.event;
        if (stale(e)) {
            snap_assert(staleEntries_ != 0,
                        "stale accounting underflow in clearPending");
            --staleEntries_;
            return;
        }
        ev->scheduled_ = false;
        --live_;
        if (ev->pooled_)
            recycle(ev);
    };
    for (std::uint32_t b = 0; b < numBuckets; ++b) {
        Bucket &bk = buckets_[b];
        for (std::size_t i = bk.drainPos; i < bk.entries.size(); ++i)
            drop(bk.entries[i]);
        if (!bk.entries.empty())
            resetBucket(b);
    }
    ringCount_ = 0;
    while (!overflow_.empty()) {
        drop(overflow_.top());
        overflow_.pop();
    }
    snap_assert(live_ == 0, "live events survived clearPending");
    snap_assert(staleEntries_ == 0,
                "stale entries survived clearPending");
}

// flatten: pull findHead/serviceHead into the dispatch loop; they are
// too large for the inliner's default budget but run once per event.
__attribute__((flatten)) std::uint64_t
EventQueue::run(std::uint64_t max_events)
{
    std::uint64_t fired = 0;
    while (live_ != 0 && fired < max_events) {
        // Ring fast path: the first occupied bucket can be drained in
        // place up to the overflow head's tick.  The overflow bound
        // is loop-invariant for the bucket: new overflow pushes land
        // a full nearSpan past curTick, far beyond this bucket's
        // upper edge, so caching the head's tick at bucket entry is
        // safe.  Stale entries (lazily descheduled — the wire pumps
        // reschedule constantly) are pruned inline so they never
        // force the slow path.  Entries past drainPos stay sorted
        // even while events fire — a handler's new schedules land at
        // or after the drain point (insertSorted starts there) or in
        // a later bucket, never earlier.
        if (ringCount_ != 0) {
            const Tick ovfWhen =
                overflow_.empty() ? maxTick : overflow_.top().when;
            const std::uint32_t cursor =
                static_cast<std::uint32_t>(curTick_ >> bucketShift) &
                bucketMask;
            const std::uint32_t b = nextOccupied(cursor);
            Bucket &bk = buckets_[b];
            const std::uint64_t firedBefore = fired;
            while (bk.drainPos < bk.entries.size() &&
                   fired < max_events) {
                // Copy: the handler may grow this bucket's vector.
                hostprof::Scope hpq(hostprof::Phase::Queue);
                const Entry e = bk.entries[bk.drainPos];
                if (staleEntries_ != 0 && stale(e)) [[unlikely]] {
                    ++bk.drainPos;
                    --ringCount_;
                    --staleEntries_;
                    continue;
                }
                // At or past the overflow head, the heap must
                // arbitrate (a same-tick overflow entry can carry an
                // earlier sort key): drop to the slow path.
                if (e.when >= ovfWhen)
                    break;
                ++bk.drainPos;
                --ringCount_;
                snap_assert(e.when >= curTick_,
                            "time went backwards");
                curTick_ = e.when;
                Event *ev = e.event;
                ev->scheduled_ = false;
                --live_;
                ++processed_;
                ++fired;
                if (trace_) [[unlikely]]
                    trace_->fanout.push_back(0);
                hostprof::Scope hpd(hostprof::Phase::Dispatch);
                if (ev->pooled_) {
                    auto *cb = static_cast<PooledCallback *>(ev);
                    cb->invoke_(cb->store_);
                    recycle(cb);
                } else {
                    ev->process();
                }
            }
            if (bk.drainPos == bk.entries.size())
                resetBucket(b);
            if (fired != firedBefore)
                continue;
        }
        serviceHead(findHead());
        ++fired;
    }
    return fired;
}

__attribute__((flatten)) std::uint64_t
EventQueue::runUntil(Tick until)
{
    std::uint64_t fired = 0;
    while (live_ != 0) {
        Head head = findHead();
        if (!head.valid || head.when > until)
            break;
        serviceHead(head);
        ++fired;
    }
    return fired;
}

__attribute__((flatten)) std::uint64_t
EventQueue::runBefore(Tick limit)
{
    std::uint64_t fired = 0;
    while (live_ != 0) {
        Head head = findHead();
        if (!head.valid || head.when >= limit)
            break;
        serviceHead(head);
        ++fired;
    }
    return fired;
}

} // namespace snap
