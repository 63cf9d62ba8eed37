// Bounded blocking queue: the backpressure primitive of the pub/sub
// runtime (DESIGN.md §5, §9) — every stream's ingest queue and every
// shard's inbox.
//
// BoundedQueue is a multi-producer / multi-consumer FIFO. Push blocks while
// the queue is full, so a fast publisher is throttled to the speed of the
// slowest consumer instead of buffering unboundedly — exactly the behaviour
// a streaming service needs when "heavy traffic" outruns a shard. Close()
// releases everyone: pending items still drain (Pop keeps returning them),
// further Push calls fail, and Pop returns nullopt once the queue is empty.
//
// The drain guarantee — tested behaviour, not aspiration (see
// tests/service/bounded_queue_test.cc, including the multi-producer
// stress):
//   * a Push that returned true has its item delivered by exactly one Pop,
//     even when Push races Close() on a full queue (no loss, no dupes);
//   * a Push that returned false enqueued nothing;
//   * consumers blocked in Pop wake on Close() only after the queue is
//     empty, so shutdown never discards accepted work.
//
// Producer fairness: concurrent Push calls are admitted in arrival order
// (a ticket turnstile), so one hot producer cannot starve another out of a
// full queue indefinitely — with M publishers feeding a stream, or M
// parser streams feeding a shard inbox, this is what keeps per-producer
// latency bounded.
//
// Every internal field is GUARDED_BY the queue mutex and every wait
// predicate is a REQUIRES-annotated method (DESIGN.md §11), so the lock
// discipline is checked at compile time under -Werror=thread-safety.
//
// Handoff latency (DESIGN.md §12): consumers spin briefly — bounded
// lock/probe/unlock rounds with pause instructions between them — before
// registering as condvar waiters, and producers/consumers only touch a
// condvar when the waiter count says someone is actually asleep. In a busy
// pipeline of small documents both sides of every handoff would otherwise
// pay a futex syscall per item (the consumer drains faster than the
// producer feeds, so it would sleep between every pair of items); with the
// spin phase the wake disappears from the producer's critical path and the
// consumer picks the item up within the probe window. An idle queue still
// parks its consumer after one bounded spin episode.

#ifndef VITEX_SERVICE_BOUNDED_QUEUE_H_
#define VITEX_SERVICE_BOUNDED_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <thread>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>

#include "common/mutex.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"

namespace vitex::service {

namespace queue_internal {

// Consumer spin budget before parking on the condvar: this many
// lock/probe/unlock rounds, kRelaxPerProbe pause instructions apart. ~64
// probes x ~(uncontended lock + 32 pauses) covers a few tens of
// microseconds — enough to bridge the inter-document gap of a busy
// small-document pipeline without keeping an idle core hot for long.
inline constexpr size_t kSpinProbes = 64;
inline constexpr int kRelaxPerProbe = 32;

// Spinning only pays when the producer can make progress while the
// consumer spins, i.e. on a machine with real parallelism. On a single
// hardware thread every spin round steals time from the producer that
// would fill the queue, so the budget collapses to one probe (check, then
// park) there.
inline size_t SpinProbes() {
  static const size_t probes =
      std::thread::hardware_concurrency() > 1 ? kSpinProbes : 1;
  return probes;
}

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

inline void RelaxBetweenProbes() {
  for (int i = 0; i < kRelaxPerProbe; ++i) CpuRelax();
}

}  // namespace queue_internal

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity < 1 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks until there is room (backpressure), then enqueues. Returns
  /// false — without enqueueing — if the queue is (or becomes) closed.
  /// Concurrent pushers are admitted strictly in arrival order.
  bool Push(T item) {
    bool wake_consumer, wake_producers;
    {
      MutexLock lock(mu_);
      const uint64_t ticket = push_tail_++;
      if (!PushAdmitted(ticket)) {
        // Backpressure stall: time only the waits, so the uncontended push
        // pays one extra predicate check and nothing else.
        const int64_t blocked_from = MonotonicNanos();
        ++push_waiters_;
        do {
          not_full_.Wait(mu_);
        } while (!PushAdmitted(ticket));
        --push_waiters_;
        blocked_nanos_ += static_cast<uint64_t>(MonotonicNanos() - blocked_from);
      }
      if (closed_) return false;
      ++push_head_;
      items_.push_back(std::move(item));
      if (items_.size() > high_watermark_) high_watermark_ = items_.size();
      pushed_.fetch_add(1);
      // Wake only threads that are actually parked: a consumer in its spin
      // phase (or between items) will see this item on its next probe, and
      // signalling an empty waitqueue is a wasted syscall on the hot path.
      wake_consumer = pop_waiters_ > 0;
      wake_producers = push_waiters_ > 0;
    }
    if (wake_consumer) not_empty_.NotifyOne();
    // The next ticket holder may have been waiting only for its turn; it
    // is not necessarily the waiter notify_one would pick.
    if (wake_producers) not_full_.NotifyAll();
    return true;
  }

  /// Blocks until an item is available and dequeues it. Returns nullopt
  /// only when the queue is closed *and* fully drained, so no enqueued
  /// item is ever lost to a shutdown race. Spins briefly before parking
  /// (see the header comment).
  std::optional<T> Pop() {
    std::optional<T> item;
    bool wake_producers = false;
    const size_t spin_probes = queue_internal::SpinProbes();
    for (size_t probe = 0; probe < spin_probes; ++probe) {
      {
        MutexLock lock(mu_);
        if (closed_ && items_.empty()) return std::nullopt;
        if (!items_.empty()) {
          item = std::move(items_.front());
          items_.pop_front();
          wake_producers = push_waiters_ > 0;
        }
      }
      if (item.has_value()) {
        if (wake_producers) not_full_.NotifyAll();
        return item;
      }
      queue_internal::RelaxBetweenProbes();
    }
    {
      MutexLock lock(mu_);
      ++pop_waiters_;
      while (!closed_ && items_.empty()) not_empty_.Wait(mu_);
      --pop_waiters_;
      if (items_.empty()) return std::nullopt;
      item = std::move(items_.front());
      items_.pop_front();
      wake_producers = push_waiters_ > 0;
    }
    if (wake_producers) not_full_.NotifyAll();
    return item;
  }

  /// Closes the queue: wakes every waiter, fails future Push calls, lets
  /// Pop drain what remains. Idempotent.
  void Close() {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    not_full_.NotifyAll();
    not_empty_.NotifyAll();
  }

  /// Items currently queued (a snapshot; for stats/monitoring).
  size_t size() const {
    MutexLock lock(mu_);
    return items_.size();
  }

  /// Successful pushes so far. Monotonic; incremented while the push holds
  /// the queue lock, so the count order IS the FIFO order — the k-th
  /// successful push is the k-th item popped (the invariant the
  /// multi-producer stress test pins, and the count a StreamService epoch
  /// cut is taken in). Increment and read are seq_cst, so a thread that
  /// announces itself before reading the count is seen by whoever pops an
  /// item the read missed.
  uint64_t pushed_count() const { return pushed_.load(); }

  size_t capacity() const { return capacity_; }

  /// Deepest the queue has ever been (backpressure headroom telemetry).
  size_t high_watermark() const {
    MutexLock lock(mu_);
    return high_watermark_;
  }

  /// Total nanoseconds producers have spent blocked in Push waiting for
  /// room (or their turnstile turn). Monotonic; the /statsz backpressure
  /// stall counter.
  uint64_t producer_blocked_nanos() const {
    MutexLock lock(mu_);
    return blocked_nanos_;
  }

 private:
  /// The Push admission predicate: the caller's ticket is being served AND
  /// there is room (or the queue closed, which releases every waiter).
  bool PushAdmitted(uint64_t ticket) const REQUIRES(mu_) {
    return closed_ || (ticket == push_head_ && items_.size() < capacity_);
  }

  mutable Mutex mu_;
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<T> items_ GUARDED_BY(mu_);
  // Threads parked (or about to park) on the matching condvar; a notify is
  // skipped entirely while the count is zero.
  size_t push_waiters_ GUARDED_BY(mu_) = 0;
  size_t pop_waiters_ GUARDED_BY(mu_) = 0;
  const size_t capacity_;
  // Ticket turnstile for producer FIFO admission: a pusher proceeds only
  // when its ticket is being served AND there is room.
  uint64_t push_tail_ GUARDED_BY(mu_) = 0;
  uint64_t push_head_ GUARDED_BY(mu_) = 0;
  // Atomic (not merely guarded) so pushed_count() stays a lock-free read
  // for monitoring threads and epoch cuts; the store still happens under
  // mu_, which is what makes the count order the FIFO order.
  std::atomic<uint64_t> pushed_{0};
  size_t high_watermark_ GUARDED_BY(mu_) = 0;
  uint64_t blocked_nanos_ GUARDED_BY(mu_) = 0;
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace vitex::service

#endif  // VITEX_SERVICE_BOUNDED_QUEUE_H_
