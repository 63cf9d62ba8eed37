// DeliveryChecker: attributes every delivery to the published document it
// belongs to, checks each (subscription, document) delivery multiset
// against DOM ground truth, and observes when a document is complete —
// i.e. when its last expected delivery arrived — which is what the closed
// loop's window and the open loop's latency are measured against.
//
// Attribution needs no document id on the wire. Documents are published on
// one stream, so every subscription receives its documents' deliveries in
// publish order; ground truth says how many deliveries subscription s gets
// from document k, so s's delivery stream splits into consecutive
// per-document segments by count. A segment's digest (order-independent,
// stats.h) must equal the ground-truth digest. A dropped, duplicated or
// altered delivery therefore fails its document's digest, leaves a
// document incomplete at the end, or shows up as a delivery no published
// document accounts for — never a silent pass.
//
// Threading: Begin and the Wait* calls come from the one generator thread.
// OnDelivery for a given subscription must come from one thread at a time
// (a subscription lives on one shard), different subscriptions may call
// concurrently.

#ifndef LADDERBENCH_CHECKER_H_
#define LADDERBENCH_CHECKER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "workloads.h"

namespace ladder {

class DeliveryChecker {
 public:
  static constexpr uint64_t kUnattributed = ~0ull;

  /// Document k of the run is corpus document k % truth.deliveries.size().
  /// `ring_slots` bounds the documents that may be outstanding at once.
  explicit DeliveryChecker(const GroundTruth* truth, size_t ring_slots = 1 << 15);

  DeliveryChecker(const DeliveryChecker&) = delete;
  DeliveryChecker& operator=(const DeliveryChecker&) = delete;

  // --- generator side ---------------------------------------------------
  /// Registers the next document, due at `due_ns`; returns its index k.
  /// The caller must have checked CanBegin().
  uint64_t Begin(int64_t due_ns);
  /// True when the next document's ring slot is free.
  bool CanBegin() const;
  /// Documents begun while recording contribute a latency sample.
  void SetRecording(bool on) { recording_ = on; }
  uint64_t published() const { return published_.load(std::memory_order_acquire); }
  uint64_t completed() const { return completed_.load(std::memory_order_acquire); }
  uint64_t outstanding() const { return published() - completed(); }
  size_t corpus_index(uint64_t k) const { return k % corpus_docs_; }

  /// Blocks until fewer than `limit` documents are outstanding (true) or
  /// `deadline_ns` passes (false).
  bool WaitOutstandingBelow(uint64_t limit, int64_t deadline_ns);

  // --- consumer side ----------------------------------------------------
  /// One delivery for subscription `sub`. Returns the index of the
  /// document it was attributed to, or kUnattributed.
  uint64_t OnDelivery(size_t sub, uint64_t sequence, std::string_view fragment);

  // --- results ------------------------------------------------------------
  /// Latency samples (due -> last delivery, ms) of recorded documents
  /// completed so far; clears them.
  std::vector<double> TakeLatenciesMs();

  struct Verdict {
    uint64_t documents = 0;         // begun
    uint64_t failed_documents = 0;  // digest mismatch
    uint64_t incomplete_documents = 0;
    uint64_t unattributed_deliveries = 0;
    uint64_t deliveries = 0;
    uint64_t failures() const {
      return failed_documents + incomplete_documents + unattributed_deliveries;
    }
  };
  /// Call once every delivery of every begun document should have arrived.
  Verdict Check() const;

 private:
  struct Slot {
    int64_t due_ns = 0;
    bool record = false;
    std::atomic<uint32_t> remaining{0};
    std::atomic<bool> failed{false};
    std::atomic<bool> done{true};
  };
  struct alignas(64) SubState {
    uint64_t doc = 0;  // document of the segment being filled
    uint32_t got = 0;
    uint64_t digest = 0;
    uint64_t deliveries = 0;
    uint64_t unattributed = 0;
  };

  Slot& slot(uint64_t k) { return slots_[k % slots_.size()]; }
  void Complete(uint64_t k);

  const GroundTruth* truth_;
  const size_t corpus_docs_;
  std::vector<Slot> slots_;
  std::vector<SubState> subs_;
  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> completed_{0};
  bool recording_ = false;  // generator thread only

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<double> latencies_ms_;  // guarded by mu_
  uint64_t failed_documents_ = 0;     // guarded by mu_
};

}  // namespace ladder

#endif  // LADDERBENCH_CHECKER_H_
