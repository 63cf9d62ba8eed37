#include "checker.h"

#include <chrono>

#include "stats.h"

namespace ladder {

DeliveryChecker::DeliveryChecker(const GroundTruth* truth, size_t ring_slots)
    : truth_(truth),
      corpus_docs_(truth->deliveries.size()),
      slots_(ring_slots),
      subs_(truth->subs) {}

bool DeliveryChecker::CanBegin() const {
  const uint64_t k = published();
  return slots_[k % slots_.size()].done.load(std::memory_order_acquire);
}

uint64_t DeliveryChecker::Begin(int64_t due_ns) {
  const uint64_t k = published_.load(std::memory_order_relaxed);
  Slot& s = slot(k);
  s.due_ns = due_ns;
  s.record = recording_;
  s.failed.store(false, std::memory_order_relaxed);
  s.remaining.store(truth_->subs_touched[corpus_index(k)],
                    std::memory_order_relaxed);
  s.done.store(false, std::memory_order_relaxed);
  published_.store(k + 1, std::memory_order_release);
  return k;
}

bool DeliveryChecker::WaitOutstandingBelow(uint64_t limit, int64_t deadline_ns) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto deadline = std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(deadline_ns));
  return cv_.wait_until(lock, deadline, [&] { return outstanding() < limit; });
}

uint64_t DeliveryChecker::OnDelivery(size_t sub, uint64_t sequence,
                                     std::string_view fragment) {
  SubState& s = subs_[sub];
  ++s.deliveries;
  const uint64_t published = published_.load(std::memory_order_acquire);
  const Expect* e = nullptr;
  while (true) {
    if (s.doc >= published) {
      ++s.unattributed;
      return kUnattributed;
    }
    e = &truth_->at(corpus_index(s.doc), sub);
    if (e->count > 0) break;
    ++s.doc;
  }
  const uint64_t k = s.doc;
  ++s.got;
  s.digest += DeliveryDigest(sequence, fragment);
  if (s.got == e->count) {
    Slot& sl = slot(k);
    if (s.digest != e->digest) sl.failed.store(true, std::memory_order_relaxed);
    s.got = 0;
    s.digest = 0;
    ++s.doc;
    if (sl.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) Complete(k);
  }
  return k;
}

void DeliveryChecker::Complete(uint64_t k) {
  Slot& sl = slot(k);
  const int64_t now = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sl.record) latencies_ms_.push_back(static_cast<double>(now - sl.due_ns) / 1e6);
    if (sl.failed.load(std::memory_order_relaxed)) ++failed_documents_;
    sl.done.store(true, std::memory_order_release);
    completed_.fetch_add(1, std::memory_order_acq_rel);
  }
  cv_.notify_all();
}

std::vector<double> DeliveryChecker::TakeLatenciesMs() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  out.swap(latencies_ms_);
  return out;
}

DeliveryChecker::Verdict DeliveryChecker::Check() const {
  Verdict v;
  v.documents = published();
  v.incomplete_documents = v.documents - completed();
  for (const SubState& s : subs_) {
    v.unattributed_deliveries += s.unattributed;
    v.deliveries += s.deliveries;
  }
  std::lock_guard<std::mutex> lock(mu_);
  v.failed_documents = failed_documents_;
  return v;
}

}  // namespace ladder
