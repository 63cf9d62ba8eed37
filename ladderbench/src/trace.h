// SpanRecorder: the traced run's spans around every public call the
// end-to-end path makes (Publish, Drain, sink receipt, Subscribe, and the
// net::Client calls). Spans of one document carry its index. Each thread
// appends to its own buffer, so recording takes no lock after a thread's
// first span; buffers are capped and counted past the cap. Spans stay in
// memory until WriteTsv() at the end of the run.

#ifndef LADDERBENCH_TRACE_H_
#define LADDERBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace ladder {

enum class SpanKind : uint8_t {
  kPublish,          // Service::Publish / PublishToStream
  kDrain,            // Subscription::Drain
  kSinkReceipt,      // MatchSink::OnMatch in the harness's sink
  kSubscribe,        // Service::Subscribe
  kClientPublish,    // net::Client::Publish
  kClientSubscribe,  // net::Client::Subscribe
  kClientPollMatch,  // net::Client::PollMatch
  kCount
};

inline const char* SpanName(SpanKind kind) {
  static const char* kNames[] = {
      "publish",        "drain",          "sink_receipt",     "subscribe",
      "client_publish", "client_subscribe", "client_poll_match"};
  return kNames[static_cast<size_t>(kind)];
}

struct Span {
  uint64_t doc;  // document index, or ~0 when the call is not per document
  int64_t start_ns;
  int64_t end_ns;
  SpanKind kind;
};

class SpanRecorder {
 public:
  static constexpr size_t kKinds = static_cast<size_t>(SpanKind::kCount);

  /// `kinds` is a bit mask over SpanKind; the default records every kind.
  explicit SpanRecorder(uint32_t kinds = ~0u, size_t cap_per_thread = 1 << 18)
      : id_(NextId()), kinds_(kinds), cap_(cap_per_thread) {}

  static constexpr uint32_t Bit(SpanKind kind) {
    return 1u << static_cast<uint32_t>(kind);
  }
  bool wants(SpanKind kind) const {
    return (kinds_ & Bit(kind)) != 0 && enabled_.load(std::memory_order_relaxed);
  }
  /// Pauses or resumes recording (a paused recorder reads no clock).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void Record(SpanKind kind, uint64_t doc, int64_t start_ns, int64_t end_ns) {
    Buffer* b = Local();
    const size_t i = static_cast<size_t>(kind);
    ++b->count[i];
    b->total_ns[i] += end_ns - start_ns;
    if (b->spans.size() < cap_) {
      b->spans.push_back(Span{doc, start_ns, end_ns, kind});
    } else {
      ++b->dropped;
    }
  }

  /// Calls of `kind` and their total duration, across threads. Read only
  /// once the recording threads have synchronized with the caller.
  uint64_t Count(SpanKind kind) const {
    return Sum(kind, [](const Buffer& b, size_t i) { return b.count[i]; });
  }
  double TotalUs(SpanKind kind) const {
    return static_cast<double>(Sum(kind, [](const Buffer& b, size_t i) {
             return static_cast<uint64_t>(b.total_ns[i]);
           })) /
           1e3;
  }
  /// Durations (us) of the stored spans of `kind`.
  std::vector<double> DurationsUs(SpanKind kind) const {
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& b : buffers_) {
      for (const Span& s : b->spans) {
        if (s.kind == kind) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
    return out;
  }

  /// Writes every stored span as "kind<TAB>doc<TAB>start_ns<TAB>end_ns".
  bool WriteTsv(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(f, "kind\tdoc\tstart_ns\tend_ns\n");
    uint64_t dropped = 0;
    for (const auto& b : buffers_) {
      dropped += b->dropped;
      for (const Span& s : b->spans) {
        std::fprintf(f, "%s\t%lld\t%lld\t%lld\n", SpanName(s.kind),
                     s.doc == ~0ull ? -1LL : static_cast<long long>(s.doc),
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
      }
    }
    std::fprintf(f, "# spans past the per-thread cap (counted, not stored): %llu\n",
                 static_cast<unsigned long long>(dropped));
    return std::fclose(f) == 0;
  }

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::array<uint64_t, kKinds> count{};
    std::array<int64_t, kKinds> total_ns{};
    uint64_t dropped = 0;
  };

  static uint64_t NextId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1);
  }

  Buffer* Local() {
    thread_local uint64_t owner = 0;
    thread_local Buffer* buffer = nullptr;
    if (owner != id_) {
      auto b = std::make_unique<Buffer>();
      b->spans.reserve(4096);
      buffer = b.get();
      owner = id_;
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::move(b));
    }
    return buffer;
  }

  template <typename Fn>
  uint64_t Sum(SpanKind kind, Fn fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t n = 0;
    for (const auto& b : buffers_) n += fn(*b, static_cast<size_t>(kind));
    return n;
  }

  const uint64_t id_;
  const uint32_t kinds_;
  const size_t cap_;
  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

/// Times one call into a span when a recorder wanting `kind` is present; a
/// no-op (no clock read) otherwise, which is how the untraced run executes.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, SpanKind kind, uint64_t doc = ~0ull)
      : rec_(rec != nullptr && rec->wants(kind) ? rec : nullptr),
        kind_(kind),
        doc_(doc),
        start_(rec_ != nullptr ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->Record(kind_, doc_, start_, NowNs());
  }
  void set_doc(uint64_t doc) { doc_ = doc; }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  SpanKind kind_;
  uint64_t doc_;
  int64_t start_;
};

}  // namespace ladder

#endif  // LADDERBENCH_TRACE_H_
