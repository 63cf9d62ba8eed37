#include "drive.h"

#include <poll.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <thread>
#include <unordered_map>
#include <utility>

#include "net/client.h"
#include "probes.h"

namespace ladder {
namespace {

using vitex::Status;

constexpr int64_t kMs = 1000000;
constexpr int64_t kStallNs = 20000 * kMs;  // no completion for this long

// Applies the self-test fault (if any) to one delivery, then checks it.
class FaultyDelivery {
 public:
  explicit FaultyDelivery(const TargetOptions& o) : at_(o.fault_at), fault_(o.fault) {}

  uint64_t Deliver(DeliveryChecker* c, size_t sub, uint64_t seq,
                   std::string_view fragment) {
    if (at_ == 0 || seen_.fetch_add(1, std::memory_order_relaxed) + 1 != at_) {
      return c->OnDelivery(sub, seq, fragment);
    }
    switch (fault_) {
      case TargetOptions::Fault::kDrop:
        return DeliveryChecker::kUnattributed;
      case TargetOptions::Fault::kDuplicate:
        c->OnDelivery(sub, seq, fragment);
        return c->OnDelivery(sub, seq, fragment);
      case TargetOptions::Fault::kAlter:
        return c->OnDelivery(sub, seq, std::string(fragment) + "~");
      case TargetOptions::Fault::kNone:
        break;
    }
    return c->OnDelivery(sub, seq, fragment);
  }

 private:
  const uint64_t at_;
  const TargetOptions::Fault fault_;
  std::atomic<uint64_t> seen_{0};
};

// ---------------------------------------------------------------------------
// In-process targets: push (a MatchSink per subscription) or pull (one
// Drain thread polling every subscription).

class InProcessTarget : public Target {
 public:
  InProcessTarget(const Workload& w, TargetOptions o)
      : opt_(std::move(o)), faults_(opt_) {
    workload_ = &w;
    checker_ = std::make_unique<DeliveryChecker>(&w.truth);
  }

  ~InProcessTarget() override { (void)Stop(); }

  Status Start() override {
    vitex::ServiceOptions options;
    options.shard_count = opt_.shards.value_or(workload_->spec.shards);
    options.stream_count = 1;
    options.enable_tracing = opt_.stage_tracing;
    service_ = std::make_unique<vitex::Service>(options);
    for (size_t i = 0; i < workload_->queries.size(); ++i) {
      vitex::SinkOptions sink;
      if (opt_.mode == Mode::kPush) {
        sink.mode = vitex::DeliveryMode::kPush;
        sink.sink = std::make_shared<CheckingSink>(this, i);
      }
      ++control_calls_;
      vitex::Result<vitex::Subscription> sub = [&] {
        ScopedSpan span(opt_.spans, SpanKind::kSubscribe);
        return service_->Subscribe(workload_->queries[i], std::move(sink));
      }();
      VITEX_RETURN_IF_ERROR(sub.status());
      subs_.push_back(std::move(sub).value());
    }
    VITEX_RETURN_IF_ERROR(service_->Flush());
    if (opt_.mode == Mode::kPull) drain_ = std::thread([this] { DrainLoop(); });
    return Status::OK();
  }

  vitex::Service& service() override { return *service_; }

  Status Publish(uint64_t k) override {
    std::string doc = workload_->docs[checker_->corpus_index(k)];
    ScopedSpan span(opt_.spans, SpanKind::kPublish, k);
    return service_->PublishToStream(0, std::move(doc));
  }

  bool WaitOutstandingBelow(uint64_t limit, int64_t deadline_ns) override {
    return checker_->WaitOutstandingBelow(limit, deadline_ns);
  }

  void IdleUntil(int64_t t_ns) override {
    const int64_t now = NowNs();
    if (t_ns - now > kMs / 4) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now - kMs / 5));
    }
    while (NowNs() < t_ns) std::this_thread::yield();
  }

  bool Quiesce(int64_t deadline_ns) override {
    if (!service_->Flush().ok()) side_failures_.fetch_add(1);
    return checker_->WaitOutstandingBelow(1, deadline_ns);
  }

  uint64_t side_failures() const override { return side_failures_.load(); }
  uint64_t control_calls() const override { return control_calls_; }

  Status Stop() override {
    if (drain_.joinable()) {
      stop_drain_.store(true);
      drain_.join();
    }
    Status s = service_ ? service_->Stop() : Status::OK();
    return s;
  }

 private:
  class CheckingSink : public vitex::MatchSink {
   public:
    CheckingSink(InProcessTarget* t, size_t sub) : t_(t), sub_(sub) {}
    bool OnMatch(vitex::SubscriptionId, const vitex::Delivery& d) override {
      ScopedSpan span(t_->opt_.spans, SpanKind::kSinkReceipt);
      span.set_doc(t_->faults_.Deliver(t_->checker_.get(), sub_, d.sequence,
                                       d.fragment));
      return true;
    }
    void OnOverflow(vitex::SubscriptionId, uint64_t) override {}

   private:
    InProcessTarget* t_;
    size_t sub_;
  };

  void DrainLoop() {
    while (!stop_drain_.load(std::memory_order_relaxed)) {
      bool any = false;
      for (size_t i = 0; i < subs_.size(); ++i) {
        ScopedSpan span(opt_.spans, SpanKind::kDrain);
        vitex::Result<std::vector<vitex::Delivery>> got = subs_[i].Drain();
        if (!got.ok()) {
          side_failures_.fetch_add(1);
          continue;
        }
        for (const vitex::Delivery& d : *got) {
          span.set_doc(faults_.Deliver(checker_.get(), i, d.sequence, d.fragment));
        }
        any |= !got->empty();
      }
      if (!any) std::this_thread::yield();
    }
  }

  TargetOptions opt_;
  FaultyDelivery faults_;
  std::atomic<uint64_t> side_failures_{0};
  uint64_t control_calls_ = 0;
  std::unique_ptr<vitex::Service> service_;
  std::vector<vitex::Subscription> subs_;
  std::atomic<bool> stop_drain_{false};
  std::thread drain_;  // last: joined before the members it reads go away
};

// ---------------------------------------------------------------------------
// Wire target: one service behind net::Server on loopback; a publisher
// session and two subscriber sessions holding the subscriptions
// alternately. All three sessions are served by the calling thread.

class WireTarget : public Target {
 public:
  WireTarget(const Workload& w, TargetOptions o) : opt_(std::move(o)), faults_(opt_) {
    workload_ = &w;
    checker_ = std::make_unique<DeliveryChecker>(&w.truth);
  }
  ~WireTarget() override { (void)Stop(); }

  Status Start() override {
    vitex::ServiceOptions options;
    options.shard_count = opt_.shards.value_or(workload_->spec.shards);
    options.stream_count = 1;
    options.enable_tracing = opt_.stage_tracing;
    service_ = std::make_unique<vitex::Service>(options);
    VITEX_ASSIGN_OR_RETURN(server_, vitex::net::Server::Start(service_.get()));
    const uint16_t port = server_->port();
    VITEX_ASSIGN_OR_RETURN(publisher_, vitex::net::Client::Connect("127.0.0.1", port));
    for (auto& s : sessions_) {
      VITEX_ASSIGN_OR_RETURN(s, vitex::net::Client::Connect("127.0.0.1", port));
    }
    for (size_t i = 0; i < workload_->queries.size(); ++i) {
      ++control_calls_;
      vitex::Result<uint64_t> id = [&] {
        ScopedSpan span(opt_.spans, SpanKind::kClientSubscribe);
        return sessions_[i % 2]->Subscribe(workload_->queries[i]);
      }();
      VITEX_RETURN_IF_ERROR(id.status());
      sub_index_[id.value()] = i;
    }
    return service_->Flush();
  }

  vitex::Service& service() override { return *service_; }
  const vitex::net::Server* server() const override { return server_.get(); }

  Status Publish(uint64_t k) override {
    ScopedSpan span(opt_.spans, SpanKind::kClientPublish, k);
    Status s = publisher_->Publish(workload_->docs[checker_->corpus_index(k)]);
    if (!s.ok()) ++side_failures_;
    return s;
  }

  bool WaitOutstandingBelow(uint64_t limit, int64_t deadline_ns) override {
    while (checker_->outstanding() >= limit) {
      const int64_t now = NowNs();
      if (now >= deadline_ns || dead_) return false;
      Pump(std::min(deadline_ns - now, kMs));
    }
    return true;
  }

  void IdleUntil(int64_t t_ns) override {
    for (int64_t now = NowNs(); now < t_ns && !dead_; now = NowNs()) {
      Pump(t_ns - now);
    }
  }

  bool Quiesce(int64_t deadline_ns) override {
    if (!service_->Flush().ok()) ++side_failures_;
    return WaitOutstandingBelow(1, deadline_ns);
  }

  uint64_t side_failures() const override { return side_failures_; }
  uint64_t control_calls() const override { return control_calls_; }

  Status Stop() override {
    publisher_.reset();
    for (auto& s : sessions_) s.reset();
    Status s = server_ ? server_->Stop() : Status::OK();
    if (service_) {
      Status t = service_->Stop();
      if (s.ok()) s = t;
    }
    return s;
  }

 private:
  // Reads every MATCH ready on the subscriber sessions; when none was
  // ready, waits up to `wait_ns` for one.
  void Pump(int64_t wait_ns) {
    if (DrainSessions() > 0 || wait_ns <= 0 || dead_) return;
    std::array<pollfd, 2> fds{};
    for (size_t i = 0; i < sessions_.size(); ++i) {
      fds[i].fd = sessions_[i]->fd();
      fds[i].events = POLLIN;
    }
    timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                static_cast<long>(wait_ns % 1000000000)};
    if (ppoll(fds.data(), fds.size(), &ts, nullptr) > 0) DrainSessions();
  }

  size_t DrainSessions() {
    size_t n = 0;
    for (auto& session : sessions_) {
      while (!dead_) {
        ScopedSpan span(opt_.spans, SpanKind::kClientPollMatch);
        vitex::Result<std::optional<vitex::net::Match>> m = session->PollMatch(0);
        if (!m.ok()) {
          dead_ = true;
          ++side_failures_;
          break;
        }
        if (!m->has_value()) break;
        const vitex::net::Match& match = **m;
        auto it = sub_index_.find(match.subscription_id);
        if (it == sub_index_.end()) {
          ++side_failures_;
          continue;
        }
        span.set_doc(faults_.Deliver(checker_.get(), it->second, match.sequence,
                                     match.fragment));
        ++n;
      }
    }
    return n;
  }

  TargetOptions opt_;
  FaultyDelivery faults_;
  uint64_t side_failures_ = 0;
  uint64_t control_calls_ = 0;
  bool dead_ = false;
  std::unique_ptr<vitex::Service> service_;
  std::unique_ptr<vitex::net::Server> server_;
  std::unique_ptr<vitex::net::Client> publisher_;
  std::array<std::unique_ptr<vitex::net::Client>, 2> sessions_;
  std::unordered_map<uint64_t, size_t> sub_index_;
};

}  // namespace

std::unique_ptr<Target> Target::New(const Workload& w, TargetOptions options) {
  if (options.mode == Mode::kWire) return std::make_unique<WireTarget>(w, std::move(options));
  return std::make_unique<InProcessTarget>(w, std::move(options));
}

vitex::Result<std::unique_ptr<Target>> Target::Create(const Workload& w,
                                                      TargetOptions options) {
  std::unique_ptr<Target> t = New(w, std::move(options));
  VITEX_RETURN_IF_ERROR(t->Start());
  return t;
}

void ClosedLoopResult::Add(const ClosedLoopResult& r) {
  seconds += r.seconds;
  documents += r.documents;
  docs_per_s.insert(docs_per_s.end(), r.docs_per_s.begin(), r.docs_per_s.end());
  cpu_ms_per_doc.insert(cpu_ms_per_doc.end(), r.cpu_ms_per_doc.begin(), r.cpu_ms_per_doc.end());
  ctx_switches += r.ctx_switches;
  stalled |= r.stalled;
}

void OpenLoopResult::Add(const OpenLoopResult& r) {
  seconds += r.seconds;
  documents += r.documents;
  latency_ms.insert(latency_ms.end(), r.latency_ms.begin(), r.latency_ms.end());
  gen_lag_ms.insert(gen_lag_ms.end(), r.gen_lag_ms.begin(), r.gen_lag_ms.end());
  if (status.ok()) status = r.status;
}

Settled Settle(Target* t, double timeout_s) {
  Settled out;
  auto fail = [&out](const char* what, uint64_t n) {
    if (n > 0) out.failures.emplace_back(what, n);
  };
  if (!t->Quiesce(NowNs() + static_cast<int64_t>(timeout_s * 1e9))) {
    fail("quiesce timed out", 1);
  }
  // Stopped, no consumer thread can still touch the checker.
  if (!t->Stop().ok()) fail("service errors", 1);
  const DeliveryChecker::Verdict v = t->checker().Check();
  const vitex::ServiceStats s = t->service().stats();
  out.attempted = v.documents + t->control_calls();
  fail("documents whose deliveries differ from ground truth", v.failed_documents);
  fail("documents missing deliveries", v.incomplete_documents);
  fail("deliveries no document accounts for", v.unattributed_deliveries);
  fail("failed calls, dead sessions or MATCH frames for unknown ids", t->side_failures());
  fail("rejected documents", s.documents_rejected);
  fail("refused deliveries", s.results_overflowed);
  if (const vitex::net::Server* server = t->server()) {
    const vitex::net::NetStatsSnapshot n = server->stats();
    fail("dropped MATCH frames", n.matches_dropped);
    fail("evicted sessions", n.connections_evicted);
  }
  return out;
}

ClosedLoopResult RunClosedLoop(Target* t, size_t window, double seconds,
                               int intervals) {
  DeliveryChecker& c = t->checker();
  ClosedLoopResult r;
  const int64_t start = NowNs();
  const int64_t step = static_cast<int64_t>(seconds * 1e9 / intervals);
  int64_t boundary = start + step;
  int64_t last_t = start;
  int64_t last_progress = start;
  const uint64_t first_done = c.completed();
  uint64_t last_done = first_done;
  const ProcUsage first_use = ReadUsage();
  ProcUsage last_use = first_use;
  while (static_cast<int>(r.docs_per_s.size()) < intervals) {
    const int64_t now = NowNs();
    if (now >= boundary) {
      const uint64_t done = c.completed();
      const ProcUsage use = ReadUsage();
      const double n = static_cast<double>(done - last_done);
      r.docs_per_s.push_back(n / (static_cast<double>(now - last_t) / 1e9));
      r.cpu_ms_per_doc.push_back(
          n > 0 ? (use.cpu_seconds - last_use.cpu_seconds) * 1e3 / n : 0);
      last_t = now;
      last_done = done;
      last_use = use;
      boundary += step;
      continue;
    }
    if (c.outstanding() < window && c.CanBegin()) {
      const uint64_t k = c.Begin(now);
      if (!t->Publish(k).ok()) {
        r.stalled = true;
        break;
      }
      continue;
    }
    const uint64_t before = c.completed();
    t->WaitOutstandingBelow(window, boundary);
    if (c.completed() != before) {
      last_progress = NowNs();
    } else if (NowNs() - last_progress > kStallNs) {
      r.stalled = true;
      break;
    }
  }
  r.seconds = static_cast<double>(NowNs() - start) / 1e9;
  r.documents = c.completed() - first_done;
  r.ctx_switches = ReadUsage().ctx_switches - first_use.ctx_switches;
  return r;
}

OpenLoopResult RunOpenLoop(Target* t, double rate, double seconds) {
  DeliveryChecker& c = t->checker();
  OpenLoopResult r;
  // Start from an empty pipeline, so no document queues behind earlier load.
  if (!t->WaitOutstandingBelow(1, NowNs() + kStallNs)) {
    r.status = vitex::Status::Internal("documents before the open loop never completed");
    return r;
  }
  const int64_t start = NowNs() + 2 * kMs;
  const uint64_t docs = static_cast<uint64_t>(seconds * rate);
  const double period = 1e9 / rate;
  uint64_t i = 0;
  c.SetRecording(true);
  for (; i < docs && r.status.ok(); ++i) {
    const int64_t due = start + static_cast<int64_t>(static_cast<double>(i) * period);
    t->IdleUntil(due);
    while (!c.CanBegin()) {
      if (!t->WaitOutstandingBelow(c.outstanding(), NowNs() + kStallNs)) {
        r.status = vitex::Status::Internal("open loop stalled");
        break;
      }
    }
    if (!r.status.ok()) break;
    r.gen_lag_ms.push_back(static_cast<double>(NowNs() - due) / 1e6);
    r.status = t->Publish(c.Begin(due));
  }
  c.SetRecording(false);
  if (!t->WaitOutstandingBelow(1, NowNs() + kStallNs) && r.status.ok()) {
    r.status = vitex::Status::Internal("open loop documents never completed");
  }
  r.seconds = static_cast<double>(NowNs() - start) / 1e9;
  r.documents = i;
  r.latency_ms = c.TakeLatenciesMs();
  return r;
}

}  // namespace ladder
