// The end-to-end loops: one set-up system under test per workload (a
// Target) and the closed and open loops that publish into it.
//
// A Target is built exactly the way a user would build the service for the
// workload's shape — through the public facade (service/vitex.h), and for
// the wire workload through net::Server and net::Client — and its
// construction (service, server, sessions, every Subscribe, first Flush) is
// what setup_s measures.

#ifndef LADDERBENCH_DRIVE_H_
#define LADDERBENCH_DRIVE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checker.h"
#include "common/result.h"
#include "net/server.h"
#include "service/vitex.h"
#include "trace.h"
#include "workloads.h"

namespace ladder {

struct TargetOptions {
  /// Overrides the workload's shard count (the ladder's 1 x 1 rungs).
  std::optional<size_t> shards;
  Mode mode = Mode::kPush;
  bool stage_tracing = true;  // ServiceOptions::enable_tracing
  SpanRecorder* spans = nullptr;
  /// Self-test fault injection: tamper with the Nth delivery (1-based) of
  /// one subscription. 0 = off.
  uint64_t fault_at = 0;
  enum class Fault { kNone, kDrop, kDuplicate, kAlter } fault = Fault::kNone;
};

class Target {
 public:
  /// A target is built in two steps. New allocates the harness's side, the
  /// delivery checker that verifies every delivery from then on. Start
  /// builds and subscribes the system under test; that call alone is the
  /// timed set-up. Create does both.
  static std::unique_ptr<Target> New(const Workload& w, TargetOptions options);
  virtual vitex::Status Start() { return vitex::Status::OK(); }
  static vitex::Result<std::unique_ptr<Target>> Create(const Workload& w,
                                                       TargetOptions options);
  virtual ~Target() = default;

  DeliveryChecker& checker() { return *checker_; }
  const Workload& workload() const { return *workload_; }
  virtual vitex::Service& service() = 0;
  virtual const vitex::net::Server* server() const { return nullptr; }

  /// Publishes document k (the caller began it on the checker).
  virtual vitex::Status Publish(uint64_t k) = 0;
  /// Waits until fewer than `limit` documents are outstanding.
  virtual bool WaitOutstandingBelow(uint64_t limit, int64_t deadline_ns) = 0;
  /// Spends the time until `t_ns` (sleeping, or serving sockets).
  virtual void IdleUntil(int64_t t_ns) = 0;
  /// Flushes and waits until every published document completed.
  virtual bool Quiesce(int64_t deadline_ns) = 0;
  /// Failures the checker cannot see: failed Drain calls, and on the wire
  /// failed Publish calls, dead sessions and MATCH frames for unknown
  /// subscriptions.
  virtual uint64_t side_failures() const = 0;
  /// Subscribe calls made by the set-up.
  virtual uint64_t control_calls() const = 0;
  virtual vitex::Status Stop() = 0;

 protected:
  const Workload* workload_ = nullptr;
  std::unique_ptr<DeliveryChecker> checker_;
};

/// Flushes `t`, waits up to `timeout_s` for every document, stops it, and
/// collects what failed:
/// documents whose deliveries differ from ground truth or never completed,
/// deliveries no document accounts for, failed calls, rejected documents,
/// refused deliveries, dropped MATCH frames, evicted sessions.
struct Settled {
  uint64_t attempted = 0;  // documents begun + control calls
  std::vector<std::pair<std::string, uint64_t>> failures;  // nonzero only
  uint64_t failed() const {
    uint64_t n = 0;
    for (const auto& f : failures) n += f.second;
    return n;
  }
};
Settled Settle(Target* t, double timeout_s = 30);

struct ClosedLoopResult {
  double seconds = 0;
  uint64_t documents = 0;
  std::vector<double> docs_per_s;       // one per interval
  std::vector<double> cpu_ms_per_doc;   // one per interval
  uint64_t ctx_switches = 0;
  bool stalled = false;

  /// Folds in a later slice of the same loop.
  void Add(const ClosedLoopResult& r);
};

/// Keeps `window` documents outstanding for `seconds`, measured in
/// `intervals` equal slices.
ClosedLoopResult RunClosedLoop(Target* t, size_t window, double seconds,
                               int intervals);

struct OpenLoopResult {
  double seconds = 0;
  uint64_t documents = 0;
  std::vector<double> latency_ms;  // due -> last expected delivery
  std::vector<double> gen_lag_ms;  // due -> Publish call
  vitex::Status status;

  /// Folds in a later slice of the same loop.
  void Add(const OpenLoopResult& r);
};

/// Publishes at a fixed `rate` for `seconds` on a fixed schedule, then
/// waits for every document to complete.
OpenLoopResult RunOpenLoop(Target* t, double rate, double seconds);

}  // namespace ladder

#endif  // LADDERBENCH_DRIVE_H_
