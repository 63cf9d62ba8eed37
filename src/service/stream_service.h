// StreamService: a sharded, multi-threaded pub/sub runtime over the TwigM
// pipeline — the paper's motivating deployment (stock tickers, sports
// feeds, personalized newspapers: many streams, many standing
// subscriptions) run across cores. See DESIGN.md §5 and §9.
//
// Architecture (threads left to right):
//
//   Publish ──▶ [stream queue 0..M-1] ──▶ M parser threads ──▶ ┐
//   Subscribe/Unsubscribe/Flush ──markers into every stream──▶ ┘
//                                                              │
//                              [per-shard inbox: M lanes, one per stream,
//                               merged under a barrier-marker discipline]
//                                                              │
//                                  shard 0..N-1 threads, each a private
//                                  MultiQueryEngine
//
//   * M publisher streams, each with its OWN parser thread: a published
//     document is parsed once, on its stream's thread, into an
//     xml::EventLog (symbol- and sequence-stamped), then the log is
//     replayed into every shard — M documents parse concurrently, and
//     N shards still cost one parse each.
//   * The shared SymbolTable is FROZEN (read-only) while streams run, so
//     all M parser threads resolve symbols concurrently without write
//     locks (parse-side resolution is lookup-only; misses stamp
//     kAbsentSymbol). Only a Subscribe whose query names a tag or
//     attribute the table lacks briefly quiesces the parsers to mint it:
//     unfreeze, intern, refreeze.
//   * Epoch discipline: every control op (Subscribe/Unsubscribe/Flush) is
//     a MARKER pushed into every stream's queue, in one consistent order
//     across streams. Stream threads forward markers to every shard lane
//     in FIFO position; a shard applies the op once the marker has arrived
//     on ALL of its lanes, holding back each lane at the point its marker
//     appeared. Subscribe/Unsubscribe therefore apply at exact
//     document-epoch boundaries — a subscription sees every document
//     published after the Subscribe call returned, and none published
//     before it was called — and per-subscriber match order stays
//     deterministic within a stream (cross-stream interleaving is
//     unordered by design). DESIGN.md §9 has the deadlock-freedom
//     argument.
//   * Every queue is bounded: a slow shard backpressures the parser
//     streams, which backpressure Publish. Nothing buffers unboundedly.
//   * Results leave through one path: the shard thread hands each one to
//     its subscription's MatchSink (match_sink.h). A pull-mode
//     subscription's sink is a built-in buffer that Drain(id) empties at
//     the caller's pace.

#ifndef VITEX_SERVICE_STREAM_SERVICE_H_
#define VITEX_SERVICE_STREAM_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/interner.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "service/bounded_queue.h"
#include "service/match_sink.h"
#include "twigm/multi_query.h"
#include "xml/event_log.h"

namespace vitex::service {

struct StreamServiceOptions {
  /// Worker shards (each one thread + one MultiQueryEngine). Clamped to 1.
  size_t shard_count = 4;
  /// Concurrent publisher streams (each one parser thread + one bounded
  /// ingest queue). Clamped to 1. Publish() spreads documents round-robin;
  /// PublishToStream pins a document to a stream when per-stream FIFO
  /// ordering matters to the caller.
  size_t stream_count = 1;
  /// Capacity of each stream's ingest queue and of each per-shard inbox
  /// lane. Smaller values bound memory harder and backpressure sooner.
  size_t queue_capacity = 64;
  /// Parser options for the per-stream ingest parses. The `symbols` field
  /// is overridden with the service's shared table.
  xml::SaxParserOptions sax_options;
  /// Options applied to every subscription's TwigM machine.
  twigm::TwigMachine::Options machine_options;
  /// Stage-latency tracing (DESIGN.md §10): stamp every published document
  /// with a monotonic timestamp and record per-stage latency histograms
  /// (ingest-queue wait, parse, shard-queue wait, match+deliver, and
  /// end-to-end publish→last-shard-done) into the service's metric
  /// registry, exposed by StatszText(). Costs a few clock reads and
  /// relaxed atomic increments per document per shard — bounded ≤3% of
  /// BM_ServiceThroughput by the BM_MetricsOverhead bench axis. Flag off
  /// to shed even that; counters and queue watermarks stay on regardless.
  bool enable_tracing = true;
};

/// Per-shard counters (monotonic except queue_depth/live_queries/
/// live_machines).
struct ShardStatsSnapshot {
  uint64_t documents = 0;  ///< documents fully processed by this shard
  uint64_t events = 0;     ///< SAX events replayed into this shard
  size_t queue_depth = 0;  ///< items queued across this shard's inbox lanes
  /// Deepest the inbox has ever been (all lanes totalled) — how close the
  /// shard came to stalling its producers.
  size_t queue_high_watermark = 0;
  /// Total ns parser streams spent blocked pushing into this shard's inbox
  /// (this shard was the pipeline bottleneck). Monotonic.
  uint64_t fanout_blocked_nanos = 0;
  size_t live_queries = 0;
  /// Plan machines actually executing this shard's queries — under plan
  /// sharing (DESIGN.md §7) far below live_queries when subscriptions
  /// share skeletons (`//quote[@symbol = 'X']/price` per ticker X).
  size_t live_machines = 0;
  twigm::DispatchStats dispatch;  ///< as of the last completed document
};

/// Per-stream counters (monotonic except queue_depth).
struct StreamStatsSnapshot {
  uint64_t documents_published = 0;  ///< accepted by Publish on this stream
  uint64_t documents_parsed = 0;     ///< parsed OK on this stream's thread
  uint64_t documents_rejected = 0;   ///< failed to parse on this stream
  uint64_t events_parsed = 0;        ///< SAX events recorded on this stream
  size_t queue_depth = 0;            ///< this stream's ingest queue
  /// Deepest this stream's ingest queue has ever been.
  size_t queue_high_watermark = 0;
  /// Total ns publishers spent blocked in Publish on this stream's queue
  /// (backpressure reached the caller). Monotonic.
  uint64_t publish_blocked_nanos = 0;
};

/// Service-wide snapshot (stats()).
struct ServiceStats {
  uint64_t documents_published = 0;  ///< accepted by Publish
  uint64_t documents_rejected = 0;   ///< failed to parse on ingest
  uint64_t documents_processed = 0;  ///< completed by EVERY shard (min)
  uint64_t events_parsed = 0;        ///< SAX events recorded on ingest
  uint64_t events_replayed = 0;      ///< sum over shards
  uint64_t results_delivered = 0;    ///< OnResult calls across all sinks
  /// Push-mode deliveries refused by their MatchSink and dropped (the
  /// OnOverflow contract, match_sink.h). Disjoint from results_delivered.
  uint64_t results_overflowed = 0;
  uint64_t active_subscriptions = 0;
  /// Sum of live plan machines over shards (<= active_subscriptions; the
  /// gap is what hash-consed plan sharing saves per event).
  uint64_t active_plan_machines = 0;
  size_t ingest_queue_depth = 0;  ///< sum over the stream ingest queues
  double uptime_seconds = 0;
  /// documents_processed / uptime. Held at 0 until uptime reaches
  /// StreamService::kMinRateUptimeSeconds: a stats() call microseconds
  /// after construction would otherwise extrapolate a handful of
  /// documents into a nonsense per-second figure.
  double docs_per_sec = 0;
  double events_per_sec = 0;  ///< events_replayed / uptime (same floor)
  std::vector<ShardStatsSnapshot> shards;
  std::vector<StreamStatsSnapshot> streams;
};

class StreamService {
 public:
  explicit StreamService(StreamServiceOptions options = {});
  ~StreamService();  // Stop()s if still running

  StreamService(const StreamService&) = delete;
  StreamService& operator=(const StreamService&) = delete;

  /// Registers a standing pull-mode subscription (results collected with
  /// Drain). Equivalent to Subscribe(xpath, SinkOptions{}).
  Result<SubscriptionId> Subscribe(std::string_view xpath);

  /// Registers a standing subscription with an explicit delivery mode
  /// (match_sink.h). `xpath` is a path or a union `p1 | p2 | ...`; a union
  /// delivers each selected node once per document. The query compiles
  /// synchronously on this thread; if it names something the shared
  /// SymbolTable lacks, the call unfreezes the table to intern it, briefly
  /// quiescing the parser streams. It installs in its shard at this call's
  /// epoch boundary, where a machine is built only if no plan instance
  /// can take it. The subscription receives results for every
  /// document published after this call returns, and none published
  /// before it was called. In push mode, deliveries go straight to
  /// `options.sink` on the owning shard's thread and Drain(id) is an
  /// error; in pull mode `options.sink` must be null.
  Result<SubscriptionId> Subscribe(std::string_view xpath,
                                   SinkOptions options);

  /// Ends a subscription at this call's epoch boundary; undrained results
  /// are discarded and the id becomes invalid immediately. The boundary is
  /// the epoch rule, not the return: every document published before this
  /// call is still delivered — to a push-mode sink possibly after this
  /// returns, since those documents may still be in the pipeline — and
  /// none published after it returns (match_sink.h).
  Status Unsubscribe(SubscriptionId id);

  /// Collects a pull-mode subscription's pending results (thread-safe;
  /// any thread). Results of one document arrive only after the owning
  /// shard finishes that document (Flush() to force completion). Calling
  /// this on a push-mode subscription is an InvalidArgument error.
  Result<std::vector<Delivery>> Drain(SubscriptionId id);

  /// Publishes one complete XML document to every subscription, on a
  /// round-robin-chosen stream. Blocks only for backpressure (the stream's
  /// ingest queue is full); processing is asynchronous. A document that
  /// fails to parse is counted rejected and dropped; it does not stop the
  /// service.
  Status Publish(std::string document);

  /// Publish with an explicit stream choice: documents published to the
  /// same stream by the same caller are parsed, replayed and delivered in
  /// publish order (cross-stream order is unspecified). `stream` must be
  /// < stream_count().
  Status PublishToStream(size_t stream, std::string document);

  /// Blocks until everything published (and every subscribe/unsubscribe
  /// issued) before this call has been fully processed by every shard.
  /// Returns the first shard error, if any.
  Status Flush();

  /// Drains all queues, stops every thread, and returns the first error
  /// the service encountered (ingest parse errors excluded — those only
  /// count as rejected documents). Idempotent; called by the destructor.
  Status Stop();

  size_t shard_count() const { return shards_.size(); }
  size_t stream_count() const { return streams_.size(); }
  ServiceStats stats() const;

  /// Minimum uptime before stats() reports docs_per_sec/events_per_sec;
  /// below it the rates are 0 (division-by-near-zero guard).
  static constexpr double kMinRateUptimeSeconds = 0.1;

  /// The /statsz payload: every pipeline counter, queue watermark/stall gauge, per-shard dispatch
  /// stat, and — when enable_tracing is on — the per-stage latency
  /// histograms with p50/p90/p99/max summaries, in Prometheus text
  /// exposition format. Thread-safe; snapshot semantics match stats().
  std::string StatszText() const;

 private:
  class SubscriberSink;
  class DrainBuffer;
  struct FlushGate;
  struct ControlOp;
  struct StreamItem;
  struct ShardItem;
  struct Stream;
  struct Shard;
  struct DocTrace;

  void StreamLoop(Stream* stream);
  void ShardLoop(Shard* shard);
  size_t ShardOf(SubscriptionId id) const;
  bool ShardHandles(const Shard& shard, const ControlOp& op) const;
  void RecordError(const Status& status) EXCLUDES(mu_);
  /// Applies one control op on the shard's thread, at its epoch boundary
  /// (all lane markers arrived) or force-applied during shutdown drain.
  void ApplyControl(Shard* shard, ControlOp* op);
  /// Pushes `op` as a marker into EVERY stream queue, under control_mu_ so
  /// concurrent ops enter all queues in one consistent total order (the
  /// correctness precondition of the shard-side barrier; DESIGN.md §9).
  /// Returns false if the service is stopping (some queue closed).
  bool EmitControl(std::shared_ptr<ControlOp> op) REQUIRES(control_mu_);

  StreamServiceOptions options_;
  // Shared by every stream's parser and every shard engine. FROZEN
  // (read-only) while streams run: stream threads hold symbols_.mu()
  // shared for the duration of a parse and only Lookup; Subscribe looks
  // its query's names up under the shared lock too, and holds it exclusive
  // around Unfreeze → Intern → Freeze only to mint a name the table lacks,
  // so mutation never overlaps a lookup — the capability lives in the
  // table itself and the phase flips are REQUIRES-checked (DESIGN.md §11).
  // Shard threads read it under the shared lock while registering a
  // subscription (a plan miss's machine looks its names up); documents
  // reach them as replayed events with stamped integer symbols.
  SymbolTable symbols_;

  std::vector<std::unique_ptr<Stream>> streams_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // The serialized control lane: holds marker emission so control ops are
  // totally ordered.
  Mutex control_mu_;

  // Held for the whole of Stop() so concurrent stops (destructor racing an
  // explicit Stop) wait for the joins instead of returning early.
  Mutex stop_mu_;
  mutable Mutex mu_;
  // Live subscriptions, each mapped to the buffer Drain(id) empties (null
  // for push mode). Routing is recomputed from the id by ShardOf; the
  // owning shard holds the subscription's SubscriberSink (and through it
  // the MatchSink) until it applies the unsubscribe, so a sink is never
  // destroyed under a running machine.
  std::unordered_map<SubscriptionId, std::shared_ptr<DrainBuffer>>
      subscriptions_ GUARDED_BY(mu_);
  Status first_error_ GUARDED_BY(mu_);
  bool stopped_ GUARDED_BY(mu_) = false;

  // Hot-path metrics (DESIGN.md §10). Each stream/shard registers its own
  // histogram instances under shared names at construction; the registry
  // merges them when StatszText() renders, so recording never contends
  // across threads. Null instance pointers when enable_tracing is off.
  obs::Registry registry_;
  obs::Histogram* e2e_hist_ = nullptr;  // publish → last-shard-done

  std::atomic<uint64_t> next_subscription_{1};
  std::atomic<uint64_t> next_stream_{0};  // Publish round-robin cursor
  std::atomic<uint64_t> documents_published_{0};
  std::atomic<uint64_t> documents_rejected_{0};
  std::atomic<uint64_t> events_parsed_{0};
  std::atomic<uint64_t> results_delivered_{0};
  std::atomic<uint64_t> results_overflowed_{0};
  std::chrono::steady_clock::time_point start_;
};

}  // namespace vitex::service

#endif  // VITEX_SERVICE_STREAM_SERVICE_H_
