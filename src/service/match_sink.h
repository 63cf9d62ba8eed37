// The delivery surface of the pub/sub runtime (DESIGN.md §13): how a
// standing subscription's solutions leave the service.
//
// There is one delivery path: the owning shard hands each solution to the
// subscription's MatchSink as soon as it is proven. The delivery mode only
// chooses the sink:
//
//   * kPush — a caller-provided MatchSink. Nothing is buffered
//     service-side and nobody polls: with 100k subscriptions on the other
//     side of a socket, the server would otherwise spend its life draining
//     99.9% empty queues.
//   * kPull (the default) — a MatchSink built into the service that
//     buffers every delivery until the consumer collects them with
//     Drain(id) at its own pace.
//
// The sink contract is deliberately narrow, because OnMatch runs on a
// shard thread in the middle of the match hot path:
//
//   * OnMatch must be fast and must NEVER block (no socket writes, no
//     waits on queues or locks held across blocking work). A sink that
//     blocks stalls its whole shard — every subscription on it.
//   * Boundedness is the sink's job, refusal is its mechanism: a sink with
//     no room returns false from OnMatch, the service counts the delivery
//     as overflowed (ServiceStats::results_overflowed, /statsz) and calls
//     OnOverflow exactly once for that refused delivery, on the same
//     thread. The delivery is then DROPPED — the service does not retry.
//     What to do about the episode (drop and count, or schedule a
//     disconnect of the slow consumer) is the sink's policy decision,
//     made inside OnOverflow; src/net/server.cc is the canonical
//     implementor of both policies.
//   * Calls for one subscription are serialized (a subscription lives on
//     exactly one shard) and arrive in that shard's delivery order.
//     Different subscriptions sharing one sink may call concurrently from
//     different shard threads; the sink synchronizes its own state.
//   * The service holds a shared_ptr to the sink until the subscription's
//     unsubscribe (or service stop) has been applied by the owning shard,
//     so a sink is never destroyed under a running machine. That
//     unsubscribe applies at its epoch boundary (DESIGN.md §5), not when
//     Unsubscribe(id) returns: every document published before the call
//     is still delivered, so OnMatch calls for such documents may start
//     after Unsubscribe returns. No document published after it returns
//     reaches the sink.

#ifndef VITEX_SERVICE_MATCH_SINK_H_
#define VITEX_SERVICE_MATCH_SINK_H_

#include <cstdint>
#include <memory>
#include <string>

namespace vitex::service {

/// Identifier of one standing subscription. Never reused.
using SubscriptionId = uint64_t;

/// One query solution, as delivered to the subscriber.
struct Delivery {
  std::string fragment;
  /// Document-order sequence number within its document (see
  /// twigm::ResultHandler::OnResult).
  uint64_t sequence = 0;
};

/// Receiver of a subscription's deliveries. See the header comment for the
/// full threading and overflow contract.
class MatchSink {
 public:
  virtual ~MatchSink() = default;

  /// One solution for subscription `id`. Runs on the owning shard's
  /// thread; must be fast and must not block. Return false to refuse the
  /// delivery (no room): the service drops it, counts it overflowed, and
  /// calls OnOverflow.
  virtual bool OnMatch(SubscriptionId id, const Delivery& delivery) = 0;

  /// A delivery for `id` was just refused by OnMatch and dropped.
  /// `dropped_total` is the running count of drops for this subscription.
  /// Same thread as the refusing OnMatch call; same blocking rules.
  virtual void OnOverflow(SubscriptionId id, uint64_t dropped_total) = 0;
};

enum class DeliveryMode : uint8_t {
  kPull = 0,  ///< built-in buffering sink; consumer calls Drain(id)
  kPush = 1,  ///< caller's MatchSink; Drain(id) is an error
};

/// Per-subscription delivery configuration for
/// StreamService::Subscribe(xpath, SinkOptions).
struct SinkOptions {
  DeliveryMode mode = DeliveryMode::kPull;
  /// Required (non-null) when mode == kPush; must be null for kPull. The
  /// service shares ownership until the unsubscribe is fully applied.
  std::shared_ptr<MatchSink> sink;
};

}  // namespace vitex::service

#endif  // VITEX_SERVICE_MATCH_SINK_H_
