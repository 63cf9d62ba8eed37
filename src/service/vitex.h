// ViteX public API facade — the one header an embedding application (or a
// protocol front end, src/net/) includes to run the streaming-XPath
// pub/sub service.
//
// The runtime underneath (service::StreamService) grew its surface by
// accretion: Subscribe/Drain/Publish/PublishToStream plus a family of
// stats structs. This header consolidates that into the small, documented,
// stable API:
//
//   vitex::Service       — the pub/sub engine: subscribe XPath queries,
//                          publish XML documents, deliveries fan out to
//                          every matching subscription.
//   vitex::Subscription  — an RAII handle: owns one standing subscription
//                          and unsubscribes when destroyed. Pull mode
//                          buffers deliveries for Drain(); push mode hands
//                          each delivery to a caller MatchSink as it is
//                          produced (match_sink.h).
//
// Everything a caller needs is reachable from here: Status/Result for
// errors (common/status.h — the same coarse StatusCode enum the wire
// protocol in src/net/ transports 1:1), SinkOptions/MatchSink/Delivery
// for delivery modes, ServiceOptions for construction-time tuning, and
// ServiceStats/StatszText() for observability. The wire protocol
// (DESIGN.md §13) is defined purely in terms of the operations on this
// facade; anything not expressible here is not on the wire.
//
// Thread safety: every method on Service is safe to call from any thread.
// A Subscription handle itself is NOT thread-safe (one owner at a time,
// like a file handle), but different handles are independent. Handles
// must not outlive their Service.

#ifndef VITEX_SERVICE_VITEX_H_
#define VITEX_SERVICE_VITEX_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "service/match_sink.h"
#include "service/stream_service.h"

namespace vitex {

// The facade's vocabulary, re-exported at the public namespace so callers
// write `vitex::Delivery`, never `vitex::service::...`.
using service::Delivery;
using service::DeliveryMode;
using service::MatchSink;
using service::ServiceStats;
using service::ShardStatsSnapshot;
using service::SinkOptions;
using service::StreamStatsSnapshot;
using service::SubscriptionId;
using ServiceOptions = service::StreamServiceOptions;

class Service;

/// Owns one standing subscription; unsubscribes on destruction.
///
/// Obtained from Service::Subscribe. Move-only: the handle that goes out
/// of scope last (or has Unsubscribe() called on it) ends the
/// subscription at that moment's epoch boundary. A default-constructed or
/// moved-from handle is inactive and does nothing on destruction.
class Subscription {
 public:
  Subscription() = default;
  ~Subscription() { (void)CancelIfActive(); }

  Subscription(Subscription&& other) noexcept
      : service_(other.service_), id_(other.id_) {
    other.service_ = nullptr;
  }
  Subscription& operator=(Subscription&& other) noexcept {
    if (this != &other) {
      (void)CancelIfActive();
      service_ = other.service_;
      id_ = other.id_;
      other.service_ = nullptr;
    }
    return *this;
  }
  Subscription(const Subscription&) = delete;
  Subscription& operator=(const Subscription&) = delete;

  /// True while this handle owns a live subscription.
  bool active() const { return service_ != nullptr; }

  /// The service-wide subscription id (what the wire protocol transports).
  SubscriptionId id() const { return id_; }

  /// Collects pending deliveries of a pull-mode subscription (error for
  /// push mode). Deliveries of one document arrive only after its owning
  /// shard finished that document — Service::Flush() forces completion.
  Result<std::vector<Delivery>> Drain();

  /// Ends the subscription now (instead of at destruction). Idempotent:
  /// the handle becomes inactive; later calls return OK.
  Status Unsubscribe();

 private:
  friend class Service;
  Subscription(service::StreamService* svc, SubscriptionId id)
      : service_(svc), id_(id) {}

  Status CancelIfActive();

  service::StreamService* service_ = nullptr;
  SubscriptionId id_ = 0;
};

/// The ViteX streaming-XPath pub/sub service (paper: many standing XPath
/// subscriptions, streams of XML documents, incremental match delivery).
///
/// Construction starts the worker threads (ServiceOptions::shard_count
/// match shards, ServiceOptions::stream_count publisher streams);
/// destruction (or Stop()) drains and joins them. See
/// service/stream_service.h for the runtime architecture.
class Service {
 public:
  explicit Service(ServiceOptions options = {}) : impl_(std::move(options)) {}

  /// Registers a pull-mode standing subscription: deliveries buffer
  /// internally until the handle's Drain(). `xpath` is a path or a union
  /// `p1 | p2 | ...`, which delivers each selected node once per document.
  /// The subscription sees every document published after this call
  /// returns and none published before it was called (epoch-exact;
  /// DESIGN.md §9).
  Result<Subscription> Subscribe(std::string_view xpath) {
    return Subscribe(xpath, SinkOptions{});
  }

  /// Registers a standing subscription with an explicit delivery mode.
  /// Push mode (options.sink) delivers on an internal thread as matches
  /// are produced — see match_sink.h for the full contract.
  Result<Subscription> Subscribe(std::string_view xpath,
                                 SinkOptions options) {
    Result<SubscriptionId> id = impl_.Subscribe(xpath, std::move(options));
    VITEX_RETURN_IF_ERROR(id.status());
    return Subscription(&impl_, id.value());
  }

  /// Publishes one XML document to every subscription, on a round-robin
  /// publisher stream. Blocks only under backpressure (bounded ingest
  /// queues); processing is asynchronous. A document that fails to parse
  /// counts as rejected and is dropped without stopping the service.
  Status Publish(std::string document) {
    return impl_.Publish(std::move(document));
  }

  /// Publish pinned to one stream: documents published to the same stream
  /// are parsed, matched and delivered in publish order (cross-stream
  /// order is unspecified). `stream` must be < stream_count().
  Status PublishToStream(size_t stream, std::string document) {
    return impl_.PublishToStream(stream, std::move(document));
  }

  /// Blocks until everything published (and every subscribe/unsubscribe
  /// issued) before this call has been fully processed by every shard.
  Status Flush() { return impl_.Flush(); }

  /// Drains all queues, stops every worker thread and returns the first
  /// error the service encountered. Idempotent; the destructor calls it.
  Status Stop() { return impl_.Stop(); }

  size_t shard_count() const { return impl_.shard_count(); }
  size_t stream_count() const { return impl_.stream_count(); }

  /// A consistent snapshot of every pipeline counter (documents, events,
  /// deliveries, overflow drops, queue depths/watermarks, per-shard and
  /// per-stream detail).
  ServiceStats stats() const { return impl_.stats(); }

  /// The /statsz payload: stats() plus the per-stage latency histograms,
  /// in Prometheus text exposition format (DESIGN.md §10). This is what
  /// the TCP front end serves for STATS frames and HTTP GET /statsz.
  std::string StatszText() const { return impl_.StatszText(); }

 private:
  friend class Subscription;
  service::StreamService impl_;
};

inline Result<std::vector<Delivery>> Subscription::Drain() {
  if (service_ == nullptr) {
    return Status::InvalidArgument("subscription handle is inactive");
  }
  return service_->Drain(id_);
}

inline Status Subscription::Unsubscribe() {
  if (service_ == nullptr) return Status::OK();
  return CancelIfActive();
}

inline Status Subscription::CancelIfActive() {
  if (service_ == nullptr) return Status::OK();
  service::StreamService* svc = service_;
  service_ = nullptr;
  return svc->Unsubscribe(id_);
}

}  // namespace vitex

#endif  // VITEX_SERVICE_VITEX_H_
