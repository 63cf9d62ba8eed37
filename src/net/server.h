// ViteX TCP serving surface (DESIGN.md §13): persistent framed sessions
// over the public facade (service/vitex.h).
//
// One epoll thread owns every socket: accept, read, frame decode, request
// dispatch, write flushing, connection teardown. Requests map 1:1 onto
// facade calls; MATCH delivery is the push-sink path — each connection
// registers ONE ConnectionSink (a vitex::MatchSink) shared by all of its
// subscriptions, and shard threads encode MATCH frames straight into that
// connection's bounded output buffer as matches are produced. The epoll
// thread never copies a match twice and shard threads never touch a
// socket.
//
// Backpressure discipline (the wire extension of the BoundedQueue rule —
// every buffer bounded, overflow explicit):
//
//   * ingest:  PUBLISH handling calls Service::Publish, which blocks on
//     the bounded ingest queues. While it blocks, the epoll thread is not
//     reading, so TCP flow control pushes back on publishers. Slow SHARDS
//     slow publishers down; they never balloon memory.
//   * egress:  each connection's outbuf is capped (max_outbuf_bytes). A
//     MATCH that would overflow the cap is REFUSED (OnMatch -> false) and
//     the service counts it as overflowed; what happens next is the
//     slow_consumer_policy:
//       - kDisconnect (default): the connection is evicted — pending
//         output is discarded, BYE(kEvicted) is sent best-effort, the
//         socket closes. One stalled reader costs O(max_outbuf_bytes) and
//         is then gone; ingest throughput for everyone else is unaffected.
//       - kDropMatches: the connection stays; overflowing MATCH frames
//         are dropped (counted in vitex_net_matches_dropped_total and the
//         service's results_overflowed). Sequence numbers let the client
//         see the gap.
//     Responses (ACK/SUBSCRIBED/PONG/...) are epoll-thread writes and
//     bypass the cap: they are small and bounded by the request rate the
//     server itself reads.
//
// The same port speaks HTTP GET for scrapes: a connection whose first
// bytes are "GET " is served /statsz (Prometheus text: service metrics +
// the vitex_net_* series below) and closed. Everything else on that
// connection grammar is the framed protocol (net/protocol.h).

#ifndef VITEX_NET_SERVER_H_
#define VITEX_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "service/vitex.h"

namespace vitex::net {

/// What to do with a connection whose outbuf cap a MATCH would overflow.
enum class SlowConsumerPolicy : uint8_t {
  kDisconnect = 0,  ///< evict: discard pending output, BYE(kEvicted), close
  kDropMatches = 1  ///< keep the session, drop overflowing MATCH frames
};

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port; Server::port() reports the
  /// actual one (how tests and the load driver connect).
  uint16_t port = 0;
  /// Non-empty: HELLO must carry exactly this token or the connection is
  /// refused with BYE(kAuthFailed). Empty: open server, token ignored.
  std::string auth_token;
  /// Banner echoed in WELCOME (diagnostics only).
  std::string banner = "vitex";
  /// Per-frame payload ceiling for CLIENT frames (decoder bound).
  size_t max_frame_size = kDefaultMaxFrameSize;
  /// Per-connection output buffer cap — the slow-consumer bound.
  size_t max_outbuf_bytes = 4u * 1024 * 1024;
  SlowConsumerPolicy slow_consumer_policy = SlowConsumerPolicy::kDisconnect;
  int listen_backlog = 1024;
  /// When > 0, SO_SNDBUF for accepted sockets. Bounding the KERNEL's
  /// send buffer makes max_outbuf_bytes the real end-to-end bound per
  /// slow consumer (TCP autotuning would otherwise absorb megabytes
  /// before the outbuf cap ever filled); tests and the load driver use a
  /// small value to make eviction prompt and deterministic.
  int so_sndbuf = 0;
};

/// Counter snapshot of the vitex_net_* series (same numbers /statsz
/// exposes; struct form for tests and the load driver).
struct NetStatsSnapshot {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t connections_evicted = 0;
  uint64_t connections_active = 0;
  uint64_t auth_failures = 0;
  uint64_t protocol_errors = 0;
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t matches_sent = 0;
  uint64_t matches_dropped = 0;
  uint64_t http_requests = 0;
  uint64_t outbuf_high_watermark = 0;
};

/// The TCP front end. Start() binds, listens and spawns the epoll thread;
/// Stop() (or destruction) closes every session with BYE(kShutdown) and
/// joins it. The Service must outlive the Server.
///
/// Thread safety: Start/Stop/port/stats/StatszText are safe from any
/// thread; all connection state is owned by the epoll thread.
class Server {
 public:
  static Result<std::unique_ptr<Server>> Start(Service* service,
                                               ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Stops accepting, tears down every connection, joins the epoll
  /// thread. Idempotent.
  Status Stop();

  /// The bound TCP port (resolves ServerOptions::port == 0).
  uint16_t port() const { return port_; }

  NetStatsSnapshot stats() const;

  /// Service StatszText() plus the vitex_net_* series — the payload of
  /// both STATS frames and HTTP GET /statsz.
  std::string StatszText() const;

 private:
  struct Connection;
  class ConnectionSink;

  /// Cross-thread wakeup channel, shared (shared_ptr) by the server and
  /// every ConnectionSink. Sinks outlive their connection — the service
  /// keeps them alive until the unsubscribe op is applied — and may
  /// outlive the Server itself, so everything a sink touches besides its
  /// own state lives here, and `wake_fd < 0` means "server gone, do
  /// nothing".
  struct WakeState {
    Mutex mu;
    int wake_fd GUARDED_BY(mu) = -1;  // eventfd; -1 once the server died
    std::vector<int> dirty GUARDED_BY(mu);  // connection fds to service

    /// Queues `fd` for the epoll thread and signals the eventfd. Safe
    /// from any thread, any time (no-op after server teardown).
    void MarkDirty(int fd);
  };

  /// Raw pointers into registry_ (registered once at Start).
  struct Metrics {
    obs::Counter* connections_accepted = nullptr;
    obs::Counter* connections_closed = nullptr;
    obs::Counter* connections_evicted = nullptr;
    obs::Gauge* connections_active = nullptr;
    obs::Counter* auth_failures = nullptr;
    obs::Counter* protocol_errors = nullptr;
    obs::Counter* frames_in = nullptr;
    obs::Counter* frames_out = nullptr;
    obs::Counter* bytes_in = nullptr;
    obs::Counter* bytes_out = nullptr;
    obs::Counter* matches_sent = nullptr;
    obs::Counter* matches_dropped = nullptr;
    obs::Counter* http_requests = nullptr;
    obs::Gauge* outbuf_high_watermark = nullptr;
  };

  Server(Service* service, ServerOptions options);

  Status Init();  // bind/listen/epoll/eventfd setup, called by Start
  void Run();     // the epoll loop (epoll thread body)

  // --- epoll-thread-only helpers (Connection state is single-threaded) ---
  void AcceptReady();
  void HandleReadable(Connection* conn);
  void HandleHttp(Connection* conn, std::string_view bytes);
  void DispatchFrame(Connection* conn, const Frame& frame);
  void HandleHello(Connection* conn, const Frame& frame);
  /// Appends a response frame to the connection's outbuf (cap-exempt).
  void SendControl(Connection* conn, std::string bytes);
  void SendError(Connection* conn, uint64_t request_id, const Status& status);
  void FailProtocol(Connection* conn, uint64_t request_id,
                    const Status& status);
  /// Flushes as much outbuf as the socket accepts; arms/disarms EPOLLOUT;
  /// closes the connection on write error or completed BYE flush.
  void FlushOutbuf(Connection* conn);
  void Evict(Connection* conn);
  void CloseConnection(Connection* conn);
  void DrainWakeups();
  void UpdateWriteInterest(Connection* conn, bool want_write);

  Service* const service_;
  const ServerOptions options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  // Epoll thread's unlocked copy of wake_->wake_fd (same eventfd; the
  // locked field exists for sinks that may outlive the server).
  int wake_read_fd_ = -1;
  uint16_t port_ = 0;
  std::shared_ptr<WakeState> wake_;
  std::atomic<bool> stop_requested_{false};
  std::thread thread_;

  Mutex lifecycle_mu_;
  bool stopped_ GUARDED_BY(lifecycle_mu_) = false;

  // Connection table — epoll thread only.
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;

  obs::Registry registry_;
  Metrics metrics_;
};

}  // namespace vitex::net

#endif  // VITEX_NET_SERVER_H_
