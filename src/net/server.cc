#include "net/server.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include "net/protocol.h"

#if defined(__linux__)
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace vitex::net {

namespace {

Status Errno(const char* what) {
  return Status::IoError(std::string(what) + ": " +
                         std::strerror(errno));
}

}  // namespace

void Server::WakeState::MarkDirty(int fd) {
  MutexLock lock(mu);
  if (wake_fd < 0) return;  // server is gone; nobody will ever drain
  dirty.push_back(fd);
#if defined(__linux__)
  uint64_t one = 1;
  // Best effort: EAGAIN means the counter is already hot and a wakeup is
  // coming anyway.
  (void)!::write(wake_fd, &one, sizeof(one));
#endif
}

// ---------------------------------------------------------------------------
// ConnectionSink: the bounded per-connection output buffer, and the only
// object shard threads share with a connection. OnMatch/OnOverflow run on
// shard threads (match_sink.h contract: non-blocking, refusal = drop);
// everything else runs on the epoll thread. The sink can outlive both its
// connection and the Server (the service holds it until the unsubscribe
// op lands), so after Close() every entry point is a same-mutex no-op
// that touches nothing outside the sink.
// ---------------------------------------------------------------------------

class Server::ConnectionSink : public MatchSink {
 public:
  enum class FlushResult { kDrained, kBlocked, kError };

  ConnectionSink(int fd, size_t max_outbuf, SlowConsumerPolicy policy,
                 std::shared_ptr<WakeState> wake, const Metrics* metrics)
      : fd_(fd),
        max_outbuf_(max_outbuf),
        policy_(policy),
        wake_(std::move(wake)),
        metrics_(metrics) {}

  // --- shard-thread entry points -------------------------------------------

  bool OnMatch(SubscriptionId id, const Delivery& delivery) override {
    bool signal = false;
    {
      MutexLock lock(mu_);
      if (closed_ || evict_requested_) return false;
      if (pending_bytes() + MatchFrameSize(delivery.fragment) >
          max_outbuf_) {
        // Refusal: the service counts the overflow and calls OnOverflow,
        // where the slow-consumer policy decides the connection's fate.
        return false;
      }
      const bool was_idle = pending_bytes() == 0;
      EncodeMatch(&outbuf_, id, delivery.sequence, delivery.fragment);
      metrics_->matches_sent->Increment();
      metrics_->frames_out->Increment();
      metrics_->outbuf_high_watermark->UpdateMax(pending_bytes());
      signal = was_idle;
    }
    // Only the idle->pending transition needs a wakeup: while bytes are
    // already pending the epoll thread is either draining or has EPOLLOUT
    // armed, and will see these bytes too.
    if (signal) wake_->MarkDirty(fd_);
    return true;
  }

  void OnOverflow(SubscriptionId /*id*/, uint64_t /*dropped_total*/) override {
    bool signal = false;
    {
      MutexLock lock(mu_);
      if (closed_) return;
      metrics_->matches_dropped->Increment();
      if (policy_ == SlowConsumerPolicy::kDropMatches) return;
      if (evict_requested_) return;  // eviction already signaled
      evict_requested_ = true;
      signal = true;
    }
    if (signal) wake_->MarkDirty(fd_);
  }

  // --- epoll-thread entry points -------------------------------------------

  /// Appends a response/control frame; exempt from the outbuf cap (see
  /// server.h). The caller flushes afterwards, so no wakeup is needed.
  void AppendControl(std::string_view bytes) {
    MutexLock lock(mu_);
    if (closed_) return;
    outbuf_.append(bytes);
    metrics_->frames_out->Increment();
  }

  /// Discards everything queued and replaces it with `bytes` (the
  /// eviction BYE: a stalled reader's pending matches are forfeit).
  void ReplaceOutput(std::string bytes) {
    MutexLock lock(mu_);
    if (closed_) return;
    outbuf_ = std::move(bytes);
    write_offset_ = 0;
  }

  /// Writes as much pending output as the socket accepts.
  FlushResult Flush(int fd, uint64_t* bytes_written) {
    MutexLock lock(mu_);
    *bytes_written = 0;
    while (write_offset_ < outbuf_.size()) {
#if defined(__linux__)
      ssize_t n = ::send(fd, outbuf_.data() + write_offset_,
                         outbuf_.size() - write_offset_, MSG_NOSIGNAL);
#else
      ssize_t n = -1;
      errno = ENOSYS;
#endif
      if (n > 0) {
        write_offset_ += static_cast<size_t>(n);
        *bytes_written += static_cast<uint64_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        // Keep the written prefix from being re-copied forever.
        if (write_offset_ > 262144) {
          outbuf_.erase(0, write_offset_);
          write_offset_ = 0;
        }
        return FlushResult::kBlocked;
      }
      return FlushResult::kError;
    }
    outbuf_.clear();
    write_offset_ = 0;
    return FlushResult::kDrained;
  }

  bool evict_requested() const {
    MutexLock lock(mu_);
    return evict_requested_;
  }

  bool has_pending() const {
    MutexLock lock(mu_);
    return pending_bytes() > 0;
  }

  /// Point of no return: shard threads appending after this is a no-op,
  /// and the sink never again touches metrics or the wake channel.
  void Close() {
    MutexLock lock(mu_);
    closed_ = true;
    outbuf_.clear();
    write_offset_ = 0;
  }

 private:
  size_t pending_bytes() const REQUIRES(mu_) {
    return outbuf_.size() - write_offset_;
  }

  const int fd_;
  const size_t max_outbuf_;
  const SlowConsumerPolicy policy_;
  const std::shared_ptr<WakeState> wake_;
  const Metrics* const metrics_;

  mutable Mutex mu_;
  std::string outbuf_ GUARDED_BY(mu_);
  size_t write_offset_ GUARDED_BY(mu_) = 0;
  bool closed_ GUARDED_BY(mu_) = false;
  bool evict_requested_ GUARDED_BY(mu_) = false;
};

// ---------------------------------------------------------------------------
// Connection: epoll-thread-only session state.
// ---------------------------------------------------------------------------

struct Server::Connection {
  explicit Connection(size_t max_frame_size) : decoder(max_frame_size) {}

  int fd = -1;
  bool mode_decided = false;   // framed vs. HTTP, from the first 4 bytes
  bool http = false;
  bool awaiting_hello = true;
  bool want_write = false;     // EPOLLOUT currently armed
  bool close_after_flush = false;  // BYE / HTTP response queued
  FrameDecoder decoder;
  std::string prelude;         // bytes before mode_decided; HTTP request
  std::shared_ptr<ConnectionSink> sink;
  std::unordered_map<uint64_t, Subscription> subs;
};

// ---------------------------------------------------------------------------
// Lifecycle.
// ---------------------------------------------------------------------------

Server::Server(Service* service, ServerOptions options)
    : service_(service), options_(std::move(options)) {
  metrics_.connections_accepted = registry_.AddCounter(
      "vitex_net_connections_accepted_total", "TCP connections accepted");
  metrics_.connections_closed = registry_.AddCounter(
      "vitex_net_connections_closed_total", "TCP connections closed");
  metrics_.connections_evicted = registry_.AddCounter(
      "vitex_net_connections_evicted_total",
      "connections evicted as slow consumers (outbuf cap overflow under "
      "the disconnect policy)");
  metrics_.connections_active = registry_.AddGauge(
      "vitex_net_connections_active", "currently open TCP connections");
  metrics_.auth_failures = registry_.AddCounter(
      "vitex_net_auth_failures_total", "HELLO frames with a bad auth token");
  metrics_.protocol_errors = registry_.AddCounter(
      "vitex_net_protocol_errors_total",
      "connections failed for framing or protocol violations");
  metrics_.frames_in = registry_.AddCounter("vitex_net_frames_in_total",
                                            "frames received from clients");
  metrics_.frames_out = registry_.AddCounter(
      "vitex_net_frames_out_total", "frames queued for clients");
  metrics_.bytes_in =
      registry_.AddCounter("vitex_net_bytes_in_total", "bytes received");
  metrics_.bytes_out =
      registry_.AddCounter("vitex_net_bytes_out_total", "bytes sent");
  metrics_.matches_sent = registry_.AddCounter(
      "vitex_net_matches_sent_total", "MATCH frames queued for delivery");
  metrics_.matches_dropped = registry_.AddCounter(
      "vitex_net_matches_dropped_total",
      "MATCH frames dropped at the per-connection outbuf cap");
  metrics_.http_requests = registry_.AddCounter(
      "vitex_net_http_requests_total", "HTTP scrape requests served");
  metrics_.outbuf_high_watermark = registry_.AddGauge(
      "vitex_net_outbuf_high_watermark_bytes",
      "largest pending outbuf observed on any connection");
  wake_ = std::make_shared<WakeState>();
}

Result<std::unique_ptr<Server>> Server::Start(Service* service,
                                              ServerOptions options) {
  if (service == nullptr) {
    return Status::InvalidArgument("Server::Start requires a Service");
  }
#if !defined(__linux__)
  return Status::Unsupported("the ViteX TCP server requires linux (epoll)");
#else
  std::unique_ptr<Server> server(new Server(service, std::move(options)));
  VITEX_RETURN_IF_ERROR(server->Init());
  server->thread_ = std::thread([raw = server.get()] { raw->Run(); });
  return server;
#endif
}

Server::~Server() { (void)Stop(); }

#if defined(__linux__)

Status Server::Init() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("bind");
  }
  if (::listen(listen_fd_, options_.listen_backlog) != 0) {
    return Errno("listen");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return Errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  wake_read_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_read_fd_ < 0) return Errno("eventfd");
  {
    MutexLock lock(wake_->mu);
    wake_->wake_fd = wake_read_fd_;
  }

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return Errno("epoll_ctl(listener)");
  }
  ev.data.fd = wake_read_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_read_fd_, &ev) != 0) {
    return Errno("epoll_ctl(eventfd)");
  }
  return Status::OK();
}

Status Server::Stop() {
  {
    MutexLock lock(lifecycle_mu_);
    if (stopped_) return Status::OK();
    stopped_ = true;
  }
  stop_requested_.store(true, std::memory_order_release);
  {
    MutexLock lock(wake_->mu);
    if (wake_->wake_fd >= 0) {
      uint64_t one = 1;
      (void)!::write(wake_->wake_fd, &one, sizeof(one));
    }
  }
  if (thread_.joinable()) thread_.join();
  // After the join no connection (and so no live sink) remains; retire
  // the wake channel so any straggler sink call is a guaranteed no-op
  // before the eventfd number can be reused.
  {
    MutexLock lock(wake_->mu);
    wake_->wake_fd = -1;
  }
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  wake_read_fd_ = -1;
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  epoll_fd_ = -1;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Epoll loop.
// ---------------------------------------------------------------------------

void Server::Run() {
  constexpr int kMaxEvents = 256;
  epoll_event events[kMaxEvents];
  while (!stop_requested_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd itself failed; nothing recoverable
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      if (fd == wake_read_fd_) {
        uint64_t drained = 0;
        while (::read(wake_read_fd_, &drained, sizeof(drained)) > 0) {
        }
        DrainWakeups();
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // closed earlier this batch
      Connection* conn = it->second.get();
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConnection(conn);
        continue;
      }
      if ((ev & EPOLLIN) != 0) {
        HandleReadable(conn);
        if (connections_.find(fd) == connections_.end()) continue;
        conn = connections_.find(fd)->second.get();
      }
      if ((ev & EPOLLOUT) != 0) FlushOutbuf(conn);
    }
  }
  // Shutdown: BYE every session, then tear it down.
  while (!connections_.empty()) {
    Connection* conn = connections_.begin()->second.get();
    if (!conn->http) {
      std::string bye;
      EncodeBye(&bye, ByeMsg{ByeReason::kShutdown, "server stopping"});
      conn->sink->AppendControl(bye);
      uint64_t wrote = 0;
      (void)conn->sink->Flush(conn->fd, &wrote);  // best effort
      metrics_.bytes_out->Add(wrote);
    }
    CloseConnection(conn);
  }
}

void Server::AcceptReady() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EAGAIN: drained. Anything else (EMFILE under fd pressure, aborted
      // handshakes): drop this readiness edge and let epoll re-report.
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.so_sndbuf > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.so_sndbuf,
                   sizeof(options_.so_sndbuf));
    }
    auto conn = std::make_unique<Connection>(options_.max_frame_size);
    conn->fd = fd;
    conn->sink = std::make_shared<ConnectionSink>(
        fd, options_.max_outbuf_bytes, options_.slow_consumer_policy, wake_,
        &metrics_);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    connections_[fd] = std::move(conn);
    metrics_.connections_accepted->Increment();
    metrics_.connections_active->Set(connections_.size());
  }
}

void Server::DrainWakeups() {
  std::vector<int> dirty;
  {
    MutexLock lock(wake_->mu);
    dirty.swap(wake_->dirty);
  }
  for (int fd : dirty) {
    auto it = connections_.find(fd);
    // A stale entry (connection closed, fd possibly reused) at worst
    // flushes a healthy connection a little early — harmless.
    if (it == connections_.end()) continue;
    Connection* conn = it->second.get();
    if (conn->sink->evict_requested()) {
      Evict(conn);
      continue;
    }
    FlushOutbuf(conn);
  }
}

// ---------------------------------------------------------------------------
// Reads and request dispatch.
// ---------------------------------------------------------------------------

void Server::HandleReadable(Connection* conn) {
  const int fd = conn->fd;
  char buf[65536];
  bool progressed = false;
  while (true) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) {  // orderly EOF
      CloseConnection(conn);
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConnection(conn);
      return;
    }
    metrics_.bytes_in->Add(static_cast<uint64_t>(n));
    progressed = true;
    std::string_view bytes(buf, static_cast<size_t>(n));

    if (!conn->mode_decided) {
      conn->prelude.append(bytes);
      if (conn->prelude.size() < 4) continue;
      conn->mode_decided = true;
      conn->http = conn->prelude.compare(0, 4, "GET ") == 0;
      if (!conn->http) {
        std::string pending = std::move(conn->prelude);
        conn->prelude.clear();
        if (conn->decoder.Feed(pending).ok()) {
          while (auto frame = conn->decoder.Next()) {
            DispatchFrame(conn, *frame);
            if (connections_.find(fd) == connections_.end()) return;
          }
        }
        if (conn->decoder.failed()) {
          FailProtocol(conn, 0, conn->decoder.status());
          return;
        }
      } else {
        HandleHttp(conn, "");
        if (connections_.find(fd) == connections_.end()) return;
      }
      continue;
    }

    if (conn->http) {
      HandleHttp(conn, bytes);
      if (connections_.find(fd) == connections_.end()) return;
      continue;
    }

    if (conn->decoder.Feed(bytes).ok()) {
      while (auto frame = conn->decoder.Next()) {
        DispatchFrame(conn, *frame);
        if (connections_.find(fd) == connections_.end()) return;
      }
    }
    if (conn->decoder.failed()) {
      FailProtocol(conn, 0, conn->decoder.status());
      return;
    }
  }
  if (progressed) FlushOutbuf(conn);
}

void Server::HandleHttp(Connection* conn, std::string_view bytes) {
  conn->prelude.append(bytes);
  size_t end = conn->prelude.find("\r\n\r\n");
  if (end == std::string::npos) {
    if (conn->prelude.size() > 16384) CloseConnection(conn);
    return;  // headers incomplete
  }
  metrics_.http_requests->Increment();
  // "GET <path> HTTP/1.x" — everything after the path is ignored.
  std::string_view line(conn->prelude);
  line = line.substr(0, line.find("\r\n"));
  std::string_view path = line.size() > 4 ? line.substr(4) : "";
  path = path.substr(0, path.find(' '));

  std::string body;
  std::string status_line;
  if (path == "/statsz" || path.rfind("/statsz?", 0) == 0) {
    status_line = "HTTP/1.1 200 OK";
    body = StatszText();
  } else {
    status_line = "HTTP/1.1 404 Not Found";
    body = "only /statsz is served here\n";
  }
  std::string response = status_line +
                         "\r\nContent-Type: text/plain; version=0.0.4"
                         "\r\nConnection: close"
                         "\r\nContent-Length: " +
                         std::to_string(body.size()) + "\r\n\r\n" + body;
  conn->sink->AppendControl(response);
  conn->close_after_flush = true;
  FlushOutbuf(conn);
}

void Server::DispatchFrame(Connection* conn, const Frame& frame) {
  metrics_.frames_in->Increment();
  if (conn->awaiting_hello) {
    HandleHello(conn, frame);
    return;
  }
  switch (static_cast<FrameType>(frame.type)) {
    case FrameType::kSubscribe: {
      Result<SubscribeMsg> msg = DecodeSubscribe(frame.payload);
      if (!msg.ok()) {
        FailProtocol(conn, 0, msg.status());
        return;
      }
      SinkOptions sink_options;
      sink_options.mode = DeliveryMode::kPush;
      sink_options.sink = conn->sink;
      Result<Subscription> sub =
          service_->Subscribe(msg->xpath, std::move(sink_options));
      if (!sub.ok()) {
        SendError(conn, msg->request_id, sub.status());
        return;
      }
      const uint64_t id = sub->id();
      conn->subs.emplace(id, std::move(sub).value());
      std::string out;
      EncodeSubscribed(&out, SubscribedMsg{msg->request_id, id});
      SendControl(conn, std::move(out));
      return;
    }
    case FrameType::kUnsubscribe: {
      Result<UnsubscribeMsg> msg = DecodeUnsubscribe(frame.payload);
      if (!msg.ok()) {
        FailProtocol(conn, 0, msg.status());
        return;
      }
      auto it = conn->subs.find(msg->subscription_id);
      if (it == conn->subs.end()) {
        SendError(conn, msg->request_id,
                  Status::InvalidArgument(
                      "unknown subscription id on this connection"));
        return;
      }
      Status status = it->second.Unsubscribe();
      conn->subs.erase(it);
      if (!status.ok()) {
        SendError(conn, msg->request_id, status);
        return;
      }
      std::string out;
      EncodeAck(&out, AckMsg{msg->request_id});
      SendControl(conn, std::move(out));
      return;
    }
    case FrameType::kPublish: {
      Result<PublishMsg> decoded = DecodePublish(frame.payload);
      if (!decoded.ok()) {
        FailProtocol(conn, 0, decoded.status());
        return;
      }
      PublishMsg msg = std::move(decoded).value();
      // May block on ingest backpressure — intentionally: while blocked,
      // this thread reads no sockets and TCP pushes back on publishers.
      Status status =
          msg.stream == kAnyStream
              ? service_->Publish(std::move(msg.document))
              : service_->PublishToStream(msg.stream,
                                          std::move(msg.document));
      if (!status.ok()) {
        SendError(conn, msg.request_id, status);
        return;
      }
      std::string out;
      EncodeAck(&out, AckMsg{msg.request_id});
      SendControl(conn, std::move(out));
      return;
    }
    case FrameType::kPing: {
      Result<PingMsg> msg = DecodePing(frame.payload);
      if (!msg.ok()) {
        FailProtocol(conn, 0, msg.status());
        return;
      }
      std::string out;
      EncodePong(&out, PongMsg{msg->request_id});
      SendControl(conn, std::move(out));
      return;
    }
    case FrameType::kStats: {
      Result<StatsMsg> msg = DecodeStats(frame.payload);
      if (!msg.ok()) {
        FailProtocol(conn, 0, msg.status());
        return;
      }
      std::string out;
      EncodeStatsText(&out, StatsTextMsg{msg->request_id, StatszText()});
      SendControl(conn, std::move(out));
      return;
    }
    case FrameType::kHello:
      FailProtocol(conn, 0,
                   Status::InvalidArgument("HELLO after session start"));
      return;
    default:
      FailProtocol(conn, 0,
                   Status::ParseError("unexpected frame type " +
                                      std::to_string(frame.type)));
      return;
  }
}

void Server::HandleHello(Connection* conn, const Frame& frame) {
  if (static_cast<FrameType>(frame.type) != FrameType::kHello) {
    FailProtocol(conn, 0,
                 Status::InvalidArgument("expected HELLO, got frame type " +
                                         std::to_string(frame.type)));
    return;
  }
  Result<HelloMsg> msg = DecodeHello(frame.payload);
  if (!msg.ok()) {
    FailProtocol(conn, 0, msg.status());
    return;
  }
  if (msg->magic != kProtocolMagic) {
    FailProtocol(conn, 0, Status::InvalidArgument("bad protocol magic"));
    return;
  }
  if (msg->version != kProtocolVersion) {
    FailProtocol(conn, 0,
                 Status::InvalidArgument(
                     "unsupported protocol version " +
                     std::to_string(msg->version) + " (this server: " +
                     std::to_string(kProtocolVersion) + ")"));
    return;
  }
  if (!options_.auth_token.empty() &&
      msg->auth_token != options_.auth_token) {
    metrics_.auth_failures->Increment();
    Status status = Status::InvalidArgument("authentication failed");
    SendError(conn, 0, status);
    std::string bye;
    EncodeBye(&bye, ByeMsg{ByeReason::kAuthFailed, status.message()});
    conn->sink->AppendControl(bye);
    uint64_t wrote = 0;
    (void)conn->sink->Flush(conn->fd, &wrote);
    metrics_.bytes_out->Add(wrote);
    CloseConnection(conn);
    return;
  }
  conn->awaiting_hello = false;
  std::string out;
  EncodeWelcome(&out, WelcomeMsg{kProtocolVersion, options_.banner});
  SendControl(conn, std::move(out));
}

// ---------------------------------------------------------------------------
// Responses, writes, teardown.
// ---------------------------------------------------------------------------

void Server::SendControl(Connection* conn, std::string bytes) {
  conn->sink->AppendControl(bytes);
}

void Server::SendError(Connection* conn, uint64_t request_id,
                       const Status& status) {
  std::string out;
  EncodeError(&out, ErrorMsg{request_id, WireCode(status.code()),
                             status.message()});
  SendControl(conn, std::move(out));
}

void Server::FailProtocol(Connection* conn, uint64_t request_id,
                          const Status& status) {
  metrics_.protocol_errors->Increment();
  SendError(conn, request_id, status);
  std::string bye;
  EncodeBye(&bye, ByeMsg{ByeReason::kProtocolError, status.message()});
  conn->sink->AppendControl(bye);
  uint64_t wrote = 0;
  (void)conn->sink->Flush(conn->fd, &wrote);  // best effort, then close
  metrics_.bytes_out->Add(wrote);
  CloseConnection(conn);
}

void Server::FlushOutbuf(Connection* conn) {
  uint64_t wrote = 0;
  ConnectionSink::FlushResult result = conn->sink->Flush(conn->fd, &wrote);
  metrics_.bytes_out->Add(wrote);
  switch (result) {
    case ConnectionSink::FlushResult::kError:
      CloseConnection(conn);
      return;
    case ConnectionSink::FlushResult::kBlocked:
      UpdateWriteInterest(conn, true);
      return;
    case ConnectionSink::FlushResult::kDrained:
      if (conn->close_after_flush) {
        CloseConnection(conn);
        return;
      }
      UpdateWriteInterest(conn, false);
      return;
  }
}

void Server::Evict(Connection* conn) {
  metrics_.connections_evicted->Increment();
  std::string bye;
  EncodeBye(&bye,
            ByeMsg{ByeReason::kEvicted,
                   "slow consumer: output buffer exceeded " +
                       std::to_string(options_.max_outbuf_bytes) + " bytes"});
  conn->sink->ReplaceOutput(std::move(bye));
  uint64_t wrote = 0;
  (void)conn->sink->Flush(conn->fd, &wrote);  // best effort
  metrics_.bytes_out->Add(wrote);
  CloseConnection(conn);
}

void Server::CloseConnection(Connection* conn) {
  const int fd = conn->fd;
  // Order matters: close the sink FIRST so shard threads stop appending,
  // then let the Subscription handles issue their (asynchronous)
  // unsubscribes — the service keeps the closed sink alive until each
  // op lands, and every late OnMatch is a cheap refused no-op.
  conn->sink->Close();
  conn->subs.clear();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  connections_.erase(fd);  // destroys conn
  metrics_.connections_closed->Increment();
  metrics_.connections_active->Set(connections_.size());
}

void Server::UpdateWriteInterest(Connection* conn, bool want_write) {
  if (conn->want_write == want_write) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.fd = conn->fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
    conn->want_write = want_write;
  }
}

#else  // !defined(__linux__)

Status Server::Init() {
  return Status::Unsupported("the ViteX TCP server requires linux (epoll)");
}
Status Server::Stop() { return Status::OK(); }
void Server::Run() {}
void Server::AcceptReady() {}
void Server::HandleReadable(Connection*) {}
void Server::HandleHttp(Connection*, std::string_view) {}
void Server::DispatchFrame(Connection*, const Frame&) {}
void Server::HandleHello(Connection*, const Frame&) {}
void Server::SendControl(Connection*, std::string) {}
void Server::SendError(Connection*, uint64_t, const Status&) {}
void Server::FailProtocol(Connection*, uint64_t, const Status&) {}
void Server::FlushOutbuf(Connection*) {}
void Server::Evict(Connection*) {}
void Server::CloseConnection(Connection*) {}
void Server::DrainWakeups() {}
void Server::UpdateWriteInterest(Connection*, bool) {}

#endif  // defined(__linux__)

NetStatsSnapshot Server::stats() const {
  NetStatsSnapshot s;
  s.connections_accepted = metrics_.connections_accepted->value();
  s.connections_closed = metrics_.connections_closed->value();
  s.connections_evicted = metrics_.connections_evicted->value();
  s.connections_active = metrics_.connections_active->value();
  s.auth_failures = metrics_.auth_failures->value();
  s.protocol_errors = metrics_.protocol_errors->value();
  s.frames_in = metrics_.frames_in->value();
  s.frames_out = metrics_.frames_out->value();
  s.bytes_in = metrics_.bytes_in->value();
  s.bytes_out = metrics_.bytes_out->value();
  s.matches_sent = metrics_.matches_sent->value();
  s.matches_dropped = metrics_.matches_dropped->value();
  s.http_requests = metrics_.http_requests->value();
  s.outbuf_high_watermark = metrics_.outbuf_high_watermark->value();
  return s;
}

std::string Server::StatszText() const {
  return service_->StatszText() + registry_.RenderText();
}

}  // namespace vitex::net
