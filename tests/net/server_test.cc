// End-to-end tests of the TCP serving surface (net/server.h) through the
// real client (net/client.h): handshake and auth, the full
// subscribe/publish/match/unsubscribe lifecycle (union subscriptions
// included, checked against the DOM union), error-code parity with
// the in-process facade (the satellite-3 contract: the wire changes the
// transport, never the Status), protocol-violation teardown, shutdown
// BYE, and the HTTP /statsz side door. Everything runs against a live
// Service + Server on an ephemeral loopback port.

#include "net/server.h"

#include <gtest/gtest.h>

#if defined(__linux__)

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baseline/dom_evaluator.h"
#include "net/client.h"
#include "service/vitex.h"
#include "xml/dom.h"
#include "xpath/query.h"

namespace vitex::net {
namespace {

class NetServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    service_ = std::make_unique<vitex::Service>(MakeServiceOptions());
    auto started = Server::Start(service_.get(), options);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    server_ = std::move(started).value();
  }

  static vitex::ServiceOptions MakeServiceOptions() {
    vitex::ServiceOptions options;
    options.shard_count = 2;
    options.stream_count = 1;
    return options;
  }

  Result<std::unique_ptr<Client>> Connect(ClientOptions options = {}) {
    return Client::Connect("127.0.0.1", server_->port(), options);
  }

  std::unique_ptr<vitex::Service> service_;
  std::unique_ptr<Server> server_;
};

TEST_F(NetServerTest, StartStopIsClean) {
  StartServer();
  EXPECT_GT(server_->port(), 0);
  EXPECT_TRUE(server_->Stop().ok());
  EXPECT_TRUE(server_->Stop().ok());  // idempotent
}

TEST_F(NetServerTest, HandshakeAndPing) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE((*client)->connected());
  EXPECT_TRUE((*client)->Ping().ok());
  EXPECT_EQ(server_->stats().connections_accepted, 1u);
}

TEST_F(NetServerTest, AuthTokenRequired) {
  ServerOptions options;
  options.auth_token = "sesame";
  StartServer(options);

  ClientOptions wrong;
  wrong.auth_token = "open";
  auto rejected = Connect(wrong);
  EXPECT_FALSE(rejected.ok());

  auto anonymous = Connect();
  EXPECT_FALSE(anonymous.ok());

  ClientOptions right;
  right.auth_token = "sesame";
  auto accepted = Connect(right);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_TRUE((*accepted)->Ping().ok());
  EXPECT_EQ(server_->stats().auth_failures, 2u);
}

TEST_F(NetServerTest, SubscribePublishDeliversMatches) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok());

  auto sub = (*client)->Subscribe("//item/val/text()");
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();

  ASSERT_TRUE((*client)
                  ->Publish("<doc><item><val>first</val></item>"
                            "<item><val>second</val></item></doc>")
                  .ok());

  auto m1 = (*client)->PollMatch(5000);
  ASSERT_TRUE(m1.ok()) << m1.status().ToString();
  ASSERT_TRUE(m1->has_value());
  EXPECT_EQ((*m1)->subscription_id, sub.value());
  EXPECT_EQ((*m1)->fragment, "first");

  auto m2 = (*client)->PollMatch(5000);
  ASSERT_TRUE(m2.ok());
  ASSERT_TRUE(m2->has_value());
  EXPECT_EQ((*m2)->fragment, "second");
  // Document-order sequence stamps are strictly increasing per document.
  EXPECT_GT((*m2)->sequence, (*m1)->sequence);
}

TEST_F(NetServerTest, UnionSubscriptionDeliversTheDomUnion) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok());

  // Overlapping branches with element and attribute outputs: the <a>
  // holding a <b> is selected by both //a and //*[b].
  const std::string query = "//a | //*[b] | //a/@id";
  const std::string doc =
      "<r><a id=\"1\"><b/></a><c><b/></c><a/>"
      "<b><a id=\"2\"><b/></a></b></r>";
  auto sub = (*client)->Subscribe(query);
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  ASSERT_TRUE((*client)->Publish(doc).ok());

  std::set<std::pair<uint64_t, std::string>> expected;
  auto branches = xpath::ParseAndCompileUnion(query);
  ASSERT_TRUE(branches.ok());
  auto dom = xml::ParseIntoDom(doc);
  ASSERT_TRUE(dom.ok());
  for (const xpath::Query& branch : branches.value()) {
    baseline::DomEvaluator eval(&dom.value());
    for (auto& result : eval.EvaluateToSequencedFragments(branch)) {
      expected.insert(std::move(result));
    }
  }

  std::vector<std::pair<uint64_t, std::string>> got;
  for (size_t i = 0; i < expected.size(); ++i) {
    auto match = (*client)->PollMatch(5000);
    ASSERT_TRUE(match.ok());
    ASSERT_TRUE(match->has_value()) << "missing match " << i;
    EXPECT_EQ((*match)->subscription_id, sub.value());
    got.emplace_back((*match)->sequence, (*match)->fragment);
  }
  // Nothing beyond the union: no duplicate of a node two branches select.
  ASSERT_TRUE(service_->Flush().ok());
  auto extra = (*client)->PollMatch(200);
  ASSERT_TRUE(extra.ok());
  EXPECT_FALSE(extra->has_value());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<std::pair<uint64_t, std::string>>(
                     expected.begin(), expected.end())));
}

TEST_F(NetServerTest, MatchesFanOutToTheRightSubscription) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok());

  auto sub_a = (*client)->Subscribe("//a/text()");
  auto sub_b = (*client)->Subscribe("//b/text()");
  ASSERT_TRUE(sub_a.ok());
  ASSERT_TRUE(sub_b.ok());
  ASSERT_NE(sub_a.value(), sub_b.value());

  ASSERT_TRUE((*client)->Publish("<r><a>va</a><b>vb</b></r>").ok());

  bool saw_a = false, saw_b = false;
  for (int i = 0; i < 2; ++i) {
    auto match = (*client)->PollMatch(5000);
    ASSERT_TRUE(match.ok());
    ASSERT_TRUE(match->has_value());
    if ((*match)->subscription_id == sub_a.value()) {
      EXPECT_EQ((*match)->fragment, "va");
      saw_a = true;
    } else {
      EXPECT_EQ((*match)->subscription_id, sub_b.value());
      EXPECT_EQ((*match)->fragment, "vb");
      saw_b = true;
    }
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
}

TEST_F(NetServerTest, UnsubscribeStopsDelivery) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok());

  auto sub = (*client)->Subscribe("//x/text()");
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE((*client)->Unsubscribe(sub.value()).ok());
  // Unsubscribe is async service-side; Flush forces the marker through
  // before the publish below.
  ASSERT_TRUE(service_->Flush().ok());

  ASSERT_TRUE((*client)->Publish("<r><x>gone</x></r>").ok());
  ASSERT_TRUE(service_->Flush().ok());
  auto match = (*client)->PollMatch(200);
  ASSERT_TRUE(match.ok());
  EXPECT_FALSE(match->has_value());
}

TEST_F(NetServerTest, UnknownSubscriptionIdIsAnError) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  Status status = (*client)->Unsubscribe(424242);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The connection survives a well-formed but failing request.
  EXPECT_TRUE((*client)->Ping().ok());
}

TEST_F(NetServerTest, ErrorCodeParityWithFacade) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok());

  // The same requests in-process and over the wire must produce the SAME
  // StatusCode (kStatusCodeWireMax static_asserts the mapping; this
  // checks the whole path end to end).
  const char* bad_inputs[] = {"///", "", "//a[", "not an xpath"};
  for (const char* xpath : bad_inputs) {
    Status facade = service_->Subscribe(xpath).status();
    Status wire = (*client)->Subscribe(xpath).status();
    ASSERT_FALSE(facade.ok()) << xpath;
    EXPECT_EQ(wire.code(), facade.code()) << xpath;
  }
}

TEST_F(NetServerTest, StatszOverTheWire) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Subscribe("//a").ok());

  auto statsz = (*client)->Statsz();
  ASSERT_TRUE(statsz.ok()) << statsz.status().ToString();
  // Service series and net series are both present.
  EXPECT_NE(statsz->find("vitex_net_connections_accepted_total"),
            std::string::npos);
  EXPECT_NE(statsz->find("vitex_net_connections_active"), std::string::npos);
}

TEST_F(NetServerTest, HttpGetStatszOnTheSamePort) {
  StartServer();
  auto client = Connect();  // one framed session for the counters
  ASSERT_TRUE(client.ok());

  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char request[] = "GET /statsz HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_EQ(::send(fd, request, sizeof(request) - 1, 0),
            static_cast<ssize_t>(sizeof(request) - 1));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("vitex_net_http_requests_total"), std::string::npos);
  EXPECT_GE(server_->stats().http_requests, 1u);
}

TEST_F(NetServerTest, HttpUnknownPathIs404) {
  StartServer();
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char request[] = "GET /nothing HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(fd, request, sizeof(request) - 1, 0),
            static_cast<ssize_t>(sizeof(request) - 1));
  std::string response;
  char buf[1024];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("404"), std::string::npos);
}

TEST_F(NetServerTest, GarbageBytesGetProtocolErrorBye) {
  StartServer();
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // A frame header declaring a payload far beyond max_frame_size: the
  // decoder poisons, the server answers ERROR + BYE(kProtocolError) and
  // closes.
  const unsigned char poison[] = {0xff, 0xff, 0xff, 0xff, 0x01};
  ASSERT_EQ(::send(fd, poison, sizeof(poison), 0),
            static_cast<ssize_t>(sizeof(poison)));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  FrameDecoder decoder(kDefaultMaxFrameSize);
  (void)decoder.Feed(response);
  bool saw_bye = false;
  while (auto frame = decoder.Next()) {
    if (frame->type == static_cast<uint8_t>(FrameType::kBye)) {
      auto bye = DecodeBye(frame->payload);
      ASSERT_TRUE(bye.ok());
      EXPECT_EQ(bye->reason, ByeReason::kProtocolError);
      saw_bye = true;
    }
  }
  EXPECT_TRUE(saw_bye);
  EXPECT_GE(server_->stats().protocol_errors, 1u);
}

TEST_F(NetServerTest, StopSendsShutdownBye) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(server_->Stop().ok());

  // The client observes BYE(kShutdown) and then EOF.
  auto match = (*client)->PollMatch(2000);
  EXPECT_FALSE(match.ok());
  ASSERT_TRUE((*client)->bye().has_value());
  EXPECT_EQ((*client)->bye()->reason, ByeReason::kShutdown);
}

TEST_F(NetServerTest, ManySessionsShareOneService) {
  StartServer();
  constexpr int kSessions = 20;
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < kSessions; ++i) {
    auto client = Connect();
    ASSERT_TRUE(client.ok()) << i;
    auto sub = (*client)->Subscribe("//n/text()");
    ASSERT_TRUE(sub.ok()) << i;
    clients.push_back(std::move(client).value());
  }
  ASSERT_TRUE(clients[0]->Publish("<r><n>fanout</n></r>").ok());
  for (int i = 0; i < kSessions; ++i) {
    auto match = clients[static_cast<size_t>(i)]->PollMatch(5000);
    ASSERT_TRUE(match.ok()) << i;
    ASSERT_TRUE(match->has_value()) << i;
    EXPECT_EQ((*match)->fragment, "fanout") << i;
  }
  EXPECT_EQ(server_->stats().matches_sent, static_cast<uint64_t>(kSessions));
}

}  // namespace
}  // namespace vitex::net

#else  // !defined(__linux__)

TEST(NetServerTest, SkippedOffLinux) { GTEST_SKIP(); }

#endif  // defined(__linux__)
