// The socket transport contract of src/net:
//
//  * framing: lines split across arbitrary read boundaries reassemble; CRLF
//    and LF both terminate a line; an oversized line is truncated to a
//    prefix that still classifies as oversized (the id survives for
//    correlation) and the connection keeps framing afterwards;
//  * the server: many concurrent localhost connections share one
//    serve::Server with per-connection response routing; the connection cap
//    sheds with the protocol's retryable class; idle connections are
//    reaped; a client that vanishes mid-response never kills the process
//    or wedges the loop (MSG_NOSIGNAL + error-close path);
//  * faults: drop-connection closes exactly the planned accept ordinals
//    before a byte moves — dropped clients get no response, everyone else
//    exactly one;
//  * batching: concurrent sweeps with the same problem/lift/family-kind
//    group into ONE incremental encoding; per-member verdict slices are
//    byte-identical to unbatched runs; groups feed the sweep memo;
//    singletons fall back to the ordinary path;
//  * the soak: >= 3 workers, >= 16 concurrent client connections, faults
//    injected — exactly one terminal response per request id, verdicts
//    byte-identical to stdin mode, at least one group actually batched,
//    and the checkpoint recovered by a fresh server afterwards;
//  * the binary: --listen=0 announces its ephemeral port, serves the
//    slocal_tool client verb, and SIGTERM drains and exits 0.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/net/batcher.hpp"
#include "src/net/client.hpp"
#include "src/net/event_loop.hpp"
#include "src/net/tcp_server.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/server.hpp"

namespace slocal::net {
namespace {

std::string problem(const char* name) {
  return std::string(SLOCAL_PROBLEM_DIR "/") + name;
}

std::string temp_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("slocal_net_test_") + tag + "_" +
           std::to_string(::getpid())))
      .string();
}

/// Thread-safe response collector for in-process servers (stdin-mode twin
/// of the socket path; used for byte-identical verdict comparisons).
class Collector {
 public:
  void attach(serve::Server& server) {
    server.set_response_sink([this](const std::string& line) { push(line); });
  }

  std::vector<std::string> responses(const std::string& id) const {
    const std::string prefix = "resp " + id + " ";
    std::vector<std::string> out;
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string& line : lines_) {
      if (line.rfind(prefix, 0) == 0) out.push_back(line);
    }
    return out;
  }

  std::string only_response(const std::string& id) const {
    const auto all = responses(id);
    EXPECT_EQ(all.size(), 1u) << "id " << id;
    return all.empty() ? std::string() : all.front();
  }

 private:
  void push(const std::string& line) {
    const std::lock_guard<std::mutex> lock(mutex_);
    lines_.push_back(line);
  }
  mutable std::mutex mutex_;
  std::vector<std::string> lines_;
};

/// The "verdicts=yes,no,..." token of a sweep response ("" when absent).
std::string verdict_token(const std::string& resp) {
  const std::size_t at = resp.find("verdicts=");
  if (at == std::string::npos) return {};
  const std::size_t end = resp.find(' ', at);
  return resp.substr(at, end == std::string::npos ? std::string::npos : end - at);
}

// -------------------------------------------------------------- line framer

TEST(NetLineFramer, ReassemblesLinesSplitAcrossArbitraryFeeds) {
  LineFramer framer;
  framer.feed("pi", 2);
  EXPECT_FALSE(framer.next().has_value());
  framer.feed("ng\nreq a seq", 12);
  const auto first = framer.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, "ping");
  EXPECT_FALSE(framer.next().has_value());  // second line still incomplete
  EXPECT_GT(framer.pending_bytes(), 0u);
  framer.feed("uence f\n", 8);
  const auto second = framer.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, "req a sequence f");
}

TEST(NetLineFramer, StripsCrlfAndLfAlike) {
  LineFramer framer;
  const std::string mixed = "one\r\ntwo\nthree\r\n";
  framer.feed(mixed.data(), mixed.size());
  EXPECT_EQ(framer.next().value_or(""), "one");
  EXPECT_EQ(framer.next().value_or(""), "two");
  EXPECT_EQ(framer.next().value_or(""), "three");
  EXPECT_FALSE(framer.next().has_value());
}

TEST(NetLineFramer, OversizedLineFedByteByByteKeepsClassifiablePrefix) {
  LineFramer framer(8);
  const std::string line = "req xyzzy sequence aaaaaaaaaaaaaaaa\n";
  for (const char c : line) framer.feed(&c, 1);  // worst-case fragmentation
  const auto out = framer.next();
  ASSERT_TRUE(out.has_value());
  // The kept prefix is max_line + 1 bytes: over the cap (so the protocol
  // still classifies it as oversized) but bounded (so a hostile client
  // cannot balloon memory), and the id lives inside it.
  EXPECT_EQ(out->size(), 9u);
  EXPECT_EQ(out->rfind("req xyzzy", 0), 0u);
  EXPECT_EQ(framer.oversized_lines(), 1u);
  // Framing recovers: the next line is delivered intact.
  framer.feed("ping\n", 5);
  EXPECT_EQ(framer.next().value_or(""), "ping");
  EXPECT_EQ(framer.oversized_lines(), 1u);
}

TEST(NetLineFramer, BinaryGarbageBeforeNewlineIsOneDeliveredLine) {
  LineFramer framer;
  const char garbage[] = {'\x01', '\x02', 'z', '\x7f', '\n', 'p', 'i', 'n',
                          'g', '\n'};
  framer.feed(garbage, sizeof(garbage));
  const auto junk = framer.next();
  ASSERT_TRUE(junk.has_value());
  EXPECT_EQ(junk->size(), 4u);  // delivered verbatim; the protocol rejects it
  EXPECT_EQ(framer.next().value_or(""), "ping");
}

TEST(NetLineFramer, DefaultCapMatchesProtocolLimit) {
  LineFramer framer;
  const std::string big(serve::kMaxRequestLine + 1000, 'x');
  framer.feed(big.data(), big.size());
  framer.feed("\n", 1);
  const auto out = framer.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->size(), serve::kMaxRequestLine + 1);
  EXPECT_EQ(framer.oversized_lines(), 1u);
}

// -------------------------------------------------------------- event loop

TEST(NetEventLoop, DispatchesWatchedFdAndSurvivesSelfUnwatch) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  int hits = 0;
  loop.watch(fds[0], POLLIN, [&](short) {
    ++hits;
    loop.unwatch(fds[0]);  // callbacks may tear down their own watch
  });
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  EXPECT_TRUE(loop.run_once(1000));
  EXPECT_EQ(hits, 1);
  EXPECT_FALSE(loop.watching(fds[0]));
  // Unwatched: readable fd no longer dispatches.
  EXPECT_TRUE(loop.run_once(0));
  EXPECT_EQ(hits, 1);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(NetEventLoop, WakeupInterruptsABlockedPoll) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  const auto start = std::chrono::steady_clock::now();
  std::atomic<bool> returned{false};
  std::thread poller([&] {
    EXPECT_TRUE(loop.run_once(30'000));
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  loop.wakeup();
  poller.join();
  EXPECT_TRUE(returned.load());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
            10'000);
}

// ------------------------------------------------------------- socket layer

/// A server + TCP front-end running on an ephemeral port, with the run loop
/// on its own thread. Declaration order is the lifetime contract: Server,
/// then TcpServer, reverse-destroyed.
struct SocketFixture {
  explicit SocketFixture(const serve::ServeOptions& serve_options = {},
                         const TcpServerOptions& tcp_options = {})
      : server(serve_options), tcp(server, tcp_options) {
    std::string error;
    started = tcp.start(&error);
    EXPECT_TRUE(started) << error;
    if (started) runner = std::thread([this] { tcp.run(); });
  }

  ~SocketFixture() { stop(); }

  void stop() {
    if (runner.joinable()) {
      tcp.stop();
      runner.join();
    }
  }

  Client connect() {
    ClientOptions options;
    options.port = tcp.port();
    Client client;
    std::string error;
    EXPECT_TRUE(client.connect(options, &error)) << error;
    return client;
  }

  serve::Server server;
  TcpServer tcp;
  bool started = false;
  std::thread runner;
};

/// Blocking loopback socket with byte-level control, for tests that need
/// pathological write patterns the Client library deliberately avoids.
struct RawConn {
  int fd = -1;

  explicit RawConn(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      fd = -1;
    }
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }

  bool send(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next '\n'-terminated line (stripped), or "" on timeout/EOF.
  std::string read_line(int timeout_ms = 5000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (true) {
      const std::size_t nl = buffered.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffered.substr(0, nl);
        buffered.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return line;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      if (left <= 0) return {};
      pollfd pfd{fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(left));
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return {};
      char buf[1024];
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return {};
      buffered.append(buf, static_cast<std::size_t>(n));
    }
  }

  /// True once the server closes the connection (EOF).
  bool reached_eof(int timeout_ms = 5000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      char buf[1024];
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0 && errno != EINTR) return true;  // RST counts as gone
      if (n > 0) buffered.append(buf, static_cast<std::size_t>(n));
    }
    return false;
  }

  std::string buffered;
};

TEST(NetSocket, ServesProtocolOverSplitWritesCrlfGarbageAndOversize) {
  SocketFixture fx;
  ASSERT_TRUE(fx.started);
  RawConn conn(fx.tcp.port());
  ASSERT_GE(conn.fd, 0);

  // A control line split across two writes with a breather in between.
  ASSERT_TRUE(conn.send("pi"));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(conn.send("ng\n"));
  EXPECT_EQ(conn.read_line(), "pong");

  // CRLF framing answers exactly like LF.
  ASSERT_TRUE(conn.send("req c1 sequence " + problem("two_coloring.txt") +
                        " repeat=1\r\n"));
  const std::string ok = conn.read_line();
  EXPECT_EQ(ok.rfind("resp c1 ok", 0), 0u) << ok;

  // Binary garbage before a newline bounces as an uncorrelated invalid.
  ASSERT_TRUE(conn.send(std::string("\x01\x02garbage\x7f\n")));
  const std::string junk = conn.read_line();
  EXPECT_EQ(junk.rfind("resp - invalid", 0), 0u) << junk;

  // An oversized request dribbled in one byte at a time: the id is
  // recovered and the response is invalid, on the same connection.
  const std::string big =
      "req big sequence " + std::string(serve::kMaxRequestLine + 500, 'a') + "\n";
  for (const char c : big) ASSERT_TRUE(conn.send(std::string(1, c)));
  const std::string oversized = conn.read_line(10'000);
  EXPECT_EQ(oversized.rfind("resp big invalid", 0), 0u) << oversized;
  EXPECT_NE(oversized.find("exceeds"), std::string::npos) << oversized;

  // The connection (and server) keep serving afterwards.
  ASSERT_TRUE(conn.send("ping\n"));
  EXPECT_EQ(conn.read_line(), "pong");

  // Batch counters are part of the stats surface even when nothing batched.
  ASSERT_TRUE(conn.send("stats\n"));
  const std::string stats = conn.read_line();
  EXPECT_NE(stats.find("sweep_batch_groups="), std::string::npos) << stats;
  EXPECT_NE(stats.find("sweep_single_dispatch="), std::string::npos) << stats;

  fx.stop();
  const TcpServerCounters counters = fx.tcp.counters();
  EXPECT_GE(counters.oversized_lines, 1u);
  EXPECT_GE(counters.lines_in, 5u);
  EXPECT_GE(counters.responses_out, 5u);
}

TEST(NetSocket, ClientLibraryCorrelatesRequestsAndTimesOut) {
  SocketFixture fx;
  ASSERT_TRUE(fx.started);
  Client client = fx.connect();
  ASSERT_TRUE(client.connected());
  std::string error;
  const auto pong = client.request("ping", &error);
  ASSERT_TRUE(pong.has_value()) << error;
  EXPECT_EQ(*pong, "pong");
  const auto resp = client.request(
      "req k1 sequence " + problem("two_coloring.txt") + " repeat=2", &error);
  ASSERT_TRUE(resp.has_value()) << error;
  EXPECT_EQ(resp->rfind("resp k1 ok", 0), 0u) << *resp;
  EXPECT_NE(resp->find("verdict=valid"), std::string::npos) << *resp;

  // No unsolicited line follows a completed exchange: a read against the
  // quiet connection times out instead of surfacing a duplicate response.
  ClientOptions quick;
  quick.port = fx.tcp.port();
  quick.io_timeout_ms = 200;
  Client impatient;
  ASSERT_TRUE(impatient.connect(quick, &error)) << error;
  EXPECT_FALSE(impatient.read_line(&error).has_value());
  EXPECT_NE(error.find("timed out"), std::string::npos) << error;
}

TEST(NetSocket, ConnectionCapShedsWithRetryableAndKeepsFirstClient) {
  TcpServerOptions tcp_options;
  tcp_options.max_connections = 1;
  tcp_options.retry_after_ms = 75.0;
  SocketFixture fx({}, tcp_options);
  ASSERT_TRUE(fx.started);

  RawConn first(fx.tcp.port());
  ASSERT_TRUE(first.send("ping\n"));
  ASSERT_EQ(first.read_line(), "pong");  // registered before the second connects

  RawConn second(fx.tcp.port());
  ASSERT_GE(second.fd, 0);
  const std::string shed = second.read_line();
  EXPECT_EQ(shed.rfind("resp - retryable reason=connections", 0), 0u) << shed;
  EXPECT_NE(shed.find("retry_after_ms=75"), std::string::npos) << shed;
  EXPECT_TRUE(second.reached_eof());

  // The admitted client is unaffected by the shed.
  ASSERT_TRUE(first.send("ping\n"));
  EXPECT_EQ(first.read_line(), "pong");

  fx.stop();
  EXPECT_EQ(fx.tcp.counters().shed, 1u);
}

TEST(NetSocket, IdleConnectionsAreReaped) {
  TcpServerOptions tcp_options;
  tcp_options.idle_timeout_ms = 120;
  SocketFixture fx({}, tcp_options);
  ASSERT_TRUE(fx.started);
  RawConn conn(fx.tcp.port());
  ASSERT_TRUE(conn.send("ping\n"));
  ASSERT_EQ(conn.read_line(), "pong");
  EXPECT_TRUE(conn.reached_eof(5000));  // no traffic: server closes
  fx.stop();
  EXPECT_GE(fx.tcp.counters().idle_closed, 1u);
}

TEST(NetSocket, ClientGoneMidResponseNeverKillsTheServer) {
  // The SIGPIPE/EPIPE regression: clients fire requests and vanish —
  // sometimes gracefully (FIN), sometimes rudely (RST via SO_LINGER 0) —
  // racing the server's response writes. The server must shrug every time.
  serve::ServeOptions serve_options;
  serve_options.workers = 2;
  std::string plan_error;
  const auto plan =
      serve::ServeFaultPlan::parse("delay-request=1/2:60", &plan_error);
  ASSERT_TRUE(plan.has_value()) << plan_error;
  serve_options.faults = *plan;
  SocketFixture fx(serve_options);
  ASSERT_TRUE(fx.started);

  for (int round = 0; round < 10; ++round) {
    RawConn doomed(fx.tcp.port());
    ASSERT_GE(doomed.fd, 0);
    ASSERT_TRUE(doomed.send("req d" + std::to_string(round) + " sequence " +
                            problem("two_coloring.txt") + " repeat=2\nping\n"));
    if (round % 2 == 1) {
      // RST instead of FIN: the server's next send on this connection gets
      // ECONNRESET/EPIPE, which MSG_NOSIGNAL must keep signal-free.
      struct linger hard = {1, 0};
      ::setsockopt(doomed.fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    }
    // Close while the delayed response is still in flight.
  }

  // The server is alive and still answers fresh clients.
  RawConn alive(fx.tcp.port());
  ASSERT_TRUE(alive.send("ping\n"));
  EXPECT_EQ(alive.read_line(), "pong");
  fx.server.drain();  // all doomed requests finish into dead sinks — quietly
  ASSERT_TRUE(alive.send("ping\n"));
  EXPECT_EQ(alive.read_line(), "pong");
  fx.stop();
  const TcpServerCounters counters = fx.tcp.counters();
  EXPECT_GE(counters.eof_closed + counters.error_closed, 10u);
}

TEST(NetSocket, DropConnectionFaultDropsExactAcceptOrdinals) {
  serve::ServeOptions serve_options;
  std::string plan_error;
  const auto plan =
      serve::ServeFaultPlan::parse("drop-connection=2", &plan_error);
  ASSERT_TRUE(plan.has_value()) << plan_error;
  serve_options.faults = *plan;
  SocketFixture fx(serve_options);
  ASSERT_TRUE(fx.started);

  RawConn first(fx.tcp.port());
  ASSERT_TRUE(first.send("ping\n"));
  EXPECT_EQ(first.read_line(), "pong");  // accept #1 serves normally

  RawConn dropped(fx.tcp.port());
  ASSERT_GE(dropped.fd, 0);
  ASSERT_TRUE(dropped.send("ping\n"));   // may race the close; either way:
  EXPECT_TRUE(dropped.reached_eof());    // no response, just gone
  EXPECT_TRUE(dropped.buffered.empty()) << dropped.buffered;

  RawConn third(fx.tcp.port());
  ASSERT_TRUE(third.send("ping\n"));
  EXPECT_EQ(third.read_line(), "pong");  // one-shot trigger: #3 serves

  fx.stop();
  EXPECT_EQ(fx.tcp.counters().dropped, 1u);
  EXPECT_EQ(fx.server.injector().accepts_counted(), 3u);
}

// ---------------------------------------------------------------- batching

TEST(NetBatcher, GroupsOverlappingRangesAndMatchesUnbatchedVerdicts) {
  // Reference: the same two sweeps, unbatched, on a plain server.
  serve::ServeOptions ref_options;
  ref_options.workers = 1;
  serve::Server ref(ref_options);
  Collector ref_sink;
  ref_sink.attach(ref);
  EXPECT_TRUE(ref.handle_line("req u1 sweep " + problem("two_coloring.txt") +
                              " 2 2 cycles:2..4"));
  EXPECT_TRUE(ref.handle_line("req u2 sweep " + problem("two_coloring.txt") +
                              " 2 2 cycles:3..5"));
  ref.drain();
  const std::string ref1 = verdict_token(ref_sink.only_response("u1"));
  const std::string ref2 = verdict_token(ref_sink.only_response("u2"));
  ASSERT_FALSE(ref1.empty());
  ASSERT_FALSE(ref2.empty());

  serve::ServeOptions options;
  options.workers = 2;
  serve::Server server(options);
  Collector sink;
  sink.attach(server);
  SweepBatcherOptions batch_options;
  batch_options.window_ms = 60'000;  // flush() decides, not the clock
  SweepBatcher batcher(server, batch_options);
  batcher.attach();

  // Overlapping ranges of the same family kind share one group (the key is
  // fingerprint + lift targets + kind, not the full spec).
  EXPECT_TRUE(server.handle_line("req b1 sweep " + problem("two_coloring.txt") +
                                 " 2 2 cycles:2..4"));
  EXPECT_TRUE(server.handle_line("req b2 sweep " + problem("two_coloring.txt") +
                                 " 2 2 cycles:3..5"));
  EXPECT_EQ(server.counters().sweep_batch_groups, 0u);  // still in the window
  batcher.flush();
  server.drain();

  const std::string b1 = sink.only_response("b1");
  const std::string b2 = sink.only_response("b2");
  EXPECT_NE(b1.find(" ok "), std::string::npos) << b1;
  EXPECT_NE(b1.find("batch=2"), std::string::npos) << b1;
  EXPECT_NE(b2.find("batch=2"), std::string::npos) << b2;
  EXPECT_EQ(verdict_token(b1), ref1) << b1;
  EXPECT_EQ(verdict_token(b2), ref2) << b2;

  serve::ServeCounters counters = server.counters();
  EXPECT_EQ(counters.sweep_batch_groups, 1u);
  EXPECT_EQ(counters.sweep_batch_requests, 2u);
  EXPECT_EQ(counters.sweep_batch_peak, 2u);
  EXPECT_EQ(counters.sweep_single_dispatch, 0u);

  // A lone sweep of a different kind falls back to the ordinary path...
  EXPECT_TRUE(server.handle_line("req g1 sweep " + problem("two_coloring.txt") +
                                 " 2 2 gadgets:2..3"));
  batcher.flush();
  server.drain();
  EXPECT_NE(sink.only_response("g1").find(" ok "), std::string::npos);
  EXPECT_EQ(server.counters().sweep_single_dispatch, 1u);

  // ...and the batched group fed the sweep memo: an identical re-ask is a
  // memo hit, never a re-solve.
  EXPECT_TRUE(server.handle_line("req b3 sweep " + problem("two_coloring.txt") +
                                 " 2 2 cycles:2..4"));
  batcher.flush();
  server.drain();
  const std::string b3 = sink.only_response("b3");
  EXPECT_NE(b3.find("memo=hit"), std::string::npos) << b3;
  EXPECT_EQ(verdict_token(b3), ref1) << b3;
}

TEST(NetBatcher, MemoizedSweepsInABatchReplayFromTheMemo) {
  serve::ServeOptions options;
  options.workers = 2;
  serve::Server server(options);
  Collector sink;
  sink.attach(server);
  SweepBatcherOptions batch_options;
  batch_options.window_ms = 60'000;  // flush() decides, not the clock
  SweepBatcher batcher(server, batch_options);
  batcher.attach();
  const std::string sweep = "sweep " + problem("two_coloring.txt") + " 2 2 ";

  // Decide cycles:2..4 once; it enters the memo.
  EXPECT_TRUE(server.handle_line("req m1 " + sweep + "cycles:2..4"));
  batcher.flush();
  server.drain();
  const std::string m1 = sink.only_response("m1");
  EXPECT_NE(m1.find("memo=miss"), std::string::npos) << m1;
  EXPECT_EQ(server.counters().sweep_memo_hits, 0u);

  // A repeat inside a batch window is answered from the memo; the one
  // member left over takes the per-request path.
  EXPECT_TRUE(server.handle_line("req m2 " + sweep + "cycles:2..4"));
  EXPECT_TRUE(server.handle_line("req m3 " + sweep + "cycles:3..5"));
  batcher.flush();
  server.drain();
  const std::string m2 = sink.only_response("m2");
  const std::string m3 = sink.only_response("m3");
  EXPECT_NE(m2.find("memo=hit"), std::string::npos) << m2;
  EXPECT_EQ(verdict_token(m2), verdict_token(m1)) << m2;
  EXPECT_NE(m3.find("memo=miss"), std::string::npos) << m3;
  EXPECT_EQ(server.counters().sweep_memo_hits, 1u);

  // Two hits and two misses in one window: the misses still share a solve.
  EXPECT_TRUE(server.handle_line("req m4 " + sweep + "cycles:2..4"));
  EXPECT_TRUE(server.handle_line("req m5 " + sweep + "cycles:3..5"));
  EXPECT_TRUE(server.handle_line("req m6 " + sweep + "cycles:4..6"));
  EXPECT_TRUE(server.handle_line("req m7 " + sweep + "cycles:5..7"));
  batcher.flush();
  server.drain();
  EXPECT_NE(sink.only_response("m4").find("memo=hit"), std::string::npos);
  EXPECT_EQ(verdict_token(sink.only_response("m5")), verdict_token(m3));
  EXPECT_NE(sink.only_response("m5").find("memo=hit"), std::string::npos);
  EXPECT_NE(sink.only_response("m6").find("batch=2"), std::string::npos);
  EXPECT_NE(sink.only_response("m7").find("batch=2"), std::string::npos);
  EXPECT_EQ(server.counters().sweep_memo_hits, 3u);
}

TEST(NetBatcher, FullGroupDispatchesWithoutWaitingForTheWindow) {
  serve::ServeOptions options;
  options.workers = 2;
  serve::Server server(options);
  Collector sink;
  sink.attach(server);
  SweepBatcherOptions batch_options;
  batch_options.window_ms = 60'000;
  batch_options.max_group = 2;  // fills instantly
  SweepBatcher batcher(server, batch_options);
  batcher.attach();
  EXPECT_TRUE(server.handle_line("req f1 sweep " + problem("two_coloring.txt") +
                                 " 2 2 cycles:2..3"));
  EXPECT_TRUE(server.handle_line("req f2 sweep " + problem("two_coloring.txt") +
                                 " 2 2 cycles:4..5"));
  server.drain();  // no flush(): the full group dispatched on its own
  EXPECT_NE(sink.only_response("f1").find("batch=2"), std::string::npos);
  EXPECT_NE(sink.only_response("f2").find("batch=2"), std::string::npos);
  EXPECT_EQ(server.counters().sweep_batch_peak, 2u);
}

// --------------------------------------------------------------------- soak

TEST(NetSoak, ConcurrentClientsWithFaultsKeepEveryInvariant) {
  const std::string path = temp_path("soak_ckpt");
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".bak", ec);

  serve::ServeOptions serve_options;
  serve_options.workers = 4;
  serve_options.queue_capacity = 32;
  serve_options.checkpoint_path = path;
  serve_options.checkpoint_every = 5;
  serve_options.retry_after_ms = 10.0;
  std::string plan_error;
  const auto plan = serve::ServeFaultPlan::parse(
      "fail-checkpoint=2/3,delay-request=5/9:20,exhaust-request=4/9,"
      "drop-connection=3/11",
      &plan_error);
  ASSERT_TRUE(plan.has_value()) << plan_error;
  serve_options.faults = *plan;

  serve::Server server(serve_options);
  SweepBatcherOptions batch_options;
  batch_options.window_ms = 250;  // wide enough for the burst to pile up
  SweepBatcher batcher(server, batch_options);
  batcher.attach();
  TcpServerOptions tcp_options;
  tcp_options.max_connections = 64;
  TcpServer tcp(server, tcp_options);
  std::string error;
  ASSERT_TRUE(tcp.start(&error)) << error;
  std::thread runner([&] { tcp.run(); });

  constexpr int kClients = 16;
  std::mutex result_mutex;
  std::map<std::string, std::vector<std::string>> responses;  // id -> lines
  std::vector<std::string> stray;  // unexpected lines before a pong
  int dropped_clients = 0;

  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      ClientOptions options;
      options.port = tcp.port();
      options.io_timeout_ms = 30'000;
      Client client;
      std::string client_error;
      ASSERT_TRUE(client.connect(options, &client_error)) << client_error;
      const std::string tag = std::to_string(t);
      // The sweep goes first so the burst lands inside one batch window;
      // even/odd threads ask overlapping ranges of the same group.
      const std::vector<std::string> lines = {
          "req s" + tag + " sweep " + problem("two_coloring.txt") + " 2 2 " +
              (t % 2 == 0 ? "cycles:2..4" : "cycles:3..5"),
          "req q" + tag + " sequence " + problem("two_coloring.txt") +
              " repeat=2",
          "req m" + tag + " sequence /missing/file repeat=1",
          "req o" + tag + " sequence " + std::string(5000, 'x'),
      };
      for (const std::string& line : lines) {
        const auto resp = client.request(line, &client_error);
        if (!resp.has_value()) {
          // Dropped connection: no response for this or any later request.
          const std::lock_guard<std::mutex> lock(result_mutex);
          ++dropped_clients;
          return;
        }
        const std::size_t id_start = 4;
        const std::string id =
            line.substr(id_start, line.find(' ', id_start) - id_start);
        const std::lock_guard<std::mutex> lock(result_mutex);
        responses[id].push_back(*resp);
      }
      // Exactly-one pinning: after all four responses are consumed, a ping
      // must answer directly — any duplicate terminal response would show
      // up in front of the pong.
      if (client.send_line("ping", &client_error)) {
        const auto next = client.read_line(&client_error);
        if (next.has_value() && *next != "pong") {
          const std::lock_guard<std::mutex> lock(result_mutex);
          stray.push_back(*next);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // drop-connection=3/11 over exactly 16 accepts fires at #3 and #14.
  EXPECT_EQ(dropped_clients, 2);
  EXPECT_TRUE(stray.empty()) << stray.front();

  // Stats over the wire (accept #17 is not a drop ordinal) exposes the
  // batch counters mid-flight.
  {
    Client stats_client;
    ClientOptions options;
    options.port = tcp.port();
    std::string client_error;
    ASSERT_TRUE(stats_client.connect(options, &client_error)) << client_error;
    const auto stats = stats_client.request("stats", &client_error);
    ASSERT_TRUE(stats.has_value()) << client_error;
    EXPECT_EQ(stats->rfind("stats ", 0), 0u) << *stats;
    EXPECT_NE(stats->find("sweep_batch_groups="), std::string::npos) << *stats;
  }

  tcp.stop();
  runner.join();  // drains the server and flushes every outbox

  // Exactly one terminal response per surviving request id, classes sane.
  std::map<std::string, std::string> sweep_verdict_by_spec;
  for (const auto& [id, lines] : responses) {
    ASSERT_EQ(lines.size(), 1u) << id;
    const std::string& resp = lines.front();
    ASSERT_EQ(resp.rfind("resp " + id + " ", 0), 0u) << resp;
    if (id[0] == 'o') {
      // Oversized lines bounce at parse time, before the fault injector can
      // ever turn them retryable.
      EXPECT_NE(resp.find(" invalid "), std::string::npos) << resp;
      EXPECT_NE(resp.find("exceeds"), std::string::npos) << resp;
      continue;
    }
    if (resp.find(" retryable ") != std::string::npos) {
      // Injected exhaustion / admission shedding: structured, never a
      // verdict. Legal for any admitted request.
      EXPECT_NE(resp.find("retry_after_ms="), std::string::npos) << resp;
      continue;
    }
    if (id[0] == 'm') {
      EXPECT_NE(resp.find(" invalid "), std::string::npos) << resp;
    } else if (id[0] == 's') {
      const std::string token = verdict_token(resp);
      EXPECT_FALSE(token.empty()) << resp;
      const int thread_index = std::atoi(id.c_str() + 1);
      const std::string spec =
          thread_index % 2 == 0 ? "cycles:2..4" : "cycles:3..5";
      auto [it, inserted] = sweep_verdict_by_spec.emplace(spec, token);
      EXPECT_EQ(it->second, token) << resp;  // no flip across the soak
    } else {
      EXPECT_NE(resp.find("verdict=valid"), std::string::npos) << resp;
    }
  }

  // Verdicts are byte-identical to stdin mode: replay both specs on a
  // fresh fault-free server driven exactly like the pipe loop drives it.
  {
    serve::ServeOptions replay_options;
    replay_options.workers = 2;
    serve::Server replay(replay_options);
    Collector sink;
    sink.attach(replay);
    EXPECT_TRUE(replay.handle_line("req r1 sweep " +
                                   problem("two_coloring.txt") +
                                   " 2 2 cycles:2..4"));
    EXPECT_TRUE(replay.handle_line("req r2 sweep " +
                                   problem("two_coloring.txt") +
                                   " 2 2 cycles:3..5"));
    replay.drain();
    const auto check = [&](const char* spec, const char* id) {
      const auto it = sweep_verdict_by_spec.find(spec);
      if (it == sweep_verdict_by_spec.end()) return;  // all faulted away
      EXPECT_EQ(it->second, verdict_token(sink.only_response(id))) << spec;
    };
    check("cycles:2..4", "r1");
    check("cycles:3..5", "r2");
  }

  // The burst really batched: at least one multi-request group ran.
  const serve::ServeCounters counters = server.counters();
  EXPECT_GE(counters.sweep_batch_groups, 1u);
  EXPECT_GE(counters.sweep_batch_peak, 2u);
  EXPECT_EQ(counters.admitted, counters.completed);  // the drain left nothing
  EXPECT_GT(counters.ok, 0u);
  EXPECT_GT(counters.invalid, 0u);
  EXPECT_GE(counters.checkpoint_failures, 1u);  // the plan really fired

  // The final flush is honest and a fresh server recovers the checkpoint.
  ASSERT_TRUE(server.flush_checkpoint(&error)) << error;
  serve::ServeOptions fresh_options;
  fresh_options.checkpoint_path = path;
  serve::Server fresh(fresh_options);
  EXPECT_EQ(fresh.recovery(), serve::CheckpointManager::Recovery::kPrimary)
      << fresh.recovery_detail();
  EXPECT_GT(fresh.cache_counters().entries, 0u);
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".bak", ec);
}

// ------------------------------------------------------------------ binary

/// A running slocal_serve child with pipes on stdin/stdout.
struct ServeProcess {
  pid_t pid = -1;
  int to_child = -1;
  int from_child = -1;
  std::string buffered;

  bool read_until(const std::string& needle) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (buffered.find(needle) == std::string::npos) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      char buf[1024];
      const ssize_t n = ::read(from_child, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (n == 0) return buffered.find(needle) != std::string::npos;
      buffered.append(buf, static_cast<std::size_t>(n));
    }
    return true;
  }

  /// Parses "listening port=N" once the line is complete.
  std::uint16_t listening_port() {
    const std::string needle = "listening port=";
    if (!read_until(needle)) return 0;
    std::size_t at = buffered.find(needle) + needle.size();
    while (buffered.find('\n', at) == std::string::npos) {
      char buf[256];
      const ssize_t n = ::read(from_child, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      buffered.append(buf, static_cast<std::size_t>(n));
    }
    return static_cast<std::uint16_t>(
        std::strtoul(buffered.c_str() + at, nullptr, 10));
  }

  int wait_for_exit() {
    if (to_child >= 0) ::close(to_child);
    to_child = -1;
    for (;;) {
      char buf[1024];
      const ssize_t n = ::read(from_child, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      buffered.append(buf, static_cast<std::size_t>(n));
    }
    ::close(from_child);
    from_child = -1;
    int status = 0;
    ::waitpid(pid, &status, 0);
    return status;
  }
};

ServeProcess spawn_serve(std::vector<std::string> args) {
  ServeProcess proc;
  int in_pipe[2] = {-1, -1};
  int out_pipe[2] = {-1, -1};
  if (::pipe(in_pipe) != 0 || ::pipe(out_pipe) != 0) return proc;
  const pid_t pid = fork();
  if (pid == 0) {
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    std::vector<char*> argv;
    static const std::string binary = SLOCAL_SERVE_PATH;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    _exit(127);
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  proc.pid = pid;
  proc.to_child = in_pipe[1];
  proc.from_child = out_pipe[0];
  return proc;
}

TEST(NetBinary, ListenModeServesToolClientAndDrainsOnSigterm) {
  ServeProcess proc = spawn_serve({"--listen=0", "--workers=2"});
  ASSERT_GT(proc.pid, 0);
  ASSERT_TRUE(proc.read_until("ready ")) << proc.buffered;
  const std::uint16_t port = proc.listening_port();
  ASSERT_GT(port, 0) << proc.buffered;

  // The client library talks to the real binary.
  ClientOptions options;
  options.port = port;
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(options, &error)) << error;
  const auto resp = client.request(
      "req n1 sweep " + problem("two_coloring.txt") + " 2 2 cycles:2..4",
      &error);
  ASSERT_TRUE(resp.has_value()) << error;
  EXPECT_EQ(resp->rfind("resp n1 ok", 0), 0u) << *resp;

  // The slocal_tool client verb round-trips and maps exit codes.
  const std::string tool = SLOCAL_TOOL_PATH;
  const std::string port_str = std::to_string(port);
  int rc = std::system(
      (tool + " client " + port_str + " ping > /dev/null").c_str());
  EXPECT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 0) << rc;
  rc = std::system(
      (tool + " client " + port_str +
       " req z sequence /missing/file repeat=1 > /dev/null")
          .c_str());
  EXPECT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 1) << rc;

  ASSERT_EQ(::kill(proc.pid, SIGTERM), 0);
  const int status = proc.wait_for_exit();
  EXPECT_TRUE(WIFEXITED(status)) << proc.buffered;
  EXPECT_EQ(WEXITSTATUS(status), 0) << proc.buffered;
  EXPECT_NE(proc.buffered.find("bye checkpoint=flushed"), std::string::npos)
      << proc.buffered;
  EXPECT_NE(proc.buffered.find("sweep_batch_"), std::string::npos)
      << proc.buffered;  // the final stats line carries the batch counters
}

}  // namespace
}  // namespace slocal::net
