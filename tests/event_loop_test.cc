// Tests for net::EventLoop (util/event_loop.h), the socket loop under
// the serve shards and the farm coordinator: back-pressure on a slow
// reader, the drain of sockets adopted just before Stop(), and the
// accept (kept or handed to another loop) and half-close paths. Hooks run on the loop thread; each test
// reads what they recorded only after Stop() has joined it.

#include "util/event_loop.h"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/net.h"

namespace farmer {
namespace net {
namespace {

struct TestConn : EventLoop::Conn {
  int id = 0;
};

struct Record {
  int made = 0;
  std::vector<int> closes;  // closes[id]: on_close calls for conn `id`.
  int drain_closes = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t write_stalls = 0;
};

EventLoop::Hooks RecordingHooks(Record* record,
                                std::function<bool(EventLoop::Conn&)> read) {
  return EventLoop::Hooks{
      .make_conn =
          [record] {
            auto conn = std::make_unique<TestConn>();
            conn->id = record->made++;
            record->closes.push_back(0);
            return conn;
          },
      .on_read = std::move(read),
      .on_close =
          [record](EventLoop::Conn& conn, bool draining) {
            ++record->closes[static_cast<TestConn&>(conn).id];
            if (draining) ++record->drain_closes;
          },
      .on_wake =
          [record](const EventLoop::Wake& wake) {
            record->bytes_out += wake.bytes_out;
            record->write_stalls += wake.write_stalls;
          },
      .on_accept = nullptr,
  };
}

// Reads until EOF, `chunk` bytes per recv, pausing `pause` between.
std::string ReadUntilEof(int fd, std::size_t chunk,
                         std::chrono::microseconds pause) {
  std::string got;
  std::vector<char> buf(chunk);
  ssize_t n;
  while ((n = ::recv(fd, buf.data(), buf.size(), 0)) > 0) {
    got.append(buf.data(), static_cast<std::size_t>(n));
    std::this_thread::sleep_for(pause);
  }
  return got;
}

TEST(EventLoopTest, SlowReaderGetsAMultiMegabyteReplyIntact) {
  // 8 MiB in 128 queued sends: more than one vectored write can carry,
  // and far more than the shrunken socket buffers below can hold.
  constexpr std::size_t kPiece = 64 * 1024;
  constexpr std::size_t kPieces = 128;
  std::vector<std::string> pieces;
  std::string expected;
  for (std::size_t i = 0; i < kPieces; ++i) {
    std::string piece(kPiece, '\0');
    for (std::size_t j = 0; j < kPiece; ++j) {
      piece[j] = static_cast<char>((i * 131 + j) % 251);
    }
    expected += piece;
    pieces.push_back(std::move(piece));
  }

  Record record;
  EventLoop loop(RecordingHooks(&record, [&](EventLoop::Conn& conn) {
    if (conn.rbuf.find('\n') == std::string::npos) return true;
    conn.rbuf.clear();
    for (const std::string& piece : pieces) conn.Send(piece);
    conn.want_close = true;
    return true;
  }));
  ASSERT_TRUE(loop.Start().ok());

  int listener = -1;
  int port = 0;
  ASSERT_TRUE(OpenListener("127.0.0.1", 0, &listener, &port).ok());
  int client = -1;
  ASSERT_TRUE(ConnectToHost("127.0.0.1", port, 5.0, &client).ok());
  const int server = ::accept(listener, nullptr, nullptr);
  ::close(listener);
  ASSERT_GE(server, 0);
  ASSERT_TRUE(SetNonBlocking(server));
  const int small = 32 * 1024;
  ::setsockopt(server, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  ::setsockopt(client, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  loop.Adopt(server);

  ASSERT_TRUE(SendAll(client, "go\n"));
  const std::string got =
      ReadUntilEof(client, 16 * 1024, std::chrono::microseconds(200));
  ::close(client);
  loop.Stop();

  EXPECT_EQ(got.size(), expected.size());
  EXPECT_TRUE(got == expected) << "reply corrupted or reordered";
  EXPECT_EQ(record.bytes_out, expected.size());
  EXPECT_GE(record.write_stalls, 1u);
  EXPECT_EQ(record.closes, std::vector<int>{1});
  EXPECT_EQ(record.drain_closes, 0);
}

TEST(EventLoopTest, StopClosesEverySocketAdoptedBeforeItExactlyOnce) {
  constexpr int kRounds = 10;
  constexpr int kSockets = 8;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    Record record;
    EventLoop loop(
        RecordingHooks(&record, [](EventLoop::Conn&) { return true; }));
    ASSERT_TRUE(loop.Start().ok());
    std::vector<int> peers(kSockets, -1);
    std::thread adopter([&] {
      for (int& peer : peers) {
        int sv[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
        ASSERT_TRUE(SetNonBlocking(sv[0]));
        loop.Adopt(sv[0]);
        peer = sv[1];
      }
    });
    adopter.join();
    loop.Stop();

    EXPECT_EQ(record.made, kSockets);
    EXPECT_EQ(record.closes, std::vector<int>(kSockets, 1));
    EXPECT_EQ(record.drain_closes, kSockets);
    EXPECT_EQ(loop.connections(), 0u);
    for (const int peer : peers) {
      char c;
      EXPECT_EQ(::recv(peer, &c, 1, 0), 0);  // EOF: the loop closed it.
      ::close(peer);
    }
  }
}

TEST(EventLoopTest, AcceptsOnItsListenerAndAnswersAHalfClosedPeer) {
  Record record;
  EventLoop loop(RecordingHooks(&record, [](EventLoop::Conn& conn) {
    // Echoes each complete line.
    std::size_t nl;
    while ((nl = conn.rbuf.find('\n')) != std::string::npos) {
      conn.Send(conn.rbuf.substr(0, nl + 1));
      conn.rbuf.erase(0, nl + 1);
    }
    return true;
  }));
  int listener = -1;
  int port = 0;
  ASSERT_TRUE(OpenListener("127.0.0.1", 0, &listener, &port).ok());
  ASSERT_TRUE(SetNonBlocking(listener));
  ASSERT_TRUE(loop.Start({listener}).ok());

  int client = -1;
  ASSERT_TRUE(ConnectToHost("127.0.0.1", port, 5.0, &client).ok());
  ASSERT_TRUE(SendAll(client, "a\nb\nc\n"));
  ::shutdown(client, SHUT_WR);
  EXPECT_EQ(ReadUntilEof(client, 4096, std::chrono::microseconds(0)),
            "a\nb\nc\n");
  ::close(client);
  loop.Stop();
  ::close(listener);

  // The close came from the drained queue, before Stop().
  EXPECT_EQ(record.closes, std::vector<int>{1});
  EXPECT_EQ(record.drain_closes, 0);
}

TEST(EventLoopTest, AcceptHookHandsASocketToAnotherLoop) {
  Record served;
  EventLoop target(RecordingHooks(&served, [](EventLoop::Conn& conn) {
    if (conn.rbuf.find('\n') == std::string::npos) return true;
    conn.Send("pong\n");
    conn.want_close = true;
    return true;
  }));
  ASSERT_TRUE(target.Start().ok());

  int listener = -1;
  int port = 0;
  ASSERT_TRUE(OpenListener("127.0.0.1", 0, &listener, &port).ok());
  Record accepted;
  EventLoop::Hooks hooks =
      RecordingHooks(&accepted, [](EventLoop::Conn&) { return false; });
  int handed = 0;
  hooks.on_accept = [&](int from, int fd) {
    EXPECT_EQ(from, listener);
    ++handed;
    target.Adopt(fd);
    return false;
  };
  EventLoop acceptor(std::move(hooks));
  ASSERT_TRUE(acceptor.Start({listener}).ok());

  int client = -1;
  ASSERT_TRUE(ConnectToHost("127.0.0.1", port, 5.0, &client).ok());
  ASSERT_TRUE(SendAll(client, "ping\n"));
  EXPECT_EQ(ReadUntilEof(client, 4096, std::chrono::microseconds(0)),
            "pong\n");
  EXPECT_EQ(acceptor.connections(), 0u);
  ::close(client);
  // The accepting loop stops first, as the owner of a hand-off must.
  acceptor.Stop();
  target.Stop();
  ::close(listener);

  EXPECT_EQ(handed, 1);
  EXPECT_EQ(accepted.made, 0);
  EXPECT_EQ(served.closes, std::vector<int>{1});
  EXPECT_EQ(served.drain_closes, 0);
}

}  // namespace
}  // namespace net
}  // namespace farmer
