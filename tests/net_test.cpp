// Connection-layer tests for src/net: the shutdown wake, listener cleanup,
// dial's endpoint validation and its connect deadline, and write_all's one
// send timeout. The accept loop's reaping, cap and send deadline are
// exercised through the protocols above it (serve_test, admin_test).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <cerrno>

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#include "net/net.h"

namespace jsrev {
namespace {

bool path_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

TEST(Listener, ShutdownUnsticksHandlerBlockedOnWakeFd) {
  const std::string path = "net_test_wake.sock";
  net::Listener listener;
  listener.listen_unix(path);

  std::atomic<bool> handler_waiting{false};
  std::atomic<bool> woke_by_shutdown{false};
  std::atomic<bool> run_returned{false};
  std::thread accept_thread([&] {
    listener.run(
        [&](int fd) {
          // Watches the client too, so a broken wake still ends the test.
          pollfd fds[2] = {{fd, POLLIN, 0}, {listener.wake_fd(), POLLIN, 0}};
          handler_waiting.store(true);
          ::poll(fds, 2, -1);
          woke_by_shutdown.store((fds[1].revents & POLLIN) != 0);
        },
        [](int) {});
    run_returned.store(true);
  });

  std::string error;
  const int client = net::dial("unix:" + path, 5000, &error);
  ASSERT_GE(client, 0) << error;
  for (int i = 0; i < 500 && !handler_waiting.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(handler_waiting.load());

  listener.request_shutdown();
  for (int i = 0; i < 500 && !run_returned.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(run_returned.load()) << "run() still waits on its handler";
  ::close(client);
  accept_thread.join();
  EXPECT_TRUE(woke_by_shutdown.load());
  EXPECT_TRUE(listener.shutdown_requested());
}

TEST(Listener, UnixSocketPathRemovedOnDestruction) {
  const std::string path = "net_test_unlink.sock";
  {
    net::Listener listener;
    listener.listen_unix(path);
    EXPECT_TRUE(path_exists(path));
    EXPECT_EQ(listener.bound_port(), 0);
  }
  EXPECT_FALSE(path_exists(path));
}

TEST(Dial, RejectsMalformedEndpoints) {
  // A live listener: a lenient parse that read "PORTx" as PORT would connect.
  net::Listener listener;
  listener.listen_tcp(0);
  const std::string port = std::to_string(listener.bound_port());
  const std::vector<std::string> bad = {
      "127.0.0.1:80x",
      "127.0.0.1:" + port + "x",
      "127.0.0.1: " + port,
      "127.0.0.1:+" + port,
      "127.0.0.1:0",
      "127.0.0.1:65536",
      "127.0.0.1:",
      "127.0.0.1",  // no port at all
      "unix:" + std::string(200, 'p'),  // longer than sun_path
  };
  for (const std::string& endpoint : bad) {
    std::string error;
    EXPECT_EQ(net::dial(endpoint, 1000, &error), -1) << endpoint;
    // Rejected while parsing, before any connect was tried.
    EXPECT_FALSE(error.empty()) << endpoint;
    EXPECT_EQ(error.find("connect"), std::string::npos) << error;
  }
}

// A listener that never accepts: once its backlog is full, a connect blocks
// until the dial deadline instead of hanging the caller.
TEST(Dial, TimesOutAgainstListenerThatNeverAccepts) {
  const std::string path = "net_test_backlog.sock";
  net::Listener listener;  // run() is never called
  listener.listen_unix(path);

  constexpr long kTimeoutMs = 200;
  std::vector<int> held;
  std::string error;
  auto failed_after = std::chrono::steady_clock::duration::zero();
  for (int i = 0; i <= net::kBacklog + 8; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const int fd = net::dial("unix:" + path, kTimeoutMs, &error);
    if (fd < 0) {
      failed_after = std::chrono::steady_clock::now() - t0;
      break;
    }
    held.push_back(fd);
  }
  for (const int fd : held) ::close(fd);

  EXPECT_NE(error.find("timed out"), std::string::npos) << error;
  EXPECT_GE(failed_after, std::chrono::milliseconds(kTimeoutMs / 2));
  EXPECT_LT(failed_after, std::chrono::seconds(5));
}

// A peer that reads nothing: the first write fills the socket and returns
// short once the send timeout runs out, and write_all fails then, not
// after a second timeout.
TEST(WriteAll, StalledPeerFailsAfterOneSendTimeout) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  constexpr int kTimeoutMs = 500;
  const timeval tv{0, kTimeoutMs * 1000};
  ASSERT_EQ(::setsockopt(sv[0], SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)), 0);

  const std::string data(2u << 20, 'x');  // far more than the socket holds
  const auto t0 = std::chrono::steady_clock::now();
  const bool ok = net::write_all(sv[0], data);
  const int err = errno;
  const auto took = std::chrono::steady_clock::now() - t0;
  ::close(sv[0]);
  ::close(sv[1]);

  EXPECT_FALSE(ok);
  EXPECT_EQ(err, EAGAIN);
  EXPECT_GE(took, std::chrono::milliseconds(kTimeoutMs / 2));
  EXPECT_LT(took, std::chrono::milliseconds(kTimeoutMs * 3 / 2));
}

}  // namespace
}  // namespace jsrev
