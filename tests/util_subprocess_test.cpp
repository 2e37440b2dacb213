// Tests for the subprocess utility under the distributed PEC driver: stdout
// plumbing, port announcements, exact-read semantics, exit statuses, and
// the failure modes (exec failure, broken pipes, mid-record EOF).
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <optional>
#include <string>

#include <unistd.h>

#include "util/contracts.h"
#include "util/subprocess.h"

namespace ebl {
namespace {

TEST(Subprocess, PipesStdout) {
  Subprocess echo = Subprocess::spawn({"/bin/echo", "hello across the pipe"});
  ASSERT_GT(echo.pid(), 0);
  const std::string msg = "hello across the pipe\n";
  std::string got(msg.size(), '\0');
  ASSERT_TRUE(read_exact(echo.stdout_fd(), got.data(), got.size()));
  EXPECT_EQ(got, msg);
  // echo exits 0; its stdout then reports clean EOF.
  char extra;
  EXPECT_FALSE(read_exact(echo.stdout_fd(), &extra, 1));
  EXPECT_EQ(echo.wait(), 0);
  EXPECT_EQ(echo.pid(), -1);
}

TEST(Subprocess, ReportsExitCode) {
  Subprocess sh = Subprocess::spawn({"/bin/sh", "-c", "exit 3"});
  EXPECT_EQ(sh.wait(), 3);
}

TEST(Subprocess, ExecFailureSurfacesAs127) {
  Subprocess p = Subprocess::spawn({"/nonexistent/definitely-not-a-binary"});
  EXPECT_EQ(p.wait(), 127);
}

TEST(Subprocess, TerminateKillsARunningChild) {
  Subprocess sleeper = Subprocess::spawn({"/bin/sleep", "60"});
  ASSERT_GT(sleeper.pid(), 0);
  sleeper.terminate();
  EXPECT_EQ(sleeper.pid(), -1);
}

std::chrono::steady_clock::time_point in_5s() {
  return std::chrono::steady_clock::now() + std::chrono::seconds(5);
}

TEST(Subprocess, WaitUntilReapsAChildThatExitsOnSigterm) {
  Subprocess sleeper = Subprocess::spawn({"/bin/sleep", "60"});
  ASSERT_GT(sleeper.pid(), 0);
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_EQ(::kill(sleeper.pid(), SIGTERM), 0);
  const std::optional<int> status = sleeper.wait_until(in_5s());
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, -SIGTERM);
  EXPECT_EQ(sleeper.pid(), -1);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(4));
}

TEST(Subprocess, WaitUntilGivesUpOnAChildThatIgnoresSigterm) {
  // The shell sets SIGTERM ignored before it says so, and sleep inherits
  // the disposition through exec.
  Subprocess stubborn =
      Subprocess::spawn({"/bin/sh", "-c", "trap '' TERM; echo ready; exec sleep 60"});
  char ready[6] = {};
  ASSERT_TRUE(read_exact(stubborn.stdout_fd(), ready, sizeof ready, in_5s()));
  const pid_t pid = stubborn.pid();
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(stubborn.wait_until(t0 + std::chrono::milliseconds(200)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(200));
  EXPECT_EQ(stubborn.pid(), pid);  // still running, still owned
  stubborn.terminate();
  EXPECT_EQ(stubborn.pid(), -1);
  errno = 0;
  EXPECT_EQ(::kill(pid, 0), -1);
  EXPECT_EQ(errno, ESRCH);
  EXPECT_FALSE(stubborn.wait_until(in_5s()).has_value());  // already reaped
}

TEST(Subprocess, SpawnListeningParsesTheAnnouncedPort) {
  ListeningChild c = spawn_listening(
      {"/bin/sh", "-c", "echo 'server: listening on 4242'; exec sleep 60"},
      in_5s());
  EXPECT_EQ(c.port, 4242);
  ASSERT_GT(c.proc.pid(), 0);
  c.proc.terminate();
}

TEST(Subprocess, SpawnListeningRejectsBadAnnouncements) {
  EXPECT_THROW(spawn_listening({"/bin/sh", "-c", "echo 'server: ready'"}, in_5s()),
               DataError);
  EXPECT_THROW(spawn_listening({"/bin/sh", "-c", "echo 'x: listening on 70000'"},
                               in_5s()),
               DataError);
  EXPECT_THROW(spawn_listening({"/bin/sh", "-c", "exit 1"}, in_5s()), DataError);
  EXPECT_THROW(spawn_listening({"/bin/sleep", "60"},
                               std::chrono::steady_clock::now() +
                                   std::chrono::milliseconds(50)),
               TimeoutError);
}

TEST(Subprocess, ReadExactDistinguishesEofFromTruncation) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  write_all(fds[1], "abcd", 4);
  ::close(fds[1]);

  char buf[4];
  ASSERT_TRUE(read_exact(fds[0], buf, 4));
  EXPECT_EQ(std::memcmp(buf, "abcd", 4), 0);
  // Clean EOF at a record boundary: false, no throw.
  EXPECT_FALSE(read_exact(fds[0], buf, 4));
  ::close(fds[0]);

  // EOF in the middle of a record: corruption, throws.
  ASSERT_EQ(::pipe(fds), 0);
  write_all(fds[1], "ab", 2);
  ::close(fds[1]);
  EXPECT_THROW(read_exact(fds[0], buf, 4), DataError);
  ::close(fds[0]);
}

TEST(Subprocess, WriteToBrokenPipeThrowsInsteadOfKilling) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);  // no reader
  const std::string data(1024, 'x');
  EXPECT_THROW(write_all(fds[1], data.data(), data.size()), DataError);
  ::close(fds[1]);
}

}  // namespace
}  // namespace ebl
