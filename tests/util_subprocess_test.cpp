// Tests for the subprocess utility under the distributed PEC driver: stdout
// plumbing, port announcements, exact-read semantics, exit statuses, and
// the failure modes (exec failure, broken pipes, mid-record EOF).
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
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
