// The surfaced-fallback paths: run_threaded clamps a thread count larger
// than the LP count, and runs with spin budgets off when
// hardware_concurrency() is unreportable. Both continue the run and log one
// [massf WARN] line to stderr (util/log.hpp), which these tests read back.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "pdes/engine.hpp"
#include "util/log.hpp"

namespace massf {
namespace {

class CountLp final : public LogicalProcess {
 public:
  void handle(Engine&, const Event&) override { ++events; }
  std::uint64_t events = 0;
};

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// Warnings are logged at kWarn; a MASSF_LOG=error environment must not
// hide what these tests read.
class Warn : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = log_level();
    set_log_level(LogLevel::kWarn);
  }
  void TearDown() override { set_log_level(saved_); }

 private:
  LogLevel saved_ = LogLevel::kInfo;
};

TEST_F(Warn, ThreadClampIsSurfacedAndRunContinues) {
  EngineOptions o;
  o.lookahead = milliseconds(1);
  o.end_time = milliseconds(10);
  Engine engine(o);
  engine.add_lp(std::make_unique<CountLp>());
  engine.add_lp(std::make_unique<CountLp>());
  for (LpId i = 0; i < 2; ++i) engine.schedule(i, 0, 1);

  // 6 threads over 2 LPs: the executor must clamp, warn, and still run.
  ::testing::internal::CaptureStderr();
  const RunStats stats = engine.run_threaded(6);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(stats.total_events, 2u);
  EXPECT_EQ(count_of(err, "[massf WARN] run_threaded: 6 threads requested "
                          "for 2 LPs; clamped to 2"),
            1u)
      << err;
}

TEST_F(Warn, NoClampWarningWhenThreadsFit) {
  EngineOptions o;
  o.lookahead = milliseconds(1);
  o.end_time = milliseconds(10);
  Engine engine(o);
  for (int i = 0; i < 4; ++i) engine.add_lp(std::make_unique<CountLp>());
  engine.schedule(0, 0, 1);
  ::testing::internal::CaptureStderr();
  engine.run_threaded(2);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.find("run_threaded:"), std::string::npos) << err;
}

TEST_F(Warn, UnknownHostConcurrencyLatchesOncePerProcess) {
  const std::string needle = "[massf WARN] hardware_concurrency() == 0";
  // hc > 0 is never a complaint.
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(warn_unknown_host_concurrency(8));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  // hc == 0 warns on the first call that sees it, then stays quiet: the
  // fallback is process-wide, so one stderr line is the whole story.
  ::testing::internal::CaptureStderr();
  const bool first = warn_unknown_host_concurrency(0);
  const bool second = warn_unknown_host_concurrency(0);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_FALSE(second);
  EXPECT_EQ(count_of(err, needle), first ? 1u : 0u) << err;
  // first may be false when another test (run_threaded on a host that
  // reports 0) already consumed the latch — the invariant under test is
  // at-most-once, which `second == false` pins either way.
}

}  // namespace
}  // namespace massf
