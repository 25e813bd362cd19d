// WarningLog + the surfaced-fallback paths (ISSUE satellite: run_threaded
// used to fall back silently when clamping its thread count or when
// hardware_concurrency() is unreportable; both now leave a config-category
// EngineWarning behind while the run continues).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "pdes/engine.hpp"
#include "util/warn.hpp"

namespace massf {
namespace {

class CountLp final : public LogicalProcess {
 public:
  void handle(Engine&, const Event&) override { ++events; }
  std::uint64_t events = 0;
};

TEST(WarningLog, KeepsEntriesAndCountsOverflow) {
  auto& log = WarningLog::instance();
  log.clear();
  for (std::size_t i = 0; i < WarningLog::kMaxKept + 10; ++i) {
    std::string message = "w";
    message += std::to_string(i);
    warn(ErrorCategory::kTopology, message);
  }
  EXPECT_EQ(log.count(), WarningLog::kMaxKept + 10);
  const auto kept = log.snapshot();
  ASSERT_EQ(kept.size(), WarningLog::kMaxKept);  // bounded
  EXPECT_EQ(kept.front().category, ErrorCategory::kTopology);
  EXPECT_EQ(kept.front().message, "w0");
  log.clear();
  EXPECT_EQ(log.count(), 0u);
  EXPECT_TRUE(log.snapshot().empty());
}

TEST(Warn, ThreadClampIsSurfacedAndRunContinues) {
  WarningLog::instance().clear();
  EngineOptions o;
  o.lookahead = milliseconds(1);
  o.end_time = milliseconds(10);
  Engine engine(o);
  engine.add_lp(std::make_unique<CountLp>());
  engine.add_lp(std::make_unique<CountLp>());
  for (LpId i = 0; i < 2; ++i) engine.schedule(i, 0, 1);

  // 6 threads over 2 LPs: the executor must clamp, warn, and still run.
  const RunStats stats = engine.run_threaded(6);
  EXPECT_EQ(stats.total_events, 2u);

  const auto warnings = WarningLog::instance().snapshot();
  ASSERT_FALSE(warnings.empty());
  EXPECT_EQ(warnings.front().category, ErrorCategory::kConfig);
  EXPECT_NE(warnings.front().message.find("run_threaded: 6 threads"),
            std::string::npos);
  EXPECT_NE(warnings.front().message.find("clamped to 2"), std::string::npos);
}

TEST(Warn, NoClampWarningWhenThreadsFit) {
  WarningLog::instance().clear();
  EngineOptions o;
  o.lookahead = milliseconds(1);
  o.end_time = milliseconds(10);
  Engine engine(o);
  for (int i = 0; i < 4; ++i) engine.add_lp(std::make_unique<CountLp>());
  engine.schedule(0, 0, 1);
  engine.run_threaded(2);
  for (const auto& w : WarningLog::instance().snapshot()) {
    EXPECT_EQ(w.message.find("run_threaded:"), std::string::npos)
        << w.message;
  }
}

TEST(Warn, UnknownHostConcurrencyLatchesOncePerProcess) {
  WarningLog::instance().clear();
  // hc > 0 is never a complaint.
  EXPECT_FALSE(warn_unknown_host_concurrency(8));
  EXPECT_EQ(WarningLog::instance().count(), 0u);
  // hc == 0 warns on the first call that sees it, then stays quiet: the
  // fallback is process-wide, so one stderr line is the whole story.
  const bool first = warn_unknown_host_concurrency(0);
  const bool second = warn_unknown_host_concurrency(0);
  EXPECT_FALSE(second);
  if (first) {
    const auto warnings = WarningLog::instance().snapshot();
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_EQ(warnings.front().category, ErrorCategory::kConfig);
    EXPECT_NE(warnings.front().message.find("hardware_concurrency() == 0"),
              std::string::npos);
  }
  // first may be false when another test (run_threaded on a host that
  // reports 0) already consumed the latch — the invariant under test is
  // at-most-once, which `second == false` pins either way.
}

}  // namespace
}  // namespace massf
