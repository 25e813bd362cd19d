#include "pdes/golden_ring.hpp"

#include <utility>
#include <vector>

namespace massf {
namespace {

constexpr std::int32_t kEvHop = 1;
constexpr std::int32_t kEvLocal = 2;

class RingLp final : public LogicalProcess {
 public:
  RingLp(LpId next, std::int64_t chain) : next_(next), chain_(chain) {}

  void handle(Engine& engine, const Event& ev) override {
    checksum_ =
        checksum_ * 1099511628211ULL + static_cast<std::uint64_t>(ev.time);
    if (ev.type == kEvHop) {
      if (ev.a > 0) {
        engine.schedule(next_, ev.time + engine.options().lookahead, kEvHop,
                        ev.a - 1);
      }
      if (chain_ > 0) {
        engine.schedule(engine.current_lp(), ev.time + microseconds(1),
                        kEvLocal, static_cast<std::uint64_t>(chain_ - 1));
      }
    } else if (ev.a > 0) {
      engine.schedule(engine.current_lp(), ev.time + microseconds(1),
                      kEvLocal, ev.a - 1);
    }
  }

  std::uint64_t checksum() const { return checksum_; }

 private:
  LpId next_;
  std::int64_t chain_;
  std::uint64_t checksum_ = 0;
};

}  // namespace

EngineOptions golden_ring_options() {
  EngineOptions o;
  o.lookahead = milliseconds(1);
  o.end_time = seconds(3600);
  return o;
}

std::uint64_t GoldenRing::checksum() const {
  std::uint64_t c = 0;
  for (LpId i = 0; i < engine->num_lps(); ++i) c = c * 31 + lp_checksum(i);
  return c;
}

GoldenRing build_golden_ring(const EngineOptions& options, std::int64_t lps,
                             std::int64_t chain, std::int64_t hops) {
  GoldenRing ring;
  ring.engine = std::make_unique<Engine>(options);
  std::vector<const RingLp*> ptrs;
  for (std::int64_t i = 0; i < lps; ++i) {
    auto lp = std::make_unique<RingLp>(static_cast<LpId>((i + 1) % lps), chain);
    ptrs.push_back(lp.get());
    ring.engine->add_lp(std::move(lp));
  }
  for (std::int64_t i = 0; i < lps; ++i) {
    ring.engine->schedule(static_cast<LpId>(i), 0, kEvHop,
                          static_cast<std::uint64_t>(hops));
  }
  ring.lp_checksum = [ptrs = std::move(ptrs)](LpId i) {
    return ptrs[static_cast<std::size_t>(i)]->checksum();
  };
  return ring;
}

}  // namespace massf
