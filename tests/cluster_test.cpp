#include <gtest/gtest.h>

#include "cluster/cost_model.hpp"
#include "cluster/metrics.hpp"

namespace massf {
namespace {

TEST(ClusterModel, MatchesPaperCalibration) {
  ClusterModel cluster;
  // Paper Section 3.4.1: ~0.58 ms synchronization cost for 100 nodes.
  EXPECT_NEAR(cluster.sync_cost_s(100), 0.58e-3, 0.02e-3);
  // Monotonically increasing in node count.
  EXPECT_LT(cluster.sync_cost_s(8), cluster.sync_cost_s(90));
  EXPECT_GT(cluster.sync_cost_s(1), 0);
}

TEST(ClusterModel, SyncCostTimeConsistent) {
  ClusterModel cluster;
  cluster.num_engine_nodes = 90;
  EXPECT_EQ(cluster.sync_cost_time(),
            from_seconds(cluster.sync_cost_s(90)));
}

TEST(ClusterModel, MaxEventRate) {
  ClusterModel cluster;
  cluster.cost_per_event_s = 5e-6;
  EXPECT_DOUBLE_EQ(cluster.max_event_rate_per_node(), 200000.0);
}

TEST(Metrics, ComputedFromRunStats) {
  RunStats stats;
  stats.total_events = 1000000;
  stats.events_per_lp = {600000, 400000};
  stats.modeled_wall_s = 4.0;
  stats.modeled_sync_s = 1.0;
  stats.num_windows = 100;

  ClusterModel cluster;
  cluster.cost_per_event_s = 5e-6;
  const SimulationMetrics m = compute_metrics(stats, cluster);

  EXPECT_DOUBLE_EQ(m.simulation_time_s, 4.0);
  EXPECT_EQ(m.total_events, 1000000u);
  EXPECT_DOUBLE_EQ(m.sync_fraction, 0.25);
  // Rates 150k and 100k -> CoV = 0.2.
  EXPECT_NEAR(m.load_imbalance, 0.2, 1e-9);
  // Tseq = 1e6/2e5 = 5 s; PE = 5 / (2 * 4) = 0.625.
  EXPECT_NEAR(m.parallel_efficiency, 0.625, 1e-9);
}

TEST(Metrics, ZeroWallClockSafe) {
  RunStats stats;
  stats.events_per_lp = {0, 0};
  ClusterModel cluster;
  const SimulationMetrics m = compute_metrics(stats, cluster);
  EXPECT_DOUBLE_EQ(m.parallel_efficiency, 0);
  EXPECT_DOUBLE_EQ(m.sync_fraction, 0);
}

}  // namespace
}  // namespace massf
