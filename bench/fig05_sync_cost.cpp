// Reproduces paper Figure 5: synchronization cost of the (TeraGrid)
// cluster versus engine-node count — the calibrated C(N) every experiment
// in this repository charges per window (C(100) ~= 0.58 ms, per the
// paper).
#include <cstdio>
#include <initializer_list>

#include "cluster/cost_model.hpp"

int main() {
  massf::ClusterModel cluster;
  std::printf("# Figure 5: Synchronization Cost vs Engine-Node Count\n");
  std::printf("# nodes\tmodel_us\n");
  for (const int n : {6, 16, 32, 48, 64, 80, 96, 100, 112, 128}) {
    std::printf("%d\t%.1f\n", n, cluster.sync_cost_s(n) * 1e6);
  }
  return 0;
}
