#include "cluster/cost_model.hpp"

#include "util/check.hpp"

namespace massf {

double ClusterModel::sync_cost_s(std::int32_t n) const {
  MASSF_CHECK(n >= 1);
  // Linear TeraGrid calibration; see the header comment.
  return 50e-6 + 5.3e-6 * static_cast<double>(n);
}

SimTime ClusterModel::sync_cost_time(std::int32_t n) const {
  return from_seconds(sync_cost_s(n));
}

}  // namespace massf
