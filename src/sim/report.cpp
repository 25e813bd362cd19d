#include "sim/report.hpp"

#include <sstream>

namespace massf {

std::string summarize(const ExperimentResult& r) {
  std::ostringstream os;
  os << mapping_kind_name(r.mapping.kind) << ": T=" << r.metrics.simulation_time_s
     << "s events=" << r.metrics.total_events
     << " windows=" << r.metrics.num_windows
     << " MLL=" << to_milliseconds(r.mapping.achieved_mll) << "ms"
     << " imbalance=" << r.metrics.load_imbalance
     << " PE=" << r.metrics.parallel_efficiency
     << " sync_frac=" << r.metrics.sync_fraction;
  return os.str();
}

}  // namespace massf
