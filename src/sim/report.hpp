// Textual reporting helper for logs and examples.
#pragma once

#include <string>

#include "sim/scenario.hpp"

namespace massf {

/// One-line experiment summary for logs and examples.
std::string summarize(const ExperimentResult& result);

}  // namespace massf
