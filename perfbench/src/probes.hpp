// Direct calls into single layers, at fixed inputs: the per-layer metrics
// that are not span self times. Each probe times one public library entry
// point on the instances the workloads use.
#pragma once

#include <string>
#include <vector>

namespace dip::perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Runs every layer probe, spending about `seconds` in total.
std::vector<Metric> runLayerProbes(double seconds);

}  // namespace dip::perfbench
