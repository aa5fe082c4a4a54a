// Turning a finished run into metrics, and the result line.
#pragma once

#include <string>
#include <vector>

#include "harness.h"

namespace rtbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The end-to-end metrics (untraced runs; the traced run reports its own
// under trace.* among the layer metrics).
std::vector<Metric> EndToEndMetrics(const Harness& h);

// The per-layer metrics of a traced run, computed from the span log, the
// probes' counters and the captured get replies. Writes the spans to
// `<out_dir>/spans-<workload>.tsv`.
std::vector<Metric> LayerMetrics(const Harness& h);

// Human-readable lines plus, last, the one-line JSON result.
void PrintResult(const Harness& h, const std::vector<Metric>& metrics);

}  // namespace rtbench
