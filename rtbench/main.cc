// rtbench: real-time benchmark of OBIWAN's demand, update and invoke paths
// over TcpTransport on 127.0.0.1. See README.md.
//
//   rtbench --workload replicate_graph|update_fanout|invoke_mix --seed N
//           --seconds S --trace 0|1 [--t0-ns NS] [--out-dir DIR]
//
// The last line of standard output is the JSON result: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer metrics. --t0-ns is the
// CLOCK_MONOTONIC reading taken just before the process was started (run.py
// passes it), so that setup_s covers process start-up too.
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness.h"
#include "report.h"

namespace {

bool ParseArgs(int argc, char** argv, rtbench::RunOptions& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--t0-ns") {
      o.t0_ns = std::strtoll(value.c_str(), nullptr, 10);
    } else if (key == "--out-dir") {
      o.out_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !o.workload.empty() && o.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t main_ns = rtbench::NowNs();
  rtbench::RunOptions options;
  if (!ParseArgs(argc, argv, options)) {
    std::cerr << "usage: rtbench --workload NAME --seed N --seconds S --trace 0|1"
                 " [--t0-ns NS] [--out-dir DIR]\n";
    return 2;
  }
  if (options.t0_ns <= 0 || options.t0_ns > main_ns) options.t0_ns = main_ns;

  rtbench::Harness h(options);
  bool ran = false;
  if (options.workload == "replicate_graph") {
    ran = rtbench::RunReplicateGraph(h);
  } else if (options.workload == "update_fanout") {
    ran = rtbench::RunUpdateFanout(h);
  } else if (options.workload == "invoke_mix") {
    ran = rtbench::RunInvokeMix(h);
  } else {
    std::cerr << "rtbench: unknown workload " << options.workload << "\n";
    return 2;
  }
  if (!ran) {
    std::cerr << "rtbench: set-up failed\n";
    return 1;
  }
  h.Check(h.completed > 0, "no op completed");
  rtbench::PrintResult(h, options.trace ? rtbench::LayerMetrics(h)
                                        : rtbench::EndToEndMetrics(h));
  return 0;
}
