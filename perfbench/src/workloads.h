// The benchmark workloads. Each builds its inputs from the seed, sets the
// program up (timed as setup_s), drives it through its public entry points
// for the run's time budget, checks every output, and records the
// end-to-end metrics; with tracing on it records the per-layer metrics
// instead, including the layer ladder.
//
//   tcp_steady   one float32 .tgz1 model behind ModelRegistry, BatchScorer
//                and TcpServer; open-loop Poisson traffic at a base rate,
//                a peak rate and in a search for the highest sustained rate
//   stream_wide  closed-loop ScoreCsvStream of 196-feature rows into a
//                BatchScorer (max_batch 64, 2 workers)

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// Runs `options.workload`; false when the name is unknown.
bool RunWorkload(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
