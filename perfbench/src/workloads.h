#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Each workload sets itself up from `settings.seed`, measures for
/// `settings.seconds`, verifies every operation, and returns either the
/// end-to-end metrics (untraced) or the per-layer metrics (traced).
Outcome RunCheckpoint(const Settings& settings);
Outcome RunService(const Settings& settings);
Outcome RunAnalysis(const Settings& settings);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
