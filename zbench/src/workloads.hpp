// The three zbench workloads.  Each builds its inputs from Args::seed,
// measures with tracing off (Args::trace false: end-to-end metrics) or
// makes the traced run (per-layer metrics), and checks the program's
// outputs as it goes.
#pragma once

#include "harness.hpp"

namespace zbench {

/// serve_mix and serve_plan_churn: zeiot::serve over the five routes.
Result run_serve(const Args& args);

/// fleet_mixed: zeiot::fleet over E6 backscatter cells plus E1/E2
/// inference cells.
Result run_fleet(const Args& args);

/// Orders a traced run's metrics as the full per-layer list and adds, as 0,
/// every per-layer metric of a layer the workload never entered.
void complete_per_layer(Result& r);

}  // namespace zbench
