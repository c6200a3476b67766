// The four pfair_bench workloads.  Each runs untraced (end-to-end
// metrics) or traced (per-layer metrics) for opts.seconds, in whole
// rounds of identical, seed-determined work.
#pragma once

#include "measure.h"

namespace bench {

Report run_serve_pfair_churn(const RunOptions& opts);
Report run_serve_gedf_exact(const RunOptions& opts);
Report run_sim_pd2_16p(const RunOptions& opts);
Report run_sim_roster(const RunOptions& opts);

}  // namespace bench
