// The benchmark's workloads. Each builds its inputs from the seed, warms
// up outside the measured section, runs whole rounds until the run length
// has passed, checks the program's outputs and fills `res`.
#pragma once

#include "common.h"

namespace perfbench {

void run_storm_durable(const run_options& opts, result& res);
void run_flood_sharded(const run_options& opts, result& res);
void run_serve_mixed(const run_options& opts, result& res);

}  // namespace perfbench
