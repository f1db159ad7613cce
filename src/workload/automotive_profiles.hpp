// Case-study task profiles (paper Sec. 6.4): 10 automotive safety tasks
// selected from the Renesas automotive use-case database [5] and 10
// automotive function tasks from the EEMBC AutoBench suite [4], plus
// EEMBC-like interference tasks.
//
// The paper obtains WCETs by hybrid measurement on MicroBlaze; here each
// profile carries a representative execution length and memory demand
// (requests per job) chosen to preserve the tasks' relative compute/memory
// intensity, which is what the memory-interconnect evaluation exercises.
#pragma once

#include <cstdint>

#include "sim/rng.hpp"
#include "workload/compute_task.hpp"

namespace bluescale::workload {

/// All 20 case-study tasks with randomized periods (paper: "each task had
/// a randomly defined period and implicit deadline, with overall
/// processor utilization approximately 30%" across the task set).
/// `n_processors` scales the periods so the 20 tasks land at ~30% of ONE
/// processor each when spread across `n_processors` cores.
/// `mem_intensity_scale` multiplies every profile's memory demand
/// (calibration knob for how memory-bound the case study is).
[[nodiscard]] compute_task_set
make_case_study_tasks(rng& gen, std::uint32_t n_processors,
                      double mem_intensity_scale = 1.0);

/// EEMBC-like interference task raising one processor's utilization by
/// `utilization`; memory intensity varied by the generator.
[[nodiscard]] compute_task
make_interference_task(rng& gen, task_id_t id, double utilization,
                       double mem_intensity_scale = 1.0);

} // namespace bluescale::workload
