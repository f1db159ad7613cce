#include "workload/automotive_profiles.hpp"

#include <algorithm>
#include <cmath>

namespace bluescale::workload {

double compute_utilization(const compute_task_set& tasks) {
    double u = 0.0;
    for (const auto& t : tasks) u += t.compute_utilization();
    return u;
}

namespace {

/// Base profile: relative memory intensity in requests per 1000 compute
/// cycles (streaming/table-driven tasks high, arithmetic kernels low).
struct profile {
    const char* name;
    task_category category;
    double mem_per_kcycle;
};

constexpr profile k_safety_profiles[] = {
    {"crc32", task_category::safety, 16},
    {"rsa32", task_category::safety, 2},
    {"core_self_test", task_category::safety, 8},
    {"watchdog_heartbeat", task_category::safety, 1},
    {"lockstep_compare", task_category::safety, 12},
    {"can_checksum", task_category::safety, 10},
    {"battery_monitor", task_category::safety, 3},
    {"airbag_diagnostic", task_category::safety, 6},
    {"brake_plausibility", task_category::safety, 5.0},
    {"sensor_vote", task_category::safety, 9},
};

constexpr profile k_function_profiles[] = {
    {"fft", task_category::function, 7},
    {"speed_calculation", task_category::function, 2.4},
    {"fir_filter", task_category::function, 11},
    {"matrix_multiply", task_category::function, 14},
    {"kalman_filter", task_category::function, 8},
    {"table_lookup", task_category::function, 18},
    {"pwm_control", task_category::function, 1.6},
    {"torque_map", task_category::function, 13},
    {"lane_detect", task_category::function, 17},
    {"cruise_control", task_category::function, 4},
};

compute_task from_profile(const profile& p, task_id_t id, cycle_t period,
                          double util, double mem_scale) {
    compute_task t;
    t.name = p.name;
    t.id = id;
    t.category = p.category;
    t.period = period;
    t.compute_cycles = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(
               std::llround(util * static_cast<double>(period))));
    t.mem_requests = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(
               std::llround(p.mem_per_kcycle * mem_scale *
                            static_cast<double>(t.compute_cycles) /
                            1000.0)));
    return t;
}

} // namespace

compute_task_set make_case_study_tasks(rng& gen,
                                       std::uint32_t n_processors,
                                       double mem_intensity_scale) {
    compute_task_set out;
    task_id_t next_id = 1;
    (void)n_processors; // periods are per-task; placement is the harness's job
    auto add_all = [&](const profile* profiles, std::size_t count) {
        for (std::size_t i = 0; i < count; ++i) {
            // Random period, log-uniform 4k..40k cycles; compute
            // utilization ~25 +/- 10% of the hosting processor.
            const double log_period = gen.uniform_real(std::log(4000.0),
                                                        std::log(40000.0));
            const auto period = static_cast<cycle_t>(
                std::llround(std::exp(log_period)));
            const double util = gen.uniform_real(0.15, 0.35);
            out.push_back(from_profile(profiles[i], next_id++, period,
                                       util, mem_intensity_scale));
        }
    };
    add_all(k_safety_profiles, 10);
    add_all(k_function_profiles, 10);
    return out;
}

compute_task make_interference_task(rng& gen, task_id_t id,
                                    double utilization,
                                    double mem_intensity_scale) {
    profile p{"eembc_interference", task_category::interference,
              gen.uniform_real(2.0, 20.0)};
    const double log_period =
        gen.uniform_real(std::log(2000.0), std::log(20000.0));
    const auto period =
        static_cast<cycle_t>(std::llround(std::exp(log_period)));
    return from_profile(p, id, period, utilization, mem_intensity_scale);
}

} // namespace bluescale::workload
