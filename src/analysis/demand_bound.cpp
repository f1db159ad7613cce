#include "analysis/demand_bound.hpp"

#include <algorithm>

namespace bluescale::analysis {

double utilization(const task_set& tasks) {
    double u = 0.0;
    for (const auto& t : tasks) u += t.utilization();
    return u;
}

std::uint64_t min_period(const task_set& tasks) {
    std::uint64_t m = 0;
    for (const auto& t : tasks) {
        if (t.period != 0 && (m == 0 || t.period < m)) m = t.period;
    }
    return m;
}

std::uint64_t dbf(std::uint64_t t, const rt_task& task) {
    if (task.period == 0) return 0;
    return (t / task.period) * task.wcet;
}

std::uint64_t dbf(std::uint64_t t, const task_set& tasks) {
    std::uint64_t demand = 0;
    for (const auto& task : tasks) demand += dbf(t, task);
    return demand;
}

std::vector<std::uint64_t> dbf_step_points(const task_set& tasks,
                                           std::uint64_t horizon) {
    std::vector<std::uint64_t> points;
    for (const auto& task : tasks) {
        if (task.period == 0 || task.wcet == 0) continue;
        for (std::uint64_t t = task.period; t <= horizon; t += task.period) {
            points.push_back(t);
            // The next multiple lies past the horizon; near 2^64 adding
            // the period would wrap.
            if (horizon - t < task.period) break;
        }
    }
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()), points.end());
    return points;
}

} // namespace bluescale::analysis
