// Micro-benchmarks (google-benchmark) for the simulator's hot paths and
// the analysis kernels: per-cycle cost of a Scale Element, buffer
// arbitration, sbf/dbf evaluation, schedulability testing, and whole-tree
// interface selection.
#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <vector>

#include "analysis/interface_selection.hpp"
#include "analysis/schedulability.hpp"
#include "analysis/tree_analysis.hpp"
#include "core/random_access_buffer.hpp"
#include "core/scale_element.hpp"
#include "mem/memory_controller.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "workload/taskset_gen.hpp"

namespace {

using namespace bluescale;

/// Minimal periodic component for engine micro-benchmarks: ticks, counts,
/// and declares its next tick `period` cycles out -- the smallest payload
/// that exercises the scheduler's pop/advance machinery without any
/// model work drowning it out.
class periodic_probe : public component {
public:
    explicit periodic_probe(cycle_t period)
        : component("probe"), period_(period) {}
    void tick(cycle_t) override { ++ticks_; }
    [[nodiscard]] cycle_t next_event(cycle_t now) const override {
        return now + period_;
    }
    [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

private:
    cycle_t period_;
    std::uint64_t ticks_ = 0;
};

/// Per-simulated-cycle cost of the event engine's schedule pop/advance:
/// period 1 steps every cycle (pure per-step engine overhead -- timer
/// release, due-bit walk, timer re-key, commit); larger periods shift the
/// work to the idle-skip path, so items/s shows how cheap a slept-over
/// cycle is.
void bm_event_engine_pop_advance(benchmark::State& state) {
    const auto period = static_cast<cycle_t>(state.range(0));
    constexpr cycle_t k_cycles = 65'536;
    std::uint64_t ticks = 0;
    for (auto _ : state) {
        simulator sim(simulator::engine::event);
        periodic_probe probe(period);
        sim.add(probe);
        sim.run(k_cycles);
        ticks += probe.ticks();
    }
    benchmark::DoNotOptimize(ticks);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(k_cycles));
}
BENCHMARK(bm_event_engine_pop_advance)->Arg(1)->Arg(16)->Arg(256);

/// The deep-tree shape: many components asleep on long, staggered
/// horizons beside one that runs every cycle, so every cycle is stepped
/// but almost nothing is due. Per-cycle cost must track the few due
/// components, not the sleeper count.
void bm_event_engine_sleepers(benchmark::State& state) {
    const auto sleepers = static_cast<std::size_t>(state.range(0));
    constexpr cycle_t k_cycles = 65'536;
    std::uint64_t ticks = 0;
    for (auto _ : state) {
        simulator sim(simulator::engine::event);
        std::vector<std::unique_ptr<periodic_probe>> probes;
        for (std::size_t i = 0; i < sleepers; ++i) {
            probes.push_back(std::make_unique<periodic_probe>(
                static_cast<cycle_t>(1'000 + 37 * i)));
            sim.add(*probes.back());
        }
        periodic_probe busy(1);
        sim.add(busy);
        sim.run(k_cycles);
        ticks += busy.ticks();
    }
    benchmark::DoNotOptimize(ticks);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(k_cycles));
}
BENCHMARK(bm_event_engine_sleepers)->Arg(256);

/// Two run_until predicate flavours over an every-cycle predicate: a
/// lambda inlines into the stepping loop; a std::function (accepted by
/// the same template) pays a type-erased call per evaluation.
void bm_run_until_template_predicate(benchmark::State& state) {
    constexpr std::uint64_t k_target = 32'768;
    for (auto _ : state) {
        simulator sim(simulator::engine::event);
        periodic_probe probe(1);
        sim.add(probe);
        const bool fired = sim.run_until(
            [&probe] { return probe.ticks() >= k_target; }, k_target * 2);
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(k_target));
}
BENCHMARK(bm_run_until_template_predicate);

void bm_run_until_std_function_predicate(benchmark::State& state) {
    constexpr std::uint64_t k_target = 32'768;
    for (auto _ : state) {
        simulator sim(simulator::engine::event);
        periodic_probe probe(1);
        sim.add(probe);
        const std::function<bool()> done = [&probe] {
            return probe.ticks() >= k_target;
        };
        const bool fired = sim.run_until(done, k_target * 2);
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(k_target));
}
BENCHMARK(bm_run_until_std_function_predicate);

void bm_random_access_buffer_fetch(benchmark::State& state) {
    const auto depth = static_cast<std::size_t>(state.range(0));
    core::random_access_buffer buf(depth);
    rng gen(1);
    for (auto _ : state) {
        while (buf.can_load()) {
            mem_request r;
            r.level_deadline = gen.uniform_u64(0, 1000);
            buf.load(r);
        }
        buf.commit();
        while (!buf.empty()) {
            benchmark::DoNotOptimize(buf.fetch_earliest());
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(depth));
}
BENCHMARK(bm_random_access_buffer_fetch)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

void bm_scale_element_tick(benchmark::State& state) {
    core::scale_element se("SE", {});
    for (std::uint32_t p = 0; p < 4; ++p) se.configure_port(p, 8, 2);
    std::uint64_t sunk = 0;
    se.bind_sink([] { return true; }, [&](mem_request) { ++sunk; });
    rng gen(2);
    cycle_t now = 0;
    for (auto _ : state) {
        for (std::uint32_t p = 0; p < 4; ++p) {
            if (se.port_can_accept(p)) {
                mem_request r;
                r.level_deadline = now + gen.uniform_u64(10, 500);
                se.port_push(p, r);
            }
        }
        se.tick(now);
        se.commit();
        ++now;
    }
    benchmark::DoNotOptimize(sunk);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_scale_element_tick);

void bm_memory_controller_tick(benchmark::State& state) {
    memory_controller mc;
    rng gen(3);
    std::uint64_t seq = 0;
    cycle_t now = 0;
    for (auto _ : state) {
        while (mc.can_accept()) {
            mem_request r;
            r.id = seq;
            r.addr = (seq++ % 4096) * 64;
            r.level_deadline = now + 500;
            mc.push(r);
        }
        mc.tick(now);
        while (mc.has_response()) benchmark::DoNotOptimize(mc.pop_response());
        mc.commit();
        ++now;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_memory_controller_tick);

/// Controller tick under DRAM maintenance: arg 0 runs maintenance-off
/// (same shape as bm_memory_controller_tick -- the perf-smoke hot path),
/// arg 1 enables refresh + scrub + hammer tracking so the delta prices
/// the maintenance engine's closed-form catch-up on the tick path.
void bm_dram_maintenance(benchmark::State& state) {
    memctrl_config cfg;
    if (state.range(0) != 0) {
        cfg.timing.t_refi = 975;
        cfg.timing.t_rfc = 65;
        cfg.maintenance.scrub_interval = 2048;
        cfg.maintenance.scrub_duration = 32;
        cfg.maintenance.hammer_threshold = 256;
        cfg.maintenance.hammer_mitigation_cycles = 32;
    }
    memory_controller mc(cfg);
    std::uint64_t seq = 0;
    cycle_t now = 0;
    for (auto _ : state) {
        while (mc.can_accept()) {
            mem_request r;
            r.id = seq;
            r.addr = (seq++ % 4096) * 64;
            r.level_deadline = now + 500;
            mc.push(r);
        }
        mc.tick(now);
        while (mc.has_response()) benchmark::DoNotOptimize(mc.pop_response());
        mc.commit();
        ++now;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_dram_maintenance)->Arg(0)->Arg(1);

void bm_sbf(benchmark::State& state) {
    const analysis::resource_interface iface{97, 31};
    std::uint64_t t = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::sbf(t, iface));
        t = (t * 1103515245 + 12345) % 100000;
    }
}
BENCHMARK(bm_sbf);

void bm_dbf_taskset(benchmark::State& state) {
    const auto n = static_cast<std::uint32_t>(state.range(0));
    rng gen(4);
    analysis::task_set tasks;
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint64_t period = gen.uniform_u64(50, 2000);
        tasks.push_back({period, gen.uniform_u64(1, period / 4)});
    }
    std::uint64_t t = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::dbf(t, tasks));
        t = (t * 48271) % 100000 + 1;
    }
}
BENCHMARK(bm_dbf_taskset)->Arg(4)->Arg(16)->Arg(64);

void bm_schedulability_test(benchmark::State& state) {
    rng gen(5);
    analysis::task_set tasks;
    for (int i = 0; i < 8; ++i) {
        const std::uint64_t period = gen.uniform_u64(100, 2000);
        tasks.push_back({period, gen.uniform_u64(1, period / 16)});
    }
    const analysis::resource_interface iface{64, 24};
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::is_schedulable(tasks, iface));
    }
}
BENCHMARK(bm_schedulability_test);

// One probe of the sufficient portfolio on a prepared kernel: the per-
// interface O(n) cost interface selection pays on the cheap-first ladder
// (the O(n log n) prepare runs once, outside the timed loop).
void bm_schedulability_sufficient(benchmark::State& state) {
    rng gen(5);
    analysis::task_set tasks;
    for (int i = 0; i < 8; ++i) {
        const std::uint64_t period = gen.uniform_u64(100, 2000);
        tasks.push_back({period, gen.uniform_u64(1, period / 16)});
    }
    analysis::sched_test_config cfg;
    cfg.cheap_first = true;
    const analysis::sched_kernel kernel(tasks, cfg);
    const analysis::resource_interface iface{64, 24};
    for (auto _ : state) {
        benchmark::DoNotOptimize(kernel.sufficient(iface));
    }
}
BENCHMARK(bm_schedulability_sufficient);

void bm_select_interface(benchmark::State& state) {
    rng gen(6);
    analysis::task_set tasks;
    for (int i = 0; i < 4; ++i) {
        const std::uint64_t period = gen.uniform_u64(100, 1000);
        tasks.push_back({period, gen.uniform_u64(1, period / 16)});
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            analysis::select_interface(tasks, 0.8));
    }
}
BENCHMARK(bm_select_interface);

void bm_tree_selection_16_clients(benchmark::State& state) {
    rng gen(7);
    auto sets = workload::make_client_tasksets(gen, 16, 0.8, 0.8);
    std::vector<analysis::task_set> rt;
    for (const auto& s : sets) rt.push_back(workload::to_rt_tasks(s));
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::select_tree_interfaces(rt));
    }
}
BENCHMARK(bm_tree_selection_16_clients);

} // namespace

BENCHMARK_MAIN();
