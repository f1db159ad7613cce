// Shared test helpers.
#pragma once

#include <deque>
#include <sstream>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "interconnect/interconnect.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace bluescale::testing {

/// Pins the process-wide default engine for one run and always restores
/// the environment-derived default afterwards, so test order cannot leak
/// an override into unrelated suites.
class scoped_engine {
public:
    explicit scoped_engine(simulator::engine e) {
        simulator::set_default_engine(e);
    }
    ~scoped_engine() { simulator::clear_default_engine(); }
    scoped_engine(const scoped_engine&) = delete;
    scoped_engine& operator=(const scoped_engine&) = delete;
};

/// A scratch file path unique to the running test and process
/// ("<suite>.<name>.<pid><ext>" under gtest's temp dir), so cases that
/// ctest runs as parallel processes never share a file, nor do two ctest
/// runs that share one temp dir.
inline std::string temp_path_for_current_test(const std::string& ext) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + info->test_suite_name() + "." +
           info->name() + "." + std::to_string(::getpid()) + ext;
}

/// A snapshot as the --metrics exporter writes it: byte comparison of
/// two of these compares every metric, not a hand-picked subset.
inline std::string snapshot_csv(const obs::snapshot& snap) {
    std::ostringstream os;
    snap.write_csv(os);
    return os.str();
}

inline std::string trace_csv(const obs::trace_export& trace) {
    std::ostringstream os;
    trace.write_csv(os);
    return os.str();
}

inline std::string trace_json(const obs::trace_export& trace) {
    std::ostringstream os;
    trace.write_chrome_json(os);
    return os.str();
}

/// Two sweeps agree byte for byte: every aggregate of the totals, every
/// merged metric and the trial-0 trace, as the exporters write them.
inline void expect_same_sweep(const harness::sweep_result& a,
                              const harness::sweep_result& b) {
    EXPECT_EQ(snapshot_csv(a.totals), snapshot_csv(b.totals));
    EXPECT_EQ(snapshot_csv(a.metrics), snapshot_csv(b.metrics));
    EXPECT_EQ(trace_json(a.trace), trace_json(b.trace));
}

/// Minimal interconnect: unbounded acceptance, completes every request a
/// fixed number of cycles after injection, no memory behind it. Lets
/// client models be tested in isolation.
class loopback_interconnect : public interconnect {
public:
    explicit loopback_interconnect(std::uint32_t n_clients,
                                   cycle_t latency = 10)
        : interconnect("loopback", n_clients), latency_(latency) {}

    [[nodiscard]] bool client_can_accept(client_id_t) const override {
        return accepting_;
    }

    void client_push(client_id_t, mem_request r) override {
        note_injected();
        if (drop_remaining_ > 0) {
            // A lost request: injected but never answered (models a link
            // eating it; exercises client timeout recovery).
            --drop_remaining_;
            note_dropped();
            return;
        }
        if (fail_remaining_ > 0) {
            --fail_remaining_;
            r.failed = true;
        }
        pending_.push_back({now_ + latency_, std::move(r)});
    }

    [[nodiscard]] std::uint32_t depth_of(client_id_t) const override {
        return 1;
    }

    void tick(cycle_t now) override {
        now_ = now;
        while (!pending_.empty() && pending_.front().first <= now) {
            mem_request r = std::move(pending_.front().second);
            pending_.pop_front();
            r.complete_cycle = now;
            deliver_response_now(std::move(r));
        }
    }

    /// Toggles acceptance to test client backpressure handling.
    void set_accepting(bool accepting) { accepting_ = accepting; }

    /// The next `n` pushed requests are silently eaten (never answered).
    void drop_next(std::uint32_t n) { drop_remaining_ = n; }
    /// The next `n` pushed requests complete with `failed = true`
    /// (uncorrected-error responses).
    void fail_next(std::uint32_t n) { fail_remaining_ = n; }

    [[nodiscard]] std::size_t pending() const { return pending_.size(); }

private:
    cycle_t latency_;
    cycle_t now_ = 0;
    bool accepting_ = true;
    std::uint32_t drop_remaining_ = 0;
    std::uint32_t fail_remaining_ = 0;
    std::deque<std::pair<cycle_t, mem_request>> pending_;
};

} // namespace bluescale::testing
