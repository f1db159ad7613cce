// Typed metrics registry: the one way measurement data leaves the
// simulator (DESIGN.md Sec. 11).
//
// Components register named metrics once (registration allocates), then
// bump them through small handle objects on the hot path (a handle is one
// pointer; an increment is one dereference, no lookup, no allocation).
// Names are hierarchical with '/' separators and '.'-suffixed instance
// coordinates, e.g. "se.2.1/port0/queue_depth" or "client.3/issued".
//
// Determinism contract (extends PR 1): a snapshot enumerates metrics in
// sorted name order, and snapshot::write_csv formats values with the same
// std::to_string conventions as stats::csv_writer users, so exports are
// byte-identical across runs and --threads settings as long as the
// underlying simulation is. Metrics registered with k_metric_profile
// (wall-clock measurements) are inherently nondeterministic and are
// excluded from snapshots unless explicitly requested.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats/summary.hpp"

namespace bluescale::obs {

enum class metric_kind : std::uint8_t {
    counter, ///< monotonically increasing unsigned count
    gauge,   ///< signed level (set/add)
    real,    ///< floating-point level (derived values, wall-clock rates)
    sample,  ///< stats::sample_set of per-event observations
};

[[nodiscard]] const char* metric_kind_name(metric_kind k);

/// Metric registered from a wall-clock/profiling source: excluded from
/// deterministic snapshots (take_snapshot(false)) by default.
inline constexpr std::uint32_t k_metric_profile = 1u << 0;

namespace detail {
/// Storage cell behind a handle. Lives in the registry's deque, so its
/// address is stable for the registry's lifetime.
struct slot {
    std::string name;
    metric_kind kind = metric_kind::counter;
    std::uint32_t flags = 0;
    std::uint64_t count = 0;   ///< counter
    std::int64_t level = 0;    ///< gauge
    double value = 0.0;        ///< real
    stats::sample_set samples; ///< sample
};
} // namespace detail

/// Handles are trivially copyable and nullable: a default-constructed
/// handle ignores writes and reads as zero/empty, so components can keep
/// recording unconditionally whether or not anything bound them.
class counter {
public:
    counter() = default;
    void inc(std::uint64_t n = 1) {
        if (s_ != nullptr) s_->count += n;
    }
    void reset() {
        if (s_ != nullptr) s_->count = 0;
    }
    [[nodiscard]] std::uint64_t value() const {
        return s_ == nullptr ? 0 : s_->count;
    }
    [[nodiscard]] bool bound() const { return s_ != nullptr; }

private:
    friend class registry;
    explicit counter(detail::slot* s) : s_(s) {}
    detail::slot* s_ = nullptr;
};

class gauge {
public:
    gauge() = default;
    void set(std::int64_t v) {
        if (s_ != nullptr) s_->level = v;
    }
    void add(std::int64_t d) {
        if (s_ != nullptr) s_->level += d;
    }
    void reset() { set(0); }
    [[nodiscard]] std::int64_t value() const {
        return s_ == nullptr ? 0 : s_->level;
    }
    [[nodiscard]] bool bound() const { return s_ != nullptr; }

private:
    friend class registry;
    explicit gauge(detail::slot* s) : s_(s) {}
    detail::slot* s_ = nullptr;
};

class real_gauge {
public:
    real_gauge() = default;
    void set(double v) {
        if (s_ != nullptr) s_->value = v;
    }
    void add(double d) {
        if (s_ != nullptr) s_->value += d;
    }
    void reset() { set(0.0); }
    [[nodiscard]] double value() const {
        return s_ == nullptr ? 0.0 : s_->value;
    }
    [[nodiscard]] bool bound() const { return s_ != nullptr; }

private:
    friend class registry;
    explicit real_gauge(detail::slot* s) : s_(s) {}
    detail::slot* s_ = nullptr;
};

class sample {
public:
    sample() = default;
    void add(double x) {
        if (s_ != nullptr) s_->samples.add(x);
    }
    void reset();
    /// The accumulated sample set (a shared empty set when unbound).
    [[nodiscard]] const stats::sample_set& values() const;
    [[nodiscard]] std::uint64_t count() const {
        return s_ == nullptr ? 0 : s_->samples.count();
    }
    [[nodiscard]] bool bound() const { return s_ != nullptr; }

private:
    friend class registry;
    explicit sample(detail::slot* s) : s_(s) {}
    detail::slot* s_ = nullptr;
};

/// One metric's value, decoupled from registry storage (snapshots own
/// their data so they can outlive and merge across trials).
struct metric_value {
    metric_kind kind = metric_kind::counter;
    std::uint32_t flags = 0;
    std::uint64_t count = 0;
    std::int64_t level = 0;
    double value = 0.0;
    stats::sample_set samples;
};

/// Point-in-time copy of a registry, sorted by metric name.
class snapshot {
public:
    using entry = std::pair<std::string, metric_value>;

    snapshot() = default;

    [[nodiscard]] const std::vector<entry>& entries() const {
        return entries_;
    }
    [[nodiscard]] bool empty() const { return entries_.empty(); }
    [[nodiscard]] const metric_value* find(std::string_view name) const;

    /// Accumulates `other` into this snapshot: counters/gauges/reals sum,
    /// sample sets append in call order (so merging per-trial snapshots in
    /// trial order reproduces the serial sample sequence bit-for-bit).
    /// Metrics absent on one side are adopted as-is.
    void merge(const snapshot& other);

    /// The k_metric_profile-flagged (wall-clock) subset of this snapshot:
    /// what take_snapshot(true) added on top of the deterministic export.
    [[nodiscard]] snapshot profile_only() const;

    /// Deterministic export: one row per metric, sorted by name, values
    /// formatted via std::to_string. `name_prefix` is prepended to every
    /// metric name (multi-section exports); `header` controls whether the
    /// column header row is written.
    void write_csv(std::ostream& os, std::string_view name_prefix = {},
                   bool header = true) const;

private:
    friend class registry;
    std::vector<entry> entries_;
};

/// Scalar cell rendering shared by the exporters: counters/gauges via
/// std::to_string(integer), reals via std::to_string(double) (fixed,
/// six decimals -- matching the repo's historical CSV formatting), sample
/// metrics as their mean.
[[nodiscard]] std::string format_metric_cell(const metric_value& v);

/// Row-export bridge for the bench drivers: the named metrics of `snap`
/// rendered as CSV cells, in the order given. A name missing from the
/// snapshot renders as "0". A sample metric defaults to its mean; an
/// optional ":mean" / ":sd" / ":min" / ":max" / ":p50" / ":p99" /
/// ":count" suffix on the name selects another statistic (formatted with
/// the same std::to_string conventions).
[[nodiscard]] std::vector<std::string>
metric_cells(const snapshot& snap, const std::vector<std::string>& names);

/// Owns metric storage. Handles stay valid for the registry's lifetime
/// (slots live in a deque); the registry is neither copyable nor movable
/// so handles can never dangle through a move.
class registry {
public:
    registry() = default;
    registry(const registry&) = delete;
    registry& operator=(const registry&) = delete;
    registry(registry&&) = delete;
    registry& operator=(registry&&) = delete;

    /// Registering an existing name with the same kind returns a handle
    /// to the existing metric (idempotent re-binding); a kind mismatch is
    /// a programming error and asserts.
    [[nodiscard]] counter make_counter(std::string name,
                                       std::uint32_t flags = 0);
    [[nodiscard]] gauge make_gauge(std::string name, std::uint32_t flags = 0);
    [[nodiscard]] real_gauge make_real(std::string name,
                                       std::uint32_t flags = 0);
    [[nodiscard]] sample make_sample(std::string name,
                                     std::uint32_t flags = 0);

    [[nodiscard]] std::size_t size() const { return slots_.size(); }

    /// Copies current values, sorted by name. Profile-flagged metrics are
    /// skipped unless `include_profile` (they carry wall-clock noise and
    /// would break byte-identical exports).
    [[nodiscard]] snapshot take_snapshot(bool include_profile = false) const;

private:
    detail::slot& slot_for(std::string name, metric_kind kind,
                           std::uint32_t flags);

    std::deque<detail::slot> slots_;
    /// Sorted name -> slot index; gives snapshots their deterministic
    /// order without sorting at snapshot time.
    std::map<std::string, detail::slot*, std::less<>> index_;
};

} // namespace bluescale::obs
