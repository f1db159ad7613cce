// Activity-proportional wake schedule for the event-driven engine.
//
// A schedule sequences a fixed set of slots (the simulator's components,
// or the Scale Elements inside the BlueScale fabric). Per stepped cycle
// its bookkeeping scales with the slots that are due, not with the slot
// count:
//
//   - a due bitset, one bit per slot, set by component::wake() through a
//     (word, mask) pair bound into the component, and
//   - an indexed min-heap of future horizons: one entry per slot, found
//     through a per-slot position index and re-keyed in place, so it
//     never allocates after assembly. A slot due again next cycle keeps
//     its bit set instead, so per-cycle slots never touch the heap.
//
// sweep() first releases the timers that are due into the bitset, then
// walks the set bits in ascending slot order, re-reading the word after
// every tick. A slot woken during the walk therefore ticks this cycle
// when it lies ahead of the cursor and next cycle when it lies behind --
// exactly the order of a full scan over per-slot wake cells.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/component.hpp"
#include "sim/types.hpp"

namespace bluescale::sim {

class wake_schedule {
public:
    wake_schedule() = default;
    // Bound components hold pointers into this object.
    wake_schedule(const wake_schedule&) = delete;
    wake_schedule& operator=(const wake_schedule&) = delete;

    [[nodiscard]] std::size_t size() const { return pos_.size(); }

    /// Grows the schedule to `n` slots; new slots start due. Assembly
    /// time only: the bitsets may move, so the caller must bind() every
    /// slot again afterwards.
    void grow_to(std::size_t n);

    /// Routes c.wake() to slot `i`.
    void bind(std::size_t i, component& c) {
        c.bind_wake_cell(&pending_, &due_[i / 64], bit(i));
    }

    /// Earliest cycle at which some slot is due: 0 while any due bit is
    /// set (a wake is pending), else the earliest timer (k_cycle_never
    /// when every slot is quiescent).
    [[nodiscard]] cycle_t next_due() const {
        return std::min(pending_, root_at_);
    }

    /// One stepped cycle at `now`: ticks every due slot in ascending
    /// order through `tick(i)`, which returns the slot's next_event()
    /// horizon. A horizon at or below now + 1 keeps the slot's bit set
    /// (due next cycle, no timer); a later one becomes its timer.
    template <typename Tick>
    void sweep(cycle_t now, Tick&& tick) {
        if (root_at_ <= now) release(now);
        // Any wake() from here on zeroes pending_ again.
        pending_ = k_cycle_never;
        bool again = false;
        // Storage only moves in grow_to(), never during a sweep.
        std::uint64_t* const due = due_.data();
        const std::size_t words = due_.size();
        for (std::size_t w = 0; w < words; ++w) {
            std::uint64_t ticked = 0;
            // Bits at or below the last ticked slot wait for next cycle.
            std::uint64_t ahead = ~std::uint64_t{0};
            while (const std::uint64_t ready = due[w] & ahead) {
                const std::uint64_t m = ready & (~ready + 1);
                const std::size_t i = w * 64 + lowest(ready);
                const cycle_t horizon = tick(i);
                ticked |= m;
                ahead = ~(m | (m - 1));
                if (horizon <= now + 1) {
                    again = true; // the bit stays set: due next cycle
                    if (pos_[i] != k_absent) schedule(i, k_cycle_never);
                } else {
                    // Consumed. A self-wake during tick() is absorbed with
                    // it: next_event() ran after it and saw this-cycle
                    // state. A wake from a later slot's tick lands after
                    // this and sticks, as it must.
                    due[w] &= ~m;
                    set_timer(i, horizon);
                }
            }
            ticked_[w] = ticked;
        }
        if (pending_ == 0) {
            // Woken during the walk: set bits may remain in any word.
            for (std::size_t w = 0; w < words; ++w) {
                if (due[w] != 0) return;
            }
            pending_ = k_cycle_never;
        } else if (again) {
            pending_ = 0;
        }
    }

    /// Calls f(i) for every slot that ticked in the last sweep or has
    /// been woken since, ascending: the slots with a clock edge to latch.
    template <typename F>
    void for_each_ticked_or_due(F&& f) const {
        for (std::size_t w = 0; w < due_.size(); ++w) {
            for (std::uint64_t bits = ticked_[w] | due_[w]; bits != 0;
                 bits &= bits - 1) {
                f(w * 64 + lowest(bits));
            }
        }
    }

    /// Forgets which slots ticked (trial reset).
    void clear_ticked() { std::fill(ticked_.begin(), ticked_.end(), 0); }

private:
    static constexpr std::uint32_t k_absent = ~std::uint32_t{0};

    [[nodiscard]] static std::uint64_t bit(std::size_t i) {
        return std::uint64_t{1} << (i % 64);
    }

    [[nodiscard]] static std::size_t lowest(std::uint64_t bits) {
        return static_cast<std::size_t>(std::countr_zero(bits));
    }

    /// Sets the bit of every timer due at `now` (the root is). The
    /// entries stay in the heap: each released slot ticks in this sweep,
    /// which re-keys it.
    void release(cycle_t now) {
        due_[heap_[0].slot / 64] |= bit(heap_[0].slot);
        if (heap_size_ > 1 && heap_[1].at <= now) release_from(1, now);
        if (heap_size_ > 2 && heap_[2].at <= now) release_from(2, now);
    }
    /// release() for the due subtree at heap index k.
    void release_from(std::uint32_t k, cycle_t now);

    /// schedule() for a finite timer. A leaf whose timer moves later
    /// keeps its place, so it is re-keyed here without a sift.
    void set_timer(std::size_t i, cycle_t at) {
        const std::uint32_t k = pos_[i];
        if (k == k_absent || 2 * k + 1 < heap_size_ || at < heap_[k].at) {
            schedule(i, at);
            return;
        }
        heap_[k].at = at;
        if (k == 0) root_at_ = at;
    }
    /// Sets slot i's timer to `at` (k_cycle_never = no timer), in place.
    void schedule(std::size_t i, cycle_t at);

    struct timer {
        cycle_t at;
        std::uint32_t slot;
    };

    [[nodiscard]] static bool before(const timer& a, const timer& b) {
        return a.at < b.at;
    }
    void place(std::uint32_t k, const timer& t);
    void remove_at(std::uint32_t k);
    void sift_up(std::uint32_t k, timer t);
    void sift_down(std::uint32_t k, timer t);

    /// 0 while some due bit is set, else k_cycle_never. Every bound
    /// component's wake() zeroes it; sweep() recomputes it.
    cycle_t pending_ = 0;
    std::vector<std::uint64_t> due_;
    std::vector<std::uint64_t> ticked_;
    std::vector<std::uint32_t> pos_; ///< per slot: heap index or k_absent
    std::vector<timer> heap_;        ///< min-heap on at
    std::uint32_t heap_size_ = 0;
    cycle_t root_at_ = k_cycle_never; ///< heap_[0].at; never when empty
};

} // namespace bluescale::sim
