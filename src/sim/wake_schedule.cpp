#include "sim/wake_schedule.hpp"

namespace bluescale::sim {

void wake_schedule::grow_to(std::size_t n) {
    const std::size_t old = size();
    const std::size_t words = (n + 63) / 64;
    due_.resize(words, 0);
    ticked_.resize(words, 0);
    pos_.resize(n, k_absent);
    heap_.resize(n);
    for (std::size_t i = old; i < n; ++i) due_[i / 64] |= bit(i);
    if (n > old) pending_ = 0;
}

void wake_schedule::release_from(std::uint32_t k, cycle_t now) {
    // Due entries form a subtree at the root: walk it depth-first (the
    // recursion is at most the heap depth).
    due_[heap_[k].slot / 64] |= bit(heap_[k].slot);
    for (std::uint32_t c = 2 * k + 1; c <= 2 * k + 2; ++c) {
        if (c < heap_size_ && heap_[c].at <= now) release_from(c, now);
    }
}

void wake_schedule::schedule(std::size_t i, cycle_t at) {
    const auto s = static_cast<std::uint32_t>(i);
    const std::uint32_t k = pos_[s];
    if (k == k_absent) {
        if (at == k_cycle_never) return;
        sift_up(heap_size_++, {at, s});
    } else if (at == k_cycle_never) {
        remove_at(k);
    } else if (at < heap_[k].at) {
        sift_up(k, {at, s});
    } else {
        sift_down(k, {at, s});
    }
    root_at_ = heap_size_ == 0 ? k_cycle_never : heap_[0].at;
}

void wake_schedule::place(std::uint32_t k, const timer& t) {
    heap_[k] = t;
    pos_[t.slot] = k;
}

void wake_schedule::remove_at(std::uint32_t k) {
    pos_[heap_[k].slot] = k_absent;
    const timer last = heap_[--heap_size_];
    if (k == heap_size_) return;
    if (k > 0 && before(last, heap_[(k - 1) / 2])) {
        sift_up(k, last);
    } else {
        sift_down(k, last);
    }
}

// Both sifts move a hole from k and drop `t` where it lands, so no slot
// is read back after being written.
void wake_schedule::sift_up(std::uint32_t k, timer t) {
    while (k > 0) {
        const std::uint32_t parent = (k - 1) / 2;
        if (!before(t, heap_[parent])) break;
        place(k, heap_[parent]);
        k = parent;
    }
    place(k, t);
}

void wake_schedule::sift_down(std::uint32_t k, timer t) {
    for (;;) {
        std::uint32_t child = 2 * k + 1;
        if (child >= heap_size_) break;
        if (child + 1 < heap_size_ && before(heap_[child + 1], heap_[child])) {
            ++child;
        }
        if (!before(heap_[child], t)) break;
        place(k, heap_[child]);
        k = child;
    }
    place(k, t);
}

} // namespace bluescale::sim
