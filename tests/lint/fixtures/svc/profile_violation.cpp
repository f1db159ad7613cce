// Fixture: a wall-clock read under a /svc/ path is a nondet-source
// violation like anywhere else -- the analysis service runs on virtual
// cycles only.
#include <chrono>
#include <cstdint>

std::uint64_t latch_deadline_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}
