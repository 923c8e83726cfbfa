#pragma once

#include <cstdint>

namespace perfbench {

/// Calls of the global operator new so far: this thread's own plus those
/// of every thread that has exited. Read it on the thread that joined the
/// workers to count a whole sweep.
std::uint64_t heap_allocs();

}  // namespace perfbench
