// Global allocation counter for the perf harnesses' zero-allocation gates.
// A harness that links alloc_counter.cpp runs on its replacement global
// operator new/delete (malloc/free underneath), and every operator new adds
// one to g_allocations: read it before and after a warm loop and require
// the difference to be zero.
#pragma once

#include <atomic>
#include <cstddef>

extern std::atomic<std::size_t> g_allocations;
