// Heap-allocation counter: the benchmark binary replaces the global
// operator new/delete (alloc_hook.cc), so every allocation the program
// makes inside this process can be counted without touching its sources.
// Counting is off by default; the traced pass switches it on around the
// work it attributes, so untraced runs pay one predictable branch.
#pragma once

#include <cstdint>

namespace perfbench {

/// Starts or stops counting.  Allocations made while off are not counted.
void set_alloc_counting(bool on);

/// Operator-new calls counted so far, across all threads.
std::uint64_t alloc_count();

/// RAII window: counts the allocations made between construction and
/// count(), with counting switched on for the window's lifetime.
class AllocWindow {
 public:
  AllocWindow() : start_((set_alloc_counting(true), alloc_count())) {}
  ~AllocWindow() { set_alloc_counting(false); }
  AllocWindow(const AllocWindow&) = delete;
  AllocWindow& operator=(const AllocWindow&) = delete;

  std::uint64_t count() const { return alloc_count() - start_; }

 private:
  std::uint64_t start_;
};

}  // namespace perfbench
