#ifndef FGLB_TESTS_TRACE_COMPARE_H_
#define FGLB_TESTS_TRACE_COMPARE_H_

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace fglb {

// Whole-trace identity for the run-to-run and live-vs-replay tests.
// The decision trace carries no wall clock, so two runs that decide
// alike buffer the same lines byte for byte; on a mismatch this names
// the first line that differs instead of printing both traces.
inline ::testing::AssertionResult SameTrace(
    const std::vector<std::string>& expected,
    const std::vector<std::string>& actual) {
  const size_t common = std::min(expected.size(), actual.size());
  for (size_t i = 0; i < common; ++i) {
    if (expected[i] != actual[i]) {
      return ::testing::AssertionFailure()
             << "traces differ at line " << i + 1 << ":\n  expected "
             << expected[i] << "\n  actual   " << actual[i];
    }
  }
  if (expected.size() != actual.size()) {
    return ::testing::AssertionFailure()
           << "trace lengths differ: expected " << expected.size()
           << " lines, actual " << actual.size();
  }
  return ::testing::AssertionSuccess();
}

// Whether any trace line contains `needle`: the guard that a compared
// trace exercised the path under test at all.
inline bool AnyLineContains(const std::vector<std::string>& lines,
                            const std::string& needle) {
  for (const std::string& line : lines) {
    if (line.find(needle) != std::string::npos) return true;
  }
  return false;
}

}  // namespace fglb

#endif  // FGLB_TESTS_TRACE_COMPARE_H_
