// Self-tests of the benchmark's statistics and open-loop accounting.

#ifndef PERFBENCH_SELFTEST_H_
#define PERFBENCH_SELFTEST_H_

namespace perfbench {

/// Runs every self-test; returns the number of failed checks.
int RunSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_SELFTEST_H_
