/**
 * @file
 * Known answers the workloads are gated on. Each comes from an
 * independent oracle; `python3 perfbench/run.py --self-test` recomputes
 * them (the explorer digest through Explorer::checkReference, ~7 s and
 * ~1 GB) and fails when they drift.
 */

#ifndef PERFBENCH_KNOWN_ANSWERS_HH
#define PERFBENCH_KNOWN_ANSWERS_HH

#include <cstddef>
#include <cstdint>

namespace perfbench
{

/** explore_crash_heavy: size and digestOutcomes() of the outcome set. */
constexpr size_t kHeavyOutcomes = 7358;
constexpr uint64_t kHeavyDigest = 0x0f20d107b6a3a5e8ULL;

/** refine_deep: depth bound and the schedule-invariant pair count. */
constexpr size_t kRefineDepth = 8;
constexpr size_t kRefinePairsInterned = 15368;

} // namespace perfbench

#endif // PERFBENCH_KNOWN_ANSWERS_HH
