//===- perfbench/src/Workloads.h - The benchmark's workloads -----*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Entry points of the four workloads. Each runs its measured window for
/// RunConfig::Seconds, checks stird's outputs outside that window, and
/// returns its metrics: the end-to-end set in an untraced run, the
/// per-layer set in a traced one.
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_PERFBENCH_WORKLOADS_H
#define STIRD_PERFBENCH_WORKLOADS_H

#include "Common.h"

namespace perfbench {

Outcome runPaperSuite(const RunConfig &Config);
Outcome runProgramScale(const RunConfig &Config);
Outcome runParallelSkew(const RunConfig &Config);
Outcome runServeChurn(const RunConfig &Config);

} // namespace perfbench

#endif // STIRD_PERFBENCH_WORKLOADS_H
