// The Figure-2 graph workloads (fig2_steady, fig2_replay); see fig2.cc.
#ifndef PERFBENCH_FIG2_H_
#define PERFBENCH_FIG2_H_

#include <string>
#include <vector>

#include "bench.h"
#include "reference.h"

namespace perfbench {

/// Topic partitions = entity-keyed shards (the reference box has 4
/// hardware threads).
inline constexpr size_t kShards = 4;
/// fig2_steady's fixed open-loop rate: about a third of the drain rate
/// fig2_replay measures on the reference box (110-165k records/s). At
/// half, the steady p99 rose by up to half whenever the host's memory
/// speed dipped; a third leaves room for that dip.
inline constexpr double kSteadyRatePerS = 40000.0;
/// Sleep of a tail poll that found nothing new.
inline constexpr int64_t kTailPollUs = 500;
/// Latency budget the steady p99 is graded against (the scenario SLO).
inline constexpr int64_t kLatencyBudgetMs = 50;
/// fig2_replay's pre-filled backlog: two hours of the default fleet mix.
inline constexpr size_t kReplayRecords = 75000;
inline constexpr size_t kMinReplayRounds = 3;
/// A steady run is invalid when the producer's lateness p99 exceeds this
/// share of the e2e p99: the generator, not the program, set the tail.
inline constexpr double kMaxLateShare = 0.25;
/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

RunResult RunFig2(const Options& opt, bool steady);

/// Channel stages whose blocked time every workload reports (0 where the
/// stage is not part of the workload).
const std::vector<std::string>& ChannelStages();

/// The per-call service times and work ratios of the single-threaded
/// reference, shared by every workload's per-layer report.
void AddModuleLayers(const ModuleTimes& keyed, const ModuleTimes& cross,
                     const KeyedReference& kref, const CrossReference& xref,
                     std::vector<Metric>* out);

}  // namespace perfbench

#endif  // PERFBENCH_FIG2_H_
