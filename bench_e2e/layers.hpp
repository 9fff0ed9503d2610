#pragma once
// End-to-end and per-layer metrics of one workload run.

#include <string>
#include <vector>

#include "federation.hpp"

namespace bench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// Part of the result line's "metrics" (the names BENCHMARK.json lists).
  /// The rest are printed for people: gates that must read 0, and layers a
  /// workload does not have.
  bool in_result = true;
};

/// Percentile (0..100) of a run's round gaps over rounds 1..R, in ms.
[[nodiscard]] double round_ms_percentile(const FederationRun& run, double p);

/// The metrics a user of the federation sees, over untraced runs of one
/// workload: timings and peak memory are medians over the runs of each
/// run's value, bytes are pooled, and `accuracy` is their mean held-out
/// accuracy (Verdict).
[[nodiscard]] std::vector<Metric> end_to_end_metrics(
    const Workload& w, const std::vector<FederationRun>& runs, double accuracy);

/// Layer metrics from a traced run: self time of every span (its duration
/// minus the child spans it covers), bucketed by layer and normalized per
/// timed round.  `untraced_p50_ms` gives the tracing overhead.
[[nodiscard]] std::vector<Metric> per_layer_metrics(const Workload& w,
                                                    const FederationRun& traced,
                                                    const Replays& replays,
                                                    double untraced_p50_ms);

}  // namespace bench
