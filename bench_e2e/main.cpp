// bench_e2e: one workload of the end-to-end federation-round benchmark.
//
//   bench_e2e --workload flat_train [--seed 17] [--trace 0|1] [--trace-dir DIR]
//             [--rounds N] [--federations K]
//
// --trace 0 runs the workload's federations one after the other, each in a
// fresh process with its own seed derived from --seed, and reports the
// end-to-end metrics: set-up time, round-time percentiles, throughput, CPU
// and peak memory as medians over the federations, and bytes and accuracy
// over all of them.  Several seeds steady metrics whose cost depends on the data
// (top-k selection, the coordinate-wise rules), and the medians steady them
// against bursts of load from other processes.  --trace 1 runs the first of
// those federations untraced and then traced, and prints the per-layer
// metrics.  Either way the final models are checked against the
// transport-free reference, the last stdout line is the JSON result
// {"correct", "attempted", "failed", "metrics"}, and the exit code is
// non-zero when a correctness gate fails.
// --rounds and --federations shrink a run for the smoke test only.
// run.py builds this binary and runs every workload in turn; see README.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "federation.hpp"
#include "host.hpp"
#include "layers.hpp"
#include "util/cli.hpp"

namespace {

using namespace bench;

std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-26s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string result_json(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!m.in_result) continue;
    out += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  return out + "}}";
}

const char* kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kPoll: return "poll";
    case SpanKind::kSend: return "send";
    case SpanKind::kHandler: return "handler";
    case SpanKind::kIdle: return "on_idle";
    case SpanKind::kTrain: return "train";
    case SpanKind::kMerge: return "merge";
    case SpanKind::kGlobalAgg: return "global_agg";
    case SpanKind::kSubtreeAgg: return "subtree_agg";
  }
  return "unknown";
}

/// Spans of every process (one JSONL line each) and the layer table.
bool write_trace_dir(const std::string& dir, const Workload& w, const FederationRun& run,
                     const std::vector<Metric>& layers) {
  std::ofstream spans(dir + "/" + w.name + ".spans.jsonl");
  for (std::size_t p = 0; p < run.procs.size(); ++p) {
    for (const Span& s : run.procs[p].spans) {
      spans << "{\"proc\": " << p << ", \"kind\": \"" << kind_name(s.kind)
            << "\", \"start\": " << json_number(s.start)
            << ", \"end\": " << json_number(s.end)
            << ", \"blocked\": " << json_number(s.blocked) << ", \"round\": " << s.round
            << ", \"node\": " << s.node << ", \"peer\": " << s.peer
            << ", \"msg\": " << static_cast<int>(s.msg) << ", \"bytes\": " << s.bytes
            << ", \"raw\": " << s.raw << ", \"frames\": " << s.frames << "}\n";
    }
  }
  std::ofstream table(dir + "/" + w.name + ".layers.json");
  std::vector<Metric> all = layers;
  for (Metric& m : all) m.in_result = true;
  table << result_json(true, 1, 0, all) << "\n";
  return spans.good() && table.good();
}

std::size_t rounds_lost(const Workload& w, const FederationRun& run) {
  return w.config.rounds - std::min(w.config.rounds, run.round_done.size());
}

constexpr double kLossyAccuracyFloor = 0.5;

bool lossy(const Workload& w) {
  return abdhfl::net::codec_from_config(w.config).compressed();
}

}  // namespace

int main(int argc, char** argv) {
  abdhfl::util::Cli cli(argc, argv);
  const std::string name = cli.str("workload", "", "workload to run (see README.md)");
  const auto seed = cli.integer("seed", 17, "workload seed (29 is held out)");
  const auto trace = cli.integer("trace", 0, "1 = per-layer metrics from a traced run");
  const std::string trace_dir =
      cli.str("trace-dir", "", "with --trace 1: write the spans and layer table here");
  const auto rounds =
      cli.integer("rounds", 0, "rounds per federation incl. round 0 (0 = the workload's)");
  const auto federations =
      cli.integer("federations", 0, "federations pooled into one run (0 = the workload's)");
  if (!cli.finish()) return 0;

  const Workload* found = find_workload(name);
  if (found == nullptr || (trace != 0 && trace != 1) || seed < 0 || federations < 0 ||
      federations > 64 || rounds < 0 || rounds == 1) {
    std::fprintf(stderr, "bench_e2e: bad arguments; workloads:");
    for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  const std::size_t count =
      federations > 0 ? static_cast<std::size_t>(federations) : found->federations;
  std::vector<Workload> runs(trace == 0 ? count : 1, *found);
  for (std::size_t k = 0; k < runs.size(); ++k) {
    runs[k].config.seed = static_cast<std::uint64_t>(seed) * count + k;
    if (rounds > 0) runs[k].config.rounds = static_cast<std::size_t>(rounds);
  }
  const Workload& first = runs.front();
  std::printf("bench_e2e %s  seed %lld  %zu federation(s) x %zu rounds (round 0 is "
              "set-up)  trace %lld\n",
              first.name.c_str(), static_cast<long long>(seed), runs.size(),
              first.config.rounds, static_cast<long long>(trace));
  std::fflush(stdout);

  std::string why;
  bool correct = true;
  std::size_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;
  if (trace == 0) {
    std::vector<FederationRun> done;
    for (const Workload& w : runs) {
      done.push_back(run_isolated(w));
      attempted += w.config.rounds;
      failed += rounds_lost(w, done.back());
    }
    const std::size_t jobs =
        std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
    double accuracy = 0.0;
    for (const Verdict& v : check_all(runs, done, jobs)) {
      accuracy += v.accuracy / static_cast<double>(runs.size());
      if (!v.correct && correct) {
        correct = false;
        why = v.why;
      }
    }
    // A lossy codec changes the arithmetic, so the gate is that the
    // federation still learns: five times the 10-class chance level once it
    // has had 20 rounds (top-k without delta stays near chance).
    if (correct && lossy(first) && first.config.rounds >= 20 &&
        accuracy < kLossyAccuracyFloor) {
      correct = false;
      why = "mean final accuracy below 0.5 with a lossy codec";
    }
    metrics = end_to_end_metrics(first, done, accuracy);
  } else {
    const FederationRun plain = run_federation(first, false);
    const FederationRun traced = run_federation(first, true);
    attempted += 2 * first.config.rounds;
    failed += rounds_lost(first, plain) + rounds_lost(first, traced);
    const Verdict verdict = check_outputs(first, plain);
    correct = verdict.correct;
    why = verdict.why;
    if (correct && (!traced.completed || traced.models != plain.models)) {
      correct = false;
      why = "the traced run's models differ from the untraced run's";
    }
    metrics = per_layer_metrics(first, traced, measure_replays(first, traced),
                                round_ms_percentile(plain, 50.0));
    for (const Metric& m : metrics) {
      if (m.name == "obs.trace_dropped" && m.value != 0.0) {
        correct = false;
        why = "the trace buffer dropped spans";
      }
      if (m.name == "unattributed_frac" && first.topology != Topology::kTcp &&
          m.value >= 0.10) {
        correct = false;
        why = "more than 10% of the round is not attributed to any layer";
      }
    }
    if (!trace_dir.empty() && !write_trace_dir(trace_dir, first, traced, metrics)) {
      std::fprintf(stderr, "bench_e2e: cannot write to %s\n", trace_dir.c_str());
      return 2;
    }
  }
  if (failed != 0 && correct) {
    correct = false;
    why = "rounds did not complete";
  }

  print_metrics(metrics);
  std::printf("  correct: %s%s%s\n", correct ? "yes" : "NO", why.empty() ? "" : ": ",
              why.c_str());
  std::printf("host %s\n", host_stamp_json().c_str());
  std::printf("%s\n", result_json(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}
