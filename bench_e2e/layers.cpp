#include "layers.hpp"

#include <algorithm>
#include <map>

#include "util/stats.hpp"

namespace bench {

namespace {

using abdhfl::net::MsgKind;

bool is_consensus(std::uint8_t kind) {
  switch (static_cast<MsgKind>(kind)) {
    case MsgKind::kVoteRequest:
    case MsgKind::kVoteReply:
    case MsgKind::kAppendEntries:
    case MsgKind::kHeartbeat:
    case MsgKind::kConsensusVote:
      return true;
    default:
      return false;
  }
}

/// Self times over the timed windows, in seconds, by layer, summed over
/// processes.
struct Totals {
  double train = 0.0, merge = 0.0, global_agg = 0.0, subtree_agg = 0.0;
  double tx_up = 0.0, tx_down = 0.0, tx_log = 0.0;
  double rx = 0.0, dispatch = 0.0, on_idle = 0.0;
  std::map<NodeId, double> train_by_trainer;
  std::map<NodeId, std::size_t> train_spans;  // each holds one cluster fold
  std::size_t frames = 0;
  double bytes_up = 0.0, bytes_down = 0.0, bytes_log = 0.0, bytes = 0.0, raw = 0.0;
  double backlog_max = 0.0;
};

/// What one process contributes beyond the shared totals.
struct ProcessTime {
  double covered = 0.0;  // every span's self time: what the layers account for
  double idle = 0.0;     // off-CPU time inside polls
};

/// Add one process's spans, clipped to its timed window, to `t`.
ProcessTime account(const NodeRoles& roles, const ProcReport& p, Totals& t) {
  ProcessTime own;
  if (!p.window_closed) return own;
  std::vector<Span> spans;
  spans.reserve(p.spans.size());
  for (const Span& s : p.spans) {
    const double start = std::max(s.start, p.window_start);
    const double end = std::min(s.end, p.window_end);
    if (end <= start) continue;
    Span clipped = s;
    clipped.blocked = s.blocked * (end - start) / (s.end - s.start);
    clipped.start = start;
    clipped.end = end;
    spans.push_back(clipped);
  }
  // Parents before children: by start, the longer span first on a tie.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start < b.start || (a.start == b.start && a.end > b.end);
  });
  // A span's parent is the innermost open span containing its start.  The
  // two clocks (bench and program spans) can disagree by a clock read, so a
  // child is clipped to its parent.
  std::vector<double> child_time(spans.size(), 0.0);
  std::vector<double> child_blocked(spans.size(), 0.0);
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!open.empty() && spans[open.back()].end <= spans[i].start) open.pop_back();
    if (!open.empty()) {
      const std::size_t parent = open.back();
      spans[i].end = std::min(spans[i].end, spans[parent].end);
      child_time[parent] += spans[i].end - spans[i].start;
      child_blocked[parent] += spans[i].blocked;
    }
    open.push_back(i);
  }

  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double self = std::max(0.0, (s.end - s.start) - child_time[i]);
    own.covered += self;
    switch (s.kind) {
      case SpanKind::kPoll: {
        // Off-CPU time in the poll itself is waiting for frames.
        const double idle = std::clamp(s.blocked - child_blocked[i], 0.0, self);
        own.idle += idle;
        t.rx += self - idle;
        t.backlog_max = std::max(t.backlog_max, static_cast<double>(s.raw));
        break;
      }
      case SpanKind::kSend: {
        ++t.frames;
        t.bytes += static_cast<double>(s.bytes);
        t.raw += static_cast<double>(s.raw);
        if (is_consensus(s.msg)) {
          t.tx_log += self;
          t.bytes_log += static_cast<double>(s.bytes);
        } else if (roles.level(s.node) > roles.level(s.peer)) {
          t.tx_up += self;
          t.bytes_up += static_cast<double>(s.bytes);
        } else {
          t.tx_down += self;
          t.bytes_down += static_cast<double>(s.bytes);
        }
        break;
      }
      case SpanKind::kHandler:
        if (roles.device(s.node)) {  // a virtual device's handler trains
          t.train += self;
          t.train_by_trainer[roles.trainer(s.node)] += self;
        } else {
          t.dispatch += self;
        }
        break;
      case SpanKind::kIdle:
        t.on_idle += self;
        break;
      case SpanKind::kTrain:
        t.train += self;
        t.train_by_trainer[s.node] += self;
        ++t.train_spans[s.node];
        break;
      case SpanKind::kMerge:
        t.merge += self;
        break;
      case SpanKind::kGlobalAgg:
        t.global_agg += self;
        break;
      case SpanKind::kSubtreeAgg:
        t.subtree_agg += self;
        break;
    }
  }
  return own;
}

std::size_t bottom_devices(const Workload& w) {
  abdhfl::topology::HierSpec spec;
  if (abdhfl::topology::parse_tree_spec(w.config.tree, spec)) return spec.total_devices();
  return w.config.workers * w.config.devices_per_worker;
}

std::size_t timed_rounds(const FederationRun& run) {
  return run.round_done.empty() ? 0 : run.round_done.size() - 1;
}

}  // namespace

double round_ms_percentile(const FederationRun& run, double p) {
  std::vector<double> gaps;
  for (std::size_t r = 1; r < run.round_done.size(); ++r) {
    gaps.push_back((run.round_done[r] - run.round_done[r - 1]) * 1e3);
  }
  return abdhfl::util::percentile_or(gaps, p, 0.0);
}

std::vector<Metric> end_to_end_metrics(const Workload& w,
                                       const std::vector<FederationRun>& runs,
                                       double accuracy) {
  std::size_t rounds = 0, attempted = 0, completed = 0;
  double bytes = 0.0;
  // Timings and memory are taken per federation and reported as the median
  // over the run's federations: a burst of load on a shared host that slows
  // one federation then does not move them.
  std::vector<double> setups, p50s, p90s, rates, cpu_ms, rss;
  for (const FederationRun& run : runs) {
    const std::size_t timed = timed_rounds(run);
    rounds += timed;
    attempted += w.config.rounds;
    completed += run.round_done.size();
    double cpu_s = 0.0, peak_mb = 0.0;
    for (const ProcReport& p : run.procs) {
      bytes += static_cast<double>(p.bytes_sent);
      cpu_s += p.cpu_s;
      peak_mb = std::max(peak_mb, p.max_rss_mb);
    }
    if (timed == 0) continue;
    const double window = run.round_done.back() - run.round_done.front();
    rss.push_back(peak_mb);
    setups.push_back(run.setup_s);
    p50s.push_back(round_ms_percentile(run, 50.0));
    p90s.push_back(round_ms_percentile(run, 90.0));
    rates.push_back(static_cast<double>(bottom_devices(w) * timed) / window);
    cpu_ms.push_back(cpu_s * 1e3 / static_cast<double>(timed));
  }
  const auto median = [](const std::vector<double>& v) {
    return abdhfl::util::percentile_or(v, 50.0, 0.0);
  };
  return {
      {"setup_s", "s", median(setups)},
      {"round_ms_p50", "ms", median(p50s)},
      {"round_ms_p90", "ms", median(p90s)},
      {"rounds_timed", "count", static_cast<double>(rounds), false},
      {"device_updates_per_s", "1/s", median(rates)},
      {"wire_mb_per_round", "MB",
       rounds == 0 ? 0.0 : bytes / static_cast<double>(rounds) / 1e6},
      {"cpu_ms_per_round", "ms", median(cpu_ms)},
      {"peak_rss_mb", "MB", median(rss)},
      {"final_accuracy", "fraction", accuracy},
      // Always 0 when the gates pass; the result line's failed / attempted
      // carry it.
      {"rounds_failed_frac", "fraction",
       attempted == 0 ? 0.0
                      : static_cast<double>(attempted - completed) /
                            static_cast<double>(attempted),
       false},
  };
}

std::vector<Metric> per_layer_metrics(const Workload& w, const FederationRun& traced,
                                      const Replays& replays, double untraced_p50_ms) {
  const NodeRoles roles(w);
  const double rounds = static_cast<double>(std::max<std::size_t>(timed_rounds(traced), 1));
  const double ms = 1e3 / rounds;  // total seconds -> ms per round

  Totals all;
  double idle_root = 0.0, idle_worker_max = 0.0, unattributed = 1.0;
  std::uint64_t dropped = 0, send_failures = 0, retries = 0, timeouts = 0,
                peer_losses = 0, decode_errors = 0;
  for (const ProcReport& p : traced.procs) {
    const ProcessTime own = account(roles, p, all);
    if (p.worker_process) {
      idle_worker_max = std::max(idle_worker_max, own.idle);
    } else {
      idle_root = own.idle;
      const double window = p.window_end - p.window_start;
      if (window > 0.0) unattributed = 1.0 - own.covered / window;
    }
    dropped += p.trace_dropped;
    send_failures += p.send_failures;
    retries += p.retries;
    timeouts += p.timeouts;
    peer_losses += p.peer_losses;
    decode_errors += p.decode_errors;
  }

  // Replayed costs move out of the spans that hide them.  A worker's train
  // span holds its cluster fold; the root's global_agg span (the leader's
  // message handlers, in a top cluster) holds the evaluation and, for the
  // top cluster, the root fold.
  const bool top = w.topology == Topology::kTopCluster;
  double cluster_s = 0.0;
  if (w.topology == Topology::kTree) {
    cluster_s = all.subtree_agg;
  } else {
    for (const auto& [node, n] : all.train_spans) {
      const double fold_s = replays.cluster_agg_ms * 1e-3 * static_cast<double>(n);
      cluster_s += fold_s;
      all.train_by_trainer[node] -= fold_s;
    }
    all.train -= cluster_s;
  }
  const double evals = static_cast<double>(top ? w.config.top_cluster : 1) * rounds;
  const double eval_s = replays.eval_ms * 1e-3 * evals;
  double root_s = all.global_agg - eval_s;
  if (top) {
    root_s = replays.root_agg_ms * 1e-3 * rounds;
    all.dispatch += all.global_agg - root_s - eval_s;
  }
  double slowest = 0.0;
  for (const auto& [node, s] : all.train_by_trainer) slowest = std::max(slowest, s);
  double commit_wait = 0.0;
  if (traced.commit_wait_s.size() > 1) {
    for (std::size_t r = 1; r < traced.commit_wait_s.size(); ++r) {
      commit_wait += traced.commit_wait_s[r];
    }
    commit_wait /= static_cast<double>(traced.commit_wait_s.size() - 1);
  }
  const double traced_p50 = round_ms_percentile(traced, 50.0);

  return {
      {"core.train_ms", "ms", all.train * ms},
      {"core.train_ms_slowest", "ms", slowest * ms},
      {"core.eval_ms", "ms", eval_s * ms},
      {"agg.root_ms", "ms", root_s * ms},
      {"agg.cluster_ms", "ms", cluster_s * ms},
      {"agg.subtree_ms", "ms", all.subtree_agg * ms, false},
      {"net.tx_ms.up", "ms", all.tx_up * ms},
      {"net.tx_ms.down", "ms", all.tx_down * ms},
      {"net.tx_ms.log", "ms", all.tx_log * ms, false},
      {"net.rx_ms", "ms", all.rx * ms},
      {"net.idle_ms.root", "ms", idle_root * ms, false},
      {"net.idle_ms.worker_max", "ms", idle_worker_max * ms, false},
      {"net.frames_per_round", "count", static_cast<double>(all.frames) / rounds},
      {"net.mb_per_round.up", "MB", all.bytes_up / rounds / 1e6},
      {"net.mb_per_round.down", "MB", all.bytes_down / rounds / 1e6},
      {"net.mb_per_round.log", "MB", all.bytes_log / rounds / 1e6, false},
      {"net.compression_ratio", "ratio", all.bytes > 0.0 ? all.raw / all.bytes : 0.0},
      {"net.rx_backlog_kb_max", "KB", all.backlog_max / 1e3, false},
      {"net.send_failures", "count", static_cast<double>(send_failures), false},
      {"net.retries", "count", static_cast<double>(retries), false},
      {"net.timeouts", "count", static_cast<double>(timeouts), false},
      {"net.peer_losses", "count", static_cast<double>(peer_losses), false},
      {"net.decode_errors", "count", static_cast<double>(decode_errors), false},
      {"node.merge_ms", "ms", all.merge * ms},
      {"node.dispatch_ms", "ms", all.dispatch * ms},
      {"node.on_idle_ms", "ms", all.on_idle * ms, false},
      {"consensus.commit_wait_ms", "ms", commit_wait * 1e3, false},
      {"consensus.terms", "count", static_cast<double>(traced.terms), false},
      {"obs.trace_overhead_frac", "fraction",
       untraced_p50_ms > 0.0 ? traced_p50 / untraced_p50_ms - 1.0 : 0.0},
      {"obs.trace_dropped", "count", static_cast<double>(dropped), false},
      {"unattributed_frac", "fraction", unattributed, false},
  };
}

}  // namespace bench
