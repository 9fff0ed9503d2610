#pragma once
// Workloads and instrumented federation runs of the end-to-end benchmark.
//
// A run drives the shipped node classes (RootNode/WorkerNode,
// hier::AggregatorNode with its virtual devices, TopClusterNode) over the
// shipped transports, and measures every layer from OUTSIDE: a Timed<Base>
// subclass of LoopbackTransport/TcpTransport overrides the public virtuals
// send/poll/register_node, so each send, each poll and each handler call
// becomes a span, and the program's own spans (train, merge, global_agg,
// subtree_agg) arrive through Transport::set_trace.  Nothing inside src/ is
// changed or instrumented for the benchmark.
//
// Round clock: round r completes when the root (or the top-cluster leader)
// sends the first frame of round r's global model; the send wrapper sees it
// before the frame is encoded.  The timed window runs from round 0's
// completion (round 0 is set-up) to the last round's.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/node.hpp"
#include "net/transport.hpp"
#include "topology/plan.hpp"

namespace bench {

using abdhfl::net::NodeId;

enum class Topology { kFlat, kTree, kTopCluster, kTcp };

/// A workload is a fixed amount of work: an untraced run is `federations`
/// federations of config.rounds rounds each (round 0 is set-up), so every
/// commit times the same rounds and final_accuracy is deterministic per seed.
struct Workload {
  std::string name;
  Topology topology = Topology::kFlat;
  abdhfl::net::FederationConfig config;  // seed is set per federation
  std::size_t federations = 4;
};

/// The benchmark's workloads, in the order the all-workload run uses.
[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(const std::string& name);

[[nodiscard]] double now_s() noexcept;  // steady clock, shared by forked processes
[[nodiscard]] double process_cpu_s() noexcept;
[[nodiscard]] double thread_cpu_s() noexcept;

enum class SpanKind : std::uint8_t {
  kPoll,        // Transport::poll (bench)
  kSend,        // Transport::send (bench)
  kHandler,     // a node's message handler (bench)
  kIdle,        // the nodes' on_idle calls between polls (bench)
  kTrain,       // program span: a worker's local round (training + cluster fold)
  kMerge,       // program span: Eq. 1 merge
  kGlobalAgg,   // program span: root aggregate + evaluate + broadcast
  kSubtreeAgg,  // program span: hier fold + send up
};

struct Span {
  double start = 0.0;
  double end = 0.0;
  double blocked = 0.0;      // bench spans: wall minus thread CPU (time off-CPU)
  std::uint64_t round = 0;
  std::uint64_t bytes = 0;   // send: bytes on the wire
  std::uint64_t raw = 0;     // send: dense-equivalent bytes; poll: rx backlog
  NodeId node = 0;           // sender, handler owner or span subject
  NodeId peer = 0;           // send: destination; handler: frame sender
  std::uint32_t frames = 0;  // poll: frames delivered
  SpanKind kind = SpanKind::kPoll;
  std::uint8_t msg = 0;      // MsgKind of the frame
};

/// What one process measured.  The workload process is procs[0]; tcp_flat's
/// worker processes send theirs back through a pipe.
struct ProcReport {
  bool worker_process = false;
  bool window_closed = false;
  double window_start = 0.0;  // round 0 complete (worker processes: received)
  double window_end = 0.0;    // last round complete
  double cpu_s = 0.0;         // user + sys over the window
  double max_rss_mb = 0.0;
  std::uint64_t bytes_sent = 0;  // over the window, every transport
  std::uint64_t retries = 0;  // whole run, every transport
  std::uint64_t timeouts = 0;
  std::uint64_t peer_losses = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t send_failures = 0;
  std::uint64_t trace_dropped = 0;
  std::vector<Span> spans;
};

struct FederationRun {
  bool completed = false;      // every node finished every round, cleanly
  double setup_s = 0.0;        // workload start -> round 0 complete
  std::vector<double> round_done;     // completion time of each round
  std::vector<double> commit_wait_s;  // top cluster: first log append -> broadcast
  std::vector<std::vector<float>> models;  // root/every top, then tree leaf heads
  std::vector<double> round_accuracy;
  std::uint64_t terms = 0;     // top cluster: highest term seen
  std::vector<std::vector<float>> root_inputs;  // traced top cluster: round 1's
  std::vector<ProcReport> procs;
};

/// One federation of `w` for w.config.rounds rounds.  With `trace` every
/// span is kept (in memory, inside the timed window).
[[nodiscard]] FederationRun run_federation(const Workload& w, bool trace);

/// One federation in a fresh child process, so its set-up and memory are
/// measured clean.  The run carries the measurements and the final models,
/// but no spans; completed is false if the child failed.
[[nodiscard]] FederationRun run_isolated(const Workload& w);

/// The correctness gates of one finished federation, and the final global
/// model's accuracy on a held-out set of kHeldOutPerClass samples per class
/// drawn from the federation's seed (ten times the program's own test set,
/// so final_accuracy varies less from seed to seed).
struct Verdict {
  bool correct = false;
  std::string why;  // the first failed gate
  double accuracy = 0.0;
};
inline constexpr std::size_t kHeldOutPerClass = 200;

/// Lossless codecs: the final models must equal the transport-free
/// reference bitwise.  Every codec: every round completed, no decode
/// errors, no failed sends.
[[nodiscard]] Verdict check_outputs(const Workload& w, const FederationRun& run);

/// check_outputs(ws[k], runs[k]) for every k, each in a forked process, at
/// most `jobs` at a time.  Call it after every measurement is taken: the
/// checks compete for the cores.
[[nodiscard]] std::vector<Verdict> check_all(const std::vector<Workload>& ws,
                                             const std::vector<FederationRun>& runs,
                                             std::size_t jobs);

/// Replays of costs that sit inside spans the benchmark cannot split from
/// outside, at the workload's shapes (median milliseconds per call).
struct Replays {
  double eval_ms = 0.0;          // core::evaluate_params on the test set
  double root_agg_ms = 0.0;      // root rule over the captured root inputs
  double cluster_agg_ms = 0.0;   // cluster rule over a worker's devices
};
[[nodiscard]] Replays measure_replays(const Workload& w, const FederationRun& traced);

/// Where a node id sits in a workload's tree.
class NodeRoles {
 public:
  explicit NodeRoles(const Workload& w);
  /// Tree level (root and tops 0, virtual devices deepest): whether a frame
  /// travels up or down.
  [[nodiscard]] std::size_t level(NodeId id) const;
  /// A tree workload's virtual device (its handler is local training).
  [[nodiscard]] bool device(NodeId id) const;
  /// The training node a device's work is charged to: its leaf head.
  [[nodiscard]] NodeId trainer(NodeId id) const;

 private:
  std::optional<abdhfl::topology::HierPlan> plan_;
};

}  // namespace bench
