#include "federation.hpp"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <variant>

#include "agg/aggregator.hpp"
#include "consensus/rotation.hpp"
#include "core/trainer.hpp"
#include "data/synth_digits.hpp"
#include "net/hier/aggregator.hpp"
#include "net/hier/reference.hpp"
#include "net/loopback.hpp"
#include "net/tcp.hpp"
#include "net/top_cluster.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace bench {

namespace net = abdhfl::net;
using net::MsgKind;
using net::Payload;
using net::SendStatus;

namespace {

// Every federation must finish well inside the per-run limit of 180 s.
constexpr double kRunBudgetS = 150.0;

// samples_per_class gives every device at least one 16-sample batch of data.
Workload make_workload(const char* name, Topology topology, std::size_t federations,
                       std::size_t rounds, std::size_t side,
                       std::vector<std::size_t> hidden, std::size_t local_iters,
                       const char* cluster_rule, const char* root_rule,
                       std::size_t samples_per_class) {
  Workload w;
  w.name = name;
  w.topology = topology;
  w.federations = federations;
  net::FederationConfig& c = w.config;
  c.rounds = rounds;
  c.image_side = side;
  c.hidden = std::move(hidden);
  c.local_iters = local_iters;
  c.cluster_rule = cluster_rule;
  c.root_rule = root_rule;
  c.samples_per_class = samples_per_class;
  c.test_samples_per_class = 20;
  return w;
}

// Sizes: at least 100 timed rounds over all federations and 10-25 s of
// set-up and timed rounds per run on the 4-core EPYC host of README.md.  The
// timings are medians over a run's federations, so every workload runs at
// least three; top3_robust, whose set-up takes about 3 s, runs exactly
// three.  The learning rates and tree_fanout's and top3_robust's data sizes
// make the final accuracy vary less from seed to seed; they leave the cost
// of a round unchanged.
std::vector<Workload> make_workloads() {
  std::vector<Workload> out;
  // d = 99,978: 16x16 digits through hidden {256, 128}.
  Workload w = make_workload("flat_train", Topology::kFlat, 4, 26, 16, {256, 128}, 2,
                             "trimmed_mean", "median", 128);
  w.config.workers = 16;
  w.config.devices_per_worker = 4;
  out.push_back(std::move(w));

  // d = 9,610: 8x8 digits through hidden {128}; 512 virtual devices.
  w = make_workload("tree_fanout", Topology::kTree, 6, 26, 8, {128}, 1, "mean", "mean",
                    820);
  w.config.tree = "2,4,64";
  w.config.learning_rate = 0.2;
  out.push_back(std::move(w));

  w = make_workload("flat_compressed", Topology::kFlat, 6, 26, 16, {256, 128}, 1, "mean",
                    "mean", 64);
  w.config.workers = 32;
  w.config.devices_per_worker = 1;
  w.config.topk = 10000;
  w.config.delta = true;
  w.config.quantize_bits = 8;
  w.config.learning_rate = 0.1;
  out.push_back(std::move(w));

  w = make_workload("top3_robust", Topology::kTopCluster, 3, 35, 16, {256, 128}, 1,
                    "median", "trimmed_mean", 256);
  w.config.workers = 32;
  w.config.devices_per_worker = 1;
  w.config.top_cluster = 3;
  out.push_back(std::move(w));

  // One worker process: with several training at once on the shared 4-core
  // host, the slowest of them set the round and the round time swung by a
  // third from run to run.
  w = make_workload("tcp_flat", Topology::kTcp, 4, 101, 16, {256, 128}, 8, "trimmed_mean",
                    "median", 32);
  w.config.workers = 1;
  w.config.devices_per_worker = 4;
  out.push_back(std::move(w));
  return out;
}

// ---------------------------------------------------------------------------
// Probe: the round clock, window snapshots and the in-memory span log of one
// process.

std::uint8_t kind_of(const Payload& payload) {
  return static_cast<std::uint8_t>(std::visit(
      [](const auto& p) { return std::decay_t<decltype(p)>::kMessageKind; }, payload));
}

/// Peak resident memory of this process image.  VmHWM, not ru_maxrss: the
/// latter survives exec, so it would count the launcher's memory too.
double max_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib * 1024.0 / 1e6;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

class Probe {
 public:
  Probe(const Workload& w, bool root_side, std::size_t last_round, bool tracing)
      : root_side_(root_side),
        last_round_(last_round),
        tracing_(tracing),
        capture_root_inputs_(tracing && w.topology == Topology::kTopCluster) {
    if (w.topology == Topology::kTopCluster) {
      for (std::size_t t = 0; t < w.config.top_cluster; ++t) {
        roots_.push_back(net::top_node_id(t));
      }
    } else {
      roots_.push_back(net::kRootId);
    }
  }

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  void add_transport(const net::Transport* transport) { transports_.push_back(transport); }
  [[nodiscard]] bool tracing() const noexcept { return tracing_; }

  /// Root side: the first frame of round r's global model completes round
  /// r.  Also stamps the leader's first log append of round r's model.
  void on_send(const net::Envelope& env, const Payload& payload) {
    if (!root_side_ || std::find(roots_.begin(), roots_.end(), env.from) == roots_.end()) {
      return;
    }
    if (const auto* partial = std::get_if<net::PartialModel>(&payload)) {
      if (partial->is_global) mark(env.round);
    } else if (const auto* append = std::get_if<net::AppendEntries>(&payload)) {
      for (const auto& entry : append->entries) {
        if (entry.type != static_cast<std::uint16_t>(
                              abdhfl::consensus::rotation::EntryType::kModelCommit) ||
            entry.round != commit_start_.size()) {
          continue;
        }
        commit_start_.push_back(now_s());
      }
    }
  }

  /// Worker side (a tcp_flat worker process): its window opens when round
  /// 0's global model arrives and closes with the last round's.  Root side,
  /// a traced top cluster keeps round 1's inputs to the leader's fold, which
  /// runs inside a message handler, for the aggregation replay.
  void on_deliver(NodeId to, const net::WireMessage& msg) {
    if (root_side_) {
      if (capture_root_inputs_ && msg.kind == MsgKind::kModelUpdate && msg.env.round == 1 &&
          std::find(roots_.begin(), roots_.end(), to) != roots_.end()) {
        root_inputs_.push_back(std::get<net::ModelUpdate>(msg.payload).params);
      }
      return;
    }
    if (msg.kind != MsgKind::kPartialModel) return;
    if (std::get<net::PartialModel>(msg.payload).is_global) mark(msg.env.round);
  }

  /// Keep a span when tracing and it overlaps the timed window.
  void record(const Span& span) {
    if (!tracing_ || round_done_.empty() || span.end < report_.window_start) return;
    if (report_.window_closed && span.start > report_.window_end) return;
    report_.spans.push_back(span);
  }

  void count_send_failure() { ++report_.send_failures; }

  [[nodiscard]] const std::vector<double>& round_done() const noexcept {
    return round_done_;
  }
  [[nodiscard]] const std::vector<double>& commit_wait() const noexcept {
    return commit_wait_;
  }
  [[nodiscard]] std::vector<std::vector<float>> take_root_inputs() {
    return std::move(root_inputs_);
  }

  /// The finished report: counters summed over this process's transports.
  ProcReport take_report(bool worker_process) {
    report_.worker_process = worker_process;
    report_.max_rss_mb = max_rss_mb();
    for (const net::Transport* t : transports_) {
      const net::TransportStats& s = t->stats();
      report_.retries += s.retries;
      report_.timeouts += s.timeouts;
      report_.peer_losses += s.peer_losses;
      report_.decode_errors += s.decode_errors;
    }
    return std::move(report_);
  }

 private:
  std::uint64_t bytes_sent() const {
    std::uint64_t out = 0;
    for (const net::Transport* t : transports_) out += t->stats().bytes_sent;
    return out;
  }

  void mark(std::uint64_t round) {
    if (round != round_done_.size()) return;  // a re-broadcast of a done round
    const double t = now_s();
    round_done_.push_back(t);
    if (round < commit_start_.size()) commit_wait_.push_back(t - commit_start_[round]);
    if (round == 0) {
      report_.window_start = t;
      cpu_at_start_ = process_cpu_s();
      bytes_at_start_ = bytes_sent();
    }
    if (round == last_round_) {
      report_.window_end = t;
      report_.window_closed = true;
      report_.cpu_s = process_cpu_s() - cpu_at_start_;
      report_.bytes_sent = bytes_sent() - bytes_at_start_;
    }
  }

  bool root_side_;
  std::size_t last_round_;
  bool tracing_;
  bool capture_root_inputs_;
  std::vector<std::vector<float>> root_inputs_;
  std::vector<NodeId> roots_;
  std::vector<const net::Transport*> transports_;
  std::vector<double> round_done_;
  std::vector<double> commit_start_;
  std::vector<double> commit_wait_;
  double cpu_at_start_ = 0.0;
  std::uint64_t bytes_at_start_ = 0;
  ProcReport report_;
};

/// Opens a bench span: wall and thread-CPU clocks at the start, so the close
/// can record how long the span spent off-CPU (blocked in the kernel).
class SpanTimer {
 public:
  explicit SpanTimer(SpanKind kind) : cpu_(thread_cpu_s()) {
    span_.kind = kind;
    span_.start = now_s();
  }
  Span& span() noexcept { return span_; }
  void close(Probe& probe) {
    span_.end = now_s();
    span_.blocked = std::max(0.0, (span_.end - span_.start) - (thread_cpu_s() - cpu_));
    probe.record(span_);
  }

 private:
  Span span_;
  double cpu_;
};

/// The timing transport: a shipped backend whose public virtuals report to
/// the probe.  Untraced, only the round clock and the send-failure count
/// run; traced, every send, poll and handler call becomes a span.
template <class Base>
class Timed final : public Base {
 public:
  template <class... Args>
  explicit Timed(Probe& probe, Args&&... args)
      : Base(std::forward<Args>(args)...), probe_(probe) {
    probe_.add_transport(this);
  }

  void register_node(NodeId id, net::Transport::MessageHandler handler) override {
    auto timed = [this, id, handler = std::move(handler)](net::WireMessage& msg) {
      probe_.on_deliver(id, msg);
      if (!probe_.tracing()) {
        handler(msg);
        return;
      }
      SpanTimer timer(SpanKind::kHandler);
      timer.span().msg = static_cast<std::uint8_t>(msg.kind);
      timer.span().node = id;
      timer.span().peer = msg.env.from;
      timer.span().round = msg.env.round;
      handler(msg);
      timer.close(probe_);
    };
    Base::register_node(id, std::move(timed));
  }

  SendStatus send(const net::Envelope& env, const Payload& payload,
                  std::uint32_t link_class = 0) override {
    probe_.on_send(env, payload);
    if (!probe_.tracing()) {
      const SendStatus status = Base::send(env, payload, link_class);
      if (status != SendStatus::kOk) probe_.count_send_failure();
      return status;
    }
    const std::uint64_t bytes = this->stats().bytes_sent;
    const std::uint64_t raw = this->stats().bytes_sent_raw;
    SpanTimer timer(SpanKind::kSend);
    const SendStatus status = Base::send(env, payload, link_class);
    Span& span = timer.span();
    span.msg = kind_of(payload);
    span.node = env.from;
    span.peer = env.to;
    span.round = env.round;
    span.bytes = this->stats().bytes_sent - bytes;
    span.raw = this->stats().bytes_sent_raw - raw;
    timer.close(probe_);
    if (status != SendStatus::kOk) probe_.count_send_failure();
    return status;
  }

  std::size_t poll(double timeout_s) override {
    if (!probe_.tracing()) return Base::poll(timeout_s);
    std::uint64_t backlog = 0;
    for (std::uint32_t link_class = 0; link_class <= 4; ++link_class) {
      backlog += this->backlog_bytes(link_class);
    }
    SpanTimer timer(SpanKind::kPoll);
    const std::size_t frames = Base::poll(timeout_s);
    timer.span().raw = backlog;
    timer.span().frames = static_cast<std::uint32_t>(frames);
    timer.close(probe_);
    return frames;
  }

 private:
  Probe& probe_;
};

/// The program's own spans, collected through Transport::set_trace.
class ProgramTrace {
 public:
  explicit ProgramTrace(bool on) {
    if (!on) return;
    // Sized so a full traced run never drops: two net spans per frame plus
    // the node spans, over the largest workload, with room to spare.
    buffer_ = std::make_unique<abdhfl::obs::TraceBuffer>(std::size_t{1} << 24);
    offset_ = now_s() - buffer_->seconds_since_epoch();
  }

  void attach(net::Transport& transport) {
    if (buffer_ != nullptr) transport.set_trace(buffer_.get());
  }

  /// Move the spans the layer accounting uses into the probe's log.
  void drain_into(Probe& probe) const {
    if (buffer_ == nullptr) return;
    static constexpr std::pair<const char*, SpanKind> kKinds[] = {
        {"train", SpanKind::kTrain},
        {"merge", SpanKind::kMerge},
        {"global_agg", SpanKind::kGlobalAgg},
        {"subtree_agg", SpanKind::kSubtreeAgg},
    };
    for (const auto& ev : buffer_->snapshot()) {
      for (const auto& [name, kind] : kKinds) {
        if (std::strcmp(ev.kind, name) != 0) continue;
        Span span;
        span.kind = kind;
        span.node = ev.subject;
        span.round = ev.round;
        span.start = offset_ + ev.time;
        span.end = span.start + ev.duration;
        probe.record(span);
      }
    }
  }

  [[nodiscard]] std::uint64_t dropped() const {
    return buffer_ == nullptr ? 0 : buffer_->dropped();
  }

 private:
  std::unique_ptr<abdhfl::obs::TraceBuffer> buffer_;
  double offset_ = 0.0;
};

/// Pump one transport until `idle_done` reports completion; the nodes'
/// idle work runs inside an on_idle span.
template <class IdleDone>
bool pump(net::Transport& transport, Probe& probe, double poll_s, IdleDone&& idle_done) {
  const double deadline = now_s() + kRunBudgetS;
  for (;;) {
    bool done = false;
    if (probe.tracing()) {
      SpanTimer timer(SpanKind::kIdle);
      done = idle_done();
      timer.close(probe);
    } else {
      done = idle_done();
    }
    if (done) return true;
    if (now_s() >= deadline) return false;
    transport.poll(poll_s);
  }
}

void finish_process(FederationRun& run, Probe& probe, const ProgramTrace& trace,
                    double start) {
  trace.drain_into(probe);
  run.round_done = probe.round_done();
  run.commit_wait_s = probe.commit_wait();
  run.root_inputs = probe.take_root_inputs();
  run.setup_s = run.round_done.empty() ? -1.0 : run.round_done.front() - start;
  ProcReport report = probe.take_report(false);
  report.trace_dropped = trace.dropped();
  run.procs.insert(run.procs.begin(), std::move(report));
}

void take_root_result(FederationRun& run, const net::RootResult& result) {
  run.models.insert(run.models.begin(), result.global_model);
  run.round_accuracy = result.round_accuracy;
}

// ---------------------------------------------------------------------------
// Pipes between forked processes.

bool write_all(int fd, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::write(fd, p, bytes);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    bytes -= static_cast<std::size_t>(n);
  }
  return true;
}

std::string read_all(int fd) {
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return out;
    out.append(buf, static_cast<std::size_t>(n));
  }
}

int wait_exit_code(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

/// Byte encoding of results crossing a pipe between forked processes (same
/// binary on both ends, so plain memory images of trivially copyable values).
class Pack {
 public:
  template <class T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes.append(reinterpret_cast<const char*>(&value), sizeof value);
  }
  template <class T>
  void put_vec(const std::vector<T>& values) {
    put<std::uint64_t>(values.size());
    if (!values.empty()) {
      bytes.append(reinterpret_cast<const char*>(values.data()), values.size() * sizeof(T));
    }
  }
  std::string bytes;
};

class Unpack {
 public:
  explicit Unpack(const std::string& bytes) : bytes_(bytes) {}
  template <class T>
  T get() {
    T value{};
    if (pos_ + sizeof value > bytes_.size()) {
      ok_ = false;
      return value;
    }
    std::memcpy(&value, bytes_.data() + pos_, sizeof value);
    pos_ += sizeof value;
    return value;
  }
  template <class T>
  std::vector<T> get_vec() {
    const auto n = get<std::uint64_t>();
    if (!ok_ || n > (bytes_.size() - pos_) / sizeof(T)) {
      ok_ = false;
      return {};
    }
    std::vector<T> values(n);
    if (n > 0) std::memcpy(values.data(), bytes_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return values;
  }
  /// Everything was read and nothing was missing.
  [[nodiscard]] bool done() const noexcept { return ok_ && pos_ == bytes_.size(); }

 private:
  const std::string& bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

void pack_report(Pack& out, const ProcReport& r) {
  out.put(r.worker_process);
  out.put(r.window_closed);
  out.put(r.window_start);
  out.put(r.window_end);
  out.put(r.cpu_s);
  out.put(r.max_rss_mb);
  out.put(r.bytes_sent);
  out.put(r.retries);
  out.put(r.timeouts);
  out.put(r.peer_losses);
  out.put(r.decode_errors);
  out.put(r.send_failures);
  out.put(r.trace_dropped);
  out.put_vec(r.spans);
}

ProcReport unpack_report(Unpack& in) {
  ProcReport r;
  r.worker_process = in.get<bool>();
  r.window_closed = in.get<bool>();
  r.window_start = in.get<double>();
  r.window_end = in.get<double>();
  r.cpu_s = in.get<double>();
  r.max_rss_mb = in.get<double>();
  r.bytes_sent = in.get<std::uint64_t>();
  r.retries = in.get<std::uint64_t>();
  r.timeouts = in.get<std::uint64_t>();
  r.peer_losses = in.get<std::uint64_t>();
  r.decode_errors = in.get<std::uint64_t>();
  r.send_failures = in.get<std::uint64_t>();
  r.trace_dropped = in.get<std::uint64_t>();
  r.spans = in.get_vec<Span>();
  return r;
}

// ---------------------------------------------------------------------------
// The four federation shapes.

FederationRun run_flat(const Workload& w, bool trace) {
  const double start = now_s();
  FederationRun run;
  Probe probe(w, true, w.config.rounds - 1, trace);
  Timed<net::LoopbackTransport> transport(probe);
  ProgramTrace program(trace);
  program.attach(transport);
  net::RootNode root(w.config, transport);
  std::vector<std::unique_ptr<net::WorkerNode>> workers;
  for (std::size_t i = 0; i < w.config.workers; ++i) {
    workers.push_back(std::make_unique<net::WorkerNode>(w.config, i, transport));
  }
  root.start();
  for (auto& worker : workers) worker->start();
  const bool finished = pump(transport, probe, 0.0, [&] {
    root.on_idle();
    return root.done();
  });
  run.completed = finished && root.result().rounds_run == w.config.rounds;
  for (auto& worker : workers) {
    run.completed = run.completed && worker->done() && !worker->failed();
  }
  take_root_result(run, root.result());
  finish_process(run, probe, program, start);
  return run;
}

FederationRun run_tree(const Workload& w, bool trace) {
  const double start = now_s();
  FederationRun run;
  Probe probe(w, true, w.config.rounds - 1, trace);
  Timed<net::LoopbackTransport> transport(probe);
  ProgramTrace program(trace);
  program.attach(transport);
  abdhfl::topology::HierSpec spec;
  (void)abdhfl::topology::parse_tree_spec(w.config.tree, spec);
  net::RootNode root(w.config, transport);
  std::vector<std::unique_ptr<net::hier::AggregatorNode>> aggs;
  for (std::size_t level = 1; level < spec.process_levels(); ++level) {
    for (std::size_t i = 0; i < spec.nodes_at(level); ++i) {
      aggs.push_back(std::make_unique<net::hier::AggregatorNode>(w.config, level, i,
                                                                 transport, transport));
    }
  }
  root.start();
  for (auto& agg : aggs) agg->start();
  const bool finished = pump(transport, probe, 0.0, [&] {
    root.on_idle();
    bool all_done = root.done();
    for (auto& agg : aggs) {
      agg->on_idle();
      all_done = all_done && agg->done();
    }
    return all_done;
  });
  run.completed = finished && root.result().rounds_run == w.config.rounds;
  for (auto& agg : aggs) {
    run.completed = run.completed && !agg->failed();
    if (agg->leaf_head()) run.models.push_back(agg->model());
  }
  take_root_result(run, root.result());
  finish_process(run, probe, program, start);
  return run;
}

FederationRun run_top_cluster(const Workload& w, bool trace) {
  const double start = now_s();
  FederationRun run;
  Probe probe(w, true, w.config.rounds - 1, trace);
  Timed<net::LoopbackTransport> transport(probe);
  ProgramTrace program(trace);
  program.attach(transport);
  std::vector<std::unique_ptr<net::TopClusterNode>> tops;
  for (std::size_t t = 0; t < w.config.top_cluster; ++t) {
    tops.push_back(std::make_unique<net::TopClusterNode>(w.config, t, transport));
  }
  std::vector<std::unique_ptr<net::WorkerNode>> workers;
  for (std::size_t i = 0; i < w.config.workers; ++i) {
    workers.push_back(std::make_unique<net::WorkerNode>(w.config, i, transport));
  }
  for (auto& top : tops) top->start();
  for (auto& worker : workers) worker->start();
  const bool finished = pump(transport, probe, 0.0, [&] {
    bool all_done = true;
    for (auto& top : tops) {
      top->on_idle();
      all_done = all_done && top->done();
    }
    return all_done;
  });
  run.completed = finished;
  for (auto& top : tops) {
    run.completed = run.completed && top->result().rounds_run == w.config.rounds;
    run.models.push_back(top->result().global_model);
    run.terms = std::max<std::uint64_t>(run.terms, top->term());
  }
  for (auto& worker : workers) {
    run.completed = run.completed && worker->done() && !worker->failed();
  }
  run.round_accuracy = tops.front()->result().round_accuracy;
  finish_process(run, probe, program, start);
  return run;
}

[[noreturn]] void tcp_worker_process(const Workload& w, std::size_t index,
                                     std::uint16_t port, bool trace, int report_fd) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  Probe probe(w, false, w.config.rounds - 1, trace);
  Timed<net::TcpTransport> transport(probe, net::worker_node_id(index));
  transport.set_peer_link_class(net::kRootId, net::kLeaderLinkClass);
  ProgramTrace program(trace);
  program.attach(transport);
  if (!transport.connect_peer(net::kRootId, "127.0.0.1", port)) _exit(3);
  net::WorkerNode worker(w.config, index, transport);
  worker.start();
  const bool finished = pump(transport, probe, w.config.poll_interval_s, [&] {
    worker.on_idle();
    return worker.done();
  });
  transport.close();
  program.drain_into(probe);
  ProcReport report = probe.take_report(true);
  report.trace_dropped = program.dropped();
  Pack pack;
  pack_report(pack, report);
  const bool sent = write_all(report_fd, pack.bytes.data(), pack.bytes.size());
  _exit(finished && !worker.failed() && sent ? 0 : 2);
}

FederationRun run_tcp(const Workload& w, bool trace) {
  const double start = now_s();
  FederationRun run;
  Probe probe(w, true, w.config.rounds - 1, trace);
  Timed<net::TcpTransport> transport(probe, net::kRootId);
  const std::uint16_t port = transport.listen(0);
  std::vector<std::pair<pid_t, int>> children;  // pid, report pipe
  for (std::size_t i = 0; i < w.config.workers; ++i) {
    int fds[2];
    if (::pipe(fds) != 0) break;
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(fds[0]);
      tcp_worker_process(w, i, port, trace, fds[1]);
    }
    ::close(fds[1]);
    if (pid < 0) {
      ::close(fds[0]);
      break;
    }
    children.emplace_back(pid, fds[0]);
  }
  ProgramTrace program(trace);
  program.attach(transport);
  bool finished = false;
  std::optional<net::RootNode> root;
  if (children.size() == w.config.workers) {
    root.emplace(w.config, transport);
    root->start();
    finished = pump(transport, probe, w.config.poll_interval_s, [&] {
      root->on_idle();
      return root->done();
    });
  }
  if (!finished) {
    for (const auto& [pid, fd] : children) ::kill(pid, SIGKILL);
  }
  transport.close();
  run.completed = finished && root->result().rounds_run == w.config.rounds;
  for (const auto& [pid, fd] : children) {
    const std::string bytes = read_all(fd);
    ::close(fd);
    Unpack in(bytes);
    ProcReport report = unpack_report(in);
    run.completed = wait_exit_code(pid) == 0 && in.done() && run.completed;
    if (in.done()) run.procs.push_back(std::move(report));
  }
  if (root) take_root_result(run, root->result());
  finish_process(run, probe, program, start);
  return run;
}

// ---------------------------------------------------------------------------
// Transport-free references.

std::vector<float> flat_reference(const net::FederationConfig& config) {
  auto data = net::build_federation_data(config);
  std::vector<std::vector<abdhfl::core::LocalTrainer>> trainers(config.workers);
  std::vector<std::unique_ptr<abdhfl::agg::Aggregator>> cluster_rules;
  std::vector<std::vector<float>> current(config.workers, data.init_params);
  std::vector<std::vector<float>> last_cluster(config.workers);
  for (std::size_t w = 0; w < config.workers; ++w) {
    for (std::size_t k = 0; k < config.devices_per_worker; ++k) {
      trainers[w].push_back(
          net::make_device_trainer(config, data, w * config.devices_per_worker + k));
    }
    cluster_rules.push_back(abdhfl::agg::make_aggregator(config.cluster_rule));
  }
  auto root_rule = abdhfl::agg::make_aggregator(config.root_rule);
  std::vector<float> global = data.init_params;
  for (std::size_t r = 0; r < config.rounds; ++r) {
    std::vector<abdhfl::agg::ModelVec> updates;
    for (std::size_t w = 0; w < config.workers; ++w) {
      last_cluster[w] =
          net::cluster_round(config, trainers[w], *cluster_rules[w], current[w]);
      updates.push_back(last_cluster[w]);
    }
    root_rule->set_reference(global);
    global = root_rule->aggregate(updates);
    for (std::size_t w = 0; w < config.workers; ++w) {
      net::merge_models_into(global, last_cluster[w], config.alpha, current[w]);
    }
  }
  return global;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

template <class F>
double median_call_ms(F&& call) {
  std::vector<double> ms;
  const double until = now_s() + 0.25;
  while (ms.size() < 3 || (now_s() < until && ms.size() < 25)) {
    const double t = now_s();
    call();
    ms.push_back((now_s() - t) * 1e3);
  }
  std::nth_element(ms.begin(), ms.begin() + static_cast<long>(ms.size() / 2), ms.end());
  return ms[ms.size() / 2];
}

double replay_aggregate_ms(const std::string& rule, std::size_t n,
                           const std::vector<float>& around, std::uint64_t seed) {
  abdhfl::util::Rng rng(seed);
  std::vector<abdhfl::agg::ModelVec> inputs(n, around);
  for (auto& input : inputs) {
    for (float& v : input) v += static_cast<float>((rng.uniform() - 0.5) * 0.02);
  }
  auto aggregator = abdhfl::agg::make_aggregator(rule);
  aggregator->set_reference(around);
  return median_call_ms([&] { (void)aggregator->aggregate(inputs); });
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = make_workloads();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

double now_s() noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() noexcept {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double thread_cpu_s() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

FederationRun run_federation(const Workload& w, bool trace) {
  switch (w.topology) {
    case Topology::kFlat: return run_flat(w, trace);
    case Topology::kTree: return run_tree(w, trace);
    case Topology::kTopCluster: return run_top_cluster(w, trace);
    case Topology::kTcp: return run_tcp(w, trace);
  }
  return {};
}

FederationRun run_isolated(const Workload& w) {
  FederationRun out;
  int fds[2];
  if (::pipe(fds) != 0) return out;
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::close(fds[0]);
    const FederationRun run = run_federation(w, false);
    Pack pack;
    pack.put(run.completed);
    pack.put(run.setup_s);
    pack.put_vec(run.round_done);
    pack.put_vec(run.round_accuracy);
    pack.put<std::uint64_t>(run.models.size());
    for (const auto& model : run.models) pack.put_vec(model);
    pack.put<std::uint64_t>(run.procs.size());
    for (const ProcReport& report : run.procs) pack_report(pack, report);
    _exit(write_all(fds[1], pack.bytes.data(), pack.bytes.size()) ? 0 : 2);
  }
  ::close(fds[1]);
  if (pid < 0) {
    ::close(fds[0]);
    return out;
  }
  const std::string bytes = read_all(fds[0]);
  ::close(fds[0]);
  const int code = wait_exit_code(pid);
  Unpack in(bytes);
  out.completed = in.get<bool>();
  out.setup_s = in.get<double>();
  out.round_done = in.get_vec<double>();
  out.round_accuracy = in.get_vec<double>();
  const auto models = in.get<std::uint64_t>();
  for (std::uint64_t m = 0; m < models && m < 64; ++m) {
    out.models.push_back(in.get_vec<float>());
  }
  const auto procs = in.get<std::uint64_t>();
  for (std::uint64_t p = 0; p < procs && p < 16; ++p) {
    out.procs.push_back(unpack_report(in));
  }
  out.completed = out.completed && code == 0 && in.done();
  return out;
}

Verdict check_outputs(const Workload& w, const FederationRun& run) {
  Verdict out;
  if (!run.completed || run.models.empty()) {
    out.why = "the federation did not complete every round";
    return out;
  }
  for (const ProcReport& p : run.procs) {
    if (p.decode_errors != 0 || p.send_failures != 0) {
      out.why = "decode errors or send failures on the wire";
      return out;
    }
  }
  auto data = net::build_federation_data(w.config);
  abdhfl::util::Rng rng(w.config.seed ^ 0x5DEECE66DULL);
  abdhfl::data::SynthConfig synth;
  synth.side = w.config.image_side;
  synth.samples_per_class = kHeldOutPerClass;
  const auto held_out = abdhfl::data::generate_synth_digits(synth, rng);
  out.accuracy = abdhfl::core::evaluate_params(data.prototype, run.models.front(), held_out);

  out.correct = true;
  if (net::codec_from_config(w.config).compressed()) {
    return out;  // a lossy codec changes the arithmetic: main gates its accuracy
  }
  if (w.topology == Topology::kTree) {
    const auto ref = net::hier::run_hier_reference(w.config);
    out.correct = same_bits(run.models.front(), ref.global_model) &&
                  run.models.size() == ref.leaf_models.size() + 1 &&
                  run.round_accuracy == ref.round_accuracy;
    for (std::size_t i = 0; out.correct && i < ref.leaf_models.size(); ++i) {
      out.correct = same_bits(run.models[i + 1], ref.leaf_models[i]);
    }
    if (!out.correct) out.why = "the tree is not bitwise equal to hier::run_hier_reference";
    return out;
  }
  const std::vector<float> ref = flat_reference(w.config);
  for (const auto& model : run.models) {
    if (!same_bits(model, ref)) {
      out.correct = false;
      out.why = "the global model is not bitwise equal to the transport-free reference";
    }
  }
  return out;
}

std::vector<Verdict> check_all(const std::vector<Workload>& ws,
                               const std::vector<FederationRun>& runs, std::size_t jobs) {
  std::vector<Verdict> out(runs.size());
  for (auto& v : out) v.why = "the checking process failed";
  for (std::size_t first = 0; first < runs.size(); first += jobs) {
    const std::size_t last = std::min(runs.size(), first + jobs);
    std::vector<std::pair<pid_t, int>> children;  // pid, result pipe
    for (std::size_t k = first; k < last; ++k) {
      int fds[2];
      if (::pipe(fds) != 0) break;
      std::fflush(nullptr);
      const pid_t pid = ::fork();
      if (pid == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        ::close(fds[0]);
        const Verdict v = check_outputs(ws[k], runs[k]);
        Pack pack;
        pack.put(v.correct);
        pack.put(v.accuracy);
        pack.put_vec(std::vector<char>(v.why.begin(), v.why.end()));
        _exit(write_all(fds[1], pack.bytes.data(), pack.bytes.size()) ? 0 : 2);
      }
      ::close(fds[1]);
      if (pid < 0) {
        ::close(fds[0]);
        break;
      }
      children.emplace_back(pid, fds[0]);
    }
    for (std::size_t c = 0; c < children.size(); ++c) {
      const auto [pid, fd] = children[c];
      const std::string bytes = read_all(fd);
      ::close(fd);
      const int code = wait_exit_code(pid);
      Unpack in(bytes);
      Verdict v;
      v.correct = in.get<bool>();
      v.accuracy = in.get<double>();
      const auto why = in.get_vec<char>();
      v.why.assign(why.begin(), why.end());
      if (code == 0 && in.done()) out[first + c] = std::move(v);
    }
  }
  return out;
}

Replays measure_replays(const Workload& w, const FederationRun& traced) {
  auto data = net::build_federation_data(w.config);
  Replays out;
  out.eval_ms = median_call_ms([&] {
    (void)abdhfl::core::evaluate_params(data.prototype, data.init_params, data.test_set);
  });
  if (!traced.root_inputs.empty()) {
    auto aggregator = abdhfl::agg::make_aggregator(w.config.root_rule);
    aggregator->set_reference(data.init_params);
    out.root_agg_ms =
        median_call_ms([&] { (void)aggregator->aggregate(traced.root_inputs); });
  }
  if (w.topology != Topology::kTree) {
    out.cluster_agg_ms =
        replay_aggregate_ms(w.config.cluster_rule, w.config.devices_per_worker,
                            data.init_params, w.config.seed + 1);
  }
  return out;
}

NodeRoles::NodeRoles(const Workload& w) {
  if (w.topology == Topology::kTree) {
    abdhfl::topology::HierSpec spec;
    (void)abdhfl::topology::parse_tree_spec(w.config.tree, spec);
    plan_.emplace(spec);
  }
}

bool NodeRoles::device(NodeId id) const {
  return plan_.has_value() && id >= abdhfl::topology::kVirtualDeviceIdBase;
}

std::size_t NodeRoles::level(NodeId id) const {
  if (plan_.has_value()) {
    return device(id) ? plan_->spec().process_levels() : plan_->level_of(id);
  }
  return id == net::kRootId || net::is_top(id) ? 0 : 1;
}

NodeId NodeRoles::trainer(NodeId id) const {
  if (!device(id)) return id;
  const std::size_t leaf =
      (id - abdhfl::topology::kVirtualDeviceIdBase) / plan_->spec().devices_per_leaf();
  return plan_->node_id(plan_->spec().process_levels() - 1, leaf);
}

}  // namespace bench
