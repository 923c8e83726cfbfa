// The SCSQ execution engine: client manager, binding evaluation,
// stream-process spawning and running-process execution.
//
// Submitting a query (paper §2.2):
//  1. The statement is parsed; `create function` definitions register.
//  2. The client manager (an RP on front-end node 0) binds the query:
//     where-clause equations are evaluated in dependency order. sp() and
//     spv() calls go through the target cluster's coordinator (with the
//     feCC-polling detour for the BlueGene), which selects a node via
//     the CNDB — honoring allocation sequences — and creates a
//     RunningProcess there. User-defined query functions are inlined,
//     spawning the stream processes their bodies bind.
//  3. Every RP compiles its shipped subquery into a SQEP; extract()/
//     merge() references create subscriptions, wiring sender driver →
//     link (MPI or TCP) → receiver driver between producer and consumer.
//  4. All RPs run as simulation processes; the client manager collects
//     the result stream. When the finite streams end (EOS propagation —
//     the control-message role of §2.2), the query completes, nodes are
//     released and a RunReport is returned.
#pragma once

#include <exception>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "exec/coordinator.hpp"
#include "exec/env.hpp"
#include "hw/machine.hpp"
#include "obs/monitor.hpp"
#include "obs/profiler.hpp"
#include "obs/sampler.hpp"
#include "plan/builder.hpp"
#include "plan/introspect_ops.hpp"
#include "scsql/parser.hpp"
#include "transport/driver.hpp"
#include "transport/links.hpp"

namespace scsq::exec {

struct ExecOptions {
  /// Stream buffer size for all drivers (the Fig. 6/8 x-axis).
  std::uint64_t buffer_bytes = 64 * 1024;
  /// 1 = single buffering, 2 = double buffering.
  int send_buffers = 2;
  /// Receiver inbox capacity in frames.
  int recv_buffers = 2;
  /// Cluster for sp() calls without an explicit cluster argument.
  std::string default_cluster = hw::kBlueGene;
  /// Coordinator registration RPC latency.
  double coordinator_rpc_s = 200e-6;
  /// bgCC poll interval (CNK has no server sockets; §2.2).
  double bgcc_poll_interval_s = 1e-3;
  /// Node selection for sp()/spv() calls without an allocation sequence:
  /// the paper's naive algorithm, or the topology-aware spread it
  /// proposes as future work.
  NodeSelection node_selection = NodeSelection::kNaive;
  /// Stop condition: the client manager stops the CQ once it has
  /// collected this many results (0 = unlimited). This is how continuous
  /// queries over unbounded streams (gen_stream) terminate normally.
  std::size_t max_results = 0;
  /// "Explicit user intervention": simulated seconds after which a
  /// still-running query is stopped (its RPs are terminated and the
  /// partial results returned with RunReport::stopped set). 0 disables.
  double max_sim_time_s = 1e6;
  /// Batch depth for batch-at-a-time SQEP execution. 0 = resolve from
  /// the SCSQ_BATCH_SIZE environment variable at engine construction
  /// (default 256); 1 = exact per-item execution with no fusion pass.
  /// Simulated timing is bitwise-identical at every depth — only the
  /// host-side work per simulated item changes.
  std::size_t batch_size = 0;
  /// Telemetry sampling window in simulated seconds (obs/sampler.hpp).
  /// < 0 = resolve from the SCSQ_SAMPLE_INTERVAL environment variable at
  /// engine construction (unset/non-positive = off), 0 = off. Sampling
  /// is observational by construction: every figure table is
  /// byte-identical with it on or off (DESIGN.md §5.7).
  double sample_interval_s = -1.0;
};

/// One producer→consumer stream connection, reported after the run.
struct ConnectionStat {
  std::uint64_t producer_rp = 0;
  std::uint64_t consumer_rp = 0;
  hw::Location src;
  hw::Location dst;
  std::uint64_t bytes = 0;
};

/// Per-RP monitoring record (the paper's Fig. 3 lists "monitoring the
/// execution of its SQEP" among RP responsibilities).
struct RpStat {
  std::uint64_t id = 0;
  hw::Location loc;
  std::string query;           // the subquery text (pretty-printed)
  std::uint64_t elements_out = 0;  // objects emitted by the SQEP root
  std::uint64_t bytes_sent = 0;    // over all subscriber connections
  std::uint64_t bytes_received = 0;
  double stall_s = 0.0;  // time blocked waiting for a free send buffer
  double drive_s = 0.0;      // time inside root->next() (includes waits)
  double recv_wait_s = 0.0;  // blocked on empty inboxes
  double marshal_s = 0.0;    // send-side marshal CPU
  double demarshal_s = 0.0;  // receive-side de-marshal + alloc CPU
  std::uint64_t batches = 0;      // non-empty batches the SQEP root delivered
  std::uint64_t batch_items = 0;  // items across those batches (mean fill
                                  // = batch_items / batches)
};

struct RunReport {
  std::vector<catalog::Object> results;
  /// Total query time, submission to completion (the paper's measure).
  double elapsed_s = 0.0;
  /// Time spent binding/spawning before streams started.
  double setup_s = 0.0;
  /// Sum of stream payload bytes over all connections.
  std::uint64_t stream_bytes = 0;
  std::vector<ConnectionStat> connections;
  std::vector<RpStat> rps;
  std::size_t rp_count = 0;
  /// True when the CQ was terminated by a stop condition (max_results)
  /// or the simulated-time limit rather than by its streams ending.
  bool stopped = false;
};

class Engine {
 public:
  explicit Engine(hw::Machine& machine, ExecOptions options = {});
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers a user-defined query function (create function ...).
  void register_function(std::shared_ptr<const scsql::FunctionDef> fn);

  /// Registers a named external signal source for receiver(name).
  void register_stream_source(std::string name,
                              std::vector<std::vector<double>> arrays);

  /// Parses and executes a script: create-function statements register
  /// their functions; each query statement executes. Returns the report
  /// of the last query (empty report if the script defines only
  /// functions). Throws scsql::Error on user errors.
  RunReport run_script(std::string_view text);

  /// Executes one pre-parsed statement.
  RunReport run_statement(const scsql::Statement& statement);

  /// EXPLAIN ANALYZE: builds the measured dataflow profile of the run
  /// `report` came from. Valid until the next run_statement/run_script
  /// call (the engine keeps the finished RPs and their drivers alive
  /// until then).
  obs::Profile profile(const RunReport& report) const;

  hw::Machine& machine() { return *machine_; }
  const ExecOptions& options() const { return options_; }

  /// The sim-time telemetry sampler. Always constructed (cheap when
  /// disabled); windows() holds the last statement's time series.
  obs::Sampler& sampler() { return *sampler_; }

  /// Re-arms the sampler with a new window length for subsequent
  /// statements (the shell's \watch command). <= 0 turns sampling off.
  /// Updates options().sample_interval_s.
  void set_sample_interval(double interval_s);

  // --- introspection monitors (DESIGN.md §5.8) ---

  /// A registered monitor, as reported by monitors().
  struct MonitorInfo {
    std::string name;
    std::string query;
    std::size_t alerts = 0;  ///< rows emitted during the last statement
  };

  /// Registers a continuous monitor query over the introspection streams
  /// (system.metrics / system.gauges / system.rates). The
  /// query is parsed and plan-validated now (throws scsql::Error on
  /// malformed or non-introspection queries) and then re-executed at
  /// every sampler window boundary of every subsequent statement, as a
  /// zero-duration read-only callback: the measured workload's tables
  /// and elapsed_s are byte-identical with monitors on or off. Matched
  /// rows become obs::MonitorAlert records (monitor_alerts(), the
  /// SCSQ_MONITOR_OUT side channel, Chrome-trace instants). Requires a
  /// positive sample interval to ever fire. Returns the assigned monitor
  /// name ("m1", "m2", ...).
  std::string register_monitor(const std::string& query_text);

  /// Removes one monitor by name. Returns false if no such monitor.
  bool unregister_monitor(const std::string& name);

  /// The registered monitors with their last-statement alert counts.
  std::vector<MonitorInfo> monitors() const;

  /// Alerts collected during the last statement, in window order.
  const std::vector<obs::MonitorAlert>& monitor_alerts() const {
    return monitor_alerts_;
  }

  /// Registers an observer called after every sampler window, after the
  /// monitors ran for it (the shell's live \watch display). Runs inside
  /// the zero-duration sample callback: it must not advance simulated
  /// time. Listeners persist across statements.
  void add_window_listener(
      std::function<void(const obs::Sampler::Window&, std::size_t)> fn);

 private:
  struct Rp {
    std::uint64_t id = 0;
    hw::Location loc;
    scsql::ExprPtr query;
    Env env;
    bool is_client = false;
    plan::PlanContext ctx;
    plan::OperatorPtr root;
    std::vector<std::unique_ptr<transport::ReceiverDriver>> receivers;
    std::vector<std::unique_ptr<transport::SenderDriver>> senders;
    std::vector<std::uint64_t> consumer_ids;  // parallel to senders
    std::uint64_t elements_out = 0;
    double drive_s = 0.0;  // simulated time spent inside root->next()
    std::unique_ptr<sim::Event> done;
  };

  ClusterCoordinator& coordinator(const std::string& cluster);
  transport::DriverParams driver_params_for(const hw::Location& loc) const;

  // --- asynchronous binding pass (client manager) ---
  sim::Task<void> execute(scsql::ExprPtr query, RunReport* report);
  sim::Task<catalog::Object> eval_async(scsql::ExprPtr expr, Env& env);
  sim::Task<scsql::ExprPtr> expand(scsql::ExprPtr expr, Env& env);
  sim::Task<catalog::Object> eval_sp(const scsql::Expr& call, Env& env);
  sim::Task<catalog::Object> eval_spv(const scsql::Expr& call, Env& env);
  sim::Task<scsql::ExprPtr> inline_function(const scsql::Expr& call, Env& env);
  sim::Task<catalog::SpHandle> spawn_rp(const std::string& cluster, scsql::ExprPtr subquery,
                                        const Env& outer_env, AllocationSeq* seq);
  std::optional<AllocationSeq*> allocation_from(const scsql::ExprPtr& expr, const Env& env);

  // --- wiring and running ---
  Rp& make_rp(hw::Location loc, scsql::ExprPtr query, Env env, bool is_client);
  void wire_rp(Rp& rp);
  transport::ReceiverDriver& connect(const catalog::SpHandle& producer, Rp& consumer);
  Rp& find_rp(std::uint64_t id);
  sim::Task<void> run_rp(Rp& rp);
  void publish_rp_metrics(const RpStat& stat);

  /// Stops the CQ: future RP loop iterations terminate and all inboxes
  /// close, discarding in-flight stream data (the control-message
  /// teardown of §2.2).
  void initiate_stop();

  // --- monitor runner ---
  struct Monitor {
    std::string name;
    std::string query_text;
    scsql::ExprPtr query;
    std::size_t alerts_last_run = 0;
  };

  /// Sampler window observer: runs every monitor over the window, then
  /// the external window listeners.
  void on_window(const obs::Sampler::Window& window, std::size_t index);

  /// Builds and synchronously drains one monitor's plan over one feed.
  /// Zero-perturbation: see DESIGN.md §5.8. With dry_run the rows are
  /// discarded (register-time validation on an empty feed).
  void run_monitor(Monitor& monitor, const plan::IntrospectFeed& feed, bool dry_run);

  void install_window_observer();

  hw::Machine* machine_;
  ExecOptions options_;
  std::unique_ptr<obs::Sampler> sampler_;
  std::unique_ptr<ClusterCoordinator> fe_cc_;
  std::unique_ptr<ClusterCoordinator> be_cc_;
  std::unique_ptr<ClusterCoordinator> bg_cc_;

  std::map<std::string, std::shared_ptr<const scsql::FunctionDef>> functions_;
  std::map<std::string, std::vector<std::vector<double>>> stream_sources_;

  std::vector<std::unique_ptr<Rp>> rps_;
  std::vector<std::unique_ptr<AllocationSeq>> alloc_seqs_;
  std::uint64_t next_rp_id_ = 1;  // 0 is reserved for the client manager
  std::uint64_t next_fn_inline_ = 1;
  std::vector<catalog::Object>* results_sink_ = nullptr;
  bool stop_requested_ = false;
  std::exception_ptr error_;  // first error of the statement

  std::vector<Monitor> monitors_;
  std::vector<obs::MonitorAlert> monitor_alerts_;
  std::vector<std::function<void(const obs::Sampler::Window&, std::size_t)>>
      window_listeners_;
  std::uint64_t next_monitor_id_ = 1;
  std::string monitor_out_path_;        // SCSQ_MONITOR_OUT, "" = off
  std::exception_ptr monitor_error_;    // first monitor failure of the run
};

}  // namespace scsq::exec
