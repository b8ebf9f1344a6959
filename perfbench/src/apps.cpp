// The application workloads: dag_burst_inproc (open loop of small
// synthetic AFGs in seeded bursts, in-process site directory) and
// paper_apps_tcp (closed loop of the paper's applications over TCP, each
// site consult an RPC to a vdce_site_daemon).  Both drive
// rt::AppSubmissionService, the public front door.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "afg/graph.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "daemon/client.hpp"
#include "netsim/testbed.hpp"
#include "predict/forecaster.hpp"
#include "probes.hpp"
#include "repository/repository.hpp"
#include "runtime/control_manager.hpp"
#include "runtime/site_manager.hpp"
#include "runtime/sm_directory.hpp"
#include "runtime/submission.hpp"
#include "runtime/watchdog.hpp"
#include "schedule.hpp"
#include "scheduler/site_scheduler.hpp"
#include "sim/workloads.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace rt = vdce::rt;
namespace sched = vdce::sched;
using vdce::afg::FlowGraph;
using vdce::common::AppId;
using vdce::common::SiteId;
using vdce::common::TaskId;

namespace {

/// Topology seed of the campus testbed.  The workload seed drives the
/// inputs only; the machines stay the same for every seed.
constexpr std::uint64_t kTestbedSeed = 13;
/// Open-loop load: average arrivals per second, in bursts of 1..8.
/// About a tenth of the 4 cores at this load, so a machine that slows
/// down 2-3x (it happens on shared hosts) stays below saturation
/// instead of building an unbounded queue.
constexpr double kOpenLoopRate = 40.0;
constexpr std::size_t kMaxBurst = 8;
/// Threads that block in wait() to time completions (they submit
/// nothing); enough to cover every app in flight at this load.
constexpr std::size_t kWaiters = 16;
/// Closed-loop clients of paper_apps_tcp, and the think time each
/// waits between a completion and its next submission: the clients
/// keep about half the cores busy, not all of them.
constexpr std::size_t kClients = 4;
constexpr auto kThinkTime = std::chrono::milliseconds(50);
/// Input scales of the paper's applications: large enough that compute
/// and frame transfer dominate their turnaround.
constexpr double kSolverScale = 7.0;     // matrix order 224
constexpr double kC3iScale = 128.0;      // 2048 scans
constexpr double kFourierScale = 128.0;
/// Fixed turnaround limits behind on_time_frac.
constexpr double kDagLimitMs = 250.0;
constexpr double kPaperLimitMs = 5000.0;
/// Applications each setup submits and drains before measuring, so
/// lazily built state (prediction cache, frame pools, thread stacks) is
/// warm.
constexpr std::size_t kWarmupApps = 32;
/// Setups per run (bring-up, daemon spawn, service construction and
/// warm-up); setup_s is their median.
constexpr int kSetups = 5;

/// One in-process VDCE over the campus testbed: per site a repository,
/// forecaster, Site Manager and Control Manager.
struct Stack {
  std::unique_ptr<vdce::netsim::VirtualTestbed> testbed;
  std::vector<std::unique_ptr<vdce::repo::SiteRepository>> repositories;
  std::vector<std::unique_ptr<vdce::predict::LoadForecaster>> forecasters;
  std::vector<std::unique_ptr<rt::SiteManager>> managers;
  std::vector<std::unique_ptr<rt::ControlManager>> controls;
  rt::SiteManagerDirectory directory;

  Stack() {
    testbed = std::make_unique<vdce::netsim::VirtualTestbed>(
        vdce::netsim::make_campus_testbed(kTestbedSeed));
    for (const SiteId site : testbed->sites()) {
      auto repository = std::make_unique<vdce::repo::SiteRepository>(site);
      vdce::tasklib::builtin_registry().install_defaults(repository->tasks());
      testbed->populate_repository(*repository, site);
      auto forecaster = std::make_unique<vdce::predict::LoadForecaster>();
      auto manager =
          std::make_unique<rt::SiteManager>(site, *repository, *forecaster);
      auto control =
          std::make_unique<rt::ControlManager>(*testbed, site, *manager);
      directory.add_site(*manager);
      repositories.push_back(std::move(repository));
      forecasters.push_back(std::move(forecaster));
      managers.push_back(std::move(manager));
      controls.push_back(std::move(control));
    }
    for (double t = 1.0; t <= 10.0; t += 1.0) {
      for (auto& c : controls) c->tick(t);
    }
  }
};

/// Everything a setup builds, destroyed service first.
struct Deployment {
  std::unique_ptr<Stack> stack;
  std::unique_ptr<rt::Watchdog> watchdog;
  std::unique_ptr<vdce::daemon::RemoteSiteDirectory> remote;
  std::unique_ptr<TimedDirectory> timed;
  std::unique_ptr<TimedRegistry> registry;
  std::unique_ptr<rt::AppSubmissionService> service;
};

rt::AppSubmissionConfig service_config(const std::string& workload) {
  rt::AppSubmissionConfig config;  // the default 4 slots
  // The bounded queue exists to shed overload; this load stays below
  // saturation, so any rejection would be a failure, not shedding.
  config.max_queue = 4096;
  // Terminal records keep every task output (megabytes per paper app);
  // past this many they retire into stubs, which bounds memory.  The
  // waiters observe each app long before 64 later ones finish.
  config.terminal_record_cap = 64;
  if (workload == "paper_apps_tcp") {
    config.engine.transport = vdce::dm::TransportKind::kTcp;
  }
  config.checkpointing = true;
  return config;
}

std::unique_ptr<Deployment> deploy(const std::string& workload) {
  auto d = std::make_unique<Deployment>();
  d->stack = std::make_unique<Stack>();
  sched::SiteDirectory* directory = &d->stack->directory;
  if (workload == "paper_apps_tcp") {
    rt::WatchdogConfig config;
    config.daemon_path = VDCE_SITE_DAEMON_PATH;
    config.seed = kTestbedSeed;
    d->watchdog = std::make_unique<rt::Watchdog>(config);
    const auto sites = d->stack->testbed->sites();
    for (const SiteId site : sites) d->watchdog->spawn(site);
    for (const SiteId site : sites) (void)d->watchdog->rpc_port(site);
    d->remote = std::make_unique<vdce::daemon::RemoteSiteDirectory>(
        d->stack->directory, *d->watchdog, sites);
    // The daemons replay the in-process warm-up tick schedule, so they
    // place every task as the in-process directory would.
    for (double t = 1.0; t <= 10.0; t += 1.0) d->remote->tick_all(t);
    directory = d->remote.get();
  }
  d->timed = std::make_unique<TimedDirectory>(*directory);
  d->registry = std::make_unique<TimedRegistry>();
  d->service = std::make_unique<rt::AppSubmissionService>(
      SiteId(0), *d->timed, d->registry->registry(), service_config(workload));
  return d;
}

/// What the run learned about one submitted application.
struct AppObs {
  std::string name;
  const FlowGraph* graph = nullptr;
  std::uint64_t engine_seed = 0;
  std::size_t batch = 0;
  AppId app;
  Clock::time_point due{};
  Clock::time_point done{};
  bool completed = false;
  std::string problem;
  double makespan_s = 0.0;
  /// Task labels along the critical path of the run.
  std::vector<std::string> critical_path;
  double task_turnaround_s = 0.0;
  std::size_t tasks = 0;
  std::size_t attempts = 0;
  /// Kept for the replay check (sampled applications only).
  bool sampled = false;
  std::map<TaskId, std::vector<std::byte>> exit_outputs;
  sched::AllocationTable allocation;
};

/// One submit/submit_batch call.
struct BatchObs {
  Clock::time_point call{};
  Clock::time_point ret{};
  std::vector<std::size_t> apps;
};

void absorb(AppObs& o, const rt::SubmissionStatus& status) {
  o.done = Clock::now();
  o.app = status.app;
  if (status.retired) {
    o.problem = o.name + ": record retired before it was observed";
    return;
  }
  if (status.state != rt::SubmissionState::kCompleted) {
    o.problem = o.name + " ended " + rt::to_string(status.state) + ": " +
                status.error;
    return;
  }
  o.completed = true;
  const auto& run = status.result;
  o.makespan_s = run.makespan_s;
  std::map<TaskId, const rt::TaskRunRecord*> by_task;
  for (const auto& rec : run.records) {
    by_task[rec.task] = &rec;
    o.task_turnaround_s += rec.turnaround_s;
    o.attempts += static_cast<std::size_t>(rec.attempts);
    ++o.tasks;
  }
  // Critical path: from the exit task that finished last, step to the
  // parent that finished last.
  const auto last_of = [&](const std::vector<TaskId>& ids) {
    const rt::TaskRunRecord* best = nullptr;
    for (const TaskId id : ids) {
      const auto it = by_task.find(id);
      if (it == by_task.end()) continue;
      if (best == nullptr || it->second->turnaround_s > best->turnaround_s) {
        best = it->second;
      }
    }
    return best;
  };
  for (const rt::TaskRunRecord* cur = last_of(o.graph->exit_tasks());
       cur != nullptr; cur = last_of(o.graph->parents(cur->task))) {
    o.critical_path.push_back(cur->label);
  }
  if (const auto residual = o.graph->find_by_label("residual")) {
    const double r = run.outputs.at(*residual).as_scalar();
    if (!(r < 1e-9)) {
      o.problem = o.name + ": solver residual " + std::to_string(r);
    }
  }
  if (o.sampled) {
    for (const TaskId exit : o.graph->exit_tasks()) {
      o.exit_outputs[exit] = run.outputs.at(exit).to_wire();
    }
    o.allocation = status.allocation;
  }
}

/// Completion timing: waiter threads block in wait() on submitted
/// tickets in submission order.
class Waiters {
 public:
  Waiters(rt::AppSubmissionService& service, std::vector<AppObs>& apps)
      : service_(&service), apps_(&apps) {
    for (std::size_t i = 0; i < kWaiters; ++i) {
      threads_.emplace_back([this] { loop(); });
    }
  }
  ~Waiters() { finish(); }
  Waiters(const Waiters&) = delete;
  Waiters& operator=(const Waiters&) = delete;

  void push(std::size_t index) {
    {
      std::lock_guard lk(mu_);
      pending_.push_back(index);
    }
    cv_.notify_one();
  }
  void finish() {
    {
      std::lock_guard lk(mu_);
      closed_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  void loop() {
    for (;;) {
      std::size_t index = 0;
      {
        std::unique_lock lk(mu_);
        cv_.wait(lk, [&] { return closed_ || !pending_.empty(); });
        if (pending_.empty()) return;
        index = pending_.front();
        pending_.pop_front();
      }
      AppObs& o = (*apps_)[index];
      try {
        absorb(o, service_->wait(o.app));
      } catch (const std::exception& e) {
        o.problem = o.name + ": " + e.what();
      }
    }
  }

  rt::AppSubmissionService* service_;
  std::vector<AppObs>* apps_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::size_t> pending_;
  bool closed_ = false;
  std::vector<std::thread> threads_;
};

const std::vector<const char*>& phase_counters() {
  static const std::vector<const char*> names = {
      "engine.retries",          "engine.attempts",
      "daemon.rpc_retries",      "datamgr.deadline_expiries",
      "datamgr.bytes_sent",      "datamgr.frames_sent",
      "datamgr.pool.reuse_hits", "datamgr.pool.reuse_misses",
      "engine.checkpoint.captured",
      "engine.checkpoint.bytes_captured"};
  return names;
}

/// One measured interval of an application workload.
struct Phase {
  std::vector<FlowGraph> graphs;
  std::vector<AppObs> apps;
  std::vector<BatchObs> batches;
  std::size_t used = 0;  // apps[0, used) were submitted
  Clock::time_point start{};
  double seconds = 0.0;
  CpuTimes cpu;
  std::unique_ptr<CpuSampler> cpu_sampler;
  double rss_mb = 0.0;
  std::vector<double> lag_ms;
  std::size_t max_depth = 0;
  std::map<std::string, std::uint64_t> counters;
  std::size_t transport_failures = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::vector<double> consult_us;
  std::map<std::string, std::vector<double>> compute_ms;
  /// Traced phases only.
  std::vector<vdce::common::TraceEvent> events;
  Clock::time_point trace_ref{};
  std::uint64_t trace_ref_us = 0;
};

/// The paper's applications in turn: linear solver, C3I, Fourier.
FlowGraph paper_app(std::size_t turn) {
  switch (turn % 3) {
    case 0: return vdce::sim::make_linear_solver_graph(kSolverScale);
    case 1: return vdce::sim::make_c3i_graph(kC3iScale);
    default: return vdce::sim::make_fourier_graph(kFourierScale);
  }
}

/// Whether the app at `index` of a phase is replayed: the first one and
/// a seeded one in `one_in` of the rest.
bool sampled_index(std::uint64_t seed, std::uint64_t index,
                   std::uint64_t one_in) {
  vdce::common::Rng rng(seed ^ (index * 0x9E3779B97F4A7C15ull) ^ 0xC0FFEE);
  return index == 0 || rng.uniform_int(one_in) == 0;
}

rt::SubmissionRequest request_for(const AppObs& o, const std::string& user,
                                  double weight) {
  rt::SubmissionRequest request;
  request.graph = *o.graph;
  request.qos.deadline_s = 1e9;
  request.user = user;
  request.weight = weight;
  request.seed = o.engine_seed;
  return request;
}

void drive_open_loop(Deployment& d, const std::vector<Burst>& bursts,
                     std::uint64_t seed, Phase& ph) {
  std::size_t total = 0;
  for (const Burst& b : bursts) total += b.apps.size();
  ph.graphs.reserve(total);
  ph.apps.resize(total);
  ph.batches.resize(bursts.size());
  std::size_t next = 0;
  for (const Burst& b : bursts) {
    for (const AppSpec& spec : b.apps) {
      ph.graphs.push_back(make_dag(spec));
      AppObs& o = ph.apps[next++];
      o.graph = &ph.graphs.back();
      o.name = o.graph->name();
      o.engine_seed = spec.engine_seed;
      o.sampled = sampled_index(seed, spec.index,
                                std::max<std::size_t>(total / 8, 1));
    }
  }
  auto& service = *d.service;
  Waiters waiters(service, ph.apps);
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  ph.start = t0;
  std::size_t index = 0;
  for (std::size_t bi = 0; bi < bursts.size(); ++bi) {
    const Burst& burst = bursts[bi];
    BatchObs& batch = ph.batches[bi];
    std::vector<rt::SubmissionRequest> requests;
    for (const AppSpec& spec : burst.apps) {
      AppObs& o = ph.apps[index];
      o.batch = bi;
      batch.apps.push_back(index++);
      requests.push_back(request_for(o, spec.user, spec.weight));
    }
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(burst.due_s));
    std::this_thread::sleep_until(due);
    batch.call = Clock::now();
    const auto tickets = service.submit_batch(std::move(requests));
    batch.ret = Clock::now();
    ph.lag_ms.push_back(seconds_between(due, batch.call) * 1e3);
    for (std::size_t k = 0; k < tickets.size(); ++k) {
      AppObs& o = ph.apps[batch.apps[k]];
      o.app = tickets[k];
      o.due = due;
      waiters.push(batch.apps[k]);
    }
    ph.max_depth = std::max(ph.max_depth, service.stats().queue_depth);
  }
  ph.used = total;
  waiters.finish();
}

void drive_closed_loop(Deployment& d, double seconds, std::uint64_t seed,
                       Phase& ph) {
  // A generous cap: each client completes an app every few tens of ms.
  const std::size_t cap = 20000;
  ph.graphs.resize(cap);
  ph.apps.resize(cap);
  ph.batches.resize(cap);
  std::atomic<std::size_t> next{0};
  auto& service = *d.service;
  ph.start = Clock::now();
  const auto stop = ph.start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
  const auto client = [&](std::size_t c) {
    for (std::size_t turn = 0; Clock::now() < stop; ++turn) {
      const std::size_t i = next.fetch_add(1);
      if (i >= cap) return;
      FlowGraph& graph = ph.graphs[i];
      graph = paper_app(c + turn);
      graph.set_name(graph.name() + "#" + std::to_string(i));
      AppObs& o = ph.apps[i];
      o.graph = &graph;
      o.name = graph.name();
      o.batch = i;
      vdce::common::Rng rng(seed ^ (0x51ED270B27F0A4D1ull * (i + 1)));
      o.engine_seed = rng();
      o.sampled = sampled_index(seed, i, 32);
      auto request = request_for(o, "client" + std::to_string(c), 1.0);
      BatchObs& batch = ph.batches[i];
      batch.apps = {i};
      batch.call = Clock::now();
      o.due = batch.call;
      o.app = service.submit(std::move(request));
      batch.ret = Clock::now();
      absorb(o, service.wait(o.app));
      std::this_thread::sleep_for(kThinkTime);
    }
  };
  std::mutex error_mu;
  std::string error;
  {
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        try {
          client(c);
        } catch (const std::exception& e) {
          std::lock_guard lk(error_mu);
          error = e.what();
        }
      });
    }
  }
  if (!error.empty()) throw std::runtime_error("client failed: " + error);
  ph.used = std::min(next.load(), cap);
  ph.apps.resize(ph.used);
  ph.batches.resize(ph.used);
}

std::pair<std::uint64_t, std::uint64_t> cache_totals(const Deployment& d) {
  std::uint64_t hits = 0, lookups = 0;
  for (const auto& m : d.stack->managers) {
    const auto s = m->prediction_cache().stats();
    hits += s.hits;
    lookups += s.lookups;
  }
  return {hits, lookups};
}

/// Runs one measured phase, optionally under a trace recorder.
Phase run_phase(Deployment& d, const Options& opt, double seconds,
                bool traced) {
  Phase ph;
  std::map<std::string, std::uint64_t> before;
  for (const char* name : phase_counters()) before[name] = counter(name);
  const auto failures_before =
      d.remote ? d.remote->stats().transport_failures : 0;
  const auto [hits0, lookups0] = cache_totals(d);
  (void)d.timed->take_consult_us();
  (void)d.registry->take_compute_ms();

  std::unique_ptr<vdce::common::TraceRecorder> recorder;
  if (traced) {
    recorder = std::make_unique<vdce::common::TraceRecorder>();
    ph.trace_ref = Clock::now();
    ph.trace_ref_us = recorder->now_us();
    vdce::common::TraceRecorder::install(recorder.get());
  }
  ph.seconds = seconds;
  const CpuTimes cpu0 = process_cpu();
  ph.cpu_sampler = std::make_unique<CpuSampler>(std::chrono::milliseconds(50));
  if (opt.workload == "paper_apps_tcp") {
    drive_closed_loop(d, seconds, opt.seed, ph);
  } else {
    OpenLoopParams params;
    params.seconds = seconds;
    params.rate_per_s = kOpenLoopRate;
    params.max_burst = kMaxBurst;
    drive_open_loop(d, make_open_loop_schedule(opt.seed, params), opt.seed,
                    ph);
  }
  d.service->drain();
  ph.cpu = process_cpu() - cpu0;
  ph.cpu_sampler->stop();
  if (recorder) {
    vdce::common::TraceRecorder::install(nullptr);
    ph.events = recorder->snapshot();
  }
  ph.rss_mb = peak_rss_mb();
  for (const char* name : phase_counters()) {
    ph.counters[name] = counter(name) - before[name];
  }
  ph.transport_failures =
      (d.remote ? d.remote->stats().transport_failures : 0) - failures_before;
  const auto [hits1, lookups1] = cache_totals(d);
  ph.cache_hits = hits1 - hits0;
  ph.cache_lookups = lookups1 - lookups0;
  ph.consult_us = d.timed->take_consult_us();
  ph.compute_ms = d.registry->take_compute_ms();
  return ph;
}

/// Unmeasured warm-up: applications of the workload's kind from a seed
/// of their own, in bursts, drained.
void warm_up(Deployment& d, const Options& opt) {
  const bool paper = opt.workload == "paper_apps_tcp";
  vdce::common::Rng rng(opt.seed ^ 0xA11CE);
  std::vector<rt::SubmissionRequest> requests;
  for (std::size_t i = 0; i < (paper ? 6 : kWarmupApps); ++i) {
    rt::SubmissionRequest r;
    if (paper) {
      r.graph = paper_app(i);
    } else {
      AppSpec spec;
      spec.index = i;
      spec.graph_seed = rng();
      r.graph = make_dag(spec);
    }
    r.qos.deadline_s = 1e9;
    r.user = open_loop_users()[i % open_loop_users().size()].name;
    r.seed = rng();
    requests.push_back(std::move(r));
  }
  for (std::size_t i = 0; i < requests.size(); i += kMaxBurst) {
    const auto end = requests.begin() + static_cast<std::ptrdiff_t>(
                                            std::min(i + kMaxBurst,
                                                     requests.size()));
    const auto tickets = d.service->submit_batch(
        {std::make_move_iterator(requests.begin() +
                                 static_cast<std::ptrdiff_t>(i)),
         std::make_move_iterator(end)});
    for (const AppId a : tickets) (void)d.service->wait(a);
  }
  d.service->drain();
}

/// Output and invariant checks of one phase; returns failed apps.
std::uint64_t check_phase(Deployment& d, const Options& opt, Phase& ph,
                          RunResult& result) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < ph.used; ++i) {
    AppObs& o = ph.apps[i];
    if (!o.problem.empty()) {
      ++failed;
      result.fail(o.problem);
    }
  }
  // Replay: (graph, seed, app id) through a fresh engine on the plain
  // builtin registry must reproduce every exit output byte for byte.
  const auto config = service_config(opt.workload).engine;
  std::size_t replays = 0;
  for (std::size_t i = 0; i < ph.used; ++i) {
    AppObs& o = ph.apps[i];
    if (!o.sampled || !o.completed) continue;
    ++replays;
    auto engine_config = config;
    engine_config.seed = o.engine_seed;
    rt::ExecutionEngine engine(vdce::tasklib::builtin_registry(),
                               engine_config);
    const auto replay = engine.execute(*o.graph, o.allocation, nullptr,
                                       nullptr, nullptr, o.app);
    bool same = true;
    for (const auto& [task, wire] : o.exit_outputs) {
      same = same && replay.outputs.at(task).to_wire() == wire;
    }
    if (!same) {
      ++failed;
      result.fail(o.name + ": replay output differs");
    }
    // Daemon mode must place exactly as the in-process stack does.
    if (d.remote) {
      sched::SiteScheduler local(SiteId(0), d.stack->directory,
                                 service_config(opt.workload).scheduler);
      const auto want = local.schedule(*o.graph).rows();
      const auto got = o.allocation.rows();
      bool equal = want.size() == got.size();
      for (std::size_t r = 0; equal && r < want.size(); ++r) {
        equal = want[r].task == got[r].task && want[r].site == got[r].site &&
                want[r].hosts == got[r].hosts &&
                want[r].predicted_s == got[r].predicted_s;
      }
      if (!equal) {
        ++failed;
        result.fail(o.name + ": daemon allocation differs from in-process");
      }
    }
  }
  if (replays == 0) result.fail("no application was replayed");

  const auto s = d.service->stats();
  if (s.submitted != s.admitted + s.rejected + s.queued ||
      s.queued != s.queued_then_admitted + s.preempted + s.shed ||
      s.admitted + s.queued_then_admitted != s.completed + s.failed) {
    result.fail("SubmissionStats do not reconcile");
  }
  if (s.rejected != 0) result.fail("submissions were rejected");
  if (s.restarts != 0) result.fail("submissions were restarted");
  if (s.failed != 0) result.fail("submissions failed");
  for (const char* name : {"engine.retries", "daemon.rpc_retries",
                           "datamgr.deadline_expiries"}) {
    if (ph.counters.at(name) != 0) {
      result.fail(std::string(name) + " moved in a fault-free run");
    }
  }
  if (ph.transport_failures != 0) result.fail("daemon transport failures");
  return failed;
}

double ms(double s) { return s * 1e3; }

struct Shares {
  std::vector<double> admission, queue_wait, schedule, site_consult,
      engine_setup, compute, input_wait, other;
};

/// Turnaround of every completed app of a phase, in submission order.
std::vector<double> turnarounds_ms(const Phase& ph) {
  std::vector<double> out;
  for (std::size_t i = 0; i < ph.used; ++i) {
    const AppObs& o = ph.apps[i];
    if (o.completed) out.push_back(seconds_between(o.due, o.done) * 1e3);
  }
  return out;
}

/// Per-layer metrics from a traced phase.
void per_layer(const Phase& ph, const Deployment& d, RunResult& result) {
  const SpanIndex spans(ph.events);
  const auto at = [&](std::uint64_t us) {
    return ph.trace_ref + std::chrono::microseconds(
                              static_cast<std::int64_t>(us) -
                              static_cast<std::int64_t>(ph.trace_ref_us));
  };
  auto& m = result.metrics;

  // Per batch: scheduling and consult time of its apps, and the
  // admission self time (the call minus its scheduling).
  std::vector<double> admit_us;
  std::vector<double> schedule_self_us;
  std::vector<double> batch_sched_ms(ph.batches.size(), 0.0);
  std::vector<double> batch_consult_ms(ph.batches.size(), 0.0);
  std::vector<double> batch_admit_ms(ph.batches.size(), 0.0);
  for (std::size_t b = 0; b < ph.batches.size(); ++b) {
    const BatchObs& batch = ph.batches[b];
    double sched_us = 0.0, consult_us = 0.0;
    for (const std::size_t i : batch.apps) {
      for (const Span& s : spans.named("schedule:" + ph.apps[i].name)) {
        const double nested = spans.nested_us(s, "site:");
        sched_us += static_cast<double>(s.dur_us);
        consult_us += nested;
        schedule_self_us.push_back(static_cast<double>(s.dur_us) - nested);
      }
    }
    const double wall_us = seconds_between(batch.call, batch.ret) * 1e6;
    admit_us.push_back(std::max(0.0, wall_us - sched_us));
    batch_sched_ms[b] = (sched_us - consult_us) / 1e3;
    batch_consult_ms[b] = consult_us / 1e3;
    batch_admit_ms[b] = std::max(0.0, wall_us - sched_us) / 1e3;
  }

  // Library compute per (app, task label): the timed registry's spans
  // nested in the engine's attempt spans on the same machine thread.
  std::map<std::uint32_t, std::vector<Span>> compute_by_tid;
  for (const Span& s : spans.named(kComputeSpan)) {
    compute_by_tid[s.tid].push_back(s);
  }
  for (auto& [tid, list] : compute_by_tid) {
    std::sort(list.begin(), list.end(),
              [](const Span& a, const Span& b) { return a.ts_us < b.ts_us; });
  }
  // Library compute per task run, keyed by the task's RNG fingerprint.
  std::map<std::uint64_t, double> compute_us;
  double compute_total_us = 0.0;
  for (const Span& c : spans.named(kComputeSpan)) {
    compute_us[c.rng] += static_cast<double>(c.dur_us);
    compute_total_us += static_cast<double>(c.dur_us);
  }

  Shares sh;
  std::vector<double> queue_wait_ms, setup_ms, makespan_ms, input_wait_share;
  double turnaround_s = 0.0, tasks = 0.0, attempts = 0.0;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < ph.used; ++i) {
    const AppObs& o = ph.apps[i];
    if (!o.completed) continue;
    ++completed;
    turnaround_s += o.task_turnaround_s;
    tasks += static_cast<double>(o.tasks);
    attempts += static_cast<double>(o.attempts);
    makespan_ms.push_back(ms(o.makespan_s));
    double path_compute_ms = 0.0;
    for (const std::string& label : o.critical_path) {
      const TaskId task = *o.graph->find_by_label(label);
      const auto it = compute_us.find(
          task_fingerprint(o.engine_seed, o.app.value(), task.value()));
      if (it != compute_us.end()) path_compute_ms += it->second / 1e3;
    }
    input_wait_share.push_back(
        ratio(ms(o.makespan_s) - path_compute_ms, ms(o.makespan_s)));
    const auto& runs = spans.named("run:" + o.name);
    const auto& execs = spans.named("app:" + o.name);
    if (runs.size() != 1 || execs.size() != 1) continue;
    setup_ms.push_back(static_cast<double>(execs[0].dur_us) / 1e3 -
                       ms(o.makespan_s));
    const BatchObs& batch = ph.batches[o.batch];
    const double wait = std::max(
        0.0, seconds_between(batch.ret, at(runs[0].ts_us)) * 1e3);
    queue_wait_ms.push_back(wait);

    const double total = seconds_between(o.due, o.done) * 1e3;
    // An app granted while its batch call is still placing the others
    // starts running before the call returns; only the part of the
    // call before its run counts against it, shared out as the call's
    // admission, scheduling and consult time were.
    const double call_ms = seconds_between(batch.call, batch.ret) * 1e3;
    const double before_run_ms = std::clamp(
        seconds_between(batch.call, at(runs[0].ts_us)) * 1e3, 0.0, call_ms);
    const double in_call = ratio(before_run_ms, call_ms);
    const double admission = batch_admit_ms[o.batch] * in_call;
    const double schedule = batch_sched_ms[o.batch] * in_call;
    const double consult = batch_consult_ms[o.batch] * in_call;
    const double engine = static_cast<double>(runs[0].dur_us) / 1e3 -
                          ms(o.makespan_s);
    const double compute = path_compute_ms;
    const double input_wait = ms(o.makespan_s) - path_compute_ms;
    sh.admission.push_back(admission / total);
    sh.schedule.push_back(schedule / total);
    sh.site_consult.push_back(consult / total);
    sh.queue_wait.push_back(wait / total);
    sh.engine_setup.push_back(engine / total);
    sh.compute.push_back(compute / total);
    sh.input_wait.push_back(input_wait / total);
    sh.other.push_back((total - admission - schedule - consult - wait -
                        engine - compute - input_wait) /
                       total);
  }
  const double apps = static_cast<double>(std::max<std::size_t>(completed, 1));

  const auto admit = percentiles(admit_us);
  m["submission.admit_us.p50"] = admit.p50;
  m["submission.admit_us.p99"] = admit.p99;
  const auto qw = percentiles(queue_wait_ms);
  m["submission.queue_wait_ms.p50"] = qw.p50;
  m["submission.queue_wait_ms.p99"] = qw.p99;
  m["submission.queue_depth.max"] = static_cast<double>(ph.max_depth);
  const auto stats = d.service->stats();
  m["submission.rejected"] = static_cast<double>(stats.rejected);
  m["submission.restarts"] = static_cast<double>(stats.restarts);
  const auto sched_p = percentiles(schedule_self_us);
  m["scheduler.schedule_us.p50"] = sched_p.p50;
  m["scheduler.schedule_us.p99"] = sched_p.p99;
  m["predict.cache_hit_ratio"] = ratio(static_cast<double>(ph.cache_hits),
                                       static_cast<double>(ph.cache_lookups));
  const auto consult = percentiles(ph.consult_us);
  m["scheduler.site_consult_us.p50"] = consult.p50;
  m["scheduler.site_consult_us.p99"] = consult.p99;
  m["scheduler.site_consults_per_app"] =
      static_cast<double>(ph.consult_us.size()) / apps;
  m["daemon.rpc_retries"] =
      static_cast<double>(ph.counters.at("daemon.rpc_retries"));
  m["daemon.transport_failures"] = static_cast<double>(ph.transport_failures);
  const auto setup = percentiles(setup_ms);
  m["engine.setup_ms.p50"] = setup.p50;
  m["engine.setup_ms.p99"] = setup.p99;
  std::vector<double> channel_setup_us;
  for (const Span& s : spans.named("channel_setup")) {
    channel_setup_us.push_back(static_cast<double>(s.dur_us));
  }
  m["engine.channel_setup_us.p50"] = median(channel_setup_us);
  m["proc.sys_cpu_share"] = ratio(ph.cpu.sys_s, ph.cpu.total());
  const auto mk = percentiles(makespan_ms);
  m["engine.makespan_ms.p50"] = mk.p50;
  m["engine.makespan_ms.p99"] = mk.p99;
  m["engine.input_wait_share"] = median(input_wait_share);
  m["engine.attempts_per_task"] = ratio(attempts, tasks);
  m["tasklib.compute_share"] = ratio(compute_total_us / 1e6, turnaround_s);
  for (const auto& [task, samples] : ph.compute_ms) {
    const std::string name = "tasklib.compute_ms.p50." + task;
    if (!samples.empty()) m[name] = median(samples);
  }
  const auto& c = ph.counters;
  m["datamgr.bytes_per_app"] =
      static_cast<double>(c.at("datamgr.bytes_sent")) / apps;
  m["datamgr.frames_per_app"] =
      static_cast<double>(c.at("datamgr.frames_sent")) / apps;
  m["datamgr.pool_reuse_ratio"] =
      ratio(static_cast<double>(c.at("datamgr.pool.reuse_hits")),
            static_cast<double>(c.at("datamgr.pool.reuse_hits") +
                                c.at("datamgr.pool.reuse_misses")));
  m["datamgr.deadline_expiries"] =
      static_cast<double>(c.at("datamgr.deadline_expiries"));
  m["checkpoint.captured_per_app"] =
      static_cast<double>(c.at("engine.checkpoint.captured")) / apps;
  m["checkpoint.bytes_per_app"] =
      static_cast<double>(c.at("engine.checkpoint.bytes_captured")) / apps;
  m["share.admission"] = median(sh.admission);
  m["share.queue_wait"] = median(sh.queue_wait);
  m["share.schedule"] = median(sh.schedule);
  m["share.site_consult"] = median(sh.site_consult);
  m["share.engine_setup"] = median(sh.engine_setup);
  m["share.compute"] = median(sh.compute);
  m["share.input_wait"] = median(sh.input_wait);
  m["share.other"] = median(sh.other);
  m["loadgen.lag_p99_ms"] = quantile(ph.lag_ms, 0.99);
}

}  // namespace

RunResult run_app_workload(const Options& opt) {
  RunResult result;
  const bool paper = opt.workload == "paper_apps_tcp";
  const double limit_ms = paper ? kPaperLimitMs : kDagLimitMs;
  // The tiny AFGs have microseconds of compute, so parallel cores do
  // not shorten them; what costs is the engine's thread hand-offs.  On
  // one CPU a hand-off is a context switch.  Spread over the VM's
  // vCPUs it wakes an idle vCPU, whose delay (and CPU, in IPIs and
  // idle exits) the hypervisor decides: unpinned runs spent 5.2 ms of
  // CPU per app against about 2 ms pinned at the same p50, and read
  // 2-3x slower during steal episodes.  Every thread of the workload,
  // service and engine included, inherits this affinity.
  if (!paper && pin_to_one_cpu() < 0) {
    throw std::runtime_error("could not pin dag_burst_inproc to one CPU");
  }

  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < kSetups; ++i) {
    d.reset();
    const auto t0 = Clock::now();
    d = deploy(opt.workload);
    warm_up(*d, opt);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  std::vector<Phase> phases;
  if (opt.trace) {
    phases.push_back(run_phase(*d, opt, opt.seconds / 2, false));
    phases.push_back(run_phase(*d, opt, opt.seconds / 2, true));
  } else {
    phases.push_back(run_phase(*d, opt, opt.seconds, false));
  }

  std::vector<double> cpu_per_app;
  for (Phase& ph : phases) {
    result.attempted += ph.used;
    result.failed += check_phase(*d, opt, ph, result);
    std::size_t completed = 0;
    for (std::size_t i = 0; i < ph.used; ++i) completed += ph.apps[i].completed;
    cpu_per_app.push_back(
        ratio(ph.cpu.total() * 1e3, static_cast<double>(completed)));
  }

  auto& m = result.metrics;
  if (opt.trace) {
    per_layer(phases.back(), *d, result);
    m["trace.overhead_frac"] = ratio(cpu_per_app[1], cpu_per_app[0]) - 1.0;
    // The tail, from the untraced half: unbounded, because the host's
    // stalls decide it (see README).
    const auto tail = turnarounds_ms(phases.front());
    m["tail.latency_p90_ms"] =
        windowed_quantile(tail, 0.90, windows_for(phases.front().seconds));
    m["tail.latency_p99_ms"] = quantile(tail, 0.99);
  } else {
    const Phase& ph = phases.front();
    // Time windows of the run.  An app belongs to the window it was due
    // in; each window gives a latency and a CPU-per-app figure, and the
    // run reports their quiet_median.
    const std::size_t windows = windows_for(ph.seconds);
    const auto edge = [&](std::size_t w) {
      return ph.start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                ph.seconds * static_cast<double>(w) /
                                static_cast<double>(windows)));
    };
    // Turnarounds per window and application kind.  The paper's three
    // applications differ several-fold in turnaround, so a window's
    // latency is the geometric mean of its per-kind medians: a p50 of
    // the mixed sample would sit where two kinds overlap and jump
    // between them.
    std::vector<std::map<std::string, std::vector<double>>> turnaround_ms(
        windows);
    std::set<std::string> kinds;
    std::size_t completed = 0;
    std::size_t on_time = 0;
    Clock::time_point last = ph.start;
    for (std::size_t i = 0; i < ph.used; ++i) {
      const AppObs& o = ph.apps[i];
      if (!o.completed) continue;
      const double t = seconds_between(o.due, o.done) * 1e3;
      ++completed;
      if (o.problem.empty() && t <= limit_ms) ++on_time;
      last = std::max(last, o.done);
      const auto w = static_cast<std::size_t>(
          seconds_between(ph.start, o.due) / ph.seconds *
          static_cast<double>(windows));
      if (w >= windows) continue;
      const std::string kind =
          paper ? o.name.substr(0, o.name.find('#')) : std::string();
      kinds.insert(kind);
      turnaround_ms[w][kind].push_back(t);
    }
    std::vector<double> window_latency_ms, window_cpu_ms, window_steal;
    for (std::size_t w = 0; w < windows; ++w) {
      double log_sum = 0.0;
      std::size_t apps = 0;
      for (const auto& [kind, samples] : turnaround_ms[w]) {
        log_sum += std::log(median(samples));
        apps += samples.size();
      }
      const bool whole = turnaround_ms[w].size() == kinds.size() && apps > 0;
      window_latency_ms.push_back(
          whole ? std::exp(log_sum / static_cast<double>(kinds.size()))
                : std::nan(""));
      const double cpu_s = ph.cpu_sampler->cpu_at(edge(w + 1)) -
                           ph.cpu_sampler->cpu_at(edge(w));
      window_cpu_ms.push_back(
          apps > 0 ? cpu_s * 1e3 / static_cast<double>(apps) : std::nan(""));
      window_steal.push_back(ph.cpu_sampler->steal_share(edge(w), edge(w + 1)));
    }
    m["setup_s"] = median(setup_s);
    m["latency_p50_ms"] = quiet_median(window_latency_ms, window_steal);
    m["throughput_per_s"] =
        static_cast<double>(completed) /
        std::max(opt.seconds, seconds_between(ph.start, last));
    m["cpu_ms_per_item"] = quiet_median(window_cpu_ms, window_steal);
    m["peak_rss_mb"] = ph.rss_mb;
    m["on_time_frac"] = ratio(static_cast<double>(on_time),
                              static_cast<double>(ph.used));
  }
  return result;
}

}  // namespace perfbench
