// Open-loop NEXMark benchmark with committed-output latency.
//
//   perfbench_nexmark --workload <q1-wide|q5-window|q8-txn>
//                     --seed <n> --seconds <s> --trace <0|1>
//
// One run sets the engine up nine times (setup_s is the median), then
// drives the last engine through the public API only: an open-loop sender
// thread stamps every event with its due time and flushes on the
// workload's tick, a consumer thread times each record a read-committed
// EgressConsumer returns, and on q5 a control thread restarts the sink
// stage's tasks under load. After a warm-up, one window of --seconds is measured with
// tracing off. With --trace 1 a second, traced window follows it and the
// run reports per-layer metrics plus how far the traced window's latency
// moved (the tracing overhead). Finally the load stops, committed output
// drains, and the oracle checks it against a reference computation of the
// recorded input.
//
// Output: one "name value unit" line per metric, then, as the last line,
// {"correct", "attempted", "failed", "metrics"} as JSON.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/threading.h"
#include "src/core/stream.h"
#include "src/layers.h"
#include "src/obs/trace.h"
#include "src/open_loop.h"
#include "src/oracle.h"

namespace perfbench {
namespace {

using impeller::Clock;
using impeller::Engine;
using impeller::EngineOptions;
using impeller::kMillisecond;
using impeller::kSecond;
using impeller::Status;
namespace bench = impeller::bench;

struct Workload {
  const char* name;
  int query;
  bench::System system;
  uint64_t events_per_sec;  // schedule rate (q8 sends only its 8 % share)
  DurationNs flush_interval;
  uint32_t tasks;
  uint32_t shards;
  uint32_t workers;
  DurationNs commit_interval;
  DurationNs snapshot_interval;
  double warmup_sec;
  // Stage whose tasks the control thread restarts, one every kRestartEvery
  // of the measured windows; nullptr = no restarts.
  const char* restart_stage;
};

// Each workload loads a different layer (reasons in BENCHMARK.json):
// q1-wide puts ingress flushes and log appends of 8 substreams on one
// worker's critical path; q5-window is dominated by window state and two
// read-committed crossings, and is the one that restarts tasks under load
// (recovery, changelog replay, kvstore reads); q8-txn is the only one on
// the txn coordinator and frequent checkpoints. Restarts go to q5's
// stateful "max" stage; restarting "win" can lose a window's last update
// near the end of the input.
const Workload kWorkloads[] = {
    {"q1-wide", 1, bench::System::kImpeller, 16000, 10 * kMillisecond, 8, 4,
     1, 100 * kMillisecond, 10 * kSecond, 2.0, nullptr},
    {"q5-window", 5, bench::System::kImpeller, 6000, 100 * kMillisecond, 4, 2,
     2, 100 * kMillisecond, 10 * kSecond, 11.0, "max"},
    // Not restarted: restarting q8/join/<i> under kafka-txn can commit
    // extra join results (a restart that fences the killed instance's
    // transaction in phase 2).
    {"q8-txn", 8, bench::System::kKafkaTxn, 8000, 100 * kMillisecond, 2, 2,
     2, 100 * kMillisecond, 2 * kSecond, 11.0, nullptr},
};

constexpr int kSetups = 9;
constexpr DurationNs kRestartEvery = 250 * kMillisecond;
// Drained once output and input lag have not changed for kDrainQuiet: long
// enough to cover a task the monitor restarts while the output drains.
constexpr DurationNs kDrainQuiet = 3 * kSecond;
constexpr DurationNs kDrainLimit = 30 * kSecond;
constexpr double kReplaySpeedup = 5.0;  // reference replay vs. real time

bench::RunConfig ConfigOf(const Workload& w) {
  bench::RunConfig c;
  c.system = w.system;
  c.query = w.query;
  c.events_per_sec = static_cast<double>(w.events_per_sec);
  c.commit_interval = w.commit_interval;
  c.snapshot_interval = w.snapshot_interval;
  c.tasks_per_stage = w.tasks;
  c.shards = w.shards;
  c.workers = w.workers;
  return c;
}

// The engine plus the producers and egress consumers the benchmark drives.
// Producers and consumers reference the engine's log, so they are declared
// after it and destroyed first.
struct Pipeline {
  std::unique_ptr<Engine> engine;
  std::map<std::string, std::unique_ptr<impeller::IngressProducer>> producers;
  std::vector<std::unique_ptr<impeller::EgressConsumer>> consumers;

  // Releases consumers and producers before the engine they read from.
  void Reset() {
    consumers.clear();
    producers.clear();
    engine.reset();
  }

  Status FlushAll() {
    for (auto& [stream, producer] : producers) {
      auto flushed = producer->Flush();
      if (!flushed.ok()) {
        return flushed.status();
      }
    }
    return impeller::OkStatus();
  }

  // Polls every egress substream once; `on_record` sees each committed
  // record with the time PollAll returned it. Returns records seen.
  template <typename F>
  impeller::Result<size_t> PollAll(Clock* clock, F&& on_record) {
    size_t seen = 0;
    for (uint32_t sub = 0; sub < consumers.size(); ++sub) {
      auto records = consumers[sub]->PollAll();
      if (!records.ok()) {
        return records.status();
      }
      TimeNs now = clock->Now();
      for (const auto& r : *records) {
        on_record(sub, r.data, now);
      }
      seen += records->size();
    }
    return seen;
  }

  // Waits until every task has finished its startup recovery.
  Status AwaitTasksStarted(Clock* clock) {
    impeller::TaskManager* tasks = engine->tasks();
    TimeNs deadline = clock->Now() + kDrainLimit;
    for (const std::string& id : tasks->AllTaskIds()) {
      impeller::TaskRuntime* rt = tasks->FindTask(id);
      while (rt != nullptr && !rt->started() && !rt->finished()) {
        if (clock->Now() > deadline) {
          return impeller::UnavailableError("task " + id + " did not start");
        }
        clock->SleepFor(100 * impeller::kMicrosecond);
      }
    }
    return impeller::OkStatus();
  }

  // Summed stage input lag. A log-position proxy that need not reach 0
  // (co-located tags count too), but it stops changing once nothing is in
  // flight.
  uint64_t InputLag() {
    uint64_t lag = 0;
    for (const auto& stage : engine->tasks()->CollectStageStats()) {
      lag += stage.input_lag;
    }
    return lag;
  }

  // Polls until neither committed output nor input lag has changed for
  // kDrainQuiet.
  template <typename F>
  void PollUntilQuiet(Clock* clock, F&& on_record) {
    TimeNs start = clock->Now();
    TimeNs last_change = start;
    TimeNs next_lag_check = start;
    uint64_t lag = InputLag();
    while (clock->Now() - start < kDrainLimit) {
      auto seen = PollAll(clock, on_record);
      TimeNs now = clock->Now();
      if (seen.ok() && *seen > 0) {
        last_change = now;
      }
      if (now >= next_lag_check) {
        uint64_t current = InputLag();
        last_change = current != lag ? now : last_change;
        lag = current;
        next_lag_check = now + 100 * kMillisecond;
      }
      if (now - last_change >= kDrainQuiet) {
        return;
      }
      clock->SleepFor(2 * kMillisecond);
    }
    std::fprintf(stderr, "output still growing after %.0f s of drain\n",
                 kDrainLimit / 1e9);
  }
};

impeller::Result<Pipeline> StartPipeline(const Workload& w,
                                         EngineOptions options) {
  Pipeline p;
  p.engine = std::make_unique<Engine>(std::move(options));
  IMPELLER_ASSIGN_OR_RETURN(
      impeller::QueryPlan plan,
      impeller::BuildNexmarkQuery(w.query,
                                  bench::ScaledQueryOptions(ConfigOf(w))));
  IMPELLER_RETURN_IF_ERROR(p.engine->Submit(std::move(plan)));
  for (const std::string& stream : impeller::NexmarkIngressStreams(w.query)) {
    IMPELLER_ASSIGN_OR_RETURN(p.producers[stream],
                              p.engine->NewProducer("gen/" + stream, stream));
  }
  std::string stage = impeller::NexmarkSinkStage(w.query);
  const impeller::StreamSpec* egress = p.engine->plan().FindStream(
      impeller::EgressStreamName(p.engine->plan().name, stage));
  if (egress == nullptr) {
    return impeller::InvalidArgumentError("query has no egress stream");
  }
  for (uint32_t sub = 0; sub < egress->num_substreams; ++sub) {
    IMPELLER_ASSIGN_OR_RETURN(auto consumer,
                              p.engine->NewEgressConsumer(stage, sub));
    p.consumers.push_back(std::move(consumer));
  }
  return p;
}

void SleepUntil(Clock* clock, TimeNs t) {
  TimeNs now = clock->Now();
  if (t > now) {
    clock->SleepFor(t - now);
  }
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Latency figures of one measured window.
struct Window {
  TimeNs from = 0;
  TimeNs to = 0;
  double emit_p50_ms = 0;
  double emit_p99_ms = 0;
  uint64_t emit_samples = 0;
  std::vector<int64_t> commit_latency;  // ns, records returned in window

  bool Contains(TimeNs t) const { return t >= from && t < to; }
  double seconds() const { return (to - from) / 1e9; }
};

// Counter and clock readings at a traced window's edges.
struct LayerSnapshot {
  std::map<std::string, uint64_t> counters;
  DurationNs worker_cpu = 0;
  DurationNs blocked = 0;
  uint64_t commit_overruns = 0;
};

const char* const kLayerCounters[] = {
    "log/appends", "log/records", "log/bytes_appended", "log/reads",
    "sched/steps", "sched/parks", "sched/steals"};

class BenchmarkRun {
 public:
  BenchmarkRun(const Workload& w, uint64_t seed, double seconds, bool trace)
      : w_(w),
        seed_(seed),
        measure_(static_cast<DurationNs>(seconds * kSecond)),
        trace_(trace) {}

  int Execute();

 private:
  Status Setup();
  void SendLoop();
  void ConsumeLoop();
  void OnCommitted(uint32_t substream, const impeller::DataView& d,
                   TimeNs now);
  void ControlLoop();
  void MeasureEmit(Window* window);
  void TracedWindow();
  LayerSnapshot Snapshot();
  uint64_t TaskInstances();
  impeller::Result<Committed> Reference();
  std::vector<Metric> LayerMetrics();
  void Report();

  const Workload& w_;
  uint64_t seed_;
  DurationNs measure_;
  bool trace_;

  BlockingClock clock_;
  // Outlives the pipeline: the scheduler may step the probe until it stops.
  WorkerProbe probe_;
  Pipeline pipe_;
  std::vector<double> setup_s_;

  // Schedule (engine clock).
  TimeNs t0_ = 0;
  TimeNs load_end_ = 0;
  Window a_;  // untraced
  Window b_;  // traced (--trace 1 only)
  std::vector<TimeNs> restart_at_;

  // Sender thread.
  std::vector<InputEvent> sent_;
  uint64_t failed_events_ = 0;
  std::vector<int64_t> gen_late_a_, gen_late_b_;      // ns, per event
  std::vector<int64_t> flush_ns_a_, flush_ns_b_;      // per tick

  // Consumer thread.
  std::atomic<bool> consuming_{true};
  Committed committed_;
  uint64_t poll_errors_ = 0;

  // Control thread.
  std::vector<impeller::RecoveryStats> recoveries_;
  uint64_t restart_failures_ = 0;

  // Traced window.
  SpanStats spans_;
  LayerSnapshot at_b0_, at_b1_;
  std::vector<std::pair<double, double>> lag_samples_;  // (s, records)
  uint64_t instances_before_ = 0;
  uint64_t instances_after_ = 0;
};

Status BenchmarkRun::Setup() {
  // Each setup runs from Engine construction through Submit and the
  // producers and consumers until every task has started, when the first
  // event falls due; the last one is kept for the run.
  for (int i = 0; i < kSetups; ++i) {
    pipe_.Reset();
    TimeNs start = clock_.Now();
    EngineOptions options = bench::MakeEngineOptions(ConfigOf(w_), seed_);
    if (trace_) {
      options.clock = &clock_;
    }
    IMPELLER_ASSIGN_OR_RETURN(pipe_, StartPipeline(w_, std::move(options)));
    IMPELLER_RETURN_IF_ERROR(pipe_.AwaitTasksStarted(&clock_));
    setup_s_.push_back((clock_.Now() - start) / 1e9);
  }
  return impeller::OkStatus();
}

void BenchmarkRun::SendLoop() {
  OpenLoopGenerator gen(seed_, w_.events_per_sec, t0_,
                        impeller::NexmarkIngressStreams(w_.query));
  const DurationNs tick = w_.flush_interval;
  // First tick after `t`: every event due before it is flushed at it.
  auto tick_after = [&](TimeNs t) {
    return t0_ + ((t - t0_) / tick + 1) * tick;
  };
  std::vector<InputEvent> batch;
  TimeNs next_tick = t0_ + tick;
  while (true) {
    TimeNs now = clock_.Now();
    if (now < next_tick) {
      clock_.SleepFor(next_tick - now);
      continue;
    }
    TimeNs until = std::min(now, load_end_);
    batch.clear();
    gen.GenerateUntil(until, &batch);
    std::vector<int64_t>* late = a_.Contains(now)   ? &gen_late_a_
                                 : b_.Contains(now) ? &gen_late_b_
                                                    : nullptr;
    for (const InputEvent& e : batch) {
      pipe_.producers.at(e.stream)->Send(e.key, e.value, e.due);
      if (late != nullptr) {
        // Lateness against the tick the event was due to be flushed at.
        late->push_back(std::max<int64_t>(0, now - tick_after(e.due - 1)));
      }
    }
    TimeNs flush_start = clock_.Now();
    Status st = pipe_.FlushAll();
    if (a_.Contains(now)) {
      flush_ns_a_.push_back(clock_.Now() - flush_start);
    } else if (b_.Contains(now)) {
      flush_ns_b_.push_back(clock_.Now() - flush_start);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "ingress flush failed: %s\n",
                   st.ToString().c_str());
      failed_events_ += batch.size();
      return;
    }
    sent_.insert(sent_.end(), std::make_move_iterator(batch.begin()),
                 std::make_move_iterator(batch.end()));
    if (until >= load_end_) {
      return;
    }
    next_tick = tick_after(now);
  }
}

void BenchmarkRun::OnCommitted(uint32_t substream,
                               const impeller::DataView& d, TimeNs now) {
  committed_.push_back(
      {substream, std::string(d.key), std::string(d.value), d.event_time});
  if (a_.Contains(now)) {
    a_.commit_latency.push_back(now - d.event_time);
  } else if (b_.Contains(now)) {
    b_.commit_latency.push_back(now - d.event_time);
  }
}

void BenchmarkRun::ConsumeLoop() {
  auto on_record = [this](uint32_t sub, const impeller::DataView& d,
                          TimeNs now) { OnCommitted(sub, d, now); };
  while (consuming_.load(std::memory_order_relaxed)) {
    auto seen = pipe_.PollAll(&clock_, on_record);
    if (!seen.ok()) {
      ++poll_errors_;
      std::fprintf(stderr, "egress poll failed: %s\n",
                   seen.status().ToString().c_str());
    }
    if (!seen.ok() || *seen == 0) {
      clock_.SleepFor(500 * impeller::kMicrosecond);
    }
  }
}

void BenchmarkRun::ControlLoop() {
  impeller::TaskManager* tasks = pipe_.engine->tasks();
  const std::string& query = pipe_.engine->plan().name;
  uint32_t next = 0;
  for (TimeNs at : restart_at_) {
    SleepUntil(&clock_, at);
    std::string id = impeller::MakeTaskId(query, w_.restart_stage,
                                          next++ % w_.tasks);
    auto stats = tasks->RestartTask(id);
    if (stats.ok()) {
      recoveries_.push_back(*stats);
    } else {
      ++restart_failures_;
      std::fprintf(stderr, "restart of %s failed: %s\n", id.c_str(),
                   stats.status().ToString().c_str());
    }
  }
}

void BenchmarkRun::MeasureEmit(Window* window) {
  impeller::LatencyHistogram* emit = pipe_.engine->metrics()->Histogram(
      "lat/" + impeller::NexmarkSinkName(w_.query));
  impeller::LatencyHistogram copy;  // sinks keep recording into `emit`
  copy.MergeFrom(*emit);
  emit->Reset();
  window->emit_samples = copy.Count();
  window->emit_p50_ms = InterpolatedPercentile(copy, 50) / 1e6;
  window->emit_p99_ms = InterpolatedPercentile(copy, 99) / 1e6;
}

uint64_t BenchmarkRun::TaskInstances() {
  uint64_t total = 0;
  for (const std::string& id : pipe_.engine->tasks()->AllTaskIds()) {
    if (impeller::TaskRuntime* rt = pipe_.engine->tasks()->FindTask(id)) {
      total += rt->instance();
    }
  }
  return total;
}

LayerSnapshot BenchmarkRun::Snapshot() {
  LayerSnapshot s;
  for (const char* name : kLayerCounters) {
    s.counters[name] = pipe_.engine->metrics()->GetCounter(name)->Get();
  }
  s.worker_cpu = probe_.CpuTimeNs();
  s.blocked = clock_.blocked_ns();
  for (const auto& stage : pipe_.engine->tasks()->CollectStageStats()) {
    s.commit_overruns += stage.commit_overruns;
  }
  return s;
}

void BenchmarkRun::TracedWindow() {
  auto& collector = impeller::obs::TraceCollector::Get();
  (void)collector.Drain();
  at_b0_ = Snapshot();
  clock_.Arm(true);
  collector.Enable();
  TimeNs next_lag_sample = b_.from;
  while (clock_.Now() < b_.to) {
    TimeNs now = clock_.Now();
    if (now >= next_lag_sample) {
      lag_samples_.emplace_back((now - b_.from) / 1e9,
                                static_cast<double>(pipe_.InputLag()));
      next_lag_sample += 100 * kMillisecond;
    }
    spans_.Add(collector.Drain(), b_.from, b_.to);
    SleepUntil(&clock_, std::min(b_.to, now + 50 * kMillisecond));
  }
  collector.Disable();
  clock_.Arm(false);
  at_b1_ = Snapshot();
  spans_.Add(collector.Drain(), b_.from, b_.to);
}

impeller::Result<Committed> BenchmarkRun::Reference() {
  if (w_.query == 1) {
    return ConvertedBids(sent_);
  }
  // Replay the recorded input, in order and paced at kReplaySpeedup times
  // its schedule, through the same plan on a zero-latency engine.
  EngineOptions options;
  options.config = bench::MakeEngineOptions(ConfigOf(w_), seed_).config;
  options.name = "perfbench-reference";
  IMPELLER_ASSIGN_OR_RETURN(Pipeline ref,
                            StartPipeline(w_, std::move(options)));
  Committed out;
  auto on_record = [&out](uint32_t sub, const impeller::DataView& d, TimeNs) {
    out.push_back({sub, std::string(d.key), std::string(d.value),
                   d.event_time});
  };
  TimeNs start = clock_.Now();
  size_t next = 0;
  while (next < sent_.size()) {
    TimeNs horizon = sent_.front().due + static_cast<TimeNs>(
        (clock_.Now() - start) * kReplaySpeedup);
    for (; next < sent_.size() && sent_[next].due <= horizon; ++next) {
      const InputEvent& e = sent_[next];
      ref.producers.at(e.stream)->Send(e.key, e.value, e.due);
    }
    IMPELLER_RETURN_IF_ERROR(ref.FlushAll());
    IMPELLER_RETURN_IF_ERROR(ref.PollAll(&clock_, on_record).status());
    clock_.SleepFor(10 * kMillisecond);
  }
  ref.PollUntilQuiet(&clock_, on_record);
  return out;
}

int BenchmarkRun::Execute() {
  if (Status st = Setup(); !st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return 1;
  }
  // The schedule starts at the first due event, right after setup.
  t0_ = clock_.Now();
  a_.from = t0_ + static_cast<DurationNs>(w_.warmup_sec * kSecond);
  a_.to = a_.from + measure_;
  b_.from = a_.to;
  b_.to = trace_ ? b_.from + measure_ : b_.from;
  load_end_ = b_.to;
  for (TimeNs at = a_.from; w_.restart_stage != nullptr && at < load_end_;
       at += kRestartEvery) {
    restart_at_.push_back(at);
  }
  instances_before_ = TaskInstances();
  if (trace_) {
    probe_.Start(pipe_.engine->scheduler());
  }

  {
    impeller::JoiningThread consumer([this] { ConsumeLoop(); });
    impeller::JoiningThread sender([this] { SendLoop(); });
    impeller::JoiningThread control([this] { ControlLoop(); });
    SleepUntil(&clock_, a_.from);
    MeasureEmit(&a_);  // discards warm-up samples
    SleepUntil(&clock_, a_.to);
    MeasureEmit(&a_);
    if (trace_) {
      TracedWindow();
      MeasureEmit(&b_);
    }
    sender.Join();  // the load ends at load_end_
    control.Join();
    consuming_.store(false);
  }
  pipe_.PollUntilQuiet(
      &clock_, [this](uint32_t sub, const impeller::DataView& d, TimeNs now) {
        OnCommitted(sub, d, now);
      });
  instances_after_ = TaskInstances();
  pipe_.Reset();  // stops the engine
  Report();
  return 0;
}

std::vector<Metric> BenchmarkRun::LayerMetrics() {
  double secs = b_.seconds();
  auto delta = [&](const char* name) {
    return static_cast<double>(at_b1_.counters.at(name) -
                               at_b0_.counters.at(name));
  };
  auto ratio = [](double num, double den) { return den == 0 ? 0 : num / den; };
  double worker_secs = secs * w_.workers;
  // Least-squares slope of summed input lag over the traced window.
  double slope = 0;
  if (lag_samples_.size() >= 2) {
    double n = lag_samples_.size(), sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (const auto& [x, y] : lag_samples_) {
      sx += x;
      sy += y;
      sxx += x * x;
      sxy += x * y;
    }
    slope = ratio(n * sxy - sx * sy, n * sxx - sx * sx);
  }
  std::vector<double> recovery_ms;
  std::vector<double> entries_read;
  double used_ckpt = 0;
  for (const auto& r : recoveries_) {
    recovery_ms.push_back(r.duration / 1e6);
    entries_read.push_back(static_cast<double>(r.changelog_entries_read));
    used_ckpt += r.used_checkpoint ? 1 : 0;
  }
  return {
      {"nexmark.gen_late_p99_ms", Percentile(gen_late_b_, 99) / 1e6, "ms"},
      {"core.ingress_flush_p50_ms", Percentile(flush_ns_b_, 50) / 1e6, "ms"},
      {"core.ingress_flush_p99_ms", Percentile(flush_ns_b_, 99) / 1e6, "ms"},
      {"sharedlog.appends_per_s", delta("log/appends") / secs, "1/s"},
      {"sharedlog.records_per_append",
       ratio(delta("log/records"), delta("log/appends")), "count"},
      {"sharedlog.bytes_per_record",
       ratio(delta("log/bytes_appended"), delta("log/records")), "B"},
      {"sharedlog.reads_per_record",
       ratio(delta("log/reads"), delta("log/records")), "ratio"},
      {"sharedlog.ack_wait_ms_per_s",
       spans_.TotalMs("log/append_ack_wait") / secs, "ms/s"},
      {"sched.busy_frac",
       ratio((at_b1_.worker_cpu - at_b0_.worker_cpu) / 1e9, worker_secs),
       "ratio"},
      {"sched.blocked_frac",
       ratio((at_b1_.blocked - at_b0_.blocked) / 1e9, worker_secs), "ratio"},
      {"sched.steps_per_s", delta("sched/steps") / secs, "1/s"},
      {"sched.parks_per_s", delta("sched/parks") / secs, "1/s"},
      {"sched.steals_per_s", delta("sched/steals") / secs, "1/s"},
      {"core.process_record_us", spans_.MeanUs("task/process_record"), "us"},
      {"core.flush_ms_per_s", spans_.TotalMs("task/flush") / secs, "ms/s"},
      {"core.timers_ms_per_s", spans_.TotalMs("task/timers") / secs, "ms/s"},
      {"core.input_lag_slope", slope, "1/s"},
      {"core.commit_overruns",
       static_cast<double>(at_b1_.commit_overruns - at_b0_.commit_overruns),
       "count"},
      {"protocols.commit_marker_p50_ms",
       spans_.PercentileMs("protocol/commit_marker", 50), "ms"},
      {"protocols.commit_marker_p99_ms",
       spans_.PercentileMs("protocol/commit_marker", 99), "ms"},
      {"protocols.commits_per_s",
       spans_.Count("protocol/commit_marker") / secs, "1/s"},
      {"protocols.commit_txn_p50_ms",
       spans_.PercentileMs("protocol/commit_txn", 50), "ms"},
      {"protocols.txn_phase1_p50_ms",
       spans_.PercentileMs("protocol/txn_phase1", 50), "ms"},
      {"protocols.txn_phase2_p50_ms",
       spans_.PercentileMs("protocol/txn_phase2", 50), "ms"},
      {"kvstore.write_batch_ms_per_s",
       spans_.TotalMs("kv/write_batch") / secs, "ms/s"},
      {"kvstore.get_p50_ms", spans_.PercentileMs("kv/get", 50), "ms"},
      {"core.recovery_p50_ms", Median(recovery_ms), "ms"},
      {"core.recovery_entries_read", Median(entries_read), "count"},
      {"core.recovery_ckpt_frac",
       ratio(used_ckpt, static_cast<double>(recoveries_.size())), "ratio"},
      {"core.unrequested_restarts",
       static_cast<double>(instances_after_ - instances_before_ -
                           recoveries_.size()),
       "count"},
      {"obs.trace_dropped",
       static_cast<double>(impeller::obs::TraceCollector::Get().dropped()),
       "count"},
      // Tracing overhead: the traced window against the untraced one.
      {"obs.overhead_emit_p50", ratio(b_.emit_p50_ms, a_.emit_p50_ms) - 1,
       "ratio"},
      {"obs.overhead_commit_p50",
       ratio(Percentile(b_.commit_latency, 50),
             Percentile(a_.commit_latency, 50)) - 1,
       "ratio"},
  };
}

void BenchmarkRun::Report() {
  std::printf("workload %s: Q%d %s, %" PRIu64 " ev/s, flush %.0f ms, %u tasks, "
              "%u shards, %u workers, commit %.0f ms, snapshot %.0f s, "
              "seed %" PRIu64 ", warm-up %.0f s, window %.0f s\n",
              w_.name, w_.query, bench::SystemName(w_.system),
              w_.events_per_sec, w_.flush_interval / 1e6, w_.tasks, w_.shards,
              w_.workers, w_.commit_interval / 1e6, w_.snapshot_interval / 1e9,
              seed_, w_.warmup_sec, measure_ / 1e9);
  std::vector<double> recovery_ms;
  for (const auto& r : recoveries_) {
    recovery_ms.push_back(r.duration / 1e6);
  }
  std::printf("samples: emit %" PRIu64 ", commit %zu; restarts %zu, "
              "recovery_p50_ms %.6g ms\n",
              a_.emit_samples, a_.commit_latency.size(), recoveries_.size(),
              Median(recovery_ms));
  std::vector<Metric> e2e = {
      {"emit_p50_ms", a_.emit_p50_ms, "ms"},
      {"emit_p99_ms", a_.emit_p99_ms, "ms"},
      {"commit_p50_ms", Percentile(a_.commit_latency, 50) / 1e6, "ms"},
      {"commit_p99_ms", Percentile(a_.commit_latency, 99) / 1e6, "ms"},
      {"committed_rps", a_.commit_latency.size() / a_.seconds(), "records/s"},
      {"setup_s", Median(setup_s_), "s"},
  };
  std::vector<Metric> layers;
  if (trace_) {
    layers = LayerMetrics();
    std::printf("workers found by probe: %zu of %u\n", probe_.found(),
                w_.workers);
  }

  bool correct = failed_events_ == 0 && poll_errors_ == 0 &&
                 restart_failures_ == 0;
  TimeNs reference_start = clock_.Now();
  auto reference = Reference();
  Mismatch m;
  if (reference.ok()) {
    m = Compare(w_.query, committed_, *reference);
    std::string self_test = SelfTest(w_.query, committed_);
    std::printf("oracle: %" PRIu64 " reference %s (%.1f s), %" PRIu64
                " missing, %" PRIu64 " extra; self-test %s\n",
                m.reference, w_.query == 5 ? "windows" : "records",
                (clock_.Now() - reference_start) / 1e9, m.missing, m.extra,
                self_test.empty() ? "ok" : self_test.c_str());
    correct = correct && self_test.empty() && m.errors() == 0;
  } else {
    std::fprintf(stderr, "reference run failed: %s\n",
                 reference.status().ToString().c_str());
    correct = false;
  }
  uint64_t attempted = sent_.size() + failed_events_ + m.reference;
  uint64_t failed = failed_events_ + m.errors();
  std::printf("error_rate %.6g ratio\n",
              attempted == 0 ? 1.0 : static_cast<double>(failed) / attempted);

  for (const auto& list : {e2e, layers}) {
    for (const Metric& mt : list) {
      std::printf("%s %.6g %s\n", mt.name.c_str(), mt.value, mt.unit.c_str());
    }
  }
  const std::vector<Metric>& reported = trace_ ? layers : e2e;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", reported[i].name.c_str(),
                  reported[i].value, reported[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_nexmark --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:");
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT(build/namespaces)
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) {
          workload = &w;
        }
      }
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
  }
  if (workload == nullptr || argc % 2 == 0 || seconds <= 0) {
    return Usage();
  }
  // Large enough that draining every 50 ms never overwrites a span.
  impeller::obs::TraceCollector::Get().SetRingCapacity(1 << 16);
  BenchmarkRun run(*workload, seed, seconds, trace);
  return run.Execute();
}
