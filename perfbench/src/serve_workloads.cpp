// serve_live and serve_catchup: one tenant driven in-process through
// ServeCore, ServeSession and TenantRuntime. Every row is the exact
// framed bytes a client sends, passed through FrameReader and then
// ServeSession::HandleFrame; a row counts as done at the first
// TenantRuntime::Published() whose processed count includes it.
#include <sys/prctl.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/stats.h"
#include "engine/measurement_graph.h"
#include "io/framing.h"
#include "io/monitor_io.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/tenant.h"

namespace perfbench {
namespace {

using namespace pmcorr;
namespace fs = std::filesystem;

constexpr char kTenant[] = "fleet";
/// How often a waiting driver looks at the tenant. With a row in flight
/// on the open loop this is the resolution of row latency. On a 4-vCPU
/// virtual machine the driver's wake-ups slowed the tenant down: polling
/// every 20 us put the median row latency of serve_live at 0.93 ms,
/// against 0.70 ms at 100 us, and slowed checkpoint saves by about 70%,
/// so the catch-up feed, whose rows wait for saves, polls every
/// millisecond.
constexpr std::chrono::microseconds kPollInterval{100};
constexpr std::chrono::microseconds kBackpressurePollInterval{1000};

/// Checkpoints the output check of a traced serve_catchup run saves and
/// times: enough for a median and a max, while keeping the run well
/// inside its time limit.
constexpr std::size_t kTwinSaves = 5;

double Ms(Clock::duration d) { return Seconds(d) * 1e3; }
double Us(Clock::duration d) { return Seconds(d) * 1e6; }

/// The tenant both serve workloads run: the daemon's cold-train settings
/// (Neighborhood graph, 2 remote partners, graph seed 7, one engine
/// thread, a 256-row queue) over a 20-machine group-A fleet with five
/// training days.
struct TenantShape {
  std::size_t machines = 20;
  int train_days = 5;
  std::size_t partners = 2;
  std::uint64_t graph_seed = 7;
  std::size_t queue_budget = 256;
  double query_rate = 1000.0;  // queries per second, all three kinds
  int setup_reps = 7;
};

TenantShape ShapeFor(const Options& options) {
  TenantShape shape;
  if (options.smoke) {
    shape.machines = 8;
    shape.query_rate = 100.0;
    shape.setup_reps = 2;
  }
  return shape;
}

std::unique_ptr<SystemMonitor> ColdTrain(const TenantShape& shape,
                                         const MeasurementFrame& train,
                                         Tracer* tracer, double* graph_s,
                                         double* learn_s) {
  const Clock::time_point t0 = Clock::now();
  MeasurementGraph graph;
  {
    const ScopedSpan span(tracer, Layer::kGraph);
    graph = MeasurementGraph::Neighborhood(train, shape.partners,
                                           shape.graph_seed);
  }
  const Clock::time_point t1 = Clock::now();
  MonitorConfig config;
  config.threads = 1;
  std::unique_ptr<SystemMonitor> monitor;
  {
    const ScopedSpan span(tracer, Layer::kLearn);
    monitor =
        std::make_unique<SystemMonitor>(train, std::move(graph), config);
  }
  const Clock::time_point t2 = Clock::now();
  if (graph_s != nullptr) *graph_s = Seconds(t1 - t0);
  if (learn_s != nullptr) *learn_s = Seconds(t2 - t1);
  return monitor;
}

enum class Feed {
  /// Rows fall due at a fixed rate whatever the tenant does (independent
  /// collectors); each is timed from when it was due.
  kOpenLoop,
  /// Rows are handed off as fast as the tenant admits them, pausing
  /// while its backpressure watermark is engaged (a collector catching
  /// up); each is timed from its hand-off.
  kBackpressure,
};

struct PassConfig {
  Feed feed = Feed::kOpenLoop;
  /// The driver pumps the tenant itself (TenantConfig::threaded = false),
  /// so every call on the row path is the benchmark's and can be spanned.
  bool manual = false;
  double row_rate = 0.0;  // kOpenLoop
  double query_rate = 0.0;
  double seconds = 0.0;
  /// Rows to hand off. 0 (kBackpressure only): hand off for `seconds`,
  /// then stop at the next checkpoint boundary so the measured phase
  /// holds whole checkpoint cycles.
  std::size_t row_limit = 0;
  std::size_t queue_budget = 256;
  /// Watermarks; 0 leaves the tenant's defaults (3/4 and 1/4 of the
  /// budget). serve_catchup sets them one checkpoint cycle apart with the
  /// low one at a single row: each refill is then one cycle and only the
  /// few rows queued when a save starts wait through it, so the median
  /// row never sits on the boundary between rows that wait for a save and
  /// rows that do not (with the defaults it flipped between the two from
  /// run to run).
  std::size_t backpressure_high = 0;
  std::size_t backpressure_low = 0;
  std::size_t checkpoint_every = 0;
  std::string checkpoint_path;
};

struct PassResult {
  std::vector<std::size_t> accepted;  // row indices, in admission order
  std::uint64_t offered = 0;
  std::vector<double> row_latency_ms;
  std::vector<double> lag_ms;       // kOpenLoop: hand-off minus due time
  std::vector<double> query_us[3];  // by QueryKind
  std::uint64_t bad_replies = 0;
  double wall_s = 0.0;    // first due row to the end of the measured phase
  double paused_s = 0.0;  // kBackpressure: hand-off paused by the watermark
  RunningStats queue_rows;  // Status().queue_rows after each hand-off
  bool stalled = false;
  std::size_t spans = 0;  // recorded in the measured phase

  // The tenant after its drain, for the output check.
  TenantStatus status;
  bool has_snapshot = false;
  SystemSnapshot last;
  std::uint64_t alarms_total = 0;
  Aggregates aggregates;
  double peak_rss_mib = 0.0;

  // Manual passes: each Pump(1), and whether it also wrote a checkpoint.
  std::vector<double> pump_us;
  std::vector<bool> pump_checkpointed;
  double twin_s = 0.0;  // spent stepping a twin inside the measured phase
};

void Bind(ServeSession& session) {
  HelloRequest hello;
  hello.tenant = kTenant;
  Frame frame;
  frame.type = kFrameHello;
  EncodeHelloRequest(hello, frame.payload);
  std::string out;
  if (!session.HandleFrame(frame, out) || out.size() < 5 ||
      static_cast<std::uint8_t>(out[4]) != kFrameHelloOk) {
    throw std::runtime_error("serve session refused the hello");
  }
}

/// Status, summary, then one drill-down frame per measurement.
std::vector<std::string> EncodeQueries(std::size_t measurements) {
  std::vector<std::string> frames;
  std::string payload;
  const auto add = [&](QueryKind kind, std::uint32_t arg) {
    QueryRequest query;
    query.kind = kind;
    query.arg = arg;
    payload.clear();
    EncodeQueryRequest(query, payload);
    std::string bytes;
    AppendFrame(kFrameQuery, payload, bytes);
    frames.push_back(std::move(bytes));
  };
  add(QueryKind::kStatus, 0);
  add(QueryKind::kSummary, 0);
  for (std::size_t a = 0; a < measurements; ++a) {
    add(QueryKind::kDrilldown, static_cast<std::uint32_t>(a));
  }
  return frames;
}

/// One measured pass over a tenant: a single driver thread hands rows
/// off, sends queries on a second session at a fixed rate, and watches
/// the published snapshot; in a manual pass it also pumps the tenant,
/// and steps `twin`, if given, on each pumped row in the same wake-up
/// (the engine.step spans). A twin stepped back to back after the pass
/// ran 100 to 200 us faster per row than the steps inside the pumps,
/// which then read as publishing cost.
class ServeDriver {
 public:
  ServeDriver(const TenantInputs& in, std::unique_ptr<SystemMonitor> monitor,
              const PassConfig& config, Tracer* tracer, SystemMonitor* twin)
      : in_(in), config_(config), tracer_(tracer), twin_(twin),
        ingest_(core_), queries_(core_) {
    query_frames_ = EncodeQueries(monitor->MeasurementCount());
    TenantConfig tenant;
    tenant.name = kTenant;
    tenant.queue_budget = config.queue_budget;
    tenant.backpressure_high = config.backpressure_high;
    tenant.backpressure_low = config.backpressure_low;
    tenant.checkpoint_every = config.checkpoint_every;
    tenant.checkpoint_path = config.checkpoint_path;
    tenant.threaded = !config.manual;
    core_.AddTenant(std::move(tenant), std::move(monitor));
    tenant_ = &core_.Tenant(0);
    Bind(ingest_);
    Bind(queries_);
  }

  PassResult Run();

 private:
  Clock::time_point Due(std::size_t i, double rate) const {
    return t0_ + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(static_cast<double>(i) /
                                                   rate));
  }
  void MaybeHandOff(Clock::time_point now);
  void HandOff(Clock::time_point now, Clock::time_point base);
  void PumpOne();
  void StepTwin();
  void Poll();
  void Query();
  bool CheckpointsCaughtUp() const;

  const TenantInputs& in_;
  PassConfig config_;
  Tracer* tracer_;
  SystemMonitor* twin_;
  SystemSnapshot twin_snap_;
  ServeCore core_;
  TenantRuntime* tenant_ = nullptr;
  ServeSession ingest_;
  ServeSession queries_;
  FrameReader ingest_reader_;
  FrameReader query_reader_;
  std::vector<std::string> query_frames_;
  std::string replies_;
  PassResult r_;

  Clock::time_point t0_;
  Clock::time_point end_;
  Clock::time_point last_progress_;
  Clock::time_point pause_start_;
  std::vector<Clock::time_point> base_;  // per accepted row
  std::size_t next_row_ = 0;
  std::size_t next_query_ = 0;
  std::size_t done_ = 0;    // accepted rows published
  std::size_t pumped_ = 0;  // manual passes
  std::uint64_t shed_seen_ = 0;
  std::uint64_t checkpoints_seen_ = 0;
  bool stopped_ = false;
  bool paused_ = false;
};

PassResult ServeDriver::Run() {
  const std::size_t cap = config_.row_limit != 0
                              ? std::min(config_.row_limit, in_.rows.size())
                              : in_.rows.size();
  const std::size_t cadence = std::max<std::size_t>(1, config_.checkpoint_every);
  r_.accepted.reserve(cap);
  r_.row_latency_ms.reserve(cap);
  base_.reserve(cap);
  const std::size_t spans_before =
      tracer_ != nullptr ? tracer_->SpanCount() : 0;
  t0_ = Clock::now() + std::chrono::milliseconds(2);
  while (Clock::now() < t0_) {
  }
  end_ = last_progress_ = t0_;
  // The driver sleeps between events rather than spinning, so it does not
  // take CPU from the tenant's worker; a 1 ns timer slack keeps each
  // wake-up within microseconds of its target.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  for (std::uint64_t spin = 0;; ++spin) {
    const Clock::time_point now = Clock::now();
    const std::size_t handed = next_row_;
    const std::size_t published = done_;
    const std::size_t pumped = pumped_;
    if (!stopped_) {
      if (next_row_ >= cap ||
          (config_.row_limit == 0 && Seconds(now - t0_) >= config_.seconds &&
           r_.accepted.size() % cadence == 0)) {
        stopped_ = true;
        if (paused_) r_.paused_s += Seconds(now - pause_start_);
        paused_ = false;
      } else {
        MaybeHandOff(now);
      }
    }
    if (config_.manual && pumped_ < r_.accepted.size() &&
        (config_.feed == Feed::kOpenLoop || stopped_ ||
         tenant_->BackpressureEngaged())) {
      PumpOne();
    }
    if (done_ < r_.accepted.size()) Poll();
    const Clock::time_point query_due = Due(next_query_, config_.query_rate);
    const bool query = now >= query_due;
    if (query) Query();
    if (stopped_ && done_ >= r_.accepted.size() && CheckpointsCaughtUp()) {
      if (config_.checkpoint_every != 0) end_ = Clock::now();
      break;
    }
    if (spin % 4096 == 0) {
      if (tenant_->State() == TenantState::kPoisoned) break;
      if (Seconds(now - last_progress_) > 60.0) {
        r_.stalled = true;
        break;
      }
    }
    if (query || handed != next_row_ || published != done_ ||
        pumped != pumped_) {
      continue;  // catch up before sleeping
    }
    Clock::time_point wake = query_due;
    if (!stopped_ && config_.feed == Feed::kOpenLoop) {
      wake = std::min(wake, Due(next_row_, config_.row_rate));
    }
    if (config_.feed == Feed::kBackpressure) {
      wake = std::min(wake, now + kBackpressurePollInterval);
    } else if (done_ < r_.accepted.size()) {
      wake = std::min(wake, now + kPollInterval);
    }
    std::this_thread::sleep_until(wake);
  }
  r_.wall_s = Seconds(end_ - t0_);
  if (tracer_ != nullptr) r_.spans = tracer_->SpanCount() - spans_before;

  tenant_->Drain();
  r_.status = tenant_->Status();
  const std::shared_ptr<const TenantPublishedState> published =
      tenant_->Published();
  r_.has_snapshot = published->has_snapshot;
  r_.last = published->snapshot;
  r_.alarms_total = published->alarms_total;
  r_.aggregates = CopyAggregates(tenant_->Monitor());
  r_.peak_rss_mib = PeakRssMib();
  return std::move(r_);
}

void ServeDriver::MaybeHandOff(Clock::time_point now) {
  if (config_.feed == Feed::kOpenLoop) {
    const Clock::time_point due = Due(next_row_, config_.row_rate);
    if (now >= due) HandOff(now, due);
    return;
  }
  // The first row goes alone: with the cadence counting from a row that
  // is already done, a save never starts just as the watermark clears,
  // which would hold a whole refill behind it.
  if (!config_.manual && next_row_ == 1 && done_ == 0) return;
  const bool engaged = tenant_->BackpressureEngaged();
  if (engaged != paused_) {
    if (engaged) {
      pause_start_ = now;
    } else {
      r_.paused_s += Seconds(now - pause_start_);
    }
    paused_ = engaged;
  }
  if (!engaged) HandOff(now, now);
}

void ServeDriver::HandOff(Clock::time_point now, Clock::time_point base) {
  const std::size_t i = next_row_++;
  std::optional<Frame> frame;
  {
    const ScopedSpan span(tracer_, Layer::kFrameDecode);
    ingest_reader_.Feed(in_.frames[i]);
    frame = ingest_reader_.Next();
  }
  if (!frame) throw std::runtime_error("a sample frame did not decode whole");
  bool open = false;
  {
    const ScopedSpan span(tracer_, Layer::kAdmit);
    open = ingest_.HandleFrame(*frame, replies_);
  }
  replies_.clear();
  ++r_.offered;
  const TenantStatus status = tenant_->Status();
  r_.queue_rows.Add(static_cast<double>(status.queue_rows));
  if (!open) {
    // A rejected row closes the session; nothing more can be sent on it.
    stopped_ = true;
    return;
  }
  if (status.counters.shed_ticks > shed_seen_) {
    shed_seen_ = status.counters.shed_ticks;
    return;
  }
  r_.accepted.push_back(i);
  base_.push_back(base);
  if (config_.feed == Feed::kOpenLoop) r_.lag_ms.push_back(Ms(now - base));
}

void ServeDriver::PumpOne() {
  // The twin steps before the pump on even rows and after it on odd
  // ones: whichever runs second finds the core awake and the Step code
  // cached, and a pair of rows cancels that out.
  const bool twin_first = twin_ != nullptr && pumped_ % 2 == 0;
  if (twin_first) StepTwin();
  const Clock::time_point a = Clock::now();
  {
    const ScopedSpan span(tracer_, Layer::kPump);
    tenant_->Pump(1);
  }
  const Clock::time_point b = Clock::now();
  if (twin_ != nullptr && !twin_first) StepTwin();
  const TenantCounters counters = tenant_->Status().counters;
  const std::uint64_t checkpoints =
      counters.checkpoints + counters.checkpoint_failures;
  r_.pump_us.push_back(Us(b - a));
  r_.pump_checkpointed.push_back(checkpoints != checkpoints_seen_);
  checkpoints_seen_ = checkpoints;
  ++pumped_;
}

void ServeDriver::StepTwin() {
  const SampleRow& row = in_.rows[r_.accepted[pumped_]];
  const Clock::time_point a = Clock::now();
  {
    const ScopedSpan span(tracer_, Layer::kStep);
    twin_->Step(row.values, row.time, twin_snap_);
  }
  r_.twin_s += Seconds(Clock::now() - a);
}

void ServeDriver::Poll() {
  const std::uint64_t processed = tenant_->Published()->processed;
  if (processed <= done_) return;
  const Clock::time_point now = Clock::now();
  for (; done_ < processed && done_ < base_.size(); ++done_) {
    r_.row_latency_ms.push_back(Ms(now - base_[done_]));
  }
  end_ = last_progress_ = now;
}

void ServeDriver::Query() {
  static constexpr Layer kLayers[3] = {Layer::kQueryStatus,
                                       Layer::kQuerySummary,
                                       Layer::kQueryDrilldown};
  static constexpr std::uint8_t kReplies[3] = {kFrameStatus, kFrameSummary,
                                               kFrameDrilldown};
  const std::size_t q = next_query_++;
  const std::size_t kind = q % 3;
  const std::size_t index =
      kind < 2 ? kind : 2 + (q / 3) % (query_frames_.size() - 2);
  query_reader_.Feed(query_frames_[index]);
  const std::optional<Frame> frame = query_reader_.Next();
  if (!frame) throw std::runtime_error("a query frame did not decode whole");
  const Clock::time_point a = Clock::now();
  bool open = false;
  {
    const ScopedSpan span(tracer_, kLayers[kind]);
    open = queries_.HandleFrame(*frame, replies_);
  }
  const Clock::time_point b = Clock::now();
  if (!open || replies_.size() < 5 ||
      static_cast<std::uint8_t>(replies_[4]) != kReplies[kind]) {
    ++r_.bad_replies;
  }
  replies_.clear();
  r_.query_us[kind].push_back(Us(b - a));
}

bool ServeDriver::CheckpointsCaughtUp() const {
  if (config_.checkpoint_every == 0) return true;
  const TenantCounters c = tenant_->Status().counters;
  return c.checkpoints + c.checkpoint_failures >=
         r_.accepted.size() / config_.checkpoint_every;
}

PassResult DrivePass(const TenantInputs& in,
                     std::unique_ptr<SystemMonitor> monitor,
                     const PassConfig& config, Tracer* tracer,
                     SystemMonitor* twin = nullptr) {
  ServeDriver driver(in, std::move(monitor), config, tracer, twin);
  return driver.Run();
}

/// The output check: steps `monitor`, rebuilt the way the tenant's was,
/// over exactly the rows the tenant accepted and compares what the
/// tenant published. With `save_every`, the monitor is also saved at the
/// tenant's cadence, the first kTwinSaves times, each save a span on
/// `tracer` (the io.checkpoint_save numbers).
void CheckPass(const char* pass_name, const PassResult& pass,
               SystemMonitor& monitor, const TenantInputs& in,
               Tracer* tracer, std::size_t save_every,
               const std::string& save_path, Outcomes* outcomes,
               WorkloadResult& result) {
  const std::string where = std::string(pass_name) + " pass: ";
  const TenantCounters& c = pass.status.counters;
  if (pass.stalled) result.Fail(where + "the tenant stopped making progress");
  if (pass.status.state == TenantState::kPoisoned) {
    result.Fail(where + "tenant poisoned: " + pass.status.last_error);
  }
  if (c.submitted != pass.offered) result.Fail(where + "submitted != offered");
  if (c.submitted != c.accepted + c.shed_ticks + c.rejected) {
    result.Fail(where + "submitted != accepted + shed + rejected");
  }
  if (c.accepted != pass.accepted.size()) {
    result.Fail(where + "accepted rows disagree with the driver's count");
  }
  if (c.processed != c.accepted) {
    result.Fail(where + "processed != accepted after the drain");
  }
  if (c.checkpoint_failures != 0) result.Fail(where + "a checkpoint failed");
  if (pass.bad_replies != 0) result.Fail(where + "a query got a wrong reply");

  SystemSnapshot snap;
  std::uint64_t alarms = 0;
  for (std::size_t k = 0; k < pass.accepted.size(); ++k) {
    const SampleRow& row = in.rows[pass.accepted[k]];
    monitor.Step(row.values, row.time, snap);
    alarms += snap.alarmed_pairs.size();
    if (outcomes != nullptr) outcomes->Add(snap);
    if (save_every != 0 && (k + 1) % save_every == 0 &&
        (k + 1) / save_every <= kTwinSaves) {
      const ScopedSpan span(tracer, Layer::kSave);
      SaveSystemMonitor(monitor, save_path, CheckpointConfig{});
    }
  }
  if (!pass.accepted.empty()) {
    if (!pass.has_snapshot) {
      result.Fail(where + "the tenant published nothing");
    } else {
      const std::string diff = CompareSnapshots(snap, pass.last);
      if (!diff.empty()) {
        result.Fail(where + "last published snapshot differs: " + diff);
      }
    }
  }
  if (alarms != pass.alarms_total) {
    result.Fail(where + "alarm count " + std::to_string(pass.alarms_total) +
                " != " + std::to_string(alarms) + " re-stepped");
  }
  const std::string diff =
      CompareAggregates(CopyAggregates(monitor), pass.aggregates);
  if (!diff.empty()) result.Fail(where + diff);
}

/// The end-to-end metrics and failure accounting of an untraced pass.
void SetServeEndToEnd(const std::vector<double>& setup_s,
                      const PassResult& pass, WorkloadResult& result) {
  const Summary latency = Summarize(pass.row_latency_ms);
  std::vector<double> queries;
  for (const std::vector<double>& kind : pass.query_us) {
    queries.insert(queries.end(), kind.begin(), kind.end());
  }
  const Summary query = Summarize(queries);
  NoteSetup(setup_s, result);
  Metrics& e = result.end_to_end;
  e.Set("setup_s", Median(setup_s), "s");
  e.Set("rows_per_s",
        static_cast<double>(pass.row_latency_ms.size()) / pass.wall_s,
        "rows/s");
  e.Set("row_latency_p50_ms", latency.p50, "ms");
  e.Set("row_latency_p99_ms", latency.p99, "ms");
  e.Set("query_latency_p50_us", query.p50, "us");
  e.Set("query_latency_p99_us", query.p99, "us");
  e.Set("peak_rss_mib", pass.peak_rss_mib, "MiB");

  // Failure accounting on one base, rows offered: shed, rejected, and
  // rows a poisoned tenant accepted but never processed.
  const TenantCounters& c = pass.status.counters;
  const std::uint64_t lost =
      c.accepted > c.processed ? c.accepted - c.processed : 0;
  result.attempted = pass.offered;
  result.failed = c.shed_ticks + c.rejected + lost;
  const double failed_frac =
      pass.offered == 0 ? 0.0
                        : static_cast<double>(result.failed) /
                              static_cast<double>(pass.offered);
  e.Set("rows_failed_frac", failed_frac, "ratio");
  Record& r = result.record;
  r.Set("rows_offered", static_cast<double>(pass.offered));
  r.Set("rows_accepted", static_cast<double>(c.accepted));
  r.Set("rows_shed", static_cast<double>(c.shed_ticks));
  r.Set("rows_rejected", static_cast<double>(c.rejected));
  r.Set("rows_processed", static_cast<double>(c.processed));
  r.Set("rows_failed_frac", failed_frac);
  r.Set("measured_s", pass.wall_s);
  r.Set("row_latency_samples", static_cast<double>(latency.n));
  r.Set("row_latency_p99_rank", latency.p99_rank);
  r.Set("query_samples", static_cast<double>(query.n));
  r.Set("query_latency_p99_rank", query.p99_rank);
  r.Set("backpressure_pause_s", pass.paused_s);
  char line[200];
  std::snprintf(line, sizeof(line),
                "rows: %llu offered, %llu accepted, %llu shed, %llu rejected, "
                "%llu processed; rows_failed_frac %.6f",
                static_cast<unsigned long long>(pass.offered),
                static_cast<unsigned long long>(c.accepted),
                static_cast<unsigned long long>(c.shed_ticks),
                static_cast<unsigned long long>(c.rejected),
                static_cast<unsigned long long>(c.processed), failed_frac);
  result.Note(line);
}

/// The per-layer metrics both serve workloads share: the row path and
/// the queries from the traced (manual) pass, the queue from the
/// untraced one, and each layer's share of the traced wall time.
void SetServeLayers(const PassResult& untraced, const PassResult& traced,
                    const Tracer& tracer, const std::string& predicted,
                    WorkloadResult& result) {
  Metrics& l = result.per_layer;
  const Summary decode = Summarize(tracer.DurationsUs(Layer::kFrameDecode));
  const Summary admit = Summarize(tracer.DurationsUs(Layer::kAdmit));
  l.Set("serve.frame_decode_us.p50", decode.p50, "us");
  l.Set("serve.frame_decode_us.p99", decode.p99, "us");
  l.Set("serve.admit_us.p50", admit.p50, "us");
  l.Set("serve.admit_us.p99", admit.p99, "us");

  // The twin steps the same rows in the same order, so the k-th Step
  // span is the engine work inside the k-th pump; the rest of a pump is
  // publishing, or the checkpoint when the pump wrote one. Differences
  // are averaged over pairs of rows, whose twin steps ran one before and
  // one after the pump, and are noisy, so publishing is charged at the
  // median pair.
  const std::vector<double> steps = tracer.DurationsUs(Layer::kStep);
  std::vector<double> pumps;
  std::vector<double> publish;
  double pump_s = 0.0;
  double save_s = 0.0;
  double save_step_s = 0.0;
  for (std::size_t k = 0; k < traced.pump_us.size(); ++k) {
    const double step = k < steps.size() ? steps[k] : 0.0;
    if (traced.pump_checkpointed[k]) {
      save_s += std::max(0.0, traced.pump_us[k] - step) * 1e-6;
      save_step_s += std::min(step, traced.pump_us[k]) * 1e-6;
      continue;
    }
    pumps.push_back(traced.pump_us[k]);
    pump_s += traced.pump_us[k] * 1e-6;
    if (k % 2 == 1 && !traced.pump_checkpointed[k - 1] && k < steps.size()) {
      publish.push_back(0.5 * (traced.pump_us[k - 1] - steps[k - 1] +
                               traced.pump_us[k] - step));
    }
  }
  const Summary pump = Summarize(pumps);
  const double publish_us = Summarize(publish).p50;
  const double publish_s = std::clamp(
      publish_us * 1e-6 * static_cast<double>(pumps.size()), 0.0, pump_s);
  const double step_s = pump_s - publish_s + save_step_s;
  l.Set("serve.pump_us.p50", pump.p50, "us");
  l.Set("serve.pump_us.p99", pump.p99, "us");
  l.Set("serve.publish_us.p50", publish_us, "us");

  const TenantCounters& c = untraced.status.counters;
  l.Set("serve.queue_rows.mean", untraced.queue_rows.Mean(), "rows");
  l.Set("serve.queue_rows.max", static_cast<double>(c.max_queue_rows), "rows");
  l.Set("serve.shed_rows", static_cast<double>(c.shed_ticks), "count");
  l.Set("serve.backpressure_raises",
        static_cast<double>(c.backpressure_raises), "count");

  const Layer kinds[3] = {Layer::kQueryStatus, Layer::kQuerySummary,
                          Layer::kQueryDrilldown};
  const char* names[3] = {"serve.query_status_us.p99",
                          "serve.query_summary_us.p99",
                          "serve.query_drilldown_us.p99"};
  double query_s = 0.0;
  for (int k = 0; k < 3; ++k) {
    l.Set(names[k], Summarize(tracer.DurationsUs(kinds[k])).p99, "us");
    query_s += tracer.TotalSeconds(kinds[k]);
  }

  const Summary step = Summarize(steps);
  l.Set("engine.step_us.p50", step.p50, "us");
  l.Set("engine.step_us.p99", step.p99, "us");
  // Time the driver spent stepping a twin inside the traced pass is the
  // benchmark's, not the tenant's: it is left out of the wall time.
  const double traced_wall_s = traced.wall_s - traced.twin_s;
  l.Set("driver.lag_ms.p99", Summarize(untraced.lag_ms).p99, "ms");
  l.Set("driver.trace_overhead_frac",
        TraceOverheadFrac(traced.spans, traced_wall_s), "ratio");
  l.Set("driver.backpressure_pause_s", untraced.paused_s, "s");

  char line[200];
  std::snprintf(line, sizeof(line),
                "wall time of the measured phase: untraced %.3f s, traced "
                "%.3f s less %.3f s stepping the twin, for %zu rows each",
                untraced.wall_s, traced.wall_s, traced.twin_s,
                traced.accepted.size());
  result.Note(line);
  ReportShares(
      {{"serve.frame_decode", tracer.TotalSeconds(Layer::kFrameDecode)},
       {"serve.admit", tracer.TotalSeconds(Layer::kAdmit)},
       {"serve.publish", publish_s},
       {"serve.query", query_s},
       {"engine.step", step_s},
       {"io.checkpoint_save", save_s}},
      traced_wall_s, predicted, result);
}

void SetModelLayers(const SystemMonitor& monitor, const Outcomes& outcomes,
                    double learn_us_per_pair, WorkloadResult& result) {
  Metrics& l = result.per_layer;
  const Footprint fp = ModelFootprint(monitor);
  l.Set("engine.pairs", static_cast<double>(monitor.Graph().PairCount()),
        "count");
  l.Set("engine.outlier_frac",
        outcomes.scored > 0 ? outcomes.outliers / outcomes.scored : 0.0,
        "ratio");
  l.Set("engine.extension_frac",
        outcomes.scored > 0 ? outcomes.extended / outcomes.scored : 0.0,
        "ratio");
  l.Set("core.learn_us_per_pair", learn_us_per_pair, "us");
  l.Set("core.cells_per_grid.mean", fp.cells_mean, "count");
  l.Set("core.model_mib", fp.model_mib, "MiB");
}

void RecordTenant(const SystemMonitor& monitor, std::size_t rows,
                  WorkloadResult& result) {
  Record& r = result.record;
  r.Set("engine_threads", 1.0);
  r.Set("topology_seed", 7.0);
  r.Set("measurements", static_cast<double>(monitor.MeasurementCount()));
  r.Set("pairs", static_cast<double>(monitor.Graph().PairCount()));
  r.Set("rows_generated", static_cast<double>(rows));
}

/// Live days to generate for `rows` measured rows, plus the warm-up day.
std::size_t DaysFor(std::size_t rows) {
  const std::size_t per_day = static_cast<std::size_t>(kSamplesPerDay);
  return 1 + (rows + per_day - 1) / per_day;
}

/// A cold-trained tenant monitor that has stepped the warm-up day.
std::unique_ptr<SystemMonitor> WarmTenant(const TenantShape& shape,
                                          const FleetTelemetry& telemetry,
                                          Tracer* tracer) {
  std::unique_ptr<SystemMonitor> monitor =
      ColdTrain(shape, telemetry.train, tracer, nullptr, nullptr);
  WarmUp(*monitor, telemetry.live);
  return monitor;
}

}  // namespace

WorkloadResult RunServeLive(const Options& options) {
  WorkloadResult result;
  result.record = BaseRecord(options);
  const TenantShape shape = ShapeFor(options);
  // A quarter of what the tenant sustains on one core of a 4-core x86
  // virtual machine (a Pump(1) takes about 0.6 ms), so the queue stays
  // shallow and each row costs one Step plus a publish. At half, vCPU
  // wake-up jitter turned into queueing that moved even the median.
  const double row_rate = options.smoke ? 200.0 : 400.0;
  const std::size_t rows =
      static_cast<std::size_t>(row_rate * options.seconds);
  const FleetTelemetry telemetry = MakeFleetTelemetry(
      options.seed, shape.machines, shape.train_days, DaysFor(rows));
  const TenantInputs in = EncodeLiveRows(telemetry.live);

  // Set-up: cold train, repeated; the last monitor warms up and serves.
  std::vector<double> setup_s, graph_s, learn_s;
  std::unique_ptr<SystemMonitor> monitor;
  for (int rep = 0; rep < shape.setup_reps; ++rep) {
    monitor.reset();
    double g = 0.0, l = 0.0;
    monitor = ColdTrain(shape, telemetry.train, nullptr, &g, &l);
    setup_s.push_back(g + l);
    graph_s.push_back(g);
    learn_s.push_back(l);
  }
  WarmUp(*monitor, telemetry.live);
  RecordTenant(*monitor, in.rows.size(), result);
  result.record.Set("row_rate", row_rate);
  result.record.Set("query_rate", shape.query_rate);
  result.record.Set("queue_budget", static_cast<double>(shape.queue_budget));

  PassConfig config;
  config.feed = Feed::kOpenLoop;
  config.row_rate = row_rate;
  config.query_rate = shape.query_rate;
  config.seconds = options.seconds;
  config.row_limit = rows;
  config.queue_budget = shape.queue_budget;
  const PassResult pass = DrivePass(in, std::move(monitor), config, nullptr);
  {
    const std::unique_ptr<SystemMonitor> rebuilt =
        WarmTenant(shape, telemetry, nullptr);
    CheckPass("untraced", pass, *rebuilt, in, nullptr, 0, "", nullptr,
              result);
    result.record.Set("grid_cells_mean", ModelFootprint(*rebuilt).cells_mean);
  }
  SetServeEndToEnd(setup_s, pass, result);
  result.record.Set("checkpoint_bytes", 0.0);

  if (options.trace) {
    Tracer tracer;
    PassConfig manual = config;
    manual.manual = true;
    const std::unique_ptr<SystemMonitor> step_twin =
        WarmTenant(shape, telemetry, nullptr);
    const PassResult traced =
        DrivePass(in, WarmTenant(shape, telemetry, &tracer), manual, &tracer,
                  step_twin.get());
    const std::unique_ptr<SystemMonitor> twin =
        WarmTenant(shape, telemetry, nullptr);
    Outcomes outcomes;
    CheckPass("traced", traced, *twin, in, nullptr, 0, "", &outcomes, result);
    const double learn_us = LearnUsPerPair(telemetry.train, twin->Graph(),
                                           ModelConfig{}, &tracer);
    SetServeLayers(pass, traced, tracer, "engine.step", result);
    SetModelLayers(*twin, outcomes, learn_us, result);
    result.per_layer.Set("engine.graph_s", Median(graph_s), "s");
    result.per_layer.Set("engine.learn_s", Median(learn_s), "s");
  }
  return result;
}

WorkloadResult RunServeCatchup(const Options& options) {
  WorkloadResult result;
  result.record = BaseRecord(options);
  const TenantShape shape = ShapeFor(options);
  const std::size_t cadence = options.smoke ? 50 : 200;
  // Rows enough for a tenant whose checkpoints cost nothing (its Step
  // alone sustains about 1,000 rows/s), so a faster checkpoint path
  // never runs the backlog dry.
  const std::size_t rows = static_cast<std::size_t>(
      (options.smoke ? 400.0 : 1500.0) * (options.seconds + 2.0));
  const FleetTelemetry telemetry = MakeFleetTelemetry(
      options.seed, shape.machines, shape.train_days, DaysFor(rows));
  const TenantInputs in = EncodeLiveRows(telemetry.live);

  const fs::path work = options.work_dir;
  const std::string prep_path = (work / "prep.ckpt").string();
  const fs::path tenant_dir = work / "tenant";
  const std::string tenant_path = (tenant_dir / "fleet.ckpt").string();
  const std::string twin_path = (work / "twin" / "fleet.ckpt").string();
  fs::create_directories(work / "twin");
  // A tenant directory holding only the preparation checkpoint, as a
  // restarted daemon finds it.
  const auto fresh_tenant_dir = [&] {
    fs::remove_all(tenant_dir);
    fs::create_directories(tenant_dir);
    fs::copy_file(prep_path, tenant_path);
  };

  // Set-up: the daemon that ran before the outage, cold-trained as in
  // serve_live and repeated; the last one steps the warm-up day and
  // writes the checkpoint the restarted daemon finds (untimed). The warm
  // restore opens the measured phase instead of closing the set-up: on a
  // 4-vCPU virtual machine it ran at about 1.0 s or up to 1.5 s for
  // minutes at a time, and the set-up medians of two ten-seed sets were
  // 34% apart.
  std::vector<double> setup_s, graph_s, learn_s;
  {
    std::unique_ptr<SystemMonitor> trained;
    for (int rep = 0; rep < shape.setup_reps; ++rep) {
      trained.reset();
      double g = 0.0, l = 0.0;
      trained = ColdTrain(shape, telemetry.train, nullptr, &g, &l);
      setup_s.push_back(g + l);
      graph_s.push_back(g);
      learn_s.push_back(l);
    }
    WarmUp(*trained, telemetry.live);
    SaveSystemMonitor(*trained, prep_path);
    RecordTenant(*trained, in.rows.size(), result);
  }
  fresh_tenant_dir();
  result.record.Set("query_rate", shape.query_rate);
  result.record.Set("queue_budget", static_cast<double>(shape.queue_budget));
  result.record.Set("checkpoint_every", static_cast<double>(cadence));

  PassConfig config;
  config.feed = Feed::kBackpressure;
  config.query_rate = shape.query_rate;
  config.seconds = options.seconds;
  config.queue_budget = shape.queue_budget;
  config.backpressure_high = cadence + 1;
  config.backpressure_low = 1;
  config.checkpoint_every = cadence;
  config.checkpoint_path = tenant_path;
  // The measured phase: the restarted daemon's warm restore, then the
  // catch-up; rows_per_s counts both.
  const Clock::time_point restore_start = Clock::now();
  std::unique_ptr<SystemMonitor> monitor = LoadSystemMonitor(tenant_path, 1);
  const double restore_s = Seconds(Clock::now() - restore_start);
  PassResult pass = DrivePass(in, std::move(monitor), config, nullptr);
  pass.wall_s += restore_s;
  result.record.Set("restore_s", restore_s);
  const double checkpoint_bytes =
      static_cast<double>(fs::file_size(tenant_path));

  // The check: replay from the preparation checkpoint; then the drain
  // checkpoint must reload at the same step count.
  const auto check = [&](const char* name, const PassResult& p,
                         Tracer* tracer, Outcomes* outcomes) {
    std::unique_ptr<SystemMonitor> rebuilt = LoadSystemMonitor(prep_path, 1);
    CheckPass(name, p, *rebuilt, in, tracer, tracer != nullptr ? cadence : 0,
              twin_path, outcomes, result);
    const std::unique_ptr<SystemMonitor> drained =
        LoadSystemMonitor(tenant_path, 1);
    if (drained->StepCount() != rebuilt->StepCount()) {
      result.Fail(std::string(name) +
                  " pass: the drain checkpoint reloads at step " +
                  std::to_string(drained->StepCount()) + ", not " +
                  std::to_string(rebuilt->StepCount()));
    }
    return rebuilt;
  };
  result.record.Set(
      "grid_cells_mean",
      ModelFootprint(*check("untraced", pass, nullptr, nullptr)).cells_mean);
  SetServeEndToEnd(setup_s, pass, result);
  result.record.Set("checkpoint_bytes", checkpoint_bytes);

  if (options.trace) {
    Tracer tracer;
    fresh_tenant_dir();
    std::unique_ptr<SystemMonitor> restored;
    {
      const ScopedSpan span(&tracer, Layer::kLoad);
      restored = LoadSystemMonitor(tenant_path, 1);
    }
    PassConfig manual = config;
    manual.manual = true;
    manual.row_limit = pass.accepted.size();
    const std::unique_ptr<SystemMonitor> step_twin =
        LoadSystemMonitor(prep_path, 1);
    const PassResult traced = DrivePass(in, std::move(restored), manual,
                                        &tracer, step_twin.get());
    Outcomes outcomes;
    const std::unique_ptr<SystemMonitor> twin =
        check("traced", traced, &tracer, &outcomes);
    const double learn_us = LearnUsPerPair(telemetry.train, twin->Graph(),
                                           ModelConfig{}, &tracer);
    SetServeLayers(pass, traced, tracer, "io.checkpoint_save", result);
    SetModelLayers(*twin, outcomes, learn_us, result);
    Metrics& l = result.per_layer;
    l.Set("engine.graph_s", Median(graph_s), "s");
    l.Set("engine.learn_s", Median(learn_s), "s");
    std::vector<double> saves_ms = tracer.DurationsUs(Layer::kSave);
    for (double& v : saves_ms) v *= 1e-3;
    const Summary saves = Summarize(saves_ms);
    l.Set("io.checkpoint_save_ms.p50", saves.p50, "ms");
    l.Set("io.checkpoint_save_ms.max", saves.max, "ms");
    l.Set("io.checkpoint_bytes", checkpoint_bytes, "bytes");
    l.Set("io.checkpoints",
          static_cast<double>(pass.status.counters.checkpoints), "count");
    l.Set("io.checkpoint_failures",
          static_cast<double>(pass.status.counters.checkpoint_failures),
          "count");
    l.Set("io.checkpoint_load_ms",
          Median(tracer.DurationsUs(Layer::kLoad)) * 1e-3, "ms");
  }
  return result;
}

}  // namespace perfbench
