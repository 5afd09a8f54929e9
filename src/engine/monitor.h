// SystemMonitor — the paper's full framework (Figure 6) over a whole
// distributed system: one PairModel per graph edge, driven sample by
// sample, with the three-level fitness aggregation of Section 5
// (Q^{a,b} per pair -> Q^a per measurement -> Q for the system).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/calibration.h"
#include "core/config.h"
#include "core/fitness.h"
#include "core/model.h"
#include "engine/health.h"
#include "engine/measurement_graph.h"
#include "engine/quarantine.h"
#include "engine/retrain_pool.h"
#include "engine/snapshot.h"
#include "engine/thread_pool.h"
#include "timeseries/frame.h"

namespace pmcorr {

struct EngineFaultPlan;

/// Rolling-retrain knob (`pmcorr serve --retrain N`): when enabled the
/// monitor owns a shared bounded RetrainPool (engine/retrain_pool.h) —
/// one window slot per pair, a fixed worker count — and adopts finished
/// rebuilds into its own models at sample boundaries. Windows buffer the
/// guard-filtered feed (rebuilds learn from exactly the stream the
/// serving models saw) and are not part of the checkpoint format: a
/// restored monitor starts with empty windows and pool.min_samples keeps
/// it from rebuilding until they refill live. Adopted models carry fresh
/// Learn-time thresholds, not a later CalibrateThresholds overlay.
struct RetrainConfig {
  bool enabled = false;
  RetrainPoolConfig pool;
};

/// Engine configuration.
struct MonitorConfig {
  /// Shared configuration of every pair model.
  ModelConfig model;
  /// Worker threads for initialization, calibration and batched runs
  /// (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Samples per pair-major batch in Run(): each worker sweeps its shard
  /// of pairs across this many samples between assembly phases. 0 sizes
  /// the batch automatically so the per-batch outcome buffer stays around
  /// 32 MiB; 1 degenerates to sample-major stepping. Any value produces
  /// the identical snapshot/alarm stream — this is purely a
  /// memory/latency knob.
  std::size_t batch_samples = 0;
  /// Ingest guard: degraded-stream detection in front of the models
  /// (engine/health.h). Enabled by default; bitwise invisible on clean
  /// on-cadence streams.
  HealthConfig health;
  /// Per-pair circuit breaker (engine/quarantine.h). Enabled by default
  /// for exceptions; the outlier-burst breaker stays off unless armed.
  QuarantineConfig quarantine;
  /// Rolling retrain through the shared bounded pool. Off by default —
  /// a disabled knob is bitwise invisible everywhere.
  RetrainConfig retrain;
};

/// Phase timings of the last Step/Run/RunDelta call, for scale
/// benchmarks: the pair-major model sweep (parallel) and snapshot/delta
/// assembly (parallel per-sample work plus the serial lifetime-averager
/// pass).
struct RunStats {
  double sweep_seconds = 0.0;
  /// Always 0: the engine keeps no alarm log, so nothing is merged. Its
  /// only reader is perfbench's `engine.run_alarm_merge_s`, and perfbench/
  /// changes only together with the benchmark definition, so the field
  /// stays until that metric goes.
  double alarm_merge_seconds = 0.0;
  double assemble_seconds = 0.0;
  std::size_t batches = 0;
};

class SystemMonitor {
 public:
  /// Learns one PairModel per graph edge from the history frame (the
  /// models' initialization data) in parallel.
  SystemMonitor(const MeasurementFrame& history, MeasurementGraph graph,
                MonitorConfig config);

  /// Restores a monitor from checkpointed parts (see io/monitor_io.h):
  /// pre-built pair models (one per graph edge, same order) plus the
  /// lifetime aggregates. Used for restart-without-relearning.
  SystemMonitor(MonitorConfig config, MeasurementGraph graph,
                std::vector<MeasurementInfo> infos,
                std::vector<PairModel> models,
                std::vector<ScoreAverager> measurement_averages,
                ScoreAverager system_average, std::size_t steps);

  /// Feeds one aligned sample (values[i] = measurement i) and returns the
  /// snapshot; `tp` is the sample's timestamp. The one-row call of the
  /// engine core that Run sweeps over a frame: same guard, quarantine,
  /// pair steps and aggregation. The ingest guard's stream clock carries
  /// over between Step calls, so duplicate, out-of-order, late and
  /// frozen arrivals are judged across calls — this is the entry point
  /// for live rows.
  SystemSnapshot Step(std::span<const double> values, TimePoint tp);

  /// Allocation-reusing overload: assembles the snapshot into `out`,
  /// overwriting every field and reusing its vectors' capacity. After a
  /// warmup tick the steady-state path is malloc-free, also on rows the
  /// guard suppresses (verified by tests/test_alloc_audit.cpp) — the
  /// long-running ingest loop of a shard-scale deployment steps at a
  /// fixed memory footprint.
  void Step(std::span<const double> values, TimePoint tp,
            SystemSnapshot& out);

  /// Multi-row Step: feeds rows [0, times.size()) given by column —
  /// cols[a][t] is measurement a's value at row t — and assembles row t's
  /// snapshot into out[t], overwriting every field and reusing its
  /// vectors' capacity. Like Step, and unlike Run, it keeps the ingest
  /// guard's stream clock across calls, so any split of a stream into
  /// calls gives the snapshots a one-row Step loop gives. A finished
  /// retrain rebuild is adopted at a batch boundary (config.batch_samples),
  /// so within one call only at its first row at the widths a tenant
  /// uses; with retrain off the split is invisible. The rows run
  /// pair-major, so each pair's model stays in cache across them and the
  /// guard pre-pass and fork/joins are paid once per call. The one-row
  /// Step is this call over one row. After a warm call at the widest
  /// width, calls at that width or narrower allocate nothing.
  void Step(std::span<const std::span<const double>> cols,
            std::span<const TimePoint> times, std::span<SystemSnapshot> out);

  /// Feeds an entire test frame (its measurements must line up with the
  /// history frame) and returns one snapshot per sample.
  ///
  /// Each frame is its own guard segment: Run resets the ingest guard's
  /// stream clock and frozen-value history first (a frame's grid
  /// timestamps carry no relation to a previous frame's), then runs the
  /// same core as Step over the frame's rows. Pair-major batched
  /// execution: each worker takes a contiguous shard of pairs and sweeps
  /// a whole batch of samples for its shard in one pass — per-pair state
  /// (previous cell, grid extensions, alarm bounds, quarantine slot) is
  /// private to the pair, so the sweep is embarrassingly parallel. The
  /// post-sweep phase is sharded too: workers assemble each row's
  /// snapshot in parallel; only the lifetime-averager updates stay
  /// serial, in time order, because floating-point accumulation order is
  /// part of the bitwise contract. Apart from the
  /// guard reset, the stream is bitwise identical to calling Step once
  /// per sample, at any thread count and batch width (proven against a
  /// test-only reference stepper by tests/test_differential.cpp).
  std::vector<SystemSnapshot> Run(const MeasurementFrame& test);

  /// Like Run, but emits incremental SystemDeltas instead of full
  /// snapshots: the first tick (or the first after tracking was
  /// invalidated by Step/Run/AddPair/RetirePair/calibration) is a
  /// baseline restating the engaged state; every other tick carries
  /// only pairs/measurements whose score changed bits since the
  /// previous tick, so a quiet tick is O(changes), not O(pairs). Each
  /// row is assembled as Run assembles it and diffed against the
  /// previous row (DiffSnapshots), so the engine state advances exactly
  /// as Run would (same models and averages) and ReconstructSnapshots(
  /// deltas) is Run's snapshots bitwise (tests/test_delta.cpp, and the
  /// differential harness against the reference stepper). Memory stays
  /// flat: each worker shard assembles into two reused snapshots, not a
  /// batch of them. An empty frame emits nothing and leaves tracking
  /// valid.
  std::vector<SystemDelta> RunDelta(const MeasurementFrame& test);

  /// Phase timings of the last call that advanced the monitor — Step,
  /// Run or RunDelta, which all run the same core (a Step is a one-row,
  /// one-batch call).
  const RunStats& LastRunStats() const { return run_stats_; }

  /// Forgets the per-pair previous cells (call between discontiguous
  /// segments, e.g. train -> test gaps).
  void ResetSequences();

  /// Dynamic topology: appends one pair to the running monitor (a
  /// machine joined the fleet and warmed up). The model arrives
  /// pre-built — learned elsewhere, typically on the warmup slice — and
  /// has its sequence reset so its first step starts a fresh transition
  /// chain. Call between Step/Run calls only (the serial sections of the
  /// thread-safety contract). Returns the new pair's index; existing
  /// pair indices, models and scores are untouched — proven bitwise by
  /// tests/test_dynamic_topology.cpp. Note: AddPair/RetirePair state is
  /// not part of the checkpoint format (io/monitor_io.h); a restored
  /// monitor must replay its topology script.
  std::size_t AddPair(PairId pair, PairModel model);

  /// Convenience overload: learns the pair's model from `history` (same
  /// width as the monitor's frame) with the monitor's model config.
  std::size_t AddPair(PairId pair, const MeasurementFrame& history);

  /// Dynamic topology: administratively retires pair `pair_index` (its
  /// machine left the fleet). The pair is skipped from the next sample
  /// on — its snapshot slot reads disengaged, exactly like a
  /// quarantine-retired pair — while every other pair's scores stay
  /// bitwise identical. Requires the quarantine breaker (the disengage
  /// path) to be enabled; throws std::logic_error otherwise. Idempotent.
  void RetirePair(std::size_t pair_index);

  /// Per-pair alarm calibration: replays a clean holdout frame through a
  /// frozen copy of each pair model and arms that pair's fitness/delta
  /// bounds at the `target_false_positive_rate` quantile of its own
  /// scores (each pair has its own predictability, so one global bound
  /// over- or under-alarms; see core/calibration.h). Runs in parallel;
  /// leaves the per-pair sequences reset.
  void CalibrateThresholds(const MeasurementFrame& holdout,
                           double target_false_positive_rate);

  const MeasurementGraph& Graph() const { return graph_; }
  std::size_t MeasurementCount() const { return infos_.size(); }
  const std::vector<MeasurementInfo>& Infos() const { return infos_; }
  const PairModel& Model(std::size_t pair_index) const {
    return models_.at(pair_index);
  }

  /// Lifetime mean of Q^a per measurement (over engaged samples) — feeds
  /// the per-machine localization of Figure 14.
  const std::vector<ScoreAverager>& MeasurementAverages() const {
    return measurement_avg_;
  }

  /// Lifetime mean of the system score Q — the "average fitness score" of
  /// Figure 13(a).
  const ScoreAverager& SystemAverage() const { return system_avg_; }

  /// Samples processed so far.
  std::size_t StepCount() const { return steps_; }

  /// The ingest guard's current view of every measurement feed.
  const IngestGuard& Health() const { return guard_; }

  /// The per-pair circuit breaker's current state.
  const PairQuarantine& Quarantine() const { return quarantine_; }

  /// The shared retrain pool, or nullptr when config.retrain is off.
  /// Exposed for observability (rebuild/failure counters) and test
  /// choreography (WaitForPair/WaitForIdle) — the monitor itself drives
  /// adoption at sample boundaries.
  RetrainPool* Retrain() { return retrain_.get(); }
  const RetrainPool* Retrain() const { return retrain_.get(); }

  /// Installs a scripted engine fault plan (engine/fault_plan.h) checked
  /// at every pair step; pass nullptr to clear. Non-owning — the plan
  /// must outlive its installation. Test-only seam: production monitors
  /// never install one.
  void SetFaultPlanForTest(const EngineFaultPlan* plan) {
    fault_plan_ = plan;
  }

  /// Audits the engine-level invariants: one model per graph pair,
  /// per-measurement info/averager arrays sized to the graph, every
  /// graph pair referencing valid measurement ids, and finite lifetime
  /// aggregates with count <= steps. With `deep` (the default, used
  /// post-construction and post-deserialize) every pair model is
  /// audited too; the hook after each Step/Run passes deep = false
  /// because each PairModel::Step already audited its own model.
  void CheckInvariants(bool deep = true) const;

 private:
  friend struct InvariantTestPeer;

  /// Compact per-(pair, sample) result of a pair-major sweep — only the
  /// fields the assembly phase needs.
  struct SweepCell {
    double fitness = 0.0;
    bool has_score = false;
    bool alarm = false;
    bool outlier = false;
    bool extended = false;
    // The quarantine skipped this (pair, sample) — or the pair tripped
    // mid-sample and produced nothing.
    bool skipped = false;
  };

  /// Ingest-guard pre-pass over the rows of one Advance call. Member
  /// scratch, sized per call and never freed, so the one-row call
  /// allocates nothing once warm — also when the guard suppresses.
  struct GuardPrepass {
    std::vector<double> row;                         // one row, filtered
    std::vector<double> filtered;                    // m x rows, by column
    std::vector<SampleReport> reports;               // per row
    std::vector<MeasurementHealth> health_timeline;  // rows x m
    bool any_break = false;
    /// Per measurement: the column the sweep reads — the caller's
    /// column, or its filtered copy when the guard is enabled.
    std::vector<std::span<const double>> inputs;
  };

  /// Level 2 + 3 of Section 5 over an already-filled pair_scores vector
  /// (pure arithmetic — no monitor state touched), run by the parallel
  /// snapshot assembly.
  void ComputeAggregates(SystemSnapshot& snap) const;

  /// Assembles row `off` of the batch that starts at call row t0 and
  /// engine sample `base_sample` into `snap`, from the sweep-cell arena
  /// (`width` rows per pair) and the guard pre-pass. Overwrites every
  /// field and reuses the vectors' capacity: Step reuses one snapshot
  /// across calls, and RunDelta re-assembles into two slots per shard.
  /// Pure per-row work, run by the worker shards in parallel.
  void AssembleRow(std::size_t t0, std::size_t width, std::size_t off,
                   std::size_t base_sample, TimePoint time,
                   SystemSnapshot& snap) const;

  /// The one engine path. Advances the monitor over rows
  /// [0, times.size()) — cols[a][t] is measurement a's value at row t —
  /// and writes row t's output into the caller-owned slot snapshots[t],
  /// or deltas[t] when `deltas` is set: guard pre-pass, pair-major
  /// batched sweep with the quarantine and retrain hooks, sharded row
  /// assembly (diffed into deltas on the delta path), serial lifetime
  /// aggregates. Does not reset the guard clock; Run/RunDelta do that
  /// before calling it, Step does not.
  void Advance(std::span<const std::span<const double>> cols,
               std::span<const TimePoint> times, SystemSnapshot* snapshots,
               SystemDelta* deltas);

  /// Run/RunDelta front: validates the frame, binds its columns and
  /// timestamps, starts a new guard segment, and advances over it.
  void AdvanceFrame(const MeasurementFrame& test, SystemSnapshot* snapshots,
                    SystemDelta* deltas);

  /// Serial ingest-guard pre-pass (the guard is a serial state machine):
  /// filters every row into guard_pass_ and resolves its inputs.
  void FilterRows(std::span<const std::span<const double>> cols,
                  std::span<const TimePoint> times);

  /// Batch width used by Run for a given pair count (resolves
  /// config_.batch_samples == 0 to the auto size).
  std::size_t BatchSamples(std::size_t pair_count) const;

  /// Shared AddPair body: graph append + model install + quarantine and
  /// retrain-window slots. (x, y) seed the pair's retrain window (empty
  /// when no history is at hand).
  std::size_t AddPairImpl(PairId pair, PairModel model,
                          std::span<const double> x,
                          std::span<const double> y);

  MonitorConfig config_;
  MeasurementGraph graph_;
  std::vector<MeasurementInfo> infos_;
  std::vector<PairModel> models_;
  ThreadPool pool_;

  std::vector<ScoreAverager> measurement_avg_;
  ScoreAverager system_avg_;
  std::size_t steps_ = 0;

  /// Degraded-mode machinery.
  IngestGuard guard_;
  PairQuarantine quarantine_;
  /// The retrain pool (one window slot per pair, indices
  /// aligned with models_); null when config_.retrain is off.
  std::unique_ptr<RetrainPool> retrain_;
  const EngineFaultPlan* fault_plan_ = nullptr;

  /// Core scratch, persisted across batches and calls so the steady-state
  /// loop allocates nothing: the bound input columns and frame
  /// timestamps, the sweep-cell arena (pairs x batch) and the guard
  /// pre-pass. The delta path adds the per-batch Q^a arena the serial
  /// averager pass reads (batch x m) and two assembly slots per worker
  /// shard (row off lands in slot off % 2, so a row and the row before
  /// it are never in the same slot).
  RunStats run_stats_;
  std::vector<std::span<const double>> in_cols_;
  std::vector<TimePoint> in_times_;
  std::vector<SweepCell> run_cells_;
  GuardPrepass guard_pass_;
  std::vector<std::optional<double>> run_qa_;
  std::vector<SystemSnapshot> delta_slots_;

  /// RunDelta's last emitted tick, the `prev` of the next batch's or the
  /// next call's first delta. Valid only while no other state-advancing
  /// call interleaves (Step, full Run, topology or calibration changes
  /// invalidate it — the next RunDelta re-emits a baseline).
  bool delta_valid_ = false;
  SystemSnapshot delta_last_;
};

}  // namespace pmcorr
