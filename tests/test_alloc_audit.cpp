// Steady-state allocation audit: after a warmup tick, the out-param
// SystemMonitor::Step overloads (one row, and multi-row at every width
// up to the serve tenant's batch cap) must run malloc-free with
// threads=1, on clean rows and on rows the ingest guard suppresses — the
// long-running ingest loop of a shard-scale deployment steps at a fixed
// memory footprint. Counted with replacement global operator new/new[],
// so any heap traffic on the hot path fails loudly.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/model.h"
#include "engine/monitor.h"
#include "serve/tenant.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Replacement allocation functions (must live at global scope). delete
// mirrors new onto free; the sized and nothrow forms delegate so every
// deallocation path matches the malloc-backed allocation.
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pmcorr {
namespace {

// Correlated 4-measurement system (2 machines x 2 metrics), same shape
// as the differential suite's synthetic.
MeasurementFrame CorrelatedFrame(std::size_t samples, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(4, std::vector<double>(samples));
  for (std::size_t i = 0; i < samples; ++i) {
    const double load = 60.0 +
                        35.0 * std::sin(static_cast<double>(i) * 0.03) +
                        rng.Normal(0.0, 1.5);
    cols[0][i] = load + rng.Normal(0.0, 0.8);
    cols[1][i] = 100.0 * load / (load + 45.0) + rng.Normal(0.0, 0.4);
    cols[2][i] = 2.5 * load + 20.0 + rng.Normal(0.0, 2.0);
    cols[3][i] = 0.8 * load + 35.0 + rng.Normal(0.0, 1.5);
  }
  MeasurementFrame frame(0, kPaperSamplePeriod);
  for (int c = 0; c < 4; ++c) {
    MeasurementInfo info;
    info.machine = MachineId(c / 2);
    info.name = "m" + std::to_string(c);
    frame.Add(info, TimeSeries(0, kPaperSamplePeriod, std::move(cols[c])));
  }
  return frame;
}

TEST(AllocAudit, SteadyStateStepIsMallocFree) {
  const MeasurementFrame history = CorrelatedFrame(1200, 3);
  // Same seed as history: every replayed value is inside the trained
  // grid, so no adaptive extension (a legitimate, allocating structural
  // event) fires and the audit isolates the steady-state path.
  const MeasurementFrame test = CorrelatedFrame(200, 3);
  MonitorConfig config;
  config.model.partition.units = 40;
  config.model.partition.max_intervals = 10;
  config.threads = 1;
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4), config);

  // Pre-extract everything the loop needs so the audited region does
  // nothing but Step.
  const std::size_t warmup = 50;
  std::vector<std::vector<double>> rows(test.SampleCount(),
                                        std::vector<double>(4));
  std::vector<TimePoint> times(test.SampleCount());
  for (std::size_t s = 0; s < test.SampleCount(); ++s) {
    for (int a = 0; a < 4; ++a) {
      rows[s][static_cast<std::size_t>(a)] = test.Value(MeasurementId(a), s);
    }
    times[s] = test.TimeAt(s);
  }

  SystemSnapshot out;
  for (std::size_t s = 0; s < warmup; ++s) {
    monitor.Step(rows[s], times[s], out);
  }

  g_allocations.store(0);
  g_counting.store(true);
  for (std::size_t s = warmup; s < test.SampleCount(); ++s) {
    monitor.Step(rows[s], times[s], out);
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "steady-state Step allocated on the hot path";
}

TEST(AllocAudit, DegradedSteadyStateStepIsMallocFree) {
  // The one-row call filters through the ingest guard into member
  // scratch: rows the guard suppresses — a feed frozen past
  // frozen_after, and a duplicate timestamp that suppresses the whole
  // row and breaks every pair's sequence — must allocate nothing either.
  const MeasurementFrame history = CorrelatedFrame(1200, 3);
  const MeasurementFrame test = CorrelatedFrame(200, 3);
  MonitorConfig config;
  config.model.partition.units = 40;
  config.model.partition.max_intervals = 10;
  config.threads = 1;
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4), config);

  // Clean warmup rows, then feed 1 frozen at its row-50 value (an
  // in-grid value: no grid extension) for the rest of the run, with
  // row 120 re-sent under row 119's timestamp.
  const std::size_t warmup = 50;
  const std::size_t duplicate = 120;
  std::vector<std::vector<double>> rows(test.SampleCount(),
                                        std::vector<double>(4));
  std::vector<TimePoint> times(test.SampleCount());
  for (std::size_t s = 0; s < test.SampleCount(); ++s) {
    for (int a = 0; a < 4; ++a) {
      rows[s][static_cast<std::size_t>(a)] = test.Value(MeasurementId(a), s);
    }
    if (s >= warmup) rows[s][1] = test.Value(MeasurementId(1), warmup);
    times[s] = test.TimeAt(s);
  }
  times[duplicate] = times[duplicate - 1];
  ASSERT_GT(test.SampleCount() - warmup,
            monitor.Health().Config().frozen_after);

  SystemSnapshot out;
  for (std::size_t s = 0; s < warmup; ++s) {
    monitor.Step(rows[s], times[s], out);
  }

  std::size_t suppressed = 0;
  std::size_t duplicates = 0;
  g_allocations.store(0);
  g_counting.store(true);
  for (std::size_t s = warmup; s < test.SampleCount(); ++s) {
    monitor.Step(rows[s], times[s], out);
    suppressed += out.suppressed_values;
    if (out.stream_event == StreamEvent::kDuplicate) ++duplicates;
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "degraded steady-state Step allocated on the hot path";
  // Both kinds of degraded row really happened.
  EXPECT_EQ(duplicates, 1u);
  EXPECT_GT(suppressed, 4u + 1u);
}

TEST(AllocAudit, MultiRowStepIsMallocFreeAtEveryWidth) {
  // A serve tenant steps its queue in multi-row calls of up to
  // TenantRuntime::kBatchRows rows. After one warm call at that width,
  // calls at every width up to it allocate nothing: the guard pre-pass,
  // sweep cells and snapshot slots keep the warm call's capacity — also
  // on rows the guard suppresses (a frozen feed, a duplicate).
  constexpr std::size_t kCap = TenantRuntime::kBatchRows;
  constexpr std::size_t kRows = kCap + kCap * (kCap + 1) / 2;
  const MeasurementFrame history = CorrelatedFrame(1200, 3);
  const MeasurementFrame test = CorrelatedFrame(kRows, 3);
  MonitorConfig config;
  config.model.partition.units = 40;
  config.model.partition.max_intervals = 10;
  config.threads = 1;
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4), config);

  // Column-major rows; feed 1 frozen at an in-grid value after the warm
  // call, and one row re-sent under the previous row's timestamp.
  const std::size_t duplicate = kRows - 20;
  std::vector<std::vector<double>> cols(4, std::vector<double>(kRows));
  std::vector<TimePoint> times(kRows);
  for (std::size_t t = 0; t < kRows; ++t) {
    for (int a = 0; a < 4; ++a) {
      cols[static_cast<std::size_t>(a)][t] =
          test.Value(MeasurementId(a), t);
    }
    if (t >= kCap) cols[1][t] = test.Value(MeasurementId(1), kCap);
    times[t] = test.TimeAt(t);
  }
  times[duplicate] = times[duplicate - 1];
  std::vector<std::span<const double>> call(4);
  std::vector<SystemSnapshot> slots(kCap);
  const auto step = [&](std::size_t begin, std::size_t width) {
    for (std::size_t a = 0; a < 4; ++a) {
      call[a] = std::span<const double>(cols[a]).subspan(begin, width);
    }
    monitor.Step(call,
                 std::span<const TimePoint>(times).subspan(begin, width),
                 std::span<SystemSnapshot>(slots.data(), width));
  };
  step(0, kCap);

  std::size_t suppressed = 0;
  std::size_t duplicates = 0;
  std::size_t begin = kCap;
  g_allocations.store(0);
  g_counting.store(true);
  for (std::size_t width = 1; width <= kCap; ++width) {
    step(begin, width);
    begin += width;
    for (std::size_t k = 0; k < width; ++k) {
      suppressed += slots[k].suppressed_values;
      if (slots[k].stream_event == StreamEvent::kDuplicate) ++duplicates;
    }
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "a multi-row Step allocated on the hot path";
  EXPECT_EQ(begin, kRows);
  EXPECT_EQ(duplicates, 1u);
  EXPECT_GT(suppressed, 4u + 1u);
}

TEST(AllocAudit, AlarmStormStepIsMallocFree) {
  // Every scored transition alarms (its probability is below delta =
  // 1), and an alarmed transition leaves the model untouched. Alarms
  // live only in each snapshot's alarmed-pair list, so a 10k-alarm storm
  // steps at a fixed footprint like any other stream. Two warmup passes
  // read every source row at least twice, so each row's rank cache
  // (built on its second unwritten read) exists before the audited
  // passes.
  const MeasurementFrame history = CorrelatedFrame(1200, 3);
  const MeasurementFrame test = CorrelatedFrame(200, 3);
  MonitorConfig config;
  config.model.partition.units = 40;
  config.model.partition.max_intervals = 10;
  config.model.delta = 1.0;
  config.threads = 1;
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4), config);

  const std::size_t n = test.SampleCount();
  std::vector<std::vector<double>> rows(n, std::vector<double>(4));
  for (std::size_t s = 0; s < n; ++s) {
    for (int a = 0; a < 4; ++a) {
      rows[s][static_cast<std::size_t>(a)] = test.Value(MeasurementId(a), s);
    }
  }

  SystemSnapshot out;
  std::size_t pass = 0;
  for (; pass < 2; ++pass) {
    for (std::size_t s = 0; s < n; ++s) {
      monitor.Step(rows[s], test.TimeAt(pass * n + s), out);
    }
  }

  std::size_t alarmed = 0;
  g_allocations.store(0);
  g_counting.store(true);
  for (; pass < 22; ++pass) {
    for (std::size_t s = 0; s < n; ++s) {
      monitor.Step(rows[s], test.TimeAt(pass * n + s), out);
      alarmed += out.alarmed_pairs.size();
    }
  }
  g_counting.store(false);
  EXPECT_GE(alarmed, 10000u);
  EXPECT_EQ(g_allocations.load(), 0u)
      << alarmed << " alarms over " << 20 * n << " rows";
}

TEST(AllocAudit, FirstWritesAllocateLogarithmically) {
  // A transition row takes its evidence from the matrix's arena on its
  // first write, and a new (row, column) count is inserted into the
  // count pool; both grow by an eighth when full. So a stream that
  // first-writes n rows after warm-up reallocates O(log n) times, not
  // once per row. The model's 24 x 24 grid is warmed up on its diagonal;
  // the audited stream then draws x and y independently inside the grid,
  // so it visits off-diagonal cells without extending the grid, and
  // without alarms (none are configured) every scored row is written.
  constexpr std::size_t kSide = 24;
  Grid2D grid(IntervalList::Uniform(0.0, kSide, kSide),
              IntervalList::Uniform(0.0, kSide, kSide));
  const ModelConfig config;
  TransitionMatrix prior =
      TransitionMatrix::Prior(grid, *MakeKernel(config.kernel));
  PairModel model =
      PairModel::FromParts(config, std::move(grid), std::move(prior));
  Rng rng(7);
  for (int s = 0; s < 200; ++s) {
    const double v = rng.Uniform() * kSide;
    model.Step(v, v);
  }
  const auto written_rows = [&] {
    std::size_t n = 0;
    for (std::size_t row = 0; row < model.Matrix().CellCount(); ++row) {
      n += model.Matrix().RowWritten(row) ? 1 : 0;
    }
    return n;
  };
  std::vector<Point2> stream(2000);
  for (Point2& p : stream) p = {rng.Uniform() * kSide, rng.Uniform() * kSide};
  const std::size_t before = written_rows();

  g_allocations.store(0);
  g_counting.store(true);
  for (const Point2& p : stream) model.Step(p.x, p.y);
  g_counting.store(false);
  ASSERT_EQ(model.Grid().CellCount(), kSide * kSide) << "the grid extended";
  ASSERT_EQ(model.Stats().alarms, 0u);
  const std::size_t n = written_rows() - before;
  ASSERT_GE(n, 400u) << "too few first writes to tell log from linear";
  // Each of the two stores grows by at least an eighth per allocation,
  // and from below eight rows or entries by at least one.
  const double bound =
      2.0 * (std::log(static_cast<double>(n)) / std::log(9.0 / 8.0) + 8.0);
  EXPECT_LE(static_cast<double>(g_allocations.load()), bound)
      << n << " rows first-written";
  EXPECT_LT(g_allocations.load() * 4, n) << n << " rows first-written";
}

TEST(AllocAudit, CounterSeesOrdinaryAllocations) {
  // Sanity-check the instrument itself: a vector growth inside the
  // audited region must register.
  g_allocations.store(0);
  g_counting.store(true);
  std::vector<double>* v = new std::vector<double>(1024);
  g_counting.store(false);
  EXPECT_GE(g_allocations.load(), 1u);
  delete v;
}

}  // namespace
}  // namespace pmcorr
