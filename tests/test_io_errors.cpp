// Regression tests for the hardened I/O boundaries: every malformed
// input class the fuzz harnesses cover — truncation, NaN/Inf fields,
// huge declared shapes, inconsistent redundancy, broken framing — must
// produce a clean std::runtime_error, never a crash, an abort, or a
// giant allocation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "io/csv.h"
#include "io/framing.h"
#include "io/model_io.h"
#include "io/monitor_io.h"

namespace pmcorr {
namespace {

PairModel TrainedModel() {
  Rng rng(7);
  std::vector<double> xs(500), ys(500);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double load =
        50.0 + 30.0 * std::sin(static_cast<double>(i) * 0.05) +
        rng.Normal(0.0, 1.0);
    xs[i] = load;
    ys[i] = 100.0 * load / (load + 40.0) + rng.Normal(0.0, 0.4);
  }
  ModelConfig config;
  config.partition.units = 25;
  config.partition.max_intervals = 6;
  config.forgetting = 0.99;
  return PairModel::Learn(xs, ys, config);
}

std::string SavedModelBytes() {
  std::ostringstream out;
  SavePairModel(TrainedModel(), out);
  return out.str();
}

// Every field of a model's frames (io/model_io.h), written by hand so a
// test can make exactly one of them wrong. The defaults are a valid
// 2x2-cell model: one written evidence row, one counts row.
struct ModelSpec {
  std::uint8_t kernel = 0;
  double w = 2.0;
  std::uint8_t metric = 2;
  double lambda1 = 3.0, lambda2 = 3.0, delta = 0.0, threshold = 0.0;
  double forgetting = 1.0, weight = 1.0;
  std::uint8_t adaptive = 1;
  double r1 = 1.0, r2 = 1.0;
  std::vector<double> dim1{0.0, 1.0, 2.0};
  std::vector<double> dim2{0.0, 1.0, 2.0};
  // Declared interval counts; unset = the edge count minus one.
  std::optional<std::uint32_t> n1, n2;
  std::uint64_t observed = 3;
  std::vector<std::pair<std::uint32_t, std::vector<double>>> evidence{
      {1, {-1.0, -2.0, -0.5, -4.0}}};
  // Per row: (column, count) entries in file order.
  std::vector<std::pair<std::uint32_t,
                        std::vector<std::pair<std::uint32_t, std::uint32_t>>>>
      counts{{1, {{0, 1}, {3, 2}}}};
  std::string model_trailer;  // extra bytes at the end of the model payload
};

void WriteEdges(WireWriter& w, const std::vector<double>& edges,
                std::optional<std::uint32_t> declared) {
  w.U32(declared.value_or(static_cast<std::uint32_t>(edges.size() - 1)));
  for (const double e : edges) w.F64(e);
}

std::string Encode(const ModelSpec& m) {
  std::string out, payload;
  WireWriter w(payload);
  w.U8(m.kernel);
  w.F64(m.w);
  w.U8(m.metric);
  for (const double v : {m.lambda1, m.lambda2, m.delta, m.threshold,
                         m.forgetting, m.weight}) {
    w.F64(v);
  }
  w.U8(m.adaptive);
  w.F64(m.r1);
  w.F64(m.r2);
  WriteEdges(w, m.dim1, m.n1);
  WriteEdges(w, m.dim2, m.n2);
  w.U64(m.observed);
  w.U32(static_cast<std::uint32_t>(m.evidence.size()));
  w.U32(static_cast<std::uint32_t>(m.counts.size()));
  w.Bytes(m.model_trailer);
  AppendFrame(kModelFrame, payload, out);
  for (const auto& [row, values] : m.evidence) {
    payload.clear();
    w.U32(row);
    for (const double v : values) w.F64(v);
    AppendFrame(kEvidenceFrame, payload, out);
  }
  for (const auto& [row, entries] : m.counts) {
    payload.clear();
    w.U32(row);
    for (const auto& [column, count] : entries) {
      w.U32(column);
      w.U32(count);
    }
    AppendFrame(kCountsFrame, payload, out);
  }
  return out;
}

void ExpectLoadModelThrows(const std::string& bytes,
                           const std::string& what = "") {
  std::istringstream in(bytes);
  EXPECT_THROW((void)LoadPairModel(in), std::runtime_error) << what;
}

// ---------------------------------------------------------------------
// LoadPairModel.

TEST(ModelIoErrors, ValidFilesStillLoad) {
  {
    std::istringstream in(SavedModelBytes());
    EXPECT_NO_THROW((void)LoadPairModel(in));
  }
  // The hand-written baseline every rejection below departs from.
  std::istringstream in(Encode(ModelSpec{}));
  const PairModel model = LoadPairModel(in);
  EXPECT_EQ(model.Grid().CellCount(), 4u);
  EXPECT_EQ(model.Matrix().ObservedCount(), 3u);
  EXPECT_EQ(model.Matrix().CountOf(1, 3), 2u);
  EXPECT_EQ(model.Matrix().EvidenceRow(1)[2], -0.5);
  EXPECT_EQ(model.Matrix().EvidenceRow(0)[0], 0.0);  // unwritten row
  EXPECT_FALSE(model.Matrix().RowWritten(0));
}

TEST(ModelIoErrors, EveryTruncationFailsCleanly) {
  const std::string bytes = SavedModelBytes();
  // Every proper prefix is missing a frame or part of one, so each must
  // throw, not crash. Step through the file with a stride plus the
  // boundary cases.
  for (std::size_t len = 0; len + 2 <= bytes.size(); len += 13) {
    ExpectLoadModelThrows(bytes.substr(0, len), std::to_string(len));
  }
  ExpectLoadModelThrows(bytes.substr(0, bytes.size() / 2));
  ExpectLoadModelThrows(bytes.substr(0, bytes.size() - 1));
}

TEST(ModelIoErrors, HugeDeclaredIntervalCountRejectedBeforeAllocation) {
  // 2^32 - 1 declared intervals would be 32 GiB of edges; the loader
  // must refuse the count itself rather than attempt the allocation.
  ModelSpec m;
  m.n1 = 0xffffffffu;
  ExpectLoadModelThrows(Encode(m));
}

TEST(ModelIoErrors, HugeDeclaredGridShapeRejected) {
  // Both dimensions individually under the per-dimension cap, but the
  // product (cells^2 evidence doubles) would be enormous.
  ModelSpec m;
  m.dim1.resize(1001);
  m.dim2.resize(1001);
  for (int i = 0; i <= 1000; ++i) m.dim1[i] = m.dim2[i] = i;
  m.evidence.clear();
  m.counts.clear();
  m.observed = 0;
  ExpectLoadModelThrows(Encode(m));
}

TEST(ModelIoErrors, NonFiniteFieldsRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ModelSpec m;
  m.r1 = nan;
  ExpectLoadModelThrows(Encode(m), "r_avg nan");
  m = ModelSpec{};
  m.dim1[0] = -inf;
  ExpectLoadModelThrows(Encode(m), "edge -inf");
  m = ModelSpec{};
  m.evidence[0].second[2] = nan;
  ExpectLoadModelThrows(Encode(m), "evidence nan");
  m = ModelSpec{};
  m.evidence[0].second[0] = -inf;
  ExpectLoadModelThrows(Encode(m), "evidence -inf");
}

TEST(ModelIoErrors, NonIncreasingEdgesRejected) {
  ModelSpec m;
  m.dim1 = {0.0, 0.0, 2.0};  // zero-width
  ExpectLoadModelThrows(Encode(m));
  m.dim1 = {0.0, -1.0, 2.0};  // decreasing
  ExpectLoadModelThrows(Encode(m));
}

TEST(ModelIoErrors, OutOfRangeParamsRejected) {
  ModelSpec m;
  m.lambda1 = -1.0;
  ExpectLoadModelThrows(Encode(m), "lambda1");
  m = ModelSpec{};
  m.forgetting = 2.0;
  ExpectLoadModelThrows(Encode(m), "forgetting");
  m = ModelSpec{};
  m.r2 = 0.0;
  ExpectLoadModelThrows(Encode(m), "r_avg");
  m = ModelSpec{};
  m.adaptive = 2;
  ExpectLoadModelThrows(Encode(m), "adaptive flag");
}

TEST(ModelIoErrors, UnknownKernelAndMetricRejected) {
  ModelSpec m;
  m.kernel = 9;
  ExpectLoadModelThrows(Encode(m), "kernel");
  m = ModelSpec{};
  m.metric = 7;
  ExpectLoadModelThrows(Encode(m), "metric");
  // Exponential kernels additionally need w > 1.
  m = ModelSpec{};
  m.kernel = 1;
  m.w = 0.5;
  ExpectLoadModelThrows(Encode(m), "exponential w");
}

TEST(ModelIoErrors, PositiveEvidenceRejected) {
  ModelSpec m;
  m.evidence[0].second[1] = 0.25;
  ExpectLoadModelThrows(Encode(m));
}

TEST(ModelIoErrors, CountSumMismatchRejected) {
  // Bump the declared observed total: the counts no longer sum to it,
  // and the loader must notice rather than restore corrupt state.
  ModelSpec m;
  m.observed = 4;
  ExpectLoadModelThrows(Encode(m));
}

TEST(ModelIoErrors, StrictRowsAndColumnsRejected) {
  ModelSpec m;
  m.evidence[0].first = 4;  // outside the 4-cell grid
  ExpectLoadModelThrows(Encode(m), "evidence row out of range");
  m = ModelSpec{};
  m.evidence = {{1, {-1, -1, -1, -1}}, {1, {-1, -1, -1, -1}}};
  ExpectLoadModelThrows(Encode(m), "evidence rows repeat");
  m = ModelSpec{};
  m.evidence[0].second = {0.0, 0.0, 0.0, 0.0};  // never-written row
  ExpectLoadModelThrows(Encode(m), "all-zero evidence row");
  m = ModelSpec{};
  m.evidence[0].second.pop_back();  // short row
  ExpectLoadModelThrows(Encode(m), "short evidence row");
  m = ModelSpec{};
  m.counts[0].second = {{3, 2}, {0, 1}};
  ExpectLoadModelThrows(Encode(m), "descending count columns");
  m = ModelSpec{};
  m.counts[0].second = {{0, 1}, {0, 2}};
  ExpectLoadModelThrows(Encode(m), "repeated count column");
  m = ModelSpec{};
  m.counts[0].second = {{0, 3}, {3, 0}};
  ExpectLoadModelThrows(Encode(m), "zero count listed");
  m = ModelSpec{};
  m.counts[0].second = {{0, 1}, {4, 2}};
  ExpectLoadModelThrows(Encode(m), "count column out of range");
  m = ModelSpec{};
  m.counts = {{1, {{0, 1}}}, {0, {{3, 2}}}};
  ExpectLoadModelThrows(Encode(m), "descending count rows");
  m = ModelSpec{};
  m.counts[0].second.clear();
  m.observed = 0;
  ExpectLoadModelThrows(Encode(m), "empty counts row");
}

TEST(ModelIoErrors, StrictFramingRejected) {
  ModelSpec m;
  m.model_trailer = "x";  // the model payload must end at its fields
  ExpectLoadModelThrows(Encode(m), "trailing payload byte");
  ExpectLoadModelThrows(Encode(ModelSpec{}) + Encode(ModelSpec{}),
                        "bytes after the model");
  // A frame of the wrong type where the evidence row belongs.
  std::string bytes = Encode(ModelSpec{});
  FrameReader reader;
  reader.Feed(bytes);
  std::string swapped;
  while (const std::optional<Frame> frame = reader.Next()) {
    const std::uint8_t type =
        frame->type == kEvidenceFrame ? kCountsFrame : frame->type;
    AppendFrame(type, frame->payload, swapped);
  }
  ExpectLoadModelThrows(swapped, "wrong frame type");
  // A flipped bit anywhere fails that frame's CRC.
  bytes[bytes.size() / 2] ^= 0x10;
  ExpectLoadModelThrows(bytes, "flipped bit");
}

TEST(ModelIoErrors, TextModelRejectedByName) {
  std::istringstream in("pmcorr-model v1\nkernel 0 2 2\n");
  try {
    (void)LoadPairModel(in);
    ADD_FAILURE() << "v1 text model loaded";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("pmcorr-model v1"),
              std::string::npos)
        << error.what();
  }
}

// ---------------------------------------------------------------------
// LoadSystemMonitor.

struct MeasurementSpec {
  std::uint32_t machine = 0;
  std::uint8_t kind = 0;
  std::string name = "cpu@a";
  double sum = 0.0;
  std::uint64_t count = 0;
};

// A checkpoint's frames (io/monitor_io.h) from hand-written fields.
std::string EncodeCheckpoint(
    const std::vector<MeasurementSpec>& measurements,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs,
    const std::vector<std::string>& models, std::uint64_t steps = 0,
    double system_sum = 0.0, std::uint64_t system_count = 0) {
  std::string out, payload;
  WireWriter w(payload);
  w.U32(kCheckpointFormatVersion);
  w.U32(static_cast<std::uint32_t>(measurements.size()));
  for (const MeasurementSpec& m : measurements) {
    w.U32(m.machine);
    w.U8(m.kind);
    w.Str(m.name);
  }
  w.U32(static_cast<std::uint32_t>(pairs.size()));
  for (const auto& [a, b] : pairs) {
    w.U32(a);
    w.U32(b);
  }
  w.U64(steps);
  w.F64(system_sum);
  w.U64(system_count);
  for (const MeasurementSpec& m : measurements) {
    w.F64(m.sum);
    w.U64(m.count);
  }
  AppendFrame(kCheckpointHeaderFrame, payload, out);
  for (const std::string& model : models) out += model;
  payload.clear();
  w.U32(static_cast<std::uint32_t>(models.size()));
  AppendFrame(kCheckpointEndFrame, payload, out);
  return out;
}

void ExpectLoadMonitorThrows(const std::string& bytes,
                             const std::string& what = "") {
  std::istringstream in(bytes);
  EXPECT_THROW((void)LoadSystemMonitor(in), std::runtime_error) << what;
}

TEST(MonitorIoErrors, HandWrittenCheckpointLoads) {
  const std::string model = Encode(ModelSpec{});
  std::istringstream in(EncodeCheckpoint({{}, {.name = "cpu@b"}}, {{0, 1}},
                                         {model}, 10, 1.5, 3));
  const auto monitor = LoadSystemMonitor(in);
  EXPECT_EQ(monitor->Graph().PairCount(), 1u);
  EXPECT_EQ(monitor->StepCount(), 10u);
}

TEST(MonitorIoErrors, HugeDeclaredCountsRejected) {
  // Header fields by hand: a version and a count far past the caps.
  std::string payload, bytes;
  WireWriter w(payload);
  w.U32(kCheckpointFormatVersion);
  w.U32(0xffffffffu);
  AppendFrame(kCheckpointHeaderFrame, payload, bytes);
  ExpectLoadMonitorThrows(bytes, "measurements");
  payload.clear();
  bytes.clear();
  w.U32(kCheckpointFormatVersion);
  w.U32(0);
  w.U32(0xffffffffu);
  AppendFrame(kCheckpointHeaderFrame, payload, bytes);
  ExpectLoadMonitorThrows(bytes, "pairs");
}

TEST(MonitorIoErrors, CorruptPairListRejectedAsRuntimeError) {
  // Fuzzer find: self-pairs / out-of-range pairs used to escape as
  // std::invalid_argument from MeasurementGraph::FromPairs, breaking
  // the loader's "malformed input => std::runtime_error" contract.
  const std::string model = SavedModelBytes();
  for (const auto& [a, b] :
       std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {0, 0}, {0, 7}, {0xfffffffdu, 1}, {1, 0}}) {
    // Fully well-formed checkpoint except for the second pair: the
    // loader reaches graph construction and must translate its
    // rejection, not leak it.
    ExpectLoadMonitorThrows(
        EncodeCheckpoint({{}, {.name = "cpu@b"}}, {{0, 1}, {a, b}},
                         {model, model}),
        std::to_string(a) + "," + std::to_string(b));
  }
}

TEST(MonitorIoErrors, UnknownMetricKindAndMachineRejected) {
  ExpectLoadMonitorThrows(EncodeCheckpoint({{.kind = 250}}, {}, {}), "kind");
  ExpectLoadMonitorThrows(EncodeCheckpoint({{.machine = 0x80000000u}}, {}, {}),
                          "machine");
}

TEST(MonitorIoErrors, NonFiniteAggregatesRejected) {
  ExpectLoadMonitorThrows(
      EncodeCheckpoint({}, {}, {}, 10,
                       std::numeric_limits<double>::infinity(), 5));
  ExpectLoadMonitorThrows(EncodeCheckpoint(
      {{.sum = std::numeric_limits<double>::quiet_NaN()}}, {}, {}, 10));
}

TEST(MonitorIoErrors, AveragerCountBeyondStepsRejected) {
  ExpectLoadMonitorThrows(
      EncodeCheckpoint({{.sum = 1.5, .count = 11}}, {}, {}, 10, 1.5, 3));
  ExpectLoadMonitorThrows(EncodeCheckpoint({}, {}, {}, 10, 1.5, 11));
}

TEST(MonitorIoErrors, StrictFramingRejected) {
  const std::string model = Encode(ModelSpec{});
  const std::string good =
      EncodeCheckpoint({{}, {.name = "cpu@b"}}, {{0, 1}}, {model});
  {
    std::istringstream in(good);
    EXPECT_NO_THROW((void)LoadSystemMonitor(in));
  }
  ExpectLoadMonitorThrows(good + good, "bytes after the end frame");
  // End frame disagreeing with the header: two models declared, one
  // pair in the header.
  ExpectLoadMonitorThrows(
      EncodeCheckpoint({{}, {.name = "cpu@b"}}, {{0, 1}}, {model, model}),
      "end frame count");
  // Unknown format version.
  std::string bumped = good;
  FrameReader reader;
  reader.Feed(good);
  Frame head = *reader.Next();
  head.payload[0] = 3;
  bumped.clear();
  AppendFrame(head.type, head.payload, bumped);
  while (const std::optional<Frame> frame = reader.Next()) {
    AppendFrame(frame->type, frame->payload, bumped);
  }
  ExpectLoadMonitorThrows(bumped, "version 3");
}

// ---------------------------------------------------------------------
// ReadFrameCsv.

constexpr const char* kCsvHeader =
    "# pmcorr-trace v1 start=0 period=60\n"
    "# measurement,1,CpuUtilization,cpu@a\n"
    "# measurement,1,RequestRate,req@a\n"
    "time,cpu@a,req@a\n";

TEST(CsvErrors, ValidTraceLoadsThroughStreamOverload) {
  std::istringstream in(std::string(kCsvHeader) +
                        "0,50,10\n60,51,11\n120,nan,12\n");
  const MeasurementFrame frame = ReadFrameCsv(in);
  EXPECT_EQ(frame.MeasurementCount(), 2u);
  EXPECT_EQ(frame.SampleCount(), 3u);
  // NaN is the missing-sample marker and must survive the parse.
  EXPECT_TRUE(std::isnan(frame.Value(MeasurementId(0), 2)));
}

TEST(CsvErrors, InfinityRejected) {
  std::istringstream in(std::string(kCsvHeader) + "0,inf,10\n");
  EXPECT_THROW((void)ReadFrameCsv(in), std::runtime_error);
}

TEST(CsvErrors, RowWidthMismatchRejected) {
  std::istringstream in(std::string(kCsvHeader) + "0,50\n");
  EXPECT_THROW((void)ReadFrameCsv(in), std::runtime_error);
}

TEST(CsvErrors, TimestampOverflowRejected) {
  std::istringstream in(
      "# pmcorr-trace v1 start=9223372036854775000 period=1000\n"
      "# measurement,1,CpuUtilization,cpu@a\n"
      "time,cpu@a\n0,50\n1,51\n");
  EXPECT_THROW((void)ReadFrameCsv(in), std::runtime_error);
}

TEST(CsvErrors, NegativeStartAndBadPeriodRejected) {
  std::istringstream a(
      "# pmcorr-trace v1 start=-5 period=60\ntime\n");
  EXPECT_THROW((void)ReadFrameCsv(a), std::runtime_error);
  std::istringstream b(
      "# pmcorr-trace v1 start=0 period=0\ntime\n");
  EXPECT_THROW((void)ReadFrameCsv(b), std::runtime_error);
}

}  // namespace
}  // namespace pmcorr
