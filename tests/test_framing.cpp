// Wire framing and binary codecs: the length-prefixed CRC frame layer
// (io/framing.h), the binary SystemDelta stream (io/delta_binary.h)
// proven bitwise-equal to the JSONL form, and the serve protocol's
// message codecs (serve/protocol.h). Every decoder here faces a network
// peer or an on-disk file, so the malformed cases are as load-bearing
// as the round trips.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "differential_util.h"
#include "engine/snapshot.h"
#include "io/atomic_file.h"
#include "io/delta_binary.h"
#include "io/framing.h"
#include "io/monitor_io.h"
#include "serve/protocol.h"

namespace pmcorr {
namespace {

// ---------------------------------------------------------------------
// Frame layer.
// ---------------------------------------------------------------------

// The definition Crc32 must reproduce: one bit at a time.
std::uint32_t BitwiseCrc32(std::string_view bytes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char c : bytes) {
    crc ^= static_cast<unsigned char>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Framing, Crc32MatchesTheBitwiseDefinition) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);  // the IEEE check value
  EXPECT_EQ(Crc32(""), 0u);
  // Every length 0..64 at every start offset mod 8, so each split
  // between the 8-byte steps and the byte-wise tail is covered.
  Rng rng(5);
  std::string buffer(8 + 64, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.UniformInt(0, 255));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const std::string_view bytes(buffer.data() + offset, length);
      ASSERT_EQ(Crc32(bytes), BitwiseCrc32(bytes))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Framing, RoundTripSingleFrame) {
  std::string wire;
  AppendFrame(0x42, "hello frame", wire);
  FrameReader reader;
  reader.Feed(wire);
  const auto frame = reader.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, 0x42);
  EXPECT_EQ(frame->payload, "hello frame");
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_FALSE(reader.HasPartial());
}

TEST(Framing, ByteByByteDelivery) {
  // A frame must survive arbitrary fragmentation — one byte per Feed is
  // the worst case a stream socket can produce.
  std::string wire;
  AppendFrame(0x01, "alpha", wire);
  AppendFrame(0x02, std::string(1000, 'b'), wire);
  AppendFrame(0x03, "", wire);
  FrameReader reader;
  std::vector<Frame> frames;
  for (const char byte : wire) {
    reader.Feed(std::string_view(&byte, 1));
    while (const auto frame = reader.Next()) frames.push_back(*frame);
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].payload, "alpha");
  EXPECT_EQ(frames[1].payload.size(), 1000u);
  EXPECT_EQ(frames[2].type, 0x03);
  EXPECT_TRUE(frames[2].payload.empty());
  EXPECT_FALSE(reader.HasPartial());
}

TEST(Framing, CorruptCrcRejected) {
  std::string wire;
  AppendFrame(0x10, "payload", wire);
  wire.back() ^= 0x01;  // flip one CRC bit
  FrameReader reader;
  reader.Feed(wire);
  EXPECT_THROW(reader.Next(), FramingError);
}

TEST(Framing, CorruptPayloadRejected) {
  std::string wire;
  AppendFrame(0x10, "payload", wire);
  wire[6] ^= 0x40;  // flip a payload bit; the CRC must catch it
  FrameReader reader;
  reader.Feed(wire);
  EXPECT_THROW(reader.Next(), FramingError);
}

TEST(Framing, OversizedLengthRejected) {
  // A hostile length prefix must be rejected before any allocation of
  // that size happens.
  std::string wire;
  const std::uint32_t huge = kMaxFramePayload + 2;
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<char>((huge >> (8 * i)) & 0xFF));
  }
  FrameReader reader;
  reader.Feed(wire);
  EXPECT_THROW(reader.Next(), FramingError);
}

TEST(Framing, ZeroLengthRejected) {
  // The body always holds at least the type byte.
  FrameReader reader;
  reader.Feed(std::string_view("\0\0\0\0", 4));
  EXPECT_THROW(reader.Next(), FramingError);
}

TEST(Framing, PartialFrameIsVisible) {
  std::string wire;
  AppendFrame(0x10, "payload", wire);
  FrameReader reader;
  reader.Feed(std::string_view(wire).substr(0, wire.size() - 1));
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_TRUE(reader.HasPartial());
  reader.Feed(std::string_view(wire).substr(wire.size() - 1));
  EXPECT_TRUE(reader.Next().has_value());
  EXPECT_FALSE(reader.HasPartial());
}

TEST(Framing, WireScalarsRoundTripBitwise) {
  std::string buffer;
  WireWriter writer(buffer);
  writer.U8(0xAB);
  writer.U16(0xBEEF);
  writer.U32(0xDEADBEEF);
  writer.U64(0x0123456789ABCDEFull);
  writer.I64(-987654321);
  writer.F64(-0.1);
  writer.F64(std::numeric_limits<double>::quiet_NaN());
  writer.Str("utf-8 safe \x01 bytes");

  WireReader reader(buffer, "scalar round trip");
  EXPECT_EQ(reader.U8(), 0xAB);
  EXPECT_EQ(reader.U16(), 0xBEEF);
  EXPECT_EQ(reader.U32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.I64(), -987654321);
  EXPECT_EQ(reader.F64(), -0.1);
  EXPECT_TRUE(std::isnan(reader.F64()));  // NaN bit pattern survives
  EXPECT_EQ(reader.Str(), "utf-8 safe \x01 bytes");
  EXPECT_TRUE(reader.AtEnd());
  reader.ExpectEnd();
}

TEST(Framing, WireReaderUnderrunThrows) {
  std::string buffer;
  WireWriter writer(buffer);
  writer.U32(7);
  WireReader reader(buffer, "underrun");
  EXPECT_THROW(reader.U64(), FramingError);
}

TEST(Framing, WireReaderTrailingBytesThrow) {
  std::string buffer;
  WireWriter writer(buffer);
  writer.U8(1);
  writer.U8(2);
  WireReader reader(buffer, "trailing");
  reader.U8();
  EXPECT_THROW(reader.ExpectEnd(), FramingError);
}

// ---------------------------------------------------------------------
// Binary delta stream.
// ---------------------------------------------------------------------

// The same correlated synthetic system the differential suite uses.
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

MonitorConfig SmallConfig() {
  MonitorConfig config;
  config.model.partition.units = 30;
  config.model.partition.max_intervals = 8;
  config.threads = 1;
  return config;
}

std::vector<SystemDelta> MakeDeltas() {
  const MeasurementFrame history = CorrelatedFrame(300, 11);
  const MeasurementFrame test = CorrelatedFrame(120, 12);
  SystemMonitor monitor(history,
                        MeasurementGraph::FullMesh(history.MeasurementCount()),
                        SmallConfig());
  return monitor.RunDelta(test);
}

std::string EncodeAll(const std::vector<SystemDelta>& deltas) {
  std::string out;
  for (const SystemDelta& delta : deltas) EncodeSystemDelta(delta, out);
  return out;
}

TEST(DeltaBinary, RoundTripBitwiseAndMatchesJsonl) {
  const std::vector<SystemDelta> deltas = MakeDeltas();
  ASSERT_FALSE(deltas.empty());

  // Binary round trip: decode(encode(x)) re-encodes to the same bytes.
  std::stringstream binary;
  WriteDeltaStreamBinary(deltas, binary);
  const std::vector<SystemDelta> from_binary = ReadDeltaStreamBinary(binary);
  ASSERT_EQ(from_binary.size(), deltas.size());
  EXPECT_EQ(EncodeAll(from_binary), EncodeAll(deltas));

  // Cross-format: the JSONL path must decode to deltas whose binary
  // encoding is byte-identical (both carry exact doubles).
  std::stringstream jsonl;
  WriteDeltaStreamJsonl(deltas, jsonl);
  const std::vector<SystemDelta> from_jsonl = ReadDeltaStreamJsonl(jsonl);
  EXPECT_EQ(EncodeAll(from_jsonl), EncodeAll(deltas));

  // And both reconstruct to identical snapshot streams.
  difftest::ExpectStreamsEqual(ReconstructSnapshots(from_binary),
                               ReconstructSnapshots(from_jsonl));
}

TEST(DeltaBinary, TruncationAtEveryFrameBoundaryRejected) {
  const std::vector<SystemDelta> deltas = MakeDeltas();
  std::stringstream full;
  WriteDeltaStreamBinary(deltas, full);
  const std::string bytes = full.str();

  // Cut after the magic frame and after each delta frame: without the
  // end frame every prefix must be rejected as truncated.
  FrameReader scanner;
  scanner.Feed(bytes);
  std::size_t consumed = 0;
  std::vector<std::size_t> boundaries;
  while (true) {
    const std::size_t before = scanner.BufferedBytes();
    if (!scanner.Next().has_value()) break;
    consumed += before - scanner.BufferedBytes();
    boundaries.push_back(consumed);
  }
  ASSERT_GE(boundaries.size(), 3u);
  for (std::size_t i = 0; i + 1 < boundaries.size(); ++i) {
    std::istringstream cut(bytes.substr(0, boundaries[i]));
    EXPECT_THROW(ReadDeltaStreamBinary(cut), std::runtime_error)
        << "prefix of " << boundaries[i] << " bytes";
  }
  // Mid-frame cut too.
  std::istringstream torn(bytes.substr(0, bytes.size() - 3));
  EXPECT_THROW(ReadDeltaStreamBinary(torn), std::runtime_error);
}

TEST(DeltaBinary, MissingMagicRejected) {
  std::string wire;
  AppendFrame(kDeltaStreamEnd, std::string(8, '\0'), wire);
  std::istringstream in(wire);
  EXPECT_THROW(ReadDeltaStreamBinary(in), std::runtime_error);
}

TEST(DeltaBinary, WrongEndCountRejected) {
  const std::vector<SystemDelta> deltas = MakeDeltas();
  std::string wire;
  AppendFrame(kDeltaStreamMagic, kDeltaStreamMagicPayload, wire);
  std::string payload;
  EncodeSystemDelta(deltas[0], payload);
  AppendFrame(kDeltaStreamDelta, payload, wire);
  std::string end_payload;
  WireWriter end(end_payload);
  end.U64(2);  // lies: only one delta frame present
  AppendFrame(kDeltaStreamEnd, end_payload, wire);
  std::istringstream in(wire);
  EXPECT_THROW(ReadDeltaStreamBinary(in), std::runtime_error);
}

TEST(DeltaBinary, TrailingFrameAfterEndRejected) {
  std::stringstream out;
  WriteDeltaStreamBinary({}, out);
  std::string wire = out.str();
  AppendFrame(kDeltaStreamMagic, kDeltaStreamMagicPayload, wire);
  std::istringstream in(wire);
  EXPECT_THROW(ReadDeltaStreamBinary(in), std::runtime_error);
}

TEST(DeltaBinary, HostileWidthsRejected) {
  // A delta claiming 2^20+1 pairs must be rejected before allocation.
  SystemDelta delta;
  delta.baseline = true;
  delta.pair_count = (1u << 20) + 1;
  delta.measurement_count = 4;
  std::string payload;
  EncodeSystemDelta(delta, payload);
  EXPECT_THROW(DecodeSystemDelta(payload), FramingError);
}

TEST(DeltaBinary, OutOfRangeIndexRejected) {
  SystemDelta delta;
  delta.baseline = true;
  delta.pair_count = 4;
  delta.measurement_count = 4;
  delta.alarmed_pairs = {7};  // >= pair_count
  std::string payload;
  EncodeSystemDelta(delta, payload);
  EXPECT_THROW(DecodeSystemDelta(payload), FramingError);
}

// ---------------------------------------------------------------------
// Serve protocol codecs.
// ---------------------------------------------------------------------

TEST(ServeProtocol, HelloRoundTrip) {
  HelloRequest request;
  request.tenant = "prod-eu";
  std::string payload;
  EncodeHelloRequest(request, payload);
  const HelloRequest back = DecodeHelloRequest(payload);
  EXPECT_EQ(back.version, kServeProtocolVersion);
  EXPECT_EQ(back.tenant, "prod-eu");

  HelloReply reply;
  reply.tenant_index = 3;
  reply.measurement_count = 17;
  reply.expected_period = 360;
  payload.clear();
  EncodeHelloReply(reply, payload);
  const HelloReply reply_back = DecodeHelloReply(payload);
  EXPECT_EQ(reply_back.tenant_index, 3u);
  EXPECT_EQ(reply_back.measurement_count, 17u);
  EXPECT_EQ(reply_back.expected_period, 360);
}

TEST(ServeProtocol, SampleRowKeepsNaN) {
  // NaN is a legal in-band value (a missing reading the guard handles);
  // the codec must not "validate" it away.
  SampleRow row;
  row.time = 1212019200;
  row.values = {1.5, std::numeric_limits<double>::quiet_NaN(), -3.0};
  std::string payload;
  EncodeSampleRow(row, payload);
  SampleRow back;
  back.values.reserve(8);
  DecodeSampleRowInto(payload, back);
  EXPECT_EQ(back.time, row.time);
  ASSERT_EQ(back.values.size(), 3u);
  EXPECT_EQ(back.values[0], 1.5);
  EXPECT_TRUE(std::isnan(back.values[1]));
  EXPECT_EQ(back.values[2], -3.0);
}

TEST(ServeProtocol, StatusRoundTrip) {
  StatusReply status;
  status.state = 1;
  status.submitted = 1000;
  status.accepted = 600;
  status.shed_ticks = 399;
  status.rejected = 1;
  status.processed = 600;
  status.checkpoints = 3;
  status.checkpoint_failures = 1;
  status.backpressure_raises = 2;
  status.backpressure_clears = 2;
  status.max_queue_rows = 64;
  status.queue_rows = 5;
  status.queue_budget = 64;
  status.alarms_total = 12;
  status.suppressed_total = 7;
  status.quarantined_pairs = 1;
  status.last_sample = 599;
  status.last_time = 1212019200;
  status.last_q = 0.9875;
  status.last_error = "disk full";
  std::string payload;
  EncodeStatusReply(status, payload);
  const StatusReply back = DecodeStatusReply(payload);
  EXPECT_EQ(back.submitted, 1000u);
  EXPECT_EQ(back.shed_ticks, 399u);
  EXPECT_EQ(back.checkpoint_failures, 1u);
  EXPECT_EQ(back.max_queue_rows, 64u);
  ASSERT_TRUE(back.last_q.has_value());
  EXPECT_EQ(*back.last_q, 0.9875);
  EXPECT_EQ(back.last_error, "disk full");
}

TEST(ServeProtocol, SummaryAndDrilldownRoundTrip) {
  SummaryReply summary;
  summary.has_snapshot = true;
  summary.sample = 42;
  summary.time = 360 * 42;
  summary.system_score = 0.75;
  summary.measurement_scores = {std::nullopt, 0.5, 1.0};
  summary.measurement_health = {MeasurementHealth::kHealthy,
                                MeasurementHealth::kStale,
                                MeasurementHealth::kDead};
  summary.alarmed_pairs = {0, 2};
  std::string payload;
  EncodeSummaryReply(summary, payload);
  const SummaryReply summary_back = DecodeSummaryReply(payload);
  EXPECT_TRUE(summary_back.has_snapshot);
  ASSERT_EQ(summary_back.measurement_scores.size(), 3u);
  EXPECT_FALSE(summary_back.measurement_scores[0].has_value());
  EXPECT_EQ(*summary_back.measurement_scores[1], 0.5);
  EXPECT_EQ(summary_back.measurement_health[2], MeasurementHealth::kDead);
  EXPECT_EQ(summary_back.alarmed_pairs, (std::vector<std::uint32_t>{0, 2}));

  DrilldownReply drill;
  drill.measurement = 1;
  drill.has_snapshot = true;
  drill.sample = 42;
  drill.system_score = 0.75;
  drill.measurement_score = 0.5;
  DrilldownPair pair;
  pair.pair_index = 2;
  pair.a = 1;
  pair.b = 3;
  pair.has_score = true;
  pair.score = 0.25;
  pair.alarmed = true;
  drill.pairs.push_back(pair);
  payload.clear();
  EncodeDrilldownReply(drill, payload);
  const DrilldownReply drill_back = DecodeDrilldownReply(payload);
  ASSERT_EQ(drill_back.pairs.size(), 1u);
  EXPECT_EQ(drill_back.pairs[0].b, 3u);
  EXPECT_EQ(drill_back.pairs[0].score, 0.25);
  EXPECT_TRUE(drill_back.pairs[0].alarmed);
}

TEST(ServeProtocol, DrainedAndErrorRoundTrip) {
  DrainedReply drained;
  DrainedTenant tenant;
  tenant.name = "A";
  tenant.state = 2;
  tenant.processed = 123;
  tenant.checkpoint = 1;
  drained.tenants.push_back(tenant);
  std::string payload;
  EncodeDrainedReply(drained, payload);
  const DrainedReply back = DecodeDrainedReply(payload);
  ASSERT_EQ(back.tenants.size(), 1u);
  EXPECT_EQ(back.tenants[0].name, "A");
  EXPECT_EQ(back.tenants[0].checkpoint, 1);

  payload.clear();
  EncodeErrorReply("bad row", payload);
  EXPECT_EQ(DecodeErrorReply(payload), "bad row");
}

TEST(ServeProtocol, MalformedPayloadsRejected) {
  // Truncation.
  std::string payload;
  HelloRequest hello;
  hello.tenant = "A";
  EncodeHelloRequest(hello, payload);
  EXPECT_THROW(DecodeHelloRequest(payload.substr(0, payload.size() - 1)),
               FramingError);
  // Trailing bytes.
  EXPECT_THROW(DecodeHelloRequest(payload + "x"), FramingError);
  // Out-of-range enum.
  std::string bad_query;
  WireWriter writer(bad_query);
  writer.U8(9);  // no such QueryKind
  writer.U32(0);
  EXPECT_THROW(DecodeQueryRequest(bad_query), FramingError);
}

}  // namespace
}  // namespace pmcorr
