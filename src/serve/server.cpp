#include "serve/server.h"

#include <algorithm>
#include <stdexcept>

#include "io/framing.h"

namespace pmcorr {

std::size_t ServeCore::AddTenant(TenantConfig config,
                                 std::unique_ptr<SystemMonitor> monitor) {
  if (FindTenant(config.name) != nullptr) {
    throw std::invalid_argument("ServeCore: duplicate tenant name \"" +
                                config.name + "\"");
  }
  tenants_.push_back(
      std::make_unique<TenantRuntime>(std::move(config), std::move(monitor)));
  return tenants_.size() - 1;
}

TenantRuntime* ServeCore::FindTenant(std::string_view name) {
  for (const std::unique_ptr<TenantRuntime>& tenant : tenants_) {
    if (tenant->Config().name == name) return tenant.get();
  }
  return nullptr;
}

DrainedReply ServeCore::Drain() {
  DrainedReply reply;
  reply.tenants.reserve(tenants_.size());
  for (const std::unique_ptr<TenantRuntime>& tenant : tenants_) {
    tenant->Drain();
    const TenantStatus status = tenant->Status();
    DrainedTenant entry;
    entry.name = tenant->Config().name;
    entry.state = static_cast<std::uint8_t>(status.state);
    entry.processed = status.counters.processed;
    if (tenant->Config().checkpoint_path.empty()) {
      entry.checkpoint = 0;
    } else {
      // "ok" means the drain sealed with a good final checkpoint: the
      // most recent write attempt succeeded. Earlier cadence successes
      // do not excuse a torn seal — a poisoned tenant or a failed final
      // write reports 2 and recovery falls back a generation.
      entry.checkpoint =
          (status.state == TenantState::kDrained &&
           status.counters.checkpoints > 0 && !status.last_checkpoint_failed)
              ? 1
              : 2;
    }
    reply.tenants.push_back(std::move(entry));
  }
  return reply;
}

bool ServeSession::Error(std::string_view message, std::string& out) {
  payload_scratch_.clear();
  EncodeErrorReply(message, payload_scratch_);
  AppendFrame(kFrameError, payload_scratch_, out);
  return false;
}

bool ServeSession::HandleFrame(const Frame& frame, std::string& out) {
  switch (frame.type) {
    case kFrameHello:
      return HandleHello(frame, out);
    case kFrameSample:
      return HandleSample(frame, out);
    case kFrameQuery:
      return HandleQuery(frame, out);
    case kFrameDrain:
      wants_drain_ = true;
      return true;
    default:
      return Error("unknown frame type", out);
  }
}

bool ServeSession::HandleHello(const Frame& frame, std::string& out) {
  HelloRequest hello;
  try {
    hello = DecodeHelloRequest(frame.payload);
  } catch (const FramingError& e) {
    return Error(e.what(), out);
  }
  if (hello.version != kServeProtocolVersion) {
    return Error("unsupported protocol version", out);
  }
  TenantRuntime* tenant = core_->FindTenant(hello.tenant);
  if (tenant == nullptr) {
    return Error("unknown tenant \"" + hello.tenant + "\"", out);
  }
  tenant_ = tenant;
  for (std::size_t i = 0; i < core_->TenantCount(); ++i) {
    if (&core_->Tenant(i) == tenant) {
      tenant_index_ = static_cast<int>(i);
    }
  }
  HelloReply reply;
  reply.tenant_index = static_cast<std::uint32_t>(tenant_index_);
  reply.measurement_count =
      static_cast<std::uint32_t>(tenant->Monitor().MeasurementCount());
  reply.expected_period = tenant->Monitor().Health().ExpectedPeriod();
  payload_scratch_.clear();
  EncodeHelloReply(reply, payload_scratch_);
  AppendFrame(kFrameHelloOk, payload_scratch_, out);
  return true;
}

bool ServeSession::HandleSample(const Frame& frame, std::string& out) {
  if (tenant_ == nullptr) {
    return Error("sample before hello", out);
  }
  try {
    DecodeSampleRowInto(frame.payload, row_scratch_);
  } catch (const FramingError& e) {
    return Error(e.what(), out);
  }
  const AdmitResult result = tenant_->Submit(row_scratch_);
  if (result.rejected) {
    // A structurally wrong row (or a drained/poisoned tenant) is a
    // protocol violation, not load — close loudly so the client never
    // mistakes rejection for shedding.
    return Error("row rejected (width mismatch or tenant not active)", out);
  }
  // Accepted and shed rows get no per-row reply: the ingest path stays
  // one-way at line rate; shedding is visible in status counters and
  // the daemon's backpressure edges.
  return true;
}

bool ServeSession::HandleQuery(const Frame& frame, std::string& out) {
  if (tenant_ == nullptr) {
    return Error("query before hello", out);
  }
  QueryRequest query;
  try {
    query = DecodeQueryRequest(frame.payload);
  } catch (const FramingError& e) {
    return Error(e.what(), out);
  }
  switch (query.kind) {
    case QueryKind::kStatus:
      AnswerStatus(out);
      return true;
    case QueryKind::kSummary:
      AnswerSummary(out);
      return true;
    case QueryKind::kDrilldown:
      if (query.arg >= tenant_->Monitor().MeasurementCount()) {
        return Error("drilldown measurement out of range", out);
      }
      AnswerDrilldown(query.arg, out);
      return true;
  }
  return Error("unknown query kind", out);
}

void ServeSession::AnswerStatus(std::string& out) {
  const TenantStatus status = tenant_->Status();
  const std::shared_ptr<const TenantPublishedState> published =
      tenant_->Published();
  StatusReply reply;
  reply.state = static_cast<std::uint8_t>(status.state);
  reply.submitted = status.counters.submitted;
  reply.accepted = status.counters.accepted;
  reply.shed_ticks = status.counters.shed_ticks;
  reply.rejected = status.counters.rejected;
  reply.processed = status.counters.processed;
  reply.checkpoints = status.counters.checkpoints;
  reply.checkpoint_failures = status.counters.checkpoint_failures;
  reply.backpressure_raises = status.counters.backpressure_raises;
  reply.backpressure_clears = status.counters.backpressure_clears;
  reply.max_queue_rows = status.counters.max_queue_rows;
  reply.queue_rows = status.queue_rows;
  reply.queue_budget = status.queue_budget;
  reply.alarms_total = published->alarms_total;
  reply.suppressed_total = published->suppressed_total;
  reply.quarantined_pairs =
      published->has_snapshot ? published->snapshot.quarantined_pairs : 0;
  if (published->has_snapshot) {
    reply.last_sample = published->snapshot.sample;
    reply.last_time = published->snapshot.time;
    reply.last_q = published->snapshot.system_score;
  }
  reply.last_error = status.last_error;
  payload_scratch_.clear();
  EncodeStatusReply(reply, payload_scratch_);
  AppendFrame(kFrameStatus, payload_scratch_, out);
}

void ServeSession::AnswerSummary(std::string& out) {
  const std::shared_ptr<const TenantPublishedState> published =
      tenant_->Published();
  SummaryReply reply;
  if (published->has_snapshot) {
    const SystemSnapshot& snap = published->snapshot;
    reply.has_snapshot = true;
    reply.sample = snap.sample;
    reply.time = snap.time;
    reply.system_score = snap.system_score;
    reply.measurement_scores = snap.measurement_scores;
    reply.measurement_health.assign(snap.measurement_health.begin(),
                                    snap.measurement_health.end());
    reply.alarmed_pairs.reserve(snap.alarmed_pairs.size());
    for (const std::size_t p : snap.alarmed_pairs) {
      reply.alarmed_pairs.push_back(static_cast<std::uint32_t>(p));
    }
  }
  payload_scratch_.clear();
  EncodeSummaryReply(reply, payload_scratch_);
  AppendFrame(kFrameSummary, payload_scratch_, out);
}

void ServeSession::AnswerDrilldown(std::uint32_t measurement,
                                   std::string& out) {
  // The graph's topology is immutable while the daemon serves (AddPair
  // is a serial-section call the daemon never makes), so reading it
  // here does not race the worker; scores come from the published
  // snapshot, never the live engine.
  const std::shared_ptr<const TenantPublishedState> published =
      tenant_->Published();
  const MeasurementGraph& graph = tenant_->Monitor().Graph();
  DrilldownReply reply;
  reply.measurement = measurement;
  const SystemSnapshot* snap = nullptr;
  if (published->has_snapshot) {
    snap = &published->snapshot;
    reply.has_snapshot = true;
    reply.sample = snap->sample;
    reply.system_score = snap->system_score;
    if (measurement < snap->measurement_scores.size()) {
      reply.measurement_score = snap->measurement_scores[measurement];
    }
  }
  for (const std::size_t pi :
       graph.PairsOf(MeasurementId(static_cast<std::int32_t>(measurement)))) {
    const PairId& pair = graph.Pair(pi);
    DrilldownPair entry;
    entry.pair_index = static_cast<std::uint32_t>(pi);
    entry.a = static_cast<std::uint32_t>(pair.a.value);
    entry.b = static_cast<std::uint32_t>(pair.b.value);
    if (snap != nullptr && pi < snap->pair_scores.size()) {
      if (snap->pair_scores[pi]) {
        entry.has_score = true;
        entry.score = *snap->pair_scores[pi];
      }
      entry.alarmed = std::find(snap->alarmed_pairs.begin(),
                                snap->alarmed_pairs.end(),
                                pi) != snap->alarmed_pairs.end();
    }
    reply.pairs.push_back(entry);
  }
  payload_scratch_.clear();
  EncodeDrilldownReply(reply, payload_scratch_);
  AppendFrame(kFrameDrilldown, payload_scratch_, out);
}

}  // namespace pmcorr
