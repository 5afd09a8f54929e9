#include "engine/health.h"

#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace pmcorr {

const char* MeasurementHealthName(MeasurementHealth health) {
  switch (health) {
    case MeasurementHealth::kHealthy: return "healthy";
    case MeasurementHealth::kStale: return "stale";
    case MeasurementHealth::kFlapping: return "flapping";
    case MeasurementHealth::kDead: return "dead";
  }
  return "unknown";
}

const char* StreamEventName(StreamEvent event) {
  switch (event) {
    case StreamEvent::kNone: return "none";
    case StreamEvent::kGap: return "gap";
    case StreamEvent::kDuplicate: return "duplicate";
    case StreamEvent::kOutOfOrder: return "out-of-order";
  }
  return "unknown";
}

IngestGuard::IngestGuard(std::size_t measurement_count, HealthConfig config)
    : config_(config), states_(measurement_count) {
  if (config_.late_factor < 1.0) {
    throw std::invalid_argument("IngestGuard: late_factor must be >= 1");
  }
}

std::vector<MeasurementHealth> IngestGuard::HealthStates() const {
  std::vector<MeasurementHealth> out;
  CopyHealthStates(out);
  return out;
}

void IngestGuard::CopyHealthStates(std::vector<MeasurementHealth>& out) const {
  out.clear();
  out.reserve(states_.size());
  for (const FeedState& feed : states_) out.push_back(feed.health);
}

void IngestGuard::ResetTiming() {
  has_last_tp_ = false;
  for (FeedState& feed : states_) {
    feed.has_last = false;
    feed.frozen_run = 0;
  }
}

void IngestGuard::UpdateHealth(FeedState& feed, bool usable) {
  const MeasurementHealth before = feed.health;

  // Coarse flap window: degrade events accumulate and the counter clears
  // every flap_window samples, so "left kHealthy N times recently" is a
  // deterministic statement without a per-feed ring buffer.
  if (config_.flap_window > 0 && ++feed.since_degrade >= config_.flap_window) {
    feed.since_degrade = 0;
    feed.recent_degrades = 0;
  }

  MeasurementHealth next = before;
  if (config_.dead_after > 0 && feed.missing_run >= config_.dead_after) {
    next = MeasurementHealth::kDead;
  } else if (config_.stale_after > 0 &&
             feed.missing_run >= config_.stale_after) {
    if (before == MeasurementHealth::kHealthy) {
      ++feed.recent_degrades;
      feed.since_degrade = 0;
    }
    next = (config_.flap_transitions > 0 &&
            feed.recent_degrades >= config_.flap_transitions)
               ? MeasurementHealth::kFlapping
               : MeasurementHealth::kStale;
  } else if (usable && before != MeasurementHealth::kHealthy &&
             feed.good_run >= config_.recover_after) {
    next = MeasurementHealth::kHealthy;
  }

  if (before == MeasurementHealth::kHealthy &&
      next != MeasurementHealth::kHealthy) {
    ++degraded_;
  } else if (before != MeasurementHealth::kHealthy &&
             next == MeasurementHealth::kHealthy) {
    --degraded_;
  }
  feed.health = next;
}

SampleReport IngestGuard::Filter(std::span<double> values, TimePoint tp) {
  SampleReport report;
  if (values.size() != states_.size()) {
    throw std::invalid_argument("IngestGuard::Filter: value count mismatch");
  }

  // Stream-level timing: classify this arrival against the previous one.
  if (has_last_tp_) {
    if (tp == last_tp_) {
      report.event = StreamEvent::kDuplicate;
      ++duplicates_;
    } else if (tp < last_tp_) {
      report.event = StreamEvent::kOutOfOrder;
      ++out_of_order_;
    } else {
      const Duration dt = tp - last_tp_;
      if (config_.expected_period == 0) {
        // Learn the cadence from the first two distinct timestamps.
        config_.expected_period = dt;
      } else if (static_cast<double>(dt) >
                 config_.late_factor *
                     static_cast<double>(config_.expected_period)) {
        report.event = StreamEvent::kGap;
        report.sequence_break = true;
        ++gaps_;
      }
      last_tp_ = tp;
    }
  } else {
    has_last_tp_ = true;
    last_tp_ = tp;
  }

  // A duplicate or out-of-order sample carries no trustworthy values:
  // suppress the whole row (the models see a missing sample) and leave
  // the stream clock where it was. The transition sequence is broken
  // either way — the "previous cell" no longer matches the cadence slot
  // the next sample will claim to follow.
  if (report.event == StreamEvent::kDuplicate ||
      report.event == StreamEvent::kOutOfOrder) {
    report.sequence_break = true;
    for (double& v : values) {
      if (!std::isnan(v)) {
        v = std::numeric_limits<double>::quiet_NaN();
        ++report.suppressed;
      }
    }
  }

  // Per-feed value inspection: frozen detection + health update.
  for (std::size_t m = 0; m < states_.size(); ++m) {
    FeedState& feed = states_[m];
    double& v = values[m];
    bool usable = !std::isnan(v);

    if (usable && config_.frozen_after > 0) {
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
      if (feed.has_last && bits == feed.last_bits) {
        ++feed.frozen_run;
      } else {
        feed.frozen_run = 1;
      }
      feed.last_bits = bits;
      feed.has_last = true;
      if (feed.frozen_run >= config_.frozen_after) {
        // Wedged agent replaying its last reading: suppress until the
        // value actually changes again.
        v = std::numeric_limits<double>::quiet_NaN();
        usable = false;
        ++report.suppressed;
      }
    }

    if (usable) {
      feed.missing_run = 0;
      ++feed.good_run;
    } else {
      ++feed.missing_run;
      feed.good_run = 0;
    }
    UpdateHealth(feed, usable);
  }

  suppressed_total_ += report.suppressed;
  return report;
}

}  // namespace pmcorr
