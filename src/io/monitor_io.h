// SystemMonitor checkpointing: persist and restore a whole fleet of pair
// models plus the lifetime score aggregates, so a monitoring agent can
// restart without relearning from history (the paper's models take
// seconds to learn per pair; a production fleet carries hundreds).
//
// A checkpoint is a sequence of io/framing.h frames, each with its own
// CRC-32 — the checkpoint's only integrity check:
//
//   kCheckpointHeaderFrame  u32 format version (2) |
//                           u32 m | m x (u32 machine | u8 metric kind |
//                                        u16-prefixed name) |
//                           u32 p | p x (u32 a | u32 b) |
//                           u64 steps | f64 system score sum |
//                           u64 system score count |
//                           m x (f64 score sum | u64 score count)
//   per pair, in pair order: the model's frames (io/model_io.h)
//   kCheckpointEndFrame     u32 p
//
// Version 1 was a text format; its files are rejected with a message
// that names it. The loader is strict: a missing frame (truncation at a
// frame boundary), a torn frame, a CRC mismatch, a payload with bytes
// left over, an end frame that disagrees with the header, or any byte
// after the end frame rejects the file. The header frame holds one
// record per measurement and pair, so it bounds a checkpoint at roughly
// 300k of each (kMaxFramePayload); every model frame stays far below
// that cap at any grid the loader accepts.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "engine/monitor.h"

namespace pmcorr {

/// Frame types and format version of a monitor checkpoint.
inline constexpr std::uint8_t kCheckpointHeaderFrame = 'H';
inline constexpr std::uint8_t kCheckpointEndFrame = 'Z';
inline constexpr std::uint32_t kCheckpointFormatVersion = 2;

/// Serializes the monitor: measurement infos, graph edges, per-pair
/// models (the frames of io/model_io.h), and the lifetime aggregates.
/// Throws std::runtime_error on I/O failure.
void SaveSystemMonitor(const SystemMonitor& monitor, std::ostream& out);

/// On-disk checkpoint policy: how many last-good generations to keep.
/// Generation 0 is `path` itself, generation g > 0 is `path.g<g>`; a
/// save rotates g -> g+1 (dropping the oldest) before atomically
/// writing the new generation 0.
struct CheckpointConfig {
  std::size_t generations = 2;
};

/// Crash-safe file checkpoint: encodes the monitor, rotates the existing
/// generations, and replaces `path` via write-to-temp + fsync + atomic
/// rename (io/atomic_file.h). A crash at any point leaves at least one
/// complete, validated prior generation recoverable by the path-based
/// loader below. Runs on the caller's thread. Throws std::runtime_error
/// on I/O failure.
void SaveSystemMonitor(const SystemMonitor& monitor, const std::string& path,
                       const CheckpointConfig& config);
void SaveSystemMonitor(const SystemMonitor& monitor, const std::string& path);

/// How a path-based load found its checkpoint (all fields informational).
struct CheckpointRecoveryInfo {
  /// The file that loaded successfully.
  std::string loaded_path;
  /// Its generation number (0 = the primary file).
  std::size_t generation = 0;
  /// One "<path>: <reason>" entry per newer candidate that was rejected
  /// (missing, torn, CRC mismatch, failed validation) before the loaded
  /// one — non-empty means the primary copy was lost and recovery
  /// actually happened.
  std::vector<std::string> rejected;
};

/// Restores a monitor saved by SaveSystemMonitor. Worker-thread count is
/// taken from `threads` (0 = hardware concurrency) since it is a property
/// of the host, not of the model state. Throws std::runtime_error on
/// malformed input.
std::unique_ptr<SystemMonitor> LoadSystemMonitor(std::istream& in,
                                                 std::size_t threads = 0);

/// Path-based load with generation fallback: tries `path`, then
/// `path.g1`, `path.g2`, ... and returns the newest generation whose
/// frames all pass their CRCs and full load-time validation. Throws
/// std::runtime_error only when every generation is missing or corrupt
/// (the message lists each rejection).
std::unique_ptr<SystemMonitor> LoadSystemMonitor(
    const std::string& path, std::size_t threads = 0,
    CheckpointRecoveryInfo* recovery = nullptr);

/// Writes the full-detail snapshot stream as JSONL, one line per sample:
///   {"sample":N,"t":<unix>,"q":<Q|null>,"qa":[...],"pair_scores":[...],
///    "alarmed":[pair,...],"outliers":N,"extended":N}
/// Scores are printed with 17 significant digits (round-trip exact for
/// doubles), so the output is a byte-stable fingerprint of the engine's
/// arithmetic — this is the format of the golden-trace regression tests,
/// which is why it lives with the checkpoint code rather than the
/// dashboard-oriented summaries of io/jsonl.h.
void WriteSnapshotStreamJsonl(const std::vector<SystemSnapshot>& snapshots,
                              std::ostream& out);

/// Parses a stream written by WriteSnapshotStreamJsonl back into
/// snapshots (measurement scores are part of the stream, so the
/// round-trip is lossless and bit-exact). The parser is strict: it
/// accepts exactly the schema above — keys in order, no whitespace
/// padding — and throws std::runtime_error with a line number on any
/// deviation, including non-finite scores, alarmed indices out of range
/// or out of order, and score arrays whose width changes mid-stream.
std::vector<SystemSnapshot> ReadSnapshotStreamJsonl(std::istream& in);

/// Writes a SystemDelta stream as JSONL, one line per tick:
///   {"sample":N,"t":<unix>,"baseline":true|false,"pairs":P,
///    "measurements":M,"q":<Q|null>,"pair_changes":[[i,score],...],
///    "pair_disengaged":[i,...],"qa_changes":[[i,score],...],
///    "qa_disengaged":[i,...],"alarmed":[...],"outliers":N,
///    "extended":N,"event":E,"suppressed":N,"quarantined":N,
///    "health":true|false,"health_changes":[[i,h],...]}
/// Scores use 17 significant digits, so reconstructing the parsed
/// stream (DeltaReconstructor) is bitwise identical to reconstructing
/// the in-memory one. On a quiet tick every change list is empty and
/// the line is O(1) bytes regardless of pair count — that is the point
/// of the delta form.
void WriteDeltaStreamJsonl(const std::vector<SystemDelta>& deltas,
                           std::ostream& out);

/// Parses a stream written by WriteDeltaStreamJsonl. Strict like
/// ReadSnapshotStreamJsonl: exact key order, no padding; throws
/// std::runtime_error with a line number on any deviation, including
/// non-finite scores, unknown event/health codes, or change indices
/// outside the declared widths. Ordering/baseline discipline is the
/// reconstructor's job — this reader checks each line in isolation.
std::vector<SystemDelta> ReadDeltaStreamJsonl(std::istream& in);

}  // namespace pmcorr
