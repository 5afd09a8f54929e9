// Binary framing for the SystemDelta stream (the compact sibling of
// WriteDeltaStreamJsonl / ReadDeltaStreamJsonl in io/monitor_io.h).
//
// The JSONL form is the human-auditable fingerprint; this form is the
// compact one — `pmcorr monitor --delta-out FILE --delta-format binary`
// writes it and `pmcorr monitor --from-deltas FILE` reads it back. It is
// 53–55% of the JSONL bytes on a 6-machine, 9-day generated trace and
// free of float printing/parsing, while still bitwise-exact (doubles
// travel as IEEE-754 bit patterns).
// Both forms decode to identical SystemDelta values;
// tests/test_framing.cpp proves the cross-format round trip bitwise.
//
// File layout (every unit an io/framing.h frame, so truncation and
// corruption are detectable mid-file, not just at the end):
//
//   frame kDeltaStreamMagic  payload = "pmcorr-delta-bin v1"
//   frame kDeltaStreamDelta  payload = EncodeSystemDelta(...)   (0..n)
//   frame kDeltaStreamEnd    payload = u64 delta count
//
// The reader is strict like the JSONL reader: exact magic first, a
// matching end frame last (a stream cut at a frame boundary is still
// rejected as truncated), no trailing bytes, and per-delta validation —
// widths within limits, indices in range, finite scores, known enum
// codes. Ordering/baseline discipline stays the DeltaReconstructor's
// job, exactly as with the JSONL path.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "engine/snapshot.h"

namespace pmcorr {

/// Frame types of the binary delta stream.
inline constexpr std::uint8_t kDeltaStreamMagic = 0x01;
inline constexpr std::uint8_t kDeltaStreamDelta = 0x02;
inline constexpr std::uint8_t kDeltaStreamEnd = 0x03;

/// The magic frame's payload.
inline constexpr std::string_view kDeltaStreamMagicPayload =
    "pmcorr-delta-bin v1";

/// Appends one delta's binary payload (frame body, without the frame
/// envelope) to `out`.
void EncodeSystemDelta(const SystemDelta& delta, std::string& out);

/// Decodes and validates one delta payload. Throws FramingError on any
/// deviation from the encoder's output.
SystemDelta DecodeSystemDelta(std::string_view payload);

/// Writes the framed binary stream. Throws std::runtime_error on write
/// failure.
void WriteDeltaStreamBinary(const std::vector<SystemDelta>& deltas,
                            std::ostream& out);

/// Reads a stream written by WriteDeltaStreamBinary. Throws
/// std::runtime_error (FramingError derives from it) on malformed,
/// truncated, corrupt, or trailing input.
std::vector<SystemDelta> ReadDeltaStreamBinary(std::istream& in);

}  // namespace pmcorr
