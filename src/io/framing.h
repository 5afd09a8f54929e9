// Length-prefixed binary framing — the one wire format shared by the
// binary delta stream (io/delta_binary.h), the serve daemon's socket
// protocol (serve/protocol.h), and the model files and monitor
// checkpoints (io/model_io.h, io/monitor_io.h).
//
// A frame is
//
//   u32le body_length | body | u32le crc32(body)
//   body := u8 type | payload
//
// with an explicit little-endian byte layout (no struct punning, no
// host-endianness assumptions) and a hard payload cap, so the parser is
// safe on untrusted bytes: a hostile length cannot drive an allocation
// beyond the cap, a flipped bit fails the CRC, and a truncated stream is
// distinguishable from a complete one (HasPartial). FrameReader is
// incremental — feed whatever a socket read returned, take out however
// many complete frames arrived — which is also exactly the shape a fuzz
// harness wants (fuzz/fuzz_frame.cpp drives it byte-by-byte).
//
// WireWriter/WireReader are the matching primitive codec for frame
// payloads: unsigned little-endian integers, two's-complement signed,
// doubles as IEEE-754 bit patterns (bitwise round-trip, NaN payloads and
// signed zeros included), and length-prefixed byte strings. WireReader
// is strict: reading past the end, or leaving bytes unconsumed where the
// caller demands ExpectEnd, throws FramingError.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace pmcorr {

/// Malformed frame or payload (bad length, CRC mismatch, truncated or
/// trailing payload bytes). Derives from runtime_error so existing I/O
/// error handling catches it for free.
class FramingError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Hard cap on one frame's payload. Generous for this codebase — a
/// 100k-pair baseline delta is about 1.2 MB — while keeping a hostile
/// length prefix from requesting gigabytes.
inline constexpr std::size_t kMaxFramePayload = 16u << 20;

/// One decoded frame: the body's leading type byte plus the payload
/// bytes after it (owned copy — valid independent of the reader).
struct Frame {
  std::uint8_t type = 0;
  std::string payload;
};

/// Appends one encoded frame to `out`.
void AppendFrame(std::uint8_t type, std::string_view payload,
                 std::string& out);

/// The in-place form of AppendFrame, for payloads too large to stage:
/// BeginFrame opens a frame at the end of `out` and returns its start,
/// the caller appends the payload to `out` (a WireWriter on it), and
/// EndFrame seals it with its length and CRC. EndFrame throws
/// FramingError, with the frame removed from `out`, when the payload
/// exceeds kMaxFramePayload.
std::size_t BeginFrame(std::uint8_t type, std::string& out);
void EndFrame(std::size_t start, std::string& out);

/// Recomputes the CRC of the frame EndFrame sealed at `start` in `out`,
/// for a caller that patched the frame's payload in place since.
void ResealFrame(std::size_t start, std::string& out);

/// Writes one encoded frame to a stream (the file-backed users).
/// Throws std::runtime_error on write failure.
void WriteFrame(std::ostream& out, std::uint8_t type,
                std::string_view payload);

/// Incremental frame parser over a byte stream. Feed bytes in arrival
/// order; Next returns complete frames until the buffered bytes run dry.
/// Malformed input (zero or oversized body length, CRC mismatch) throws
/// FramingError — the stream is poisoned and the reader must be
/// discarded, which is the strict-parser contract: a corrupt transport
/// is closed, not resynchronized.
class FrameReader {
 public:
  void Feed(std::string_view bytes);

  /// Next complete frame, or nullopt when more bytes are needed.
  std::optional<Frame> Next();

  /// True when buffered bytes form an incomplete frame — at end of
  /// stream this distinguishes truncation from a clean boundary.
  bool HasPartial() const { return pos_ < buffer_.size(); }

  /// Bytes buffered but not yet consumed by Next.
  std::size_t BufferedBytes() const { return buffer_.size() - pos_; }

 private:
  std::string buffer_;
  std::size_t pos_ = 0;
};

/// Takes the next frame of a fully buffered file and checks its type.
/// Throws FramingError prefixed with `context` when the bytes end before
/// a frame (truncation, at a frame boundary or inside one) or the frame
/// has another type.
Frame ExpectFrame(FrameReader& reader, std::uint8_t type,
                  std::string_view context);

/// Appends primitive values to a payload string, little-endian.
class WireWriter {
 public:
  explicit WireWriter(std::string& out) : out_(out) {}

  void U8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U16(std::uint16_t v);
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  /// Two's-complement via the u64 bit pattern.
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 bit pattern — the bitwise-exact double round-trip.
  void F64(double v);
  /// `n` doubles, as n F64 calls would write them.
  void F64s(const double* values, std::size_t n);
  /// u16 length prefix + raw bytes (names, error messages).
  void Str(std::string_view s);
  void Bytes(std::string_view s) { out_.append(s); }

 private:
  std::string& out_;
};

/// Strict reader over a payload. Every accessor throws FramingError
/// (prefixed with `context`) on underrun; ExpectEnd rejects trailing
/// bytes, so a decoder that finishes with ExpectEnd accepts exactly the
/// bytes its encoder produces.
class WireReader {
 public:
  WireReader(std::string_view bytes, std::string_view context)
      : bytes_(bytes), context_(context) {}

  std::uint8_t U8();
  std::uint16_t U16();
  std::uint32_t U32();
  std::uint64_t U64();
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  double F64();
  /// `n` doubles written by F64s (or n F64 calls).
  void F64s(double* values, std::size_t n);
  std::string_view Str();
  std::string_view Bytes(std::size_t n);

  std::size_t Remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }
  void ExpectEnd() const;
  [[noreturn]] void Fail(const std::string& what) const;

 private:
  const char* Take(std::size_t n);

  std::string_view bytes_;
  std::string_view context_;
  std::size_t pos_ = 0;
};

}  // namespace pmcorr
