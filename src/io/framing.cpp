#include "io/framing.h"

#include <bit>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <utility>

#include "io/atomic_file.h"

namespace pmcorr {
namespace {

void PutU32(std::uint32_t v, std::string& out) {
  const char bytes[4] = {static_cast<char>(v & 0xff),
                         static_cast<char>((v >> 8) & 0xff),
                         static_cast<char>((v >> 16) & 0xff),
                         static_cast<char>((v >> 24) & 0xff)};
  out.append(bytes, sizeof(bytes));
}

std::uint32_t GetU32(const char* p) {
  const auto b = [p](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]));
  };
  return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

// On a little-endian IEEE-754 host a double's bytes already are its
// wire form, so arrays of doubles move with one memcpy.
constexpr bool kDoublesAreLittleEndian =
    std::endian::native == std::endian::little &&
    std::numeric_limits<double>::is_iec559;

// 'M' for the printable type codes of the file formats, the number
// otherwise.
std::string FrameTypeName(std::uint8_t type) {
  if (type >= 0x21 && type <= 0x7e) {
    return std::string(1, static_cast<char>(type));
  }
  return std::to_string(type);
}

}  // namespace

std::size_t BeginFrame(std::uint8_t type, std::string& out) {
  const std::size_t start = out.size();
  PutU32(0, out);  // body length, patched by EndFrame
  out.push_back(static_cast<char>(type));
  return start;
}

void EndFrame(std::size_t start, std::string& out) {
  const std::size_t body_length = out.size() - start - 4;
  if (body_length - 1 > kMaxFramePayload) {
    out.resize(start);
    throw FramingError("EndFrame: payload exceeds kMaxFramePayload");
  }
  for (std::size_t i = 0; i < 4; ++i) {
    out[start + i] = static_cast<char>((body_length >> (8 * i)) & 0xff);
  }
  PutU32(Crc32(std::string_view(out.data() + start + 4, body_length)), out);
}

void AppendFrame(std::uint8_t type, std::string_view payload,
                 std::string& out) {
  if (payload.size() > kMaxFramePayload) {
    throw FramingError("AppendFrame: payload exceeds kMaxFramePayload");
  }
  const std::size_t start = BeginFrame(type, out);
  out.append(payload);
  EndFrame(start, out);
}

void WriteFrame(std::ostream& out, std::uint8_t type,
                std::string_view payload) {
  std::string encoded;
  encoded.reserve(payload.size() + 9);
  AppendFrame(type, payload, encoded);
  out.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
  if (!out) throw std::runtime_error("WriteFrame: write failed");
}

void FrameReader::Feed(std::string_view bytes) {
  // Reclaim consumed prefix before growing, so a long-lived connection
  // never accumulates an unbounded buffer.
  if (pos_ > 0) {
    if (pos_ == buffer_.size()) {
      buffer_.clear();
    } else {
      buffer_.erase(0, pos_);
    }
    pos_ = 0;
  }
  buffer_.append(bytes);
}

std::optional<Frame> FrameReader::Next() {
  const std::size_t available = buffer_.size() - pos_;
  if (available < 4) return std::nullopt;
  const std::uint32_t body_length = GetU32(buffer_.data() + pos_);
  if (body_length == 0) {
    throw FramingError("FrameReader: zero-length frame body");
  }
  if (body_length > kMaxFramePayload + 1) {
    throw FramingError("FrameReader: frame body length " +
                       std::to_string(body_length) + " exceeds cap");
  }
  const std::size_t total = 4 + static_cast<std::size_t>(body_length) + 4;
  if (available < total) return std::nullopt;
  const char* body = buffer_.data() + pos_ + 4;
  const std::uint32_t want_crc = GetU32(body + body_length);
  const std::uint32_t got_crc = Crc32(std::string_view(body, body_length));
  if (want_crc != got_crc) {
    throw FramingError("FrameReader: frame CRC mismatch");
  }
  Frame frame;
  frame.type = static_cast<std::uint8_t>(body[0]);
  frame.payload.assign(body + 1, body_length - 1);
  pos_ += total;
  return frame;
}

Frame ExpectFrame(FrameReader& reader, std::uint8_t type,
                  std::string_view context) {
  std::optional<Frame> frame = reader.Next();
  if (!frame) {
    throw FramingError(std::string(context) +
                       (reader.HasPartial() ? ": truncated inside a frame"
                                            : ": truncated before frame " +
                                                  FrameTypeName(type)));
  }
  if (frame->type != type) {
    throw FramingError(std::string(context) + ": expected frame " +
                       FrameTypeName(type) + ", found " +
                       FrameTypeName(frame->type));
  }
  return std::move(*frame);
}

void WireWriter::U16(std::uint16_t v) {
  out_.push_back(static_cast<char>(v & 0xff));
  out_.push_back(static_cast<char>((v >> 8) & 0xff));
}

void WireWriter::U32(std::uint32_t v) { PutU32(v, out_); }

void WireWriter::U64(std::uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  out_.append(bytes, sizeof(bytes));
}

void WireWriter::F64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void WireWriter::F64s(const double* values, std::size_t n) {
  if constexpr (kDoublesAreLittleEndian) {
    out_.append(reinterpret_cast<const char*>(values), n * sizeof(double));
  } else {
    for (std::size_t i = 0; i < n; ++i) F64(values[i]);
  }
}

void WireWriter::Str(std::string_view s) {
  if (s.size() > 0xffff) {
    throw FramingError("WireWriter::Str: string exceeds u16 length prefix");
  }
  U16(static_cast<std::uint16_t>(s.size()));
  Bytes(s);
}

const char* WireReader::Take(std::size_t n) {
  if (bytes_.size() - pos_ < n) Fail("payload truncated");
  const char* p = bytes_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint8_t WireReader::U8() {
  return static_cast<std::uint8_t>(*Take(1));
}

std::uint16_t WireReader::U16() {
  const char* p = Take(2);
  const auto b = [p](std::size_t i) {
    return static_cast<std::uint16_t>(static_cast<unsigned char>(p[i]));
  };
  return static_cast<std::uint16_t>(b(0) | (b(1) << 8));
}

std::uint32_t WireReader::U32() { return GetU32(Take(4)); }

std::uint64_t WireReader::U64() {
  const char* p = Take(8);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) |
        static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]));
  }
  return v;
}

double WireReader::F64() {
  const std::uint64_t bits = U64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void WireReader::F64s(double* values, std::size_t n) {
  if (n > Remaining() / sizeof(double)) Fail("payload truncated");
  if constexpr (kDoublesAreLittleEndian) {
    std::memcpy(values, Take(n * sizeof(double)), n * sizeof(double));
  } else {
    for (std::size_t i = 0; i < n; ++i) values[i] = F64();
  }
}

std::string_view WireReader::Str() { return Bytes(U16()); }

std::string_view WireReader::Bytes(std::size_t n) {
  return std::string_view(Take(n), n);
}

void WireReader::ExpectEnd() const {
  if (pos_ != bytes_.size()) Fail("trailing payload bytes");
}

void WireReader::Fail(const std::string& what) const {
  throw FramingError(std::string(context_) + ": " + what);
}

}  // namespace pmcorr
