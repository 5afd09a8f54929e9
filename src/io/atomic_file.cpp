#include "io/atomic_file.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#if defined(__unix__) || defined(__APPLE__)
#define PMCORR_HAVE_POSIX_IO 1
#include <fcntl.h>
#include <unistd.h>
#else
#define PMCORR_HAVE_POSIX_IO 0
#include <fstream>
#endif

namespace pmcorr {
namespace {

WriteFaultHook g_write_fault_hook;

void AtStage(const std::string& path, WriteStage stage) {
  if (g_write_fault_hook) g_write_fault_hook(path, stage);
}

std::string DirectoryOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

#if PMCORR_HAVE_POSIX_IO
bool WriteAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t put = ::write(fd, bytes.data(), bytes.size());
    if (put < 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(put));
  }
  return true;
}

// POSIX writer: explicit fds so fsync is possible. Returns false with
// `error` set instead of throwing so the caller can clean up the temp
// file on every failure path uniformly.
bool WriteAllPosix(const std::string& temp, std::string_view content,
                   std::string& error) {
  const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    error = "cannot create temp file " + temp;
    return false;
  }
  // Visit every chunk's write point first, then write the content with
  // as few write() calls as the kernel takes: a simulated crash at chunk
  // k writes exactly the k chunks before it — the truncated temp file a
  // crash between two chunk writes leaves — and a clean save pays no
  // system call per chunk.
  std::size_t reached = 0;
  try {
    for (; reached < content.size(); reached += kWriteChunkBytes) {
      AtStage(temp, WriteStage::kWrite);
    }
  } catch (...) {
    WriteAll(fd, content.substr(0, reached));
    ::close(fd);
    throw;  // simulated crash: temp file stays truncated at `reached`
  }
  if (!WriteAll(fd, content)) {
    ::close(fd);
    error = "write failed on " + temp;
    return false;
  }
  try {
    AtStage(temp, WriteStage::kSync);
  } catch (...) {
    ::close(fd);
    throw;
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    error = "fsync failed on " + temp;
    return false;
  }
  if (::close(fd) != 0) {
    error = "close failed on " + temp;
    return false;
  }
  return true;
}

void SyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;  // durability best-effort; rename already happened
  ::fsync(fd);
  ::close(fd);
}
#else
bool WriteAllPosix(const std::string& temp, std::string_view content,
                   std::string& error) {
  std::ofstream out(temp, std::ios::binary);
  if (!out) {
    error = "cannot create temp file " + temp;
    return false;
  }
  std::size_t offset = 0;
  while (offset < content.size()) {
    const std::size_t chunk =
        std::min(kWriteChunkBytes, content.size() - offset);
    AtStage(temp, WriteStage::kWrite);  // may throw; ofstream closes itself
    out.write(content.data() + offset, static_cast<std::streamsize>(chunk));
    offset += chunk;
  }
  AtStage(temp, WriteStage::kSync);
  out.flush();
  out.close();
  if (!out) {
    error = "write failed on " + temp;
    return false;
  }
  return true;
}

void SyncDirectory(const std::string&) {}
#endif

}  // namespace

const char* WriteStageName(WriteStage stage) {
  switch (stage) {
    case WriteStage::kOpen: return "open";
    case WriteStage::kWrite: return "write";
    case WriteStage::kSync: return "sync";
    case WriteStage::kRename: return "rename";
    case WriteStage::kDirSync: return "dirsync";
  }
  return "unknown";
}

WriteFaultHook SetWriteFaultHookForTest(WriteFaultHook hook) {
  WriteFaultHook previous = std::move(g_write_fault_hook);
  g_write_fault_hook = std::move(hook);
  return previous;
}

ScopedWriteFault::ScopedWriteFault(long long fail_at) : fail_at_(fail_at) {
  previous_ = SetWriteFaultHookForTest(
      [this](const std::string& path, WriteStage stage) {
        const long long point = seen_++;
        if (fail_at_ >= 0 && point == fail_at_) {
          fired_ = true;
          throw InjectedIoFailure("injected I/O failure at write point " +
                                  std::to_string(point) + " (" +
                                  WriteStageName(stage) + " of " + path + ")");
        }
      });
}

ScopedWriteFault::~ScopedWriteFault() {
  SetWriteFaultHookForTest(std::move(previous_));
}

void AtomicWriteFile(const std::string& path,
                     const std::function<void(std::ostream&)>& writer) {
  std::ostringstream buffer;
  writer(buffer);
  if (!buffer) {
    throw std::runtime_error("AtomicWriteFile: writer failed for " + path);
  }
  AtomicWriteFile(path, buffer.view());
}

void AtomicWriteFile(const std::string& path, std::string_view content) {
  const std::string temp = path + ".tmp";
  AtStage(temp, WriteStage::kOpen);
  std::string error;
  // A hook throwing inside WriteAllPosix is a simulated crash mid-write:
  // it propagates and leaves the truncated temp file exactly as a real
  // crash would — recovery must cope with it.
  const bool ok = WriteAllPosix(temp, content, error);
  if (!ok) {
    std::remove(temp.c_str());
    throw std::runtime_error("AtomicWriteFile: " + error);
  }
  try {
    AtStage(temp, WriteStage::kRename);
  } catch (...) {
    std::remove(temp.c_str());
    throw;
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    throw std::runtime_error("AtomicWriteFile: rename to " + path +
                             " failed");
  }
  AtStage(path, WriteStage::kDirSync);
  SyncDirectory(DirectoryOf(path));
}

namespace {

// Slice-by-8 tables for the reflected polynomial 0xEDB88320. Table 0 is
// the classic byte-at-a-time table; table k advances a byte through k
// further zero bytes, so eight input bytes fold into the CRC with eight
// independent lookups per step.
struct Crc32Tables {
  std::uint32_t t[8][256] = {};

  constexpr Crc32Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
      }
      t[0][i] = crc;
    }
    for (int k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
      }
    }
  }
};

constexpr Crc32Tables kCrc32;

std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

// Advances the running (pre-inverted) CRC state over `n` bytes.
std::uint32_t Slice8Update(std::uint32_t crc, const unsigned char* p,
                           std::size_t n) {
  const auto& t = kCrc32.t;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = LoadLe32(p) ^ crc;
    const std::uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xffu];
  return crc;
}

#if defined(__x86_64__) && defined(__GNUC__)
__attribute__((target("pclmul,sse4.1"))) inline __m128i Load128(
    const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// x moved 128 (k3, k4) or 512 (k1, k2) bits ahead, plus `next`.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold128(
    __m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009), in the
// bit-reflected domain of 0xEDB88320. Four 128-bit lanes each fold 64
// bytes ahead per step (k1 = x^(4*128+32) mod P, k2 = x^(4*128-32) mod
// P, reflected); the lanes then fold into one (k3, k4: 128 bits ahead),
// which takes any remaining 16-byte blocks, is reduced to 64 bits and
// then 32 (k5), and a Barrett reduction (P' and u = floor(x^64 / P))
// leaves the CRC state. `n` is a multiple of 16, at least 64.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t ClmulFold(
    std::uint32_t crc, const unsigned char* p, std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x1 = Fold128(x1, k1k2, Load128(p));
    x2 = Fold128(x2, k1k2, Load128(p + 16));
    x3 = Fold128(x3, k1k2, Load128(p + 32));
    x4 = Fold128(x4, k1k2, Load128(p + 48));
  }
  x1 = Fold128(x1, k3k4, x2);
  x1 = Fold128(x1, k3k4, x3);
  x1 = Fold128(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = Fold128(x1, k3k4, Load128(p));

  // 128 -> 64 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  // 64 -> 32 bits.
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
      _mm_srli_si128(x1, 4));
  // Barrett reduction.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

bool ProbeClmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}
#else
std::uint32_t ClmulFold(std::uint32_t crc, const unsigned char* p,
                        std::size_t n) {
  return Slice8Update(crc, p, n);
}

bool ProbeClmul() { return false; }
#endif

}  // namespace

std::uint32_t Crc32Slice8(std::string_view bytes) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  return Slice8Update(0xFFFFFFFFu, p, bytes.size()) ^ 0xFFFFFFFFu;
}

std::uint32_t Crc32Clmul(std::string_view bytes) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  std::uint32_t crc = 0xFFFFFFFFu;
  if (n >= 64) {
    const std::size_t blocks = n & ~std::size_t{15};
    crc = ClmulFold(crc, p, blocks);
    p += blocks;
    n -= blocks;
  }
  return Slice8Update(crc, p, n) ^ 0xFFFFFFFFu;
}

bool Crc32ClmulSupported() {
  static const bool supported = ProbeClmul();
  return supported;
}

std::uint32_t Crc32(std::string_view bytes) {
  static const auto kernel = Crc32ClmulSupported() ? Crc32Clmul : Crc32Slice8;
  return kernel(bytes);
}

}  // namespace pmcorr
