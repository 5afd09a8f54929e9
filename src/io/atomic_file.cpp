#include "io/atomic_file.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

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

}  // namespace

std::uint32_t Crc32(std::string_view bytes) {
  const auto& t = kCrc32.t;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = LoadLe32(p) ^ crc;
    const std::uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xffu];
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace pmcorr
