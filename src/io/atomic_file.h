// Crash-safe file replacement: write-to-temp + fsync + atomic rename.
//
// Every on-disk artifact this library writes (model files, monitor
// checkpoints, trace CSVs, reports) used to be an in-place
// std::ofstream overwrite — a crash or full disk mid-write destroyed
// the previous good copy along with the new one. AtomicWriteFile is the
// single write path that fixes that everywhere: the destination either
// keeps its previous bytes or holds the complete new content, never a
// torn mix.
//
// The write sequence is instrumented at every point a real crash can
// land (the "write points"), and a test hook can simulate a crash at
// any of them — that is how the checkpoint crash-recovery suite proves
// the rotation logic (io/monitor_io.h) survives a kill at every stage,
// including mid-write truncation of the temp file.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace pmcorr {

/// Thrown by an installed write-fault hook to simulate a crash or I/O
/// failure at a specific write point. Derives from runtime_error so
/// callers that already handle I/O failure handle injection for free.
class InjectedIoFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The instrumented stages of one AtomicWriteFile call, in order. kWrite
/// is visited once per payload chunk (kWriteChunkBytes), so a hook that
/// throws on the Nth kWrite leaves a mid-write truncated temp file —
/// exactly what a power cut produces.
enum class WriteStage : std::uint8_t {
  kOpen,     // before creating the temp file
  kWrite,    // before each payload chunk lands in the temp file
  kSync,     // after the payload, before fsync(temp)
  kRename,   // after fsync, before rename(temp -> destination)
  kDirSync,  // after rename, before fsync(directory)
};

const char* WriteStageName(WriteStage stage);

/// Payload chunk size between kWrite hook visits.
inline constexpr std::size_t kWriteChunkBytes = 4096;

/// Test hook consulted at every write point of every AtomicWriteFile
/// call (process-wide; not for concurrent writers). Throwing aborts the
/// write at that point, leaving whatever a crash there would leave.
using WriteFaultHook = std::function<void(const std::string& path,
                                          WriteStage stage)>;

/// Installs `hook` (empty = none) and returns the previous one.
WriteFaultHook SetWriteFaultHookForTest(WriteFaultHook hook);

/// RAII hook installer. The canonical crash simulator counts write
/// points and throws InjectedIoFailure at the chosen one:
///
///   ScopedWriteFault crash(kill_point);        // 0-based write point
///   try { SaveMonitorCheckpoint(m, path); } catch (...) {}
///   // disk now looks exactly as if the process died there
///   crash.Disarm();
///   auto recovered = LoadSystemMonitor(path);  // last-good generation
class ScopedWriteFault {
 public:
  /// Arms a fault at 0-based write point `fail_at` (counted across all
  /// stages of all calls while armed); pass a negative value to only
  /// count points without failing.
  explicit ScopedWriteFault(long long fail_at);
  ~ScopedWriteFault();
  ScopedWriteFault(const ScopedWriteFault&) = delete;
  ScopedWriteFault& operator=(const ScopedWriteFault&) = delete;

  /// Write points seen so far (use with fail_at < 0 to enumerate the
  /// kill points of a write path before sweeping them).
  long long Seen() const { return seen_; }

  /// True once the armed fault has fired.
  bool Fired() const { return fired_; }

  /// Stops injecting (subsequent writes run clean, still counted).
  void Disarm() { fail_at_ = -1; }

 private:
  long long fail_at_;
  long long seen_ = 0;
  bool fired_ = false;
  WriteFaultHook previous_;
};

/// Atomically replaces `path` with the bytes `writer` produces:
/// temp file in the same directory -> fsync -> rename(temp, path) ->
/// fsync(directory). On any failure (including injected ones) the
/// destination is untouched; the temp file is removed best-effort.
/// Throws std::runtime_error (or the writer's/hook's exception).
void AtomicWriteFile(const std::string& path,
                     const std::function<void(std::ostream&)>& writer);

/// Convenience overload for pre-rendered content.
void AtomicWriteFile(const std::string& path, std::string_view content);

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes` —
/// the per-frame check of io/framing.h, so it runs on every serve socket
/// frame, every binary delta frame and every checkpoint and model-file
/// frame. Table-driven slice-by-8 (eight 1 KiB tables built at compile
/// time), giving the values of the bitwise definition.
std::uint32_t Crc32(std::string_view bytes);

}  // namespace pmcorr
