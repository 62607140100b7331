// Whole-file reads and crash-safe whole-file writes, shared by every file
// the program writes (session checkpoints, transcripts, metrics snapshots
// and traces).

#ifndef ULDP_COMMON_FILE_IO_H_
#define ULDP_COMMON_FILE_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace uldp {

/// Writes `size` bytes at `data` to `path` atomically: they go to
/// `path`.tmp, which is flushed, closed and renamed over `path`, so a
/// crash mid-write leaves the previous file intact. The tmp file is
/// removed on any failure. `what` names the kind of file in errors (e.g.
/// "session checkpoint").
Status WriteFileAtomic(const std::string& path, const void* data,
                       size_t size, const std::string& what);

/// Reads all of `path`; NotFound when it cannot be opened. `what` names
/// the kind of file in errors.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path,
                                           const std::string& what);

}  // namespace uldp

#endif  // ULDP_COMMON_FILE_IO_H_
