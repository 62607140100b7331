#include "common/file_io.h"

#include <cstdio>

namespace uldp {

Status WriteFileAtomic(const std::string& path, const void* data,
                       size_t size, const std::string& what) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open " + what + " file " + tmp);
  }
  const size_t wrote = size == 0 ? 0 : std::fwrite(data, 1, size, f);
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (wrote != size || !flushed || !closed) {
    std::remove(tmp.c_str());
    return Status::Internal("short write to " + what + " file " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename " + what + " file " + tmp +
                            " to " + path);
  }
  return Status::Ok();
}

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path,
                                           const std::string& what) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("no " + what + " at " + path);
  std::vector<uint8_t> bytes;
  uint8_t buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + got);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::Internal("error reading " + what + " " + path);
  }
  return bytes;
}

}  // namespace uldp
