#include "util/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace power {
namespace {

constexpr size_t kHeaderSize = 28;
constexpr size_t kMagicOff = 0;
constexpr size_t kVersionOff = 8;
constexpr size_t kPayloadSizeOff = 12;
constexpr size_t kPayloadCrcOff = 20;
constexpr size_t kHeaderCrcOff = 24;

// CRC-32 (reflected 0xEDB88320) slicing-by-8 tables, built once per
// process. kCrc[0] is the bytewise table; kCrc[k][b] is the CRC register
// after byte b is followed by k zero bytes, so one step folds eight bytes.
struct CrcTables {
  uint32_t t[8][256];
  CrcTables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
  }
};

const CrcTables& Crc() {
  static const CrcTables tables;
  return tables;
}

// Four bytes as a little-endian word, whatever the host's byte order.
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

void PutU32(std::string* buf, size_t off, uint32_t v) {
  std::memcpy(buf->data() + off, &v, sizeof(v));
}

void PutU64(std::string* buf, size_t off, uint64_t v) {
  std::memcpy(buf->data() + off, &v, sizeof(v));
}

uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::string DirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

bool FsyncPath(const std::string& path, int flags) {
  int fd = ::open(path.c_str(), flags);
  if (fd < 0) return false;
  bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const auto& t = Crc().t;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  // Slicing-by-8: the same reflected polynomial, eight bytes per step.
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void SnapshotWriter::Raw(const void* p, size_t n) {
  buf_.append(static_cast<const char*>(p), n);
}

void SnapshotWriter::U8(uint8_t v) { Raw(&v, sizeof(v)); }
void SnapshotWriter::U32(uint32_t v) { Raw(&v, sizeof(v)); }
void SnapshotWriter::U64(uint64_t v) { Raw(&v, sizeof(v)); }
void SnapshotWriter::F64(double v) { Raw(&v, sizeof(v)); }

void SnapshotWriter::Str(std::string_view s) {
  U64(s.size());
  Raw(s.data(), s.size());
}

void SnapshotWriter::VecU8(const std::vector<uint8_t>& v) {
  U64(v.size());
  if (!v.empty()) Raw(v.data(), v.size());
}

void SnapshotWriter::VecI32(const std::vector<int>& v) {
  U64(v.size());
  for (int x : v) I32(x);
}

bool SnapshotReader::Take(size_t n, const char** out) {
  if (!ok_ || n > data_.size() - pos_) {
    ok_ = false;
    return false;
  }
  *out = data_.data() + pos_;
  pos_ += n;
  return true;
}

uint8_t SnapshotReader::U8() {
  const char* p;
  if (!Take(1, &p)) return 0;
  return static_cast<uint8_t>(*p);
}

uint32_t SnapshotReader::U32() {
  const char* p;
  if (!Take(4, &p)) return 0;
  return GetU32(p);
}

uint64_t SnapshotReader::U64() {
  const char* p;
  if (!Take(8, &p)) return 0;
  return GetU64(p);
}

double SnapshotReader::F64() {
  const char* p;
  if (!Take(8, &p)) return 0.0;
  double v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::string SnapshotReader::Str() {
  uint64_t n = U64();
  const char* p;
  // A corrupted length prefix larger than the remaining bytes must fail
  // cleanly, not allocate gigabytes: Take() bounds-checks before any copy.
  if (!ok_ || !Take(static_cast<size_t>(n), &p)) return {};
  return std::string(p, static_cast<size_t>(n));
}

std::vector<uint8_t> SnapshotReader::VecU8() {
  uint64_t n = U64();
  const char* p;
  if (!ok_ || !Take(static_cast<size_t>(n), &p)) return {};
  std::vector<uint8_t> out(n);
  if (n > 0) std::memcpy(out.data(), p, static_cast<size_t>(n));
  return out;
}

std::vector<int> SnapshotReader::VecI32() {
  uint64_t n = U64();
  if (!ok_ || n > (data_.size() - pos_) / 4) {
    ok_ = false;
    return {};
  }
  std::vector<int> out;
  out.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) out.push_back(I32());
  return out;
}

const char* SnapshotStatusName(SnapshotStatus s) {
  switch (s) {
    case SnapshotStatus::kOk:
      return "ok";
    case SnapshotStatus::kNotFound:
      return "not-found";
    case SnapshotStatus::kIoError:
      return "io-error";
    case SnapshotStatus::kTruncated:
      return "truncated";
    case SnapshotStatus::kBadHeader:
      return "bad-header";
    case SnapshotStatus::kBadMagic:
      return "bad-magic";
    case SnapshotStatus::kBadVersion:
      return "bad-version";
    case SnapshotStatus::kBadChecksum:
      return "bad-checksum";
  }
  return "?";
}

SnapshotStatus ReadSnapshotFile(const std::string& path, uint64_t magic,
                                uint32_t min_version, uint32_t max_version,
                                SnapshotFile* out) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return errno == ENOENT ? SnapshotStatus::kNotFound
                           : SnapshotStatus::kIoError;
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return SnapshotStatus::kIoError;
  }
  std::string bytes(static_cast<size_t>(st.st_size), '\0');
  size_t got = 0;
  while (got < bytes.size()) {
    ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      return SnapshotStatus::kIoError;
    }
    got += static_cast<size_t>(n);
  }
  ::close(fd);

  if (bytes.size() < kHeaderSize) return SnapshotStatus::kTruncated;
  // Header CRC first: a flipped bit in payload_size must not be trusted.
  uint32_t header_crc = GetU32(bytes.data() + kHeaderCrcOff);
  if (Crc32(bytes.data(), kHeaderCrcOff) != header_crc) {
    return SnapshotStatus::kBadHeader;
  }
  if (GetU64(bytes.data() + kMagicOff) != magic) {
    return SnapshotStatus::kBadMagic;
  }
  uint64_t payload_size = GetU64(bytes.data() + kPayloadSizeOff);
  if (bytes.size() != kHeaderSize + payload_size) {
    return SnapshotStatus::kTruncated;
  }
  uint32_t payload_crc = GetU32(bytes.data() + kPayloadCrcOff);
  if (Crc32(bytes.data() + kHeaderSize, payload_size) != payload_crc) {
    return SnapshotStatus::kBadChecksum;
  }
  uint32_t version = GetU32(bytes.data() + kVersionOff);
  if (version < min_version || version > max_version) {
    return SnapshotStatus::kBadVersion;
  }
  out->version = version;
  out->payload.assign(bytes, kHeaderSize, payload_size);
  return SnapshotStatus::kOk;
}

SnapshotStatus WriteSnapshotFile(const std::string& path, uint64_t magic,
                                 uint32_t version, std::string_view payload) {
  std::string bytes(kHeaderSize, '\0');
  PutU64(&bytes, kMagicOff, magic);
  PutU32(&bytes, kVersionOff, version);
  PutU64(&bytes, kPayloadSizeOff, payload.size());
  PutU32(&bytes, kPayloadCrcOff, Crc32(payload.data(), payload.size()));
  PutU32(&bytes, kHeaderCrcOff, Crc32(bytes.data(), kHeaderCrcOff));
  bytes.append(payload);

  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) return SnapshotStatus::kIoError;
  size_t put = 0;
  while (put < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + put, bytes.size() - put);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return SnapshotStatus::kIoError;
    }
    put += static_cast<size_t>(n);
  }
  // Flush before rename: the rename must never make durable a name that
  // points at data still in the page cache only. fdatasync suffices — it
  // persists the data and the metadata needed to reach it (file size
  // included); what it skips (timestamps) the loader never consults — and
  // it is measurably cheaper per commit on ext4 than a full fsync.
  if (::fdatasync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return SnapshotStatus::kIoError;
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return SnapshotStatus::kIoError;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return SnapshotStatus::kIoError;
  }
  // Persist the rename itself (the directory entry).
  if (!FsyncPath(DirOf(path), O_RDONLY | O_DIRECTORY | O_CLOEXEC)) {
    return SnapshotStatus::kIoError;
  }
  return SnapshotStatus::kOk;
}

SnapshotStatus CommitSnapshotWithRotation(const std::string& path,
                                          uint64_t magic, uint32_t version,
                                          std::string_view payload) {
  // Rotate the current generation (if any) to .prev first. A crash between
  // the rotation and the write below leaves only .prev — which the fallback
  // loader finds. rename() is atomic, so no window shows a torn file.
  if (::access(path.c_str(), F_OK) == 0) {
    const std::string prev = path + ".prev";
    if (::rename(path.c_str(), prev.c_str()) != 0) {
      return SnapshotStatus::kIoError;
    }
  }
  return WriteSnapshotFile(path, magic, version, payload);
}

LoadedSnapshot LoadSnapshotWithFallback(const std::string& path,
                                        uint64_t magic, uint32_t min_version,
                                        uint32_t max_version) {
  LoadedSnapshot out;
  out.current_status =
      ReadSnapshotFile(path, magic, min_version, max_version, &out.file);
  out.status = out.current_status;
  out.generation = 0;
  if (out.status == SnapshotStatus::kOk) return out;

  const std::string prev = path + ".prev";
  if (out.current_status != SnapshotStatus::kNotFound) {
    std::fprintf(stderr,
                 "power: snapshot %s is unusable (%s); falling back to the "
                 "previous generation %s\n",
                 path.c_str(), SnapshotStatusName(out.current_status),
                 prev.c_str());
  }
  SnapshotStatus prev_status =
      ReadSnapshotFile(prev, magic, min_version, max_version, &out.file);
  if (prev_status == SnapshotStatus::kOk) {
    out.status = SnapshotStatus::kOk;
    out.generation = 1;
    std::fprintf(stderr,
                 "power: resuming from previous-generation snapshot %s\n",
                 prev.c_str());
    return out;
  }
  if (out.current_status != SnapshotStatus::kNotFound ||
      prev_status != SnapshotStatus::kNotFound) {
    std::fprintf(stderr,
                 "power: no usable snapshot at %s (current: %s, previous: "
                 "%s); starting clean\n",
                 path.c_str(), SnapshotStatusName(out.current_status),
                 SnapshotStatusName(prev_status));
  }
  // Keep the more informative of the two failure statuses.
  if (out.current_status == SnapshotStatus::kNotFound) {
    out.status = prev_status;
  }
  return out;
}

}  // namespace power
