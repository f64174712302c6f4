#include "common/container_file.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/crc32c.h"
#include "common/fail_point.h"

namespace lofkit {
namespace {

using container::kFooterSize;
using container::kHeaderSize;
using container::kMaxSectionName;
using container::kSectionAlignment;
using container::kSectionEntrySize;

constexpr char kHeaderMagic[8] = {'L', 'F', 'K', 'C', 'O', 'N', 'T', '1'};
constexpr char kFooterMagic[8] = {'L', 'F', 'K', 'F', 'O', 'O', 'T', '1'};
constexpr uint32_t kContainerVersion = 1;

// Field-by-field little-endian serialization into a byte buffer, so the
// on-disk layout never depends on host struct padding. The repo targets
// little-endian hosts (the SIMD kernels already assume x86-64), so these
// are memcpys; the helpers keep every offset explicit and auditable.
void PutU32(unsigned char* p, uint32_t v) { std::memcpy(p, &v, 4); }
void PutU64(unsigned char* p, uint64_t v) { std::memcpy(p, &v, 8); }
uint32_t GetU32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t GetU64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Header layout (kHeaderSize = 64):
//   [0,8)   magic "LFKCONT1"
//   [8,12)  container format version
//   [12,16) file type (application id, e.g. materialization)
//   [16,20) file version (application-level payload version)
//   [20,24) section count (0 in the streamed header; authoritative count
//           lives in the footer, written after the sections are known)
//   [24,60) reserved, zero
//   [60,64) CRC-32C of bytes [0,60)
void SerializeHeader(unsigned char (&buf)[kHeaderSize], uint32_t file_type,
                     uint32_t file_version) {
  std::memset(buf, 0, kHeaderSize);
  std::memcpy(buf, kHeaderMagic, 8);
  PutU32(buf + 8, kContainerVersion);
  PutU32(buf + 12, file_type);
  PutU32(buf + 16, file_version);
  PutU32(buf + 20, 0);
  PutU32(buf + 60, Crc32c::Value(buf, 60));
}

// Section-table entry layout (kSectionEntrySize = 48):
//   [0,24)  name, zero-padded
//   [24,32) payload offset
//   [32,40) payload size in bytes
//   [40,44) payload CRC-32C
//   [44,48) reserved, zero
void SerializeEntry(unsigned char* p, const std::string& name,
                    uint64_t offset, uint64_t size, uint32_t crc) {
  std::memset(p, 0, kSectionEntrySize);
  std::memcpy(p, name.data(), std::min(name.size(), kMaxSectionName));
  PutU64(p + 24, offset);
  PutU64(p + 32, size);
  PutU32(p + 40, crc);
}

// Footer layout (kFooterSize = 64, always the file's final bytes):
//   [0,8)   magic "LFKFOOT1"
//   [8,16)  section-table offset
//   [16,24) section-table size in bytes
//   [24,28) section count
//   [28,32) CRC-32C of the serialized section table
//   [32,40) total file size including this footer
//   [40,60) reserved, zero
//   [60,64) CRC-32C of bytes [0,60)
void SerializeFooter(unsigned char (&buf)[kFooterSize], uint64_t table_offset,
                     uint64_t table_size, uint32_t section_count,
                     uint32_t table_crc, uint64_t file_size) {
  std::memset(buf, 0, kFooterSize);
  std::memcpy(buf, kFooterMagic, 8);
  PutU64(buf + 8, table_offset);
  PutU64(buf + 16, table_size);
  PutU32(buf + 24, section_count);
  PutU32(buf + 28, table_crc);
  PutU64(buf + 32, file_size);
  PutU32(buf + 60, Crc32c::Value(buf, 60));
}

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::InvalidArgument("corrupt container '" + path + "': " + what);
}

}  // namespace

// ---------------------------------------------------------------------------
// ContainerWriter
// ---------------------------------------------------------------------------

Result<ContainerWriter> ContainerWriter::Create(const std::string& path,
                                                uint32_t file_type,
                                                uint32_t file_version) {
  ContainerWriter writer;
  writer.final_path_ = path;
  writer.tmp_path_ = path + ".tmp";
  writer.fd_ = ::open(writer.tmp_path_.c_str(),
                      O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (writer.fd_ < 0) {
    return Status::IoError("cannot create '" + writer.tmp_path_ +
                           "': " + std::strerror(errno));
  }
  unsigned char header[kHeaderSize];
  SerializeHeader(header, file_type, file_version);
  LOFKIT_RETURN_IF_ERROR(writer.WriteRaw(header, kHeaderSize));
  return writer;
}

ContainerWriter::ContainerWriter(ContainerWriter&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      final_path_(std::move(other.final_path_)),
      tmp_path_(std::move(other.tmp_path_)),
      offset_(other.offset_),
      sections_(std::move(other.sections_)),
      in_section_(other.in_section_),
      finished_(std::exchange(other.finished_, true)),
      broken_(other.broken_) {
  other.tmp_path_.clear();
}

ContainerWriter& ContainerWriter::operator=(ContainerWriter&& other) noexcept {
  if (this != &other) {
    Abandon();
    fd_ = std::exchange(other.fd_, -1);
    final_path_ = std::move(other.final_path_);
    tmp_path_ = std::move(other.tmp_path_);
    offset_ = other.offset_;
    sections_ = std::move(other.sections_);
    in_section_ = other.in_section_;
    finished_ = std::exchange(other.finished_, true);
    broken_ = other.broken_;
    other.tmp_path_.clear();
  }
  return *this;
}

ContainerWriter::~ContainerWriter() { Abandon(); }

void ContainerWriter::Abandon() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!finished_ && !tmp_path_.empty()) {
    ::unlink(tmp_path_.c_str());
  }
  finished_ = true;
}

Status ContainerWriter::WriteRaw(const void* data, size_t size) {
  LOFKIT_FAIL_POINT("container.write");
  if (fd_ < 0 || broken_) {
    return Status::FailedPrecondition("container writer is spent");
  }
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd_, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      broken_ = true;
      return Status::IoError("write to '" + tmp_path_ +
                             "' failed: " + std::strerror(errno));
    }
    p += n;
    size -= static_cast<size_t>(n);
    offset_ += static_cast<uint64_t>(n);
  }
  return Status::OK();
}

Status ContainerWriter::PadTo(size_t alignment) {
  static const char kZeros[kSectionAlignment] = {};
  const uint64_t rem = offset_ % alignment;
  if (rem == 0) return Status::OK();
  return WriteRaw(kZeros, alignment - rem);
}

Status ContainerWriter::BeginSection(std::string_view name) {
  if (finished_ || broken_) {
    return Status::FailedPrecondition("container writer is spent");
  }
  if (in_section_) {
    return Status::FailedPrecondition(
        "BeginSection while section '" + sections_.back().name +
        "' is still open");
  }
  if (name.empty() || name.size() > kMaxSectionName) {
    return Status::InvalidArgument(
        "container section name must be 1.." +
        std::to_string(kMaxSectionName) + " bytes");
  }
  for (const PendingSection& s : sections_) {
    if (s.name == name) {
      return Status::InvalidArgument("duplicate container section '" +
                                     std::string(name) + "'");
    }
  }
  LOFKIT_RETURN_IF_ERROR(PadTo(kSectionAlignment));
  PendingSection section;
  section.name = std::string(name);
  section.offset = offset_;
  sections_.push_back(std::move(section));
  in_section_ = true;
  return Status::OK();
}

Status ContainerWriter::Append(const void* data, size_t size) {
  if (!in_section_) {
    return Status::FailedPrecondition("Append outside BeginSection");
  }
  LOFKIT_RETURN_IF_ERROR(WriteRaw(data, size));
  PendingSection& section = sections_.back();
  section.size += size;
  section.crc = Crc32c::Extend(section.crc, data, size);
  return Status::OK();
}

Status ContainerWriter::EndSection() {
  if (!in_section_) {
    return Status::FailedPrecondition("EndSection outside BeginSection");
  }
  in_section_ = false;
  return Status::OK();
}

Status ContainerWriter::AddSection(std::string_view name, const void* data,
                                   size_t size) {
  LOFKIT_RETURN_IF_ERROR(BeginSection(name));
  LOFKIT_RETURN_IF_ERROR(Append(data, size));
  return EndSection();
}

Status ContainerWriter::Finish() {
  if (finished_ || broken_) {
    return Status::FailedPrecondition("container writer is spent");
  }
  if (in_section_) {
    return Status::FailedPrecondition("Finish with section '" +
                                      sections_.back().name + "' still open");
  }
  LOFKIT_RETURN_IF_ERROR(PadTo(8));

  std::vector<unsigned char> table(sections_.size() * kSectionEntrySize);
  for (size_t i = 0; i < sections_.size(); ++i) {
    const PendingSection& s = sections_[i];
    SerializeEntry(table.data() + i * kSectionEntrySize, s.name, s.offset,
                   s.size, s.crc);
  }
  const uint64_t table_offset = offset_;
  LOFKIT_RETURN_IF_ERROR(WriteRaw(table.data(), table.size()));

  unsigned char footer[kFooterSize];
  SerializeFooter(footer, table_offset, table.size(),
                  static_cast<uint32_t>(sections_.size()),
                  Crc32c::Value(table.data(), table.size()),
                  offset_ + kFooterSize);
  LOFKIT_RETURN_IF_ERROR(WriteRaw(footer, kFooterSize));

  LOFKIT_FAIL_POINT("container.fsync");
  if (::fsync(fd_) != 0) {
    broken_ = true;
    return Status::IoError("fsync of '" + tmp_path_ +
                           "' failed: " + std::strerror(errno));
  }
  ::close(fd_);
  fd_ = -1;

  LOFKIT_FAIL_POINT("container.rename");
  if (std::rename(tmp_path_.c_str(), final_path_.c_str()) != 0) {
    broken_ = true;
    return Status::IoError("rename '" + tmp_path_ + "' -> '" + final_path_ +
                           "' failed: " + std::strerror(errno));
  }
  finished_ = true;

  // Best-effort directory fsync so the rename itself is durable; failure
  // here cannot tear the file (the data is already safe), so it is not an
  // error the caller can act on.
  const size_t slash = final_path_.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : final_path_.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ContainerReader
// ---------------------------------------------------------------------------

Result<ContainerReader> ContainerReader::Open(const std::string& path) {
  ContainerReader reader;
  reader.path_ = path;
  LOFKIT_ASSIGN_OR_RETURN(reader.file_, MmapFile::Open(path));
  const size_t file_size = reader.file_.size();
  const unsigned char* base =
      reinterpret_cast<const unsigned char*>(reader.file_.data());

  if (file_size < kHeaderSize + kFooterSize) {
    return Corrupt(path, "file is smaller than header + footer (" +
                             std::to_string(file_size) + " bytes)");
  }

  // Footer first: it is the seal that survives only if the file was
  // published completely, so every truncation diagnosis starts here.
  const unsigned char* footer = base + file_size - kFooterSize;
  if (std::memcmp(footer, kFooterMagic, 8) != 0) {
    return Corrupt(path, "bad footer magic (torn or truncated write)");
  }
  if (GetU32(footer + 60) != Crc32c::Value(footer, 60)) {
    return Corrupt(path, "footer checksum mismatch");
  }
  const uint64_t recorded_size = GetU64(footer + 32);
  if (recorded_size != file_size) {
    return Corrupt(path, "footer records " + std::to_string(recorded_size) +
                             " bytes but the file has " +
                             std::to_string(file_size));
  }

  const uint64_t table_offset = GetU64(footer + 8);
  const uint64_t table_size = GetU64(footer + 16);
  const uint32_t section_count = GetU32(footer + 24);
  if (table_size != uint64_t{section_count} * kSectionEntrySize) {
    return Corrupt(path, "section-table size disagrees with section count");
  }
  if (table_offset < kHeaderSize || table_offset > file_size - kFooterSize ||
      table_size > file_size - kFooterSize - table_offset) {
    return Corrupt(path, "section table out of bounds");
  }
  const unsigned char* table = base + table_offset;
  if (GetU32(footer + 28) != Crc32c::Value(table, table_size)) {
    return Corrupt(path, "section-table checksum mismatch");
  }

  if (std::memcmp(base, kHeaderMagic, 8) != 0) {
    return Corrupt(path, "bad header magic");
  }
  if (GetU32(base + 60) != Crc32c::Value(base, 60)) {
    return Corrupt(path, "header checksum mismatch");
  }
  const uint32_t container_version = GetU32(base + 8);
  if (container_version != kContainerVersion) {
    return Corrupt(path, "unsupported container version " +
                             std::to_string(container_version));
  }
  reader.file_type_ = GetU32(base + 12);
  reader.file_version_ = GetU32(base + 16);

  reader.sections_.reserve(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    const unsigned char* entry = table + size_t{i} * kSectionEntrySize;
    SectionInfo info;
    const size_t name_len =
        ::strnlen(reinterpret_cast<const char*>(entry), kMaxSectionName);
    info.name.assign(reinterpret_cast<const char*>(entry), name_len);
    info.offset = GetU64(entry + 24);
    info.size = GetU64(entry + 32);
    info.crc = GetU32(entry + 40);
    if (info.name.empty()) {
      return Corrupt(path, "section " + std::to_string(i) + " has no name");
    }
    if (info.offset < kHeaderSize || info.offset > table_offset ||
        info.size > table_offset - info.offset) {
      return Corrupt(path, "section '" + info.name + "' out of bounds");
    }
    reader.sections_.push_back(std::move(info));
  }
  reader.verified_.assign(reader.sections_.size(), 0);
  return reader;
}

bool ContainerReader::HasSection(std::string_view name) const {
  for (const SectionInfo& s : sections_) {
    if (s.name == name) return true;
  }
  return false;
}

Status ContainerReader::VerifySection(size_t i) const {
  LOFKIT_FAIL_POINT("container.verify");
  const SectionInfo& s = sections_[i];
  if (verified_[i] != 0) return Status::OK();
  const std::byte* payload = file_.data() + s.offset;
  if (Crc32c::Value(payload, s.size) != s.crc) {
    return Corrupt(path_, "section '" + s.name + "' checksum mismatch");
  }
  verified_[i] = 1;
  return Status::OK();
}

Result<std::span<const std::byte>> ContainerReader::Section(
    std::string_view name) const {
  for (size_t i = 0; i < sections_.size(); ++i) {
    if (sections_[i].name != name) continue;
    LOFKIT_RETURN_IF_ERROR(VerifySection(i));
    return std::span<const std::byte>(file_.data() + sections_[i].offset,
                                      sections_[i].size);
  }
  return Status::NotFound("container '" + path_ + "' has no section '" +
                          std::string(name) + "'");
}

Status ContainerReader::VerifyAllSections() const {
  for (size_t i = 0; i < sections_.size(); ++i) {
    LOFKIT_RETURN_IF_ERROR(VerifySection(i));
  }
  return Status::OK();
}

}  // namespace lofkit
