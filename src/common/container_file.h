#ifndef LOFKIT_COMMON_CONTAINER_FILE_H_
#define LOFKIT_COMMON_CONTAINER_FILE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/mmap_file.h"
#include "common/result.h"
#include "common/status.h"

namespace lofkit {

/// Versioned single-file container format — the durable artifact behind
/// `NeighborhoodMaterializer::SaveToFile` (ROADMAP item 3; the paper's step
/// 2 runs entirely from the file-resident materialization M, so M's file
/// deserves a real format).
///
/// Layout (all integers little-endian, serialized field by field — no
/// struct dumps, so the format is independent of compiler padding):
///
///     [ header   | 64 bytes, CRC-sealed                    ]
///     [ section payloads, each start aligned to 64 bytes   ]
///     [ section table | 48 bytes per section, CRC'd        ]
///     [ footer   | final 64 bytes of the file, CRC-sealed  ]
///
/// Integrity model:
///  - The footer is always the last 64 bytes and records the total file
///    size, so truncation at *any* byte is detected: either the file is
///    too short to hold header + footer, or the bytes now at the tail
///    fail the footer magic/CRC, or the recorded size disagrees with the
///    actual size.
///  - The footer CRC seals the section-table location; the table CRC
///    seals every section's {name, offset, size, payload CRC}; each
///    payload CRC (CRC-32C, crc32c.h) seals the payload bytes. A single
///    flipped bit anywhere is caught by exactly one of these seals.
///  - Writers produce the file at `path + ".tmp"` and publish it with
///    fsync + atomic rename, so a crash mid-save can never leave a torn
///    file at the final path — the old file (or no file) survives.
///
/// Error taxonomy: OS-level failures (open/write/fsync/rename/mmap) are
/// kIoError; malformed or corrupt content (bad magic, bad CRC, truncation,
/// out-of-bounds section) is kInvalidArgument with a "corrupt container"
/// message. Fail points "container.write", "container.fsync",
/// "container.rename", "container.mmap", and "container.verify" cover
/// every I/O boundary for the fault matrix.
namespace container {

/// Size of the fixed file header (sealed by its trailing CRC).
inline constexpr size_t kHeaderSize = 64;

/// Size of one serialized section-table entry.
inline constexpr size_t kSectionEntrySize = 48;

/// Size of the fixed file footer (the file's final bytes).
inline constexpr size_t kFooterSize = 64;

/// Section payload starts are aligned to this many bytes so mmap'ed
/// payloads can be served as typed arrays (16-byte Neighbor records,
/// 8-byte offsets) without misalignment.
inline constexpr size_t kSectionAlignment = 64;

/// Longest section name the table can record.
inline constexpr size_t kMaxSectionName = 24;

}  // namespace container

/// Streams one container file to disk crash-safely.
///
/// Usage:
///
///     LOFKIT_ASSIGN_OR_RETURN(auto writer,
///                             ContainerWriter::Create(path, type, ver));
///     LOFKIT_RETURN_IF_ERROR(writer.AddSection("meta", bytes, n));
///     LOFKIT_RETURN_IF_ERROR(writer.BeginSection("neighbors"));
///     LOFKIT_RETURN_IF_ERROR(writer.Append(chunk, chunk_bytes));  // repeat
///     LOFKIT_RETURN_IF_ERROR(writer.EndSection());
///     LOFKIT_RETURN_IF_ERROR(writer.Finish());  // fsync + atomic rename
///
/// Everything is written to `path + ".tmp"`; only Finish publishes the
/// final path. Destroying an unfinished writer (or any mid-write error)
/// abandons and unlinks the tmp file, leaving whatever was previously at
/// `path` untouched. Section checksums are extended incrementally per
/// Append, so a spill build can stream gigabytes without buffering them.
///
/// Move-only; not thread-safe (one writer per file).
class ContainerWriter {
 public:
  /// Opens `path + ".tmp"` for writing and writes the container header.
  static Result<ContainerWriter> Create(const std::string& path,
                                        uint32_t file_type,
                                        uint32_t file_version);

  ContainerWriter(ContainerWriter&& other) noexcept;
  ContainerWriter& operator=(ContainerWriter&& other) noexcept;
  ContainerWriter(const ContainerWriter&) = delete;
  ContainerWriter& operator=(const ContainerWriter&) = delete;
  ~ContainerWriter();

  /// Starts a streamed section. `name` must be non-empty, at most
  /// kMaxSectionName bytes, and unique within the file.
  Status BeginSection(std::string_view name);

  /// Appends payload bytes to the section opened by BeginSection.
  Status Append(const void* data, size_t size);

  /// Seals the streamed section (records its size and CRC in the table).
  Status EndSection();

  /// Convenience: BeginSection + Append + EndSection.
  Status AddSection(std::string_view name, const void* data, size_t size);

  /// Writes the section table and footer, fsyncs, and atomically renames
  /// the tmp file onto `path`. After Finish (success or failure) the
  /// writer is spent. On failure the tmp file is removed and the previous
  /// contents of `path`, if any, are untouched.
  Status Finish();

  /// Closes and unlinks the tmp file without publishing. Idempotent; the
  /// destructor calls this for unfinished writers.
  void Abandon();

  /// Bytes written so far (header + payloads + padding).
  uint64_t bytes_written() const { return offset_; }

 private:
  ContainerWriter() = default;

  Status WriteRaw(const void* data, size_t size);
  Status PadTo(size_t alignment);

  struct PendingSection {
    std::string name;
    uint64_t offset = 0;
    uint64_t size = 0;
    uint32_t crc = 0;
  };

  int fd_ = -1;
  std::string final_path_;
  std::string tmp_path_;
  uint64_t offset_ = 0;
  std::vector<PendingSection> sections_;
  bool in_section_ = false;
  bool finished_ = false;
  bool broken_ = false;
};

/// Memory-mapped read side of the container format.
///
/// Open validates the structural seals (header, footer, section table);
/// payload checksums are verified lazily on first Section() access and
/// cached, so a huge mmap'ed section costs one sequential pass over its
/// pages the first time it is served and nothing afterwards. Returned
/// spans point into the mapping and stay valid for the reader's lifetime
/// (payload starts are kSectionAlignment-aligned, so they can be
/// reinterpreted as arrays of 8/16-byte records).
///
/// Move-only. Lazy verification mutates a per-section cache, so concurrent
/// first accesses from multiple threads are not supported — verify from
/// one thread (or call VerifyAllSections once) before sharing.
class ContainerReader {
 public:
  /// Maps `path` and validates header, footer, and section table.
  static Result<ContainerReader> Open(const std::string& path);

  ContainerReader(ContainerReader&&) noexcept = default;
  ContainerReader& operator=(ContainerReader&&) noexcept = default;
  ContainerReader(const ContainerReader&) = delete;
  ContainerReader& operator=(const ContainerReader&) = delete;
  ~ContainerReader() = default;

  uint32_t file_type() const { return file_type_; }
  uint32_t file_version() const { return file_version_; }
  size_t section_count() const { return sections_.size(); }

  bool HasSection(std::string_view name) const;

  /// Returns the payload of section `name`, verifying its CRC on first
  /// access. kNotFound when absent; kInvalidArgument on checksum mismatch.
  Result<std::span<const std::byte>> Section(std::string_view name) const;

  /// Verifies every section's checksum now (one sequential pass).
  Status VerifyAllSections() const;

 private:
  ContainerReader() = default;

  Status VerifySection(size_t i) const;

  struct SectionInfo {
    std::string name;
    uint64_t offset = 0;
    uint64_t size = 0;
    uint32_t crc = 0;
  };

  MmapFile file_;
  std::string path_;
  std::vector<SectionInfo> sections_;
  mutable std::vector<uint8_t> verified_;
  uint32_t file_type_ = 0;
  uint32_t file_version_ = 0;
};

}  // namespace lofkit

#endif  // LOFKIT_COMMON_CONTAINER_FILE_H_
