#include "common/csv.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>

#include "common/fail_point.h"
#include "common/string_util.h"

namespace lofkit {
namespace {

// True when from_chars' `value` needs no second opinion from strtod: zero,
// or finite and above DBL_MIN in magnitude. from_chars accepts subnormals,
// which glibc's strtod reports as out of range (ERANGE), and inf/nan, which
// stay strtod's. DBL_MIN itself goes to strtod too: a value just below it
// rounds up to DBL_MIN, and glibc's strtod still flags that ERANGE.
bool FastValueOk(double value) {
  return value == 0.0 || (std::isfinite(value) &&
                          std::fabs(value) > std::numeric_limits<double>::min());
}

// std::from_chars over the field. It declines (returns false) unless it
// takes the whole field as a FastValueOk value; the caller then asks
// ParseDouble (strtod), which trims the field and also takes what from_chars
// rejects: a leading '+' and hex floats. Where from_chars does accept, it
// rounds correctly, as glibc's strtod does, so the two give the same bits.
bool ParseFieldFast(std::string_view field, double* value) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, *value);
  return ec == std::errc() && ptr == end && FastValueOk(*value);
}

Status FieldCountError(size_t line_number, size_t fields, size_t expected) {
  return Status::InvalidArgument(StrFormat(
      "line %zu has %zu fields, expected %zu", line_number, fields, expected));
}

// Parses the data row `line` (trimmed, non-empty) onto `values`. `expected`
// is the required field count, 0 for the first data row. Each field is cut
// at the next separator and goes to ParseFieldFast, then ParseDouble. As in
// the getline/Split parser this replaced, a wrong field count is reported
// ahead of any bad field in the row.
Status ScanRow(std::string_view line, size_t line_number, size_t expected,
               char separator, std::vector<double>* values) {
  const char* p = line.data();
  const char* const line_end = p + line.size();
  size_t fields = 0;
  for (;;) {
    ++fields;
    const char* sep = static_cast<const char*>(
        std::memchr(p, separator, static_cast<size_t>(line_end - p)));
    const char* field_end = sep != nullptr ? sep : line_end;
    const std::string_view field(p, static_cast<size_t>(field_end - p));
    double value;
    if (!ParseFieldFast(field, &value)) {
      Result<double> slow = ParseDouble(field);
      if (!slow.ok()) {
        const size_t total = static_cast<size_t>(std::count(
                                 line.begin(), line.end(), separator)) + 1;
        if (expected != 0 && total != expected) {
          return FieldCountError(line_number, total, expected);
        }
        return Status::InvalidArgument(StrFormat(
            "line %zu: %s", line_number, slow.status().message().c_str()));
      }
      value = *slow;
    }
    values->push_back(value);
    if (field_end == line_end) break;
    p = field_end + 1;
  }
  if (expected != 0 && fields != expected) {
    return FieldCountError(line_number, fields, expected);
  }
  return Status::OK();
}

// The bytes of a whole file.
struct FileBytes {
  std::string_view view() const { return {data.get(), size}; }

  std::unique_ptr<char[]> data;
  size_t size = 0;
};

// Reads the whole of `path` with read(2). A regular file's buffer is sized
// from fstat, one byte over so that end of file shows in the same buffer;
// anything else (a pipe, a /proc file that fstat sizes as 0) starts at
// 64 KiB. The buffer doubles whenever it fills, so a file that grows while
// it is read is read whole, and one that shrinks reads as what is left.
Status ReadWholeFile(const std::string& path, FileBytes* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open file: " + path);
  size_t capacity = size_t{1} << 16;
  struct stat st;
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    capacity = static_cast<size_t>(st.st_size) + 1;
  }
  out->data = std::make_unique_for_overwrite<char[]>(capacity);
  for (;;) {
    if (out->size == capacity) {
      auto grown = std::make_unique_for_overwrite<char[]>(2 * capacity);
      std::memcpy(grown.get(), out->data.get(), out->size);
      out->data = std::move(grown);
      capacity *= 2;
    }
    const ssize_t got =
        ::read(fd, out->data.get() + out->size, capacity - out->size);
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) {
      ::close(fd);
      return Status::IoError("read failure on file: " + path);
    }
    if (got == 0) break;
    out->size += static_cast<size_t>(got);
  }
  ::close(fd);
  return Status::OK();
}

CsvTable ToTable(CsvMatrix&& matrix) {
  CsvTable table;
  table.header = std::move(matrix.header);
  table.rows.reserve(matrix.rows());
  for (size_t r = 0; r < matrix.rows(); ++r) {
    const double* row = matrix.values.data() + r * matrix.columns;
    table.rows.emplace_back(row, row + matrix.columns);
  }
  return table;
}

}  // namespace

Result<CsvMatrix> ScanCsv(std::string_view text,
                          const CsvReadOptions& options) {
  CsvMatrix out;
  bool header_consumed = !options.has_header;
  size_t line_number = 0;
  size_t pos = 0;
  // Lines are split as std::getline splits them: on '\n' only, with a last
  // line that needs no newline. A '\r' stays in the line (Trim drops it).
  while (pos < text.size()) {
    const char* begin = text.data() + pos;
    const char* newline = static_cast<const char*>(
        std::memchr(begin, '\n', text.size() - pos));
    const size_t length = newline != nullptr
                              ? static_cast<size_t>(newline - begin)
                              : text.size() - pos;
    pos += length + 1;
    ++line_number;
    if (options.max_line_bytes != 0 && length > options.max_line_bytes) {
      return Status::InvalidArgument(
          StrFormat("line %zu is %zu bytes long, limit is %zu "
                    "(CsvReadOptions::max_line_bytes)",
                    line_number, length, options.max_line_bytes));
    }
    if (std::memchr(begin, '\0', length) != nullptr) {
      // An embedded NUL would silently truncate the field inside the
      // C-string number parser; reject the whole line instead.
      return Status::InvalidArgument(
          StrFormat("line %zu contains an embedded NUL byte", line_number));
    }
    const std::string_view trimmed = Trim(std::string_view(begin, length));
    if (trimmed.empty()) continue;
    if (options.allow_comments && trimmed.front() == '#') continue;
    if (!header_consumed) {
      out.header = Split(trimmed, options.separator);
      for (auto& f : out.header) f = std::string(Trim(f));
      out.columns = out.header.size();
      header_consumed = true;
      continue;
    }
    const bool first_row = out.values.empty();
    LOFKIT_RETURN_IF_ERROR(ScanRow(trimmed, line_number, out.columns,
                                   options.separator, &out.values));
    if (first_row) {
      // Reserve for the rest of the file once the row width is known. A
      // row of c fields takes at least 2c bytes, so hostile input (one
      // wide row, then megabytes of blank lines) cannot reserve more than
      // 4 bytes of doubles per byte of text.
      out.columns = out.values.size();
      const std::string_view rest = text.substr(std::min(pos, text.size()));
      const size_t newlines =
          static_cast<size_t>(std::count(rest.begin(), rest.end(), '\n'));
      const size_t more_rows =
          std::min(newlines + 1, rest.size() / (2 * out.columns) + 1);
      out.values.reserve(out.columns * (1 + more_rows));
    }
  }
  return out;
}

Result<CsvMatrix> ScanCsvFile(const std::string& path,
                              const CsvReadOptions& options) {
  LOFKIT_FAIL_POINT("csv.read");
  FileBytes bytes;
  LOFKIT_RETURN_IF_ERROR(ReadWholeFile(path, &bytes));
  return ScanCsv(bytes.view(), options);
}

Result<CsvTable> ParseCsv(const std::string& text,
                          const CsvReadOptions& options) {
  LOFKIT_ASSIGN_OR_RETURN(CsvMatrix matrix, ScanCsv(text, options));
  return ToTable(std::move(matrix));
}

Result<CsvTable> ReadCsvFile(const std::string& path,
                             const CsvReadOptions& options) {
  LOFKIT_ASSIGN_OR_RETURN(CsvMatrix matrix, ScanCsvFile(path, options));
  return ToTable(std::move(matrix));
}

std::string WriteCsv(const CsvTable& table, char separator) {
  std::string out;
  if (!table.header.empty()) {
    for (size_t i = 0; i < table.header.size(); ++i) {
      if (i > 0) out.push_back(separator);
      out += table.header[i];
    }
    out.push_back('\n');
  }
  for (const auto& row : table.rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out.push_back(separator);
      out += StrFormat("%.17g", row[i]);
    }
    out.push_back('\n');
  }
  return out;
}

Status WriteCsvFile(const std::string& path, const CsvTable& table,
                    char separator) {
  LOFKIT_FAIL_POINT("csv.write");
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    return Status::IoError("cannot open file for writing: " + path);
  }
  std::string text = WriteCsv(table, separator);
  file.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!file) {
    return Status::IoError("write failure on file: " + path);
  }
  return Status::OK();
}

}  // namespace lofkit
