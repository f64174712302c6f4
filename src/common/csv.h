#ifndef LOFKIT_COMMON_CSV_H_
#define LOFKIT_COMMON_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace lofkit {

/// A parsed numeric CSV file: optional header names plus a rectangular
/// matrix of doubles. All rows must have the same number of fields.
struct CsvTable {
  std::vector<std::string> header;        ///< Empty when the file had none.
  std::vector<std::vector<double>> rows;  ///< Row-major values.

  size_t num_columns() const {
    return rows.empty() ? header.size() : rows.front().size();
  }
};

/// Options controlling CSV parsing.
struct CsvReadOptions {
  char separator = ',';
  /// When true, the first non-empty line is treated as column names.
  bool has_header = false;
  /// When true, lines starting with '#' are skipped.
  bool allow_comments = true;
  /// Longest accepted physical line, in bytes (0 = unlimited). Hostile or
  /// corrupt inputs (a newline-free multi-gigabyte blob, a binary file fed
  /// to the CSV path) fail with a clean InvalidArgument instead of
  /// ballooning memory on a single std::getline.
  size_t max_line_bytes = 1 << 20;
};

/// A parsed numeric CSV file in flat form, as the scanner produces it:
/// optional header names plus rows() * columns doubles, row-major.
struct CsvMatrix {
  std::vector<std::string> header;  ///< Empty when the file had none.
  std::vector<double> values;       ///< Row-major, rows() * columns values.
  /// Fields per row: the header's width, else the first data row's; 0 when
  /// the file had neither.
  size_t columns = 0;

  size_t rows() const { return columns == 0 ? 0 : values.size() / columns; }
};

/// Scans CSV text in one pass into a CsvMatrix. This is lofkit's one CSV
/// grammar (docs/robustness.md, "Accepted CSV grammar"): ParseCsv,
/// ReadCsvFile and DatasetFromCsvFile all go through it. Returns
/// InvalidArgument on overlong lines, embedded NULs, ragged rows or
/// non-numeric fields, with the offending 1-based physical line number.
/// Each field is parsed with std::from_chars; a field that it does not take
/// whole as zero or a finite value above DBL_MIN in magnitude goes through ParseDouble (strtod),
/// so the accepted values and the error text are strtod's.
Result<CsvMatrix> ScanCsv(std::string_view text,
                          const CsvReadOptions& options = {});

/// Reads a whole file into one buffer with read(2) and scans it. Returns IoError when the file cannot be opened or read. The
/// "csv.read" fail point fires once.
Result<CsvMatrix> ScanCsvFile(const std::string& path,
                              const CsvReadOptions& options = {});

/// ScanCsv, reshaped into one vector per row.
Result<CsvTable> ParseCsv(const std::string& text,
                          const CsvReadOptions& options = {});

/// ScanCsvFile, reshaped into one vector per row.
Result<CsvTable> ReadCsvFile(const std::string& path,
                             const CsvReadOptions& options = {});

/// Serializes a table (header optional) back to CSV text with full double
/// precision (round-trips through ParseCsv).
std::string WriteCsv(const CsvTable& table, char separator = ',');

/// Writes CSV text to a file, overwriting it. Returns IoError on failure.
Status WriteCsvFile(const std::string& path, const CsvTable& table,
                    char separator = ',');

}  // namespace lofkit

#endif  // LOFKIT_COMMON_CSV_H_
