#include "dataset/loaders.h"

#include <cmath>

#include "common/fail_point.h"
#include "common/string_util.h"

namespace lofkit {

namespace {

// Builds the Dataset from scanned CSV values. The column checks come first;
// then, row by row, the "loaders.row" fail point and the finiteness guard.
// When every column is a coordinate, in order, the scanned buffer becomes
// the Dataset's storage as it is.
Result<Dataset> DatasetFromCsvMatrix(CsvMatrix csv,
                                     const DatasetLoadOptions& options) {
  const size_t rows = csv.rows();
  if (rows == 0) {
    return Status::InvalidArgument("CSV table has no data rows");
  }
  const size_t columns = csv.columns;
  std::vector<size_t> coords = options.coordinate_columns;
  if (coords.empty()) {
    for (size_t c = 0; c < columns; ++c) {
      if (options.label_column >= 0 &&
          c == static_cast<size_t>(options.label_column)) {
        continue;
      }
      coords.push_back(c);
    }
  }
  if (coords.empty()) {
    return Status::InvalidArgument("no coordinate columns selected");
  }
  for (size_t c : coords) {
    if (c >= columns) {
      return Status::OutOfRange(
          StrFormat("coordinate column %zu out of range (%zu columns)", c,
                    columns));
    }
  }
  if (options.label_column >= 0 &&
      static_cast<size_t>(options.label_column) >= columns) {
    return Status::OutOfRange(
        StrFormat("label column %d out of range (%zu columns)",
                  options.label_column, columns));
  }

  const size_t dim = coords.size();
  bool identity = dim == columns;
  for (size_t i = 0; identity && i < dim; ++i) identity = coords[i] == i;
  std::vector<double> values;
  if (!identity) values.resize(rows * dim);
  std::vector<std::string> labels;
  if (options.label_column >= 0) labels.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    LOFKIT_FAIL_POINT("loaders.row");
    const double* row = csv.values.data() + r * columns;
    bool finite = true;
    for (size_t i = 0; i < dim; ++i) {
      const double v = row[coords[i]];
      if (!identity) values[r * dim + i] = v;
      finite = finite && std::isfinite(v);
    }
    if (options.label_column >= 0) {
      labels.push_back(
          StrFormat("%g", row[static_cast<size_t>(options.label_column)]));
    }
    // NaN/inf would poison every distance. Name the data row, so a CSV
    // holding "inf" or "nan" points at the row, not just the symptom.
    if (!finite) {
      return Status::InvalidArgument(StrFormat(
          "data row %zu: non-finite coordinate in point", r + 1));
    }
  }
  if (identity) values = std::move(csv.values);
  LOFKIT_ASSIGN_OR_RETURN(Dataset dataset,
                          Dataset::FromRowMajor(dim, std::move(values)));
  for (size_t r = 0; r < labels.size(); ++r) {
    dataset.set_label(r, std::move(labels[r]));
  }
  return dataset;
}

}  // namespace

Result<Dataset> DatasetFromCsvTable(const CsvTable& table,
                                    const DatasetLoadOptions& options) {
  CsvMatrix csv;
  csv.columns = table.num_columns();
  csv.values.reserve(table.rows.size() * csv.columns);
  for (size_t r = 0; r < table.rows.size(); ++r) {
    if (table.rows[r].size() != csv.columns) {
      return Status::InvalidArgument(
          StrFormat("CSV table row %zu has %zu values, expected %zu", r + 1,
                    table.rows[r].size(), csv.columns));
    }
    csv.values.insert(csv.values.end(), table.rows[r].begin(),
                      table.rows[r].end());
  }
  return DatasetFromCsvMatrix(std::move(csv), options);
}

Result<Dataset> DatasetFromCsvFile(const std::string& path,
                                   const DatasetLoadOptions& options) {
  LOFKIT_ASSIGN_OR_RETURN(CsvMatrix csv, ScanCsvFile(path, options.csv));
  return DatasetFromCsvMatrix(std::move(csv), options);
}

}  // namespace lofkit
