#ifndef LOFKIT_DATASET_LOADERS_H_
#define LOFKIT_DATASET_LOADERS_H_

#include <string>
#include <vector>

#include "common/csv.h"
#include "common/result.h"
#include "dataset/dataset.h"

namespace lofkit {

/// Options for building a Dataset from tabular (CSV) data.
struct DatasetLoadOptions {
  /// Columns to use as coordinates, by 0-based position. Empty = all
  /// columns.
  std::vector<size_t> coordinate_columns;
  /// Optional column whose values become point labels (rendered with %g).
  /// -1 = no label column.
  int label_column = -1;
  CsvReadOptions csv;
};

/// Builds a Dataset from an in-memory CSV table. InvalidArgument when a row
/// is not num_columns() wide.
Result<Dataset> DatasetFromCsvTable(const CsvTable& table,
                                    const DatasetLoadOptions& options = {});

/// Reads a CSV file into a Dataset: ScanCsvFile's flat buffer becomes the
/// Dataset's storage, with no per-row table in between. Accepts and rejects
/// exactly what ReadCsvFile + DatasetFromCsvTable do, with the same Status.
Result<Dataset> DatasetFromCsvFile(const std::string& path,
                                   const DatasetLoadOptions& options = {});

}  // namespace lofkit

#endif  // LOFKIT_DATASET_LOADERS_H_
