// Differential test and seeded mutation fuzzer for CSV ingest.
//
// The one-pass scanner (ScanCsv, behind ParseCsv, ReadCsvFile and
// DatasetFromCsvFile) must accept exactly what the getline / Split / strtod
// parser it replaced accepted, parse every value to the same bits, and fail
// with the same Status code and message. That parser is frozen below as the
// oracle, together with the per-row Append loader it fed.

#include <bit>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/fail_point.h"
#include "common/string_util.h"
#include "dataset/loaders.h"

namespace lofkit {
namespace {

// ---------------------------------------------------------------------------
// The oracle: the CSV path as it stood before the scanner, verbatim but for
// the fail points.
// ---------------------------------------------------------------------------
namespace oracle {

std::vector<std::string> Split(std::string_view input, char sep) {
  std::vector<std::string> fields;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == sep) {
      fields.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

std::string_view Trim(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

Result<double> ParseDouble(std::string_view input) {
  std::string_view trimmed = Trim(input);
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty string is not a number");
  }
  std::string buf(trimmed);
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("trailing garbage in number: '" + buf + "'");
  }
  if (errno == ERANGE) {
    return Status::OutOfRange("number out of double range: '" + buf + "'");
  }
  return value;
}

Result<CsvTable> ParseCsv(const std::string& text,
                          const CsvReadOptions& options) {
  CsvTable table;
  std::istringstream in(text);
  std::string line;
  size_t line_number = 0;
  bool header_consumed = !options.has_header;
  size_t expected_cols = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (options.max_line_bytes != 0 && line.size() > options.max_line_bytes) {
      return Status::InvalidArgument(
          StrFormat("line %zu is %zu bytes long, limit is %zu "
                    "(CsvReadOptions::max_line_bytes)",
                    line_number, line.size(), options.max_line_bytes));
    }
    if (line.find('\0') != std::string::npos) {
      return Status::InvalidArgument(
          StrFormat("line %zu contains an embedded NUL byte", line_number));
    }
    std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;
    if (options.allow_comments && trimmed.front() == '#') continue;
    std::vector<std::string> fields = Split(trimmed, options.separator);
    if (!header_consumed) {
      for (auto& f : fields) f = std::string(Trim(f));
      table.header = std::move(fields);
      expected_cols = table.header.size();
      header_consumed = true;
      continue;
    }
    if (expected_cols == 0) {
      expected_cols = fields.size();
    } else if (fields.size() != expected_cols) {
      return Status::InvalidArgument(
          StrFormat("line %zu has %zu fields, expected %zu", line_number,
                    fields.size(), expected_cols));
    }
    std::vector<double> row;
    row.reserve(fields.size());
    for (const auto& field : fields) {
      Result<double> value = ParseDouble(field);
      if (!value.ok()) {
        return Status::InvalidArgument(
            StrFormat("line %zu: %s", line_number,
                      value.status().message().c_str()));
      }
      row.push_back(*value);
    }
    table.rows.push_back(std::move(row));
  }
  return table;
}

Result<CsvTable> ReadCsvFile(const std::string& path,
                             const CsvReadOptions& options) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::IoError("cannot open file: " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  if (file.bad()) {
    return Status::IoError("read failure on file: " + path);
  }
  return oracle::ParseCsv(buffer.str(), options);
}

Result<Dataset> DatasetFromCsvTable(const CsvTable& table,
                                    const DatasetLoadOptions& options) {
  if (table.rows.empty()) {
    return Status::InvalidArgument("CSV table has no data rows");
  }
  const size_t columns = table.num_columns();
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
  LOFKIT_ASSIGN_OR_RETURN(Dataset dataset, Dataset::Create(coords.size()));
  std::vector<double> point(coords.size());
  for (size_t r = 0; r < table.rows.size(); ++r) {
    const std::vector<double>& row = table.rows[r];
    for (size_t i = 0; i < coords.size(); ++i) {
      point[i] = row[coords[i]];
    }
    std::string label;
    if (options.label_column >= 0) {
      label = StrFormat("%g", row[static_cast<size_t>(options.label_column)]);
    }
    if (Status status = dataset.Append(point, std::move(label));
        !status.ok()) {
      return Status::InvalidArgument(
          StrFormat("data row %zu: %s", r + 1, status.message().c_str()));
    }
  }
  return dataset;
}

Result<Dataset> DatasetFromCsvFile(const std::string& path,
                                   const DatasetLoadOptions& options) {
  LOFKIT_ASSIGN_OR_RETURN(CsvTable table,
                          oracle::ReadCsvFile(path, options.csv));
  return oracle::DatasetFromCsvTable(table, options);
}

}  // namespace oracle

// ---------------------------------------------------------------------------
// Comparison helpers. Each returns "" when the two results agree, else a
// description of the first difference. Values compare by bits, so -0.0
// against 0.0 and NaN payloads count.
// ---------------------------------------------------------------------------

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

std::string StatusDiff(const Status& expected, const Status& actual) {
  if (expected.code() == actual.code() &&
      expected.message() == actual.message()) {
    return "";
  }
  return "status: expected " + expected.ToString() + ", got " +
         actual.ToString();
}

std::string TableDiff(const Result<CsvTable>& expected,
                      const Result<CsvTable>& actual) {
  if (!expected.ok() || !actual.ok()) {
    return StatusDiff(expected.status(), actual.status());
  }
  if (expected->header != actual->header) return "header differs";
  if (expected->rows.size() != actual->rows.size()) {
    return StrFormat("row count: expected %zu, got %zu",
                     expected->rows.size(), actual->rows.size());
  }
  for (size_t r = 0; r < expected->rows.size(); ++r) {
    const auto& e = expected->rows[r];
    const auto& a = actual->rows[r];
    if (e.size() != a.size()) return StrFormat("row %zu width differs", r);
    for (size_t c = 0; c < e.size(); ++c) {
      if (!SameBits(e[c], a[c])) {
        return StrFormat("row %zu col %zu: expected %.17g, got %.17g", r, c,
                         e[c], a[c]);
      }
    }
  }
  return "";
}

std::string DatasetDiff(const Result<Dataset>& expected,
                        const Result<Dataset>& actual) {
  if (!expected.ok() || !actual.ok()) {
    return StatusDiff(expected.status(), actual.status());
  }
  if (expected->dimension() != actual->dimension() ||
      expected->size() != actual->size()) {
    return "shape differs";
  }
  const auto e = expected->raw();
  const auto a = actual->raw();
  for (size_t i = 0; i < e.size(); ++i) {
    if (!SameBits(e[i], a[i])) return StrFormat("value %zu differs", i);
  }
  for (size_t i = 0; i < expected->size(); ++i) {
    if (expected->label(i) != actual->label(i)) {
      return StrFormat("label %zu: expected '%s', got '%s'", i,
                       expected->label(i).c_str(), actual->label(i).c_str());
    }
  }
  return "";
}

// Renders bytes for a failure message: printable ASCII as is, the rest as
// \xNN, so a NUL or CR in the input shows up in the trace.
std::string Escaped(std::string_view bytes) {
  std::string out;
  for (unsigned char c : bytes) {
    if (c >= 0x20 && c < 0x7f && c != '\\') {
      out.push_back(static_cast<char>(c));
    } else {
      out += StrFormat("\\x%02x", c);
    }
  }
  return out;
}

class CsvIngestTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FailPoints::DisarmAll();
    std::remove(path_.c_str());
  }

  void WriteFile(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // "" when ParseCsv and DatasetFromCsvFile both agree with the oracle on
  // `text` under `csv` (the dataset side under each loader option set).
  std::string Diff(const std::string& text, const CsvReadOptions& csv) {
    std::string diff =
        TableDiff(oracle::ParseCsv(text, csv), ParseCsv(text, csv));
    if (!diff.empty()) return "ParseCsv " + diff;
    WriteFile(text);
    for (const DatasetLoadOptions& base : LoaderVariants()) {
      DatasetLoadOptions options = base;
      options.csv = csv;
      diff = DatasetDiff(oracle::DatasetFromCsvFile(path_, options),
                         DatasetFromCsvFile(path_, options));
      if (!diff.empty()) {
        return StrFormat("DatasetFromCsvFile (label %d, %zu coords) ",
                         options.label_column,
                         options.coordinate_columns.size()) +
               diff;
      }
    }
    return "";
  }

  static std::vector<DatasetLoadOptions> LoaderVariants() {
    DatasetLoadOptions all;
    DatasetLoadOptions labelled;
    labelled.label_column = 0;
    DatasetLoadOptions picked;  // Reordered with a repeat: a gather.
    picked.coordinate_columns = {1, 0, 1};
    DatasetLoadOptions out_of_range;
    out_of_range.coordinate_columns = {7};
    return {all, labelled, picked, out_of_range};
  }

  // One file per test: ctest runs the tests as parallel processes.
  std::string path_ =
      ::testing::TempDir() + "/lofkit_csv_ingest_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".csv";
};

// The value spellings of the corpus: every way a table of doubles gets
// written, plus the strings where from_chars and strtod part ways.
std::vector<std::string> ValueSpellings(std::mt19937_64& rng, size_t count) {
  std::vector<std::string> out;
  std::normal_distribution<double> normal(0.0, 40.0);
  std::uniform_int_distribution<int> exponent(-1000, 1000);
  for (size_t i = 0; i < count; ++i) {
    const double v = normal(rng);
    out.push_back(StrFormat("%.17g", v));
    out.push_back(StrFormat("%.6g", v));
    char buf[32];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    out.emplace_back(buf, end);  // Shortest round-trip form.
    out.push_back(StrFormat("%.17g", std::ldexp(1.0 + v * 1e-3, exponent(rng))));
  }
  for (const char* s :
       {"-0", "0", "0.0", "-0.0", "0e-999", "1e-310", "4.9e-324", "-4.9e-324",
        "2.2250738585072014e-308", "2.2250738585072011e-308",
        "2.2250738585072012e-308", "-2.2250738585072012e-308",
        "1.7976931348623157e308", "1e999", "-1e999", "+1e999", "1e-999",
        "+1", "-1", " 1 ", "\t2\t", "0x1p3", "-0x1P-2", "inf", "-inf", "+inf",
        "INF", "nan", "-nan", "NaN", "nan(123)", "infinity", "-Infinity",
        "1e", "1e+", "1d", "1.", ".5", "-.5", ".", "-", "+", "", " ",
        "1,5", "1e5", "1E-5", "007", "1_000", "1..2", "--1", "1 2"}) {
    out.emplace_back(s);
  }
  return out;
}

std::vector<CsvReadOptions> ReadVariants() {
  CsvReadOptions plain;
  CsvReadOptions header;
  header.has_header = true;
  CsvReadOptions tab;
  tab.separator = '\t';
  CsvReadOptions no_comments;
  no_comments.allow_comments = false;
  return {plain, header, tab, no_comments};
}

// A file of `rows` x `cols` values drawn from `spellings`, written with the
// variant's separator, optional header, comments, blank lines, CRLF and
// padding, chosen by `rng`.
std::string MakeFile(std::mt19937_64& rng,
                     const std::vector<std::string>& spellings,
                     const CsvReadOptions& options, size_t rows, size_t cols,
                     bool valid_only) {
  std::uniform_int_distribution<size_t> pick(0, spellings.size() - 1);
  std::bernoulli_distribution often(0.5);
  std::bernoulli_distribution sometimes(0.1);
  const char sep = options.separator;
  const std::string eol = often(rng) ? "\n" : "\r\n";
  std::string text;
  if (sometimes(rng)) text += "# leading comment" + eol;
  if (options.has_header) {
    for (size_t c = 0; c < cols; ++c) {
      if (c > 0) text.push_back(sep);
      text += StrFormat(" col%zu ", c);
    }
    text += eol;
  }
  for (size_t r = 0; r < rows; ++r) {
    if (sometimes(rng)) text += eol;
    if (sometimes(rng)) text += "  # comment " + eol;
    for (size_t c = 0; c < cols; ++c) {
      if (c > 0) text.push_back(sep);
      // valid_only draws from the first 4 * 64 spellings, the generated
      // finite values; otherwise from all of them.
      const std::string& v =
          spellings[valid_only ? pick(rng) % (4 * 64) : pick(rng)];
      text += sometimes(rng) ? " " + v + " " : v;
    }
    text += eol;
  }
  if (often(rng) && !text.empty()) {
    text.resize(text.size() - (text.back() == '\n' ? 1 : 0));  // No final EOL.
  }
  return text;
}

TEST_F(CsvIngestTest, GeneratedCorpusMatchesOracle) {
  std::mt19937_64 rng(20240616);
  const std::vector<std::string> spellings = ValueSpellings(rng, 64);
  size_t files = 0;
  for (const CsvReadOptions& options : ReadVariants()) {
    for (int trial = 0; trial < 40; ++trial) {
      const bool valid_only = trial % 2 == 0;
      const std::string text =
          MakeFile(rng, spellings, options, 1 + trial % 7, 1 + trial % 4,
                   valid_only);
      SCOPED_TRACE(Escaped(text));
      ASSERT_EQ(Diff(text, options), "");
      ++files;
    }
  }
  EXPECT_EQ(files, 160u);
}

// Every spelling alone, as a one-field file and as the second field of a
// labelled row, so each special string reaches the value parser and the
// loader's finiteness guard.
TEST_F(CsvIngestTest, EverySpellingMatchesOracle) {
  std::mt19937_64 rng(7);
  for (const std::string& v : ValueSpellings(rng, 16)) {
    SCOPED_TRACE(Escaped(v));
    ASSERT_EQ(Diff(v + "\n", {}), "");
    ASSERT_EQ(Diff("1,2\n3," + v + "\n", {}), "");
    ASSERT_EQ(Diff(v + ",9\n", {}), "");
  }
}

TEST_F(CsvIngestTest, StructuralEdgeCasesMatchOracle) {
  const std::string kTexts[] = {
      "",
      "\n",
      "\r\n",
      "\n\n\n",
      "1,2",
      "1,2\r\n3,4\r\n",
      "1,2\r\n3,4",
      "# only a comment\n",
      "  # indented comment\n1,2\n",
      "x,y\n",
      "x,y\r\n1,2\r\n",
      " x , y \n 1 , 2 \n",
      "1,2\n3\n",
      "1\n2,3\n",
      "1,2\n3,x\n",
      "1,2\n3,x,5\n",
      "1,2\n,\n",
      "1,2,\n3,4,\n",
      "1\t2\n3\t4\n",
      "\t1,2\t\n",
      "1,2\n\v\f\n3,4\n",
      std::string("1,2\n3,\0 4\n", 10),
      std::string("\0", 1),
      std::string("1,2\n\0\n", 6),
      "1,2\ninf,4\n3,x\n",
      "1,2\nnan,4\n5,6\n",
      "5,nan\n1,2\n",
      "1;2\n3;4\n",
      "#1,2\n3,4\n",
      "1,2\n#3,4\n",
  };
  for (const std::string& text : kTexts) {
    SCOPED_TRACE(Escaped(text));
    for (const CsvReadOptions& options : ReadVariants()) {
      ASSERT_EQ(Diff(text, options), "");
    }
  }
}

// A separator that can occur inside a number ('.', 'e', '-', ...) must
// still split fields where the old Split did, not where from_chars stops.
TEST_F(CsvIngestTest, NumberCharacterSeparatorsMatchOracle) {
  const std::string kTexts[] = {"1.5.2\n3.4.5\n", "1e5e2\n3e4e5\n",
                                "-1-2\n3-4\n",   "1-2-3\n",
                                "inf.1\nnan.2\n", "1+2\n+3+4\n",
                                "5x6\n0x1p3x2\n"};
  for (const char separator : {'.', 'e', '-', '+', 'x', 'n', '0'}) {
    CsvReadOptions options;
    options.separator = separator;
    for (const std::string& text : kTexts) {
      SCOPED_TRACE(Escaped(std::string(1, separator) + " | " + text));
      ASSERT_EQ(Diff(text, options), "");
    }
  }
}

// max_line_bytes counts the physical line without '\n' but with any '\r'.
TEST_F(CsvIngestTest, LineLengthLimitMatchesOracle) {
  for (const size_t limit : {size_t{8}, size_t{16}, size_t{64}}) {
    for (const std::string eol : {"\n", "\r\n"}) {
      for (const long delta : {-1L, 0L, 1L}) {
        const size_t length = static_cast<size_t>(
            static_cast<long>(limit) + delta - static_cast<long>(eol.size()) +
            1);
        std::string line = "1,";
        line.append(length - line.size(), '7');
        const std::string text = "1,2" + eol + line + eol + "3,4" + eol;
        CsvReadOptions options;
        options.max_line_bytes = limit;
        SCOPED_TRACE(Escaped(text));
        ASSERT_EQ(Diff(text, options), "");
      }
    }
  }
}

// Byte flips, inserts, deletes and truncations of valid files. The seed and
// the iteration count are fixed, so every run checks the same inputs.
TEST_F(CsvIngestTest, MutationFuzzMatchesOracle) {
  std::mt19937_64 rng(0x10f5eed);
  const std::vector<std::string> spellings = ValueSpellings(rng, 64);
  const std::vector<CsvReadOptions> variants = ReadVariants();
  static constexpr char kAlphabet[] = "0123456789.eE+-,;\t \r\n#xXpPinfatyd\0";
  std::uniform_int_distribution<size_t> letter(0, sizeof kAlphabet - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> edits(1, 4);
  std::uniform_int_distribution<int> kind(0, 3);
  constexpr int kIterations = 4000;
  for (int iter = 0; iter < kIterations; ++iter) {
    const CsvReadOptions& options = variants[iter % variants.size()];
    std::string text = MakeFile(rng, spellings, options, 1 + iter % 5,
                                1 + iter % 3, /*valid_only=*/true);
    for (int e = edits(rng); e > 0 && !text.empty(); --e) {
      std::uniform_int_distribution<size_t> at(0, text.size() - 1);
      const char c = rng() % 4 == 0 ? static_cast<char>(byte(rng))
                                    : kAlphabet[letter(rng)];
      switch (kind(rng)) {
        case 0: text[at(rng)] = c; break;
        case 1: text.insert(text.begin() + static_cast<long>(at(rng)), c); break;
        case 2: text.erase(at(rng), 1); break;
        default: text.resize(at(rng)); break;
      }
    }
    SCOPED_TRACE(StrFormat("iteration %d: ", iter) + Escaped(text));
    ASSERT_EQ(Diff(text, options), "");
  }
}

TEST_F(CsvIngestTest, LoadHandsTheScannedBufferOverBitForBit) {
  std::mt19937_64 rng(3);
  std::normal_distribution<double> normal(0.0, 1e3);
  CsvTable table;
  for (size_t r = 0; r < 200; ++r) {
    std::vector<double>& row = table.rows.emplace_back();
    for (size_t c = 0; c < 9; ++c) row.push_back(normal(rng));
  }
  table.rows[5][2] = -0.0;
  ASSERT_TRUE(WriteCsvFile(path_, table).ok());
  auto ds = DatasetFromCsvFile(path_);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  ASSERT_EQ(ds->size(), 200u);
  for (size_t r = 0; r < 200; ++r) {
    for (size_t c = 0; c < 9; ++c) {
      ASSERT_TRUE(SameBits(ds->point(r)[c], table.rows[r][c])) << r << "," << c;
    }
  }
}

// csv.read fires once per file and loaders.row once per data row, as before.
TEST_F(CsvIngestTest, FailPointsFireOncePerFileAndPerRow) {
  WriteFile("# c\nx,y\n1,2\n\n3,4\n5,6\n");
  const FailPointPolicy never = FailPointPolicy::EveryNth(uint64_t{1} << 40);
  FailPoints::Arm("csv.read", Status::IoError("unused"), never);
  FailPoints::Arm("loaders.row", Status::IoError("unused"), never);
  DatasetLoadOptions options;
  options.csv.has_header = true;
  ASSERT_TRUE(DatasetFromCsvFile(path_, options).ok());
  EXPECT_EQ(FailPoints::HitCount("csv.read"), 1u);
  EXPECT_EQ(FailPoints::HitCount("loaders.row"), 3u);
}

// The replaced reader swallowed read(2) errors into an empty or truncated
// parse (its "read failure" branch could not fire); a directory now reads
// as the IoError the API documents.
TEST_F(CsvIngestTest, UnreadablePathIsIoError) {
  const std::string dir = ::testing::TempDir() + "/lofkit_csv_ingest_dir";
  ::mkdir(dir.c_str(), 0700);
  auto table = ReadCsvFile(dir);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kIoError);
  EXPECT_EQ(table.status().message(), "read failure on file: " + dir);
  EXPECT_EQ(DatasetFromCsvFile(dir).status().code(), StatusCode::kIoError);
  ::rmdir(dir.c_str());
}

// A pipe has no size to read ahead of time: it is read(2) whole, through a
// buffer that starts at 64 KiB and doubles.
TEST_F(CsvIngestTest, PipeIsReadWhole) {
  const std::string fifo = path_ + ".fifo";
  ::unlink(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::string text;
  for (int r = 0; r < 20000; ++r) text += StrFormat("%d,%d.5\n", r, -r);
  std::thread writer([&] {
    std::ofstream out(fifo, std::ios::binary);
    out << text;
  });
  auto table = ReadCsvFile(fifo);
  writer.join();
  ::unlink(fifo.c_str());
  EXPECT_GT(text.size(), size_t{4} << 16);
  ASSERT_EQ(TableDiff(oracle::ParseCsv(text, {}), table), "");
}

TEST(CsvIngestTableTest, RaggedInMemoryTableIsInvalidArgument) {
  CsvTable table;
  table.rows = {{1.0, 2.0}, {3.0}};
  auto ds = DatasetFromCsvTable(table);
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ds.status().message(),
            "CSV table row 2 has 1 values, expected 2");
}

}  // namespace
}  // namespace lofkit
