#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace helcfl::util {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class CsvTest : public ::testing::Test {
 protected:
  std::string path_ = ::testing::TempDir() + "/helcfl_csv_test.csv";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_, {"a", "b"});
    csv.write_row({"1", "2"});
    csv.write_row({"3", "4"});
  }
  EXPECT_EQ(read_file(path_), "a,b\n1,2\n3,4\n");
}

TEST_F(CsvTest, QuotesSpecialCharacters) {
  {
    CsvWriter csv(path_, {"x"});
    csv.write_row({"has,comma"});
    csv.write_row({"has\"quote"});
    csv.write_row({"has\nnewline"});
  }
  EXPECT_EQ(read_file(path_),
            "x\n\"has,comma\"\n\"has\"\"quote\"\n\"has\nnewline\"\n");
}

TEST_F(CsvTest, PlainFieldsUnquoted) {
  {
    CsvWriter csv(path_, {"x"});
    csv.write_row({"plain text with spaces"});
  }
  EXPECT_EQ(read_file(path_), "x\nplain text with spaces\n");
}

TEST_F(CsvTest, DoubleFieldRoundTrips) {
  const std::string f = CsvWriter::field(0.1);
  EXPECT_EQ(std::stod(f), 0.1);
}

TEST_F(CsvTest, IntegerFields) {
  EXPECT_EQ(CsvWriter::field(std::size_t{42}), "42");
  EXPECT_EQ(CsvWriter::field(-7), "-7");
}

TEST(Csv, ThrowsOnUnwritablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv", {"a"}), std::runtime_error);
}

}  // namespace
}  // namespace helcfl::util
