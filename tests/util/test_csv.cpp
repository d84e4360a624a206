#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/require.hpp"

namespace eroof::util {
namespace {

std::string read_all(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class CsvTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // One file per case: ctest -j runs the cases as concurrent processes.
  std::string path_ =
      ::testing::TempDir() + "eroof_csv_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".csv";
};

TEST_F(CsvTest, WritesHeaderAndNumericRows) {
  {
    CsvWriter w(path_, {"a", "b"});
    w.add_row(std::vector<double>{1.0, 2.5});
    w.add_row(std::vector<double>{-3.0, 0.0});
  }
  EXPECT_EQ(read_all(path_), "a,b\n1,2.5\n-3,0\n");
}

TEST_F(CsvTest, WritesStringRows) {
  {
    CsvWriter w(path_, {"id", "value"});
    w.add_row(std::vector<std::string>{"S1", "3.14"});
  }
  EXPECT_EQ(read_all(path_), "id,value\nS1,3.14\n");
}

TEST_F(CsvTest, RowWidthMismatchThrows) {
  CsvWriter w(path_, {"a", "b", "c"});
  EXPECT_THROW(w.add_row(std::vector<double>{1.0}), ContractError);
}

TEST_F(CsvTest, HighPrecisionValuesSurvive) {
  {
    CsvWriter w(path_, {"x"});
    w.add_row(std::vector<double>{1.23456789012e-7});
  }
  const std::string content = read_all(path_);
  EXPECT_NE(content.find("1.23456789012e-07"), std::string::npos) << content;
}

}  // namespace
}  // namespace eroof::util
