#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "../test_util.hpp"
#include "stats/csv.hpp"

namespace bluescale::stats {
namespace {

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

class csv_test : public ::testing::Test {
protected:
    std::string path_ = bluescale::testing::temp_path_for_current_test(".csv");
    void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(csv_test, writes_header_and_rows) {
    {
        csv_writer w(path_, {"a", "b"});
        ASSERT_TRUE(w.ok());
        w.add_row({"1", "2"});
        w.add_row({"3", "4"});
    }
    EXPECT_EQ(read_file(path_), "a,b\n1,2\n3,4\n");
}

TEST_F(csv_test, quotes_cells_with_commas) {
    {
        csv_writer w(path_, {"x"});
        w.add_row({"a,b"});
    }
    EXPECT_EQ(read_file(path_), "x\n\"a,b\"\n");
}

TEST_F(csv_test, escapes_embedded_quotes) {
    {
        csv_writer w(path_, {"x"});
        w.add_row({"say \"hi\""});
    }
    EXPECT_EQ(read_file(path_), "x\n\"say \"\"hi\"\"\"\n");
}

TEST_F(csv_test, quotes_newlines) {
    {
        csv_writer w(path_, {"x"});
        w.add_row({"two\nlines"});
    }
    EXPECT_EQ(read_file(path_), "x\n\"two\nlines\"\n");
}

TEST(csv, reports_unwritable_path) {
    csv_writer w("/nonexistent_dir_zz/file.csv", {"a"});
    EXPECT_FALSE(w.ok());
}

TEST_F(csv_test, scratch_path_names_the_test_and_the_process) {
    // Two ctest runs sharing one temp dir run the same test names; the
    // process id keeps their files apart.
    const std::string name =
        "csv_test.scratch_path_names_the_test_and_the_process." +
        std::to_string(::getpid()) + ".csv";
    ASSERT_GE(path_.size(), name.size());
    EXPECT_EQ(path_.substr(path_.size() - name.size()), name);
}

} // namespace
} // namespace bluescale::stats
