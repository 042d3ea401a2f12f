// bench::JsonReport, the one writer behind every BENCH_*.json.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "bench_util.h"

namespace mqpi::bench {
namespace {

std::string Nproc() {
  return std::to_string(std::thread::hardware_concurrency());
}

TEST(JsonReportTest, RendersTheEnvelopeExactly) {
  JsonReport report("demo", {{"unit", "ns"}, {"window_s", 0.5}});
  report.AddRow({{"n", 100}, {"ns", 12.25}, {"ok", true}});
  report.AddRow({{"n", 5000}, {"ns", 3.5}, {"ok", false}});
  EXPECT_EQ(report.Render(),
            "{\n"
            "  \"bench\": \"demo\",\n"
            "  \"nproc\": " + Nproc() + ",\n"
            "  \"config\": {\"unit\": \"ns\", \"window_s\": 0.5},\n"
            "  \"rows\": [\n"
            "    {\"n\": 100, \"ns\": 12.25, \"ok\": true},\n"
            "    {\"n\": 5000, \"ns\": 3.5, \"ok\": false}\n"
            "  ]\n"
            "}\n");
  EXPECT_EQ(report.FileName(), "BENCH_demo.json");
}

TEST(JsonReportTest, EmptyConfigAndRowsKeepTheEnvelope) {
  EXPECT_EQ(JsonReport("empty").Render(),
            "{\n  \"bench\": \"empty\",\n  \"nproc\": " + Nproc() +
                ",\n  \"config\": {},\n  \"rows\": []\n}\n");
}

TEST(JsonReportTest, KeysKeepInsertionOrder) {
  JsonReport report("order", {{"zeta", 1}, {"alpha", 2}, {"mid", 3}});
  report.AddRow({{"z", 1}, {"a", 2}});
  const std::string text = report.Render();
  EXPECT_NE(text.find("{\"zeta\": 1, \"alpha\": 2, \"mid\": 3}"),
            std::string::npos);
  EXPECT_NE(text.find("{\"z\": 1, \"a\": 2}"), std::string::npos);
  // Rendering is a pure function of the report: render twice, same text.
  EXPECT_EQ(report.Render(), text);
}

TEST(JsonReportTest, EscapesStrings) {
  JsonReport report("esc");
  report.AddRow({{"s", "say \"hi\" \\ bye\n\x01"}, {"k\"ey", "v"}});
  EXPECT_NE(report.Render().find(
                "{\"s\": \"say \\\"hi\\\" \\\\ bye\\n\\u0001\", "
                "\"k\\\"ey\": \"v\"}"),
            std::string::npos);
}

TEST(JsonReportTest, IntegersHaveNoDecimalPoint) {
  JsonReport report("ints");
  report.AddRow({{"i", 42},
                 {"neg", -7},
                 {"u64", std::uint64_t{18446744073709551615u}},
                 {"whole_double", 3.0},
                 {"big_double", 79428391.7},
                 {"huge_double", 2.5e20},
                 {"inf", std::numeric_limits<double>::infinity()}});
  EXPECT_NE(report.Render().find("{\"i\": 42, \"neg\": -7, "
                                 "\"u64\": 18446744073709551615, "
                                 "\"whole_double\": 3, "
                                 "\"big_double\": 79428392, "
                                 "\"huge_double\": 2.5e+20, \"inf\": null}"),
            std::string::npos);
}

TEST(JsonReportTest, WriteCreatesTheRenderedFile) {
  const std::string path = ::testing::TempDir() + "BENCH_write_ok.json";
  JsonReport report("write_ok", {{"unit", "s"}});
  report.AddRow({{"n", 1}});
  ASSERT_TRUE(report.Write(path).ok());
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), report.Render());
  std::remove(path.c_str());
}

TEST(JsonReportTest, WriteIntoMissingDirectoryFails) {
  JsonReport report("nowhere");
  const Status status =
      report.Write(::testing::TempDir() + "no_such_dir/BENCH_nowhere.json");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("no_such_dir"), std::string::npos);
}

}  // namespace
}  // namespace mqpi::bench
