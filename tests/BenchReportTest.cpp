//===- tests/BenchReportTest.cpp - bench table model -----------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
//
// bench::BenchReport is the one table model of the table/figure
// binaries: their text and their `--json` come from the same rows. These
// tests pin the text rendering against TablePrinter, the number/string
// classification of cells in the JSON, the order of meta notes, and the
// exit status of a failed `--json` write.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

using namespace cbs;
using namespace cbs::bench;

namespace {

json::JsonValue parsed(const BenchReport &Report) {
  json::JsonParseResult R = json::parseJson(Report.render());
  EXPECT_TRUE(R.ok()) << R.Error;
  return R.ok() ? *R.Value : json::JsonValue();
}

} // namespace

TEST(BenchReport, PrintMatchesTablePrinter) {
  support::ArgParser Args(std::vector<std::string>{});
  BenchReport Report(Args, "Test");
  Report.beginTable("t", {"name", "value", "note"});
  Report.separator();
  Report.addRow({"a", "1.5", "x"});
  Report.addRow({"long-name", "22"});
  Report.separator();
  Report.addRow({"Average", "", "", "extra"});
  Report.separator();

  TablePrinter TP;
  TP.setHeader({"name", "value", "note"});
  TP.addSeparator();
  TP.addRow({"a", "1.5", "x"});
  TP.addRow({"long-name", "22"});
  TP.addSeparator();
  TP.addRow({"Average", "", "", "extra"});
  TP.addSeparator();

  testing::internal::CaptureStdout();
  Report.print();
  EXPECT_EQ(testing::internal::GetCapturedStdout(), TP.render());

  // Separators shape the text only: the JSON holds the three rows.
  json::JsonValue Doc = parsed(Report);
  const json::JsonValue *Tables = Doc.find("tables");
  ASSERT_TRUE(Tables && Tables->isArray());
  ASSERT_EQ(Tables->Elements.size(), 1u);
  const json::JsonValue *Rows = Tables->Elements[0].find("rows");
  ASSERT_TRUE(Rows && Rows->isArray());
  EXPECT_EQ(Rows->Elements.size(), 3u);
}

TEST(BenchReport, CellsThatLexAsNumbersAreNumbers) {
  support::ArgParser Args(std::vector<std::string>{});
  BenchReport Report(Args, "Test");
  const std::vector<std::string> Numbers{"1e5", "-0.5", "12"};
  const std::vector<std::string> Strings{"inf", "nan", "0x10", "+1",
                                         "1.",  "-",   ""};
  Report.beginTable("cells", {"cell"});
  for (const std::string &Cell : Numbers)
    Report.addRow({Cell});
  for (const std::string &Cell : Strings)
    Report.addRow({Cell});

  json::JsonValue Doc = parsed(Report);
  const json::JsonValue *Tables = Doc.find("tables");
  ASSERT_TRUE(Tables && Tables->Elements.size() == 1);
  const json::JsonValue *Rows = Tables->Elements[0].find("rows");
  ASSERT_TRUE(Rows);
  ASSERT_EQ(Rows->Elements.size(), Numbers.size() + Strings.size());
  for (size_t I = 0; I != Rows->Elements.size(); ++I) {
    const json::JsonValue &Cell = Rows->Elements[I].Elements.at(0);
    bool WantNumber = I < Numbers.size();
    const std::string &Text =
        WantNumber ? Numbers[I] : Strings[I - Numbers.size()];
    EXPECT_EQ(Cell.isNumber(), WantNumber) << "cell '" << Text << "'";
    EXPECT_EQ(Cell.isString(), !WantNumber) << "cell '" << Text << "'";
    // Either way the lexeme survives unchanged.
    EXPECT_EQ(Cell.Str, Text);
  }
}

TEST(BenchReport, NotesKeepTheirOrder) {
  support::ArgParser Args(std::vector<std::string>{});
  BenchReport Report(Args, "Test");
  Report.note("zeta", "3");
  Report.note("alpha", "jikes");
  Report.note("mid", "0.25");

  json::JsonValue Doc = parsed(Report);
  const json::JsonValue *Meta = Doc.find("meta");
  ASSERT_TRUE(Meta && Meta->isObject());
  std::vector<std::string> Keys;
  for (const auto &[Key, Value] : Meta->Members)
    Keys.push_back(Key);
  EXPECT_EQ(Keys, (std::vector<std::string>{"zeta", "alpha", "mid"}));
  EXPECT_TRUE(Meta->find("zeta")->isNumber());
  EXPECT_TRUE(Meta->find("alpha")->isString());
}

TEST(BenchReportDeathTest, FailedJsonWriteExitsTwo) {
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "no /dev/full on this system";
  EXPECT_EXIT(
      {
        support::ArgParser Args(
            std::vector<std::string>{"--json", "/dev/full"});
        BenchReport Report(Args, "Test");
        Report.beginTable("t", {"a"});
        Report.addRow({"1"});
      },
      testing::ExitedWithCode(2), "cannot write '/dev/full'");
}
