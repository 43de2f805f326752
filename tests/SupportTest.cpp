//===- tests/SupportTest.cpp - support library tests ---------------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "support/ArgParser.h"
#include "support/Json.h"
#include "support/Random.h"
#include "support/Statistics.h"
#include "support/TablePrinter.h"

#include <gtest/gtest.h>

#include <clocale>
#include <set>
#include <stdexcept>

using namespace cbs;

//===----------------------------------------------------------------------===//
// RandomEngine
//===----------------------------------------------------------------------===//

TEST(RandomEngine, DeterministicForSeed) {
  RandomEngine A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RandomEngine, DifferentSeedsDiffer) {
  RandomEngine A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_EQ(Same, 0);
}

TEST(RandomEngine, ReseedRestartsStream) {
  RandomEngine A(7);
  uint64_t First = A.next();
  A.next();
  A.reseed(7);
  EXPECT_EQ(A.next(), First);
}

TEST(RandomEngine, NextBelowRespectsBound) {
  RandomEngine RNG(3);
  for (uint64_t Bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int I = 0; I < 200; ++I)
      EXPECT_LT(RNG.nextBelow(Bound), Bound);
  }
}

TEST(RandomEngine, NextBelowOneAlwaysZero) {
  RandomEngine RNG(5);
  for (int I = 0; I < 32; ++I)
    EXPECT_EQ(RNG.nextBelow(1), 0u);
}

TEST(RandomEngine, NextBelowCoversAllResidues) {
  RandomEngine RNG(11);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(RNG.nextBelow(7));
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(RandomEngine, NextInRangeInclusive) {
  RandomEngine RNG(13);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t V = RNG.nextInRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= V == -3;
    SawHi |= V == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RandomEngine, NextDoubleInUnitInterval) {
  RandomEngine RNG(17);
  for (int I = 0; I < 1000; ++I) {
    double D = RNG.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RandomEngine, NextBoolExtremes) {
  RandomEngine RNG(19);
  for (int I = 0; I < 50; ++I) {
    EXPECT_FALSE(RNG.nextBool(0.0));
    EXPECT_TRUE(RNG.nextBool(1.0));
  }
}

TEST(RandomEngine, NextBoolRoughlyCalibrated) {
  RandomEngine RNG(23);
  int Hits = 0;
  for (int I = 0; I < 10000; ++I)
    Hits += RNG.nextBool(0.25);
  EXPECT_NEAR(Hits / 10000.0, 0.25, 0.03);
}

TEST(RandomEngine, ShufflePreservesElements) {
  RandomEngine RNG(29);
  std::vector<int> V = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> Sorted = V;
  RNG.shuffle(V);
  std::sort(V.begin(), V.end());
  EXPECT_EQ(V, Sorted);
}

TEST(RandomEngine, PickWeightedFollowsWeights) {
  RandomEngine RNG(31);
  std::vector<double> Weights = {1.0, 3.0};
  int Count1 = 0;
  for (int I = 0; I < 8000; ++I)
    if (RNG.pickWeighted(Weights) == 1)
      ++Count1;
  EXPECT_NEAR(Count1 / 8000.0, 0.75, 0.03);
}

TEST(RandomEngine, PickWeightedSkipsZeroWeights) {
  RandomEngine RNG(37);
  std::vector<double> Weights = {0.0, 1.0, 0.0};
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(RNG.pickWeighted(Weights), 1u);
}

//===----------------------------------------------------------------------===//
// ZipfDistribution
//===----------------------------------------------------------------------===//

TEST(Zipf, ProbabilitiesSumToOne) {
  ZipfDistribution Z(16, 1.0);
  double Sum = 0;
  for (size_t I = 0; I != Z.size(); ++I)
    Sum += Z.probability(I);
  EXPECT_NEAR(Sum, 1.0, 1e-9);
}

TEST(Zipf, RankZeroIsHeaviest) {
  ZipfDistribution Z(10, 1.2);
  for (size_t I = 1; I != Z.size(); ++I)
    EXPECT_GT(Z.probability(0), Z.probability(I));
}

TEST(Zipf, ZeroExponentIsUniform) {
  ZipfDistribution Z(8, 0.0);
  for (size_t I = 0; I != Z.size(); ++I)
    EXPECT_NEAR(Z.probability(I), 1.0 / 8, 1e-9);
}

TEST(Zipf, SampleMatchesDistribution) {
  ZipfDistribution Z(4, 1.0);
  RandomEngine RNG(41);
  std::vector<int> Counts(4, 0);
  const int N = 40000;
  for (int I = 0; I < N; ++I)
    ++Counts[Z.sample(RNG)];
  for (size_t I = 0; I != 4; ++I)
    EXPECT_NEAR(Counts[I] / double(N), Z.probability(I), 0.02);
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

TEST(Statistics, MeanBasics) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(mean({}), 0);
  EXPECT_DOUBLE_EQ(mean({-2, 2}), 0);
}

TEST(Statistics, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({7}), 7);
  EXPECT_DOUBLE_EQ(median({}), 0);
}

TEST(Statistics, MedianIgnoresOutliers) {
  EXPECT_DOUBLE_EQ(median({1, 2, 3, 4, 1000}), 3);
}

TEST(Statistics, Geomean) {
  EXPECT_NEAR(geomean({1, 100}), 10, 1e-9);
  EXPECT_NEAR(geomean({2, 8}), 4, 1e-9);
  EXPECT_DOUBLE_EQ(geomean({}), 0);
}

TEST(Statistics, StdDev) {
  EXPECT_DOUBLE_EQ(stddev({5}), 0);
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.138, 0.01);
}

TEST(Statistics, Percentile) {
  std::vector<double> V = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(V, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(V, 100), 40);
  EXPECT_DOUBLE_EQ(percentile(V, 50), 25);
}

//===----------------------------------------------------------------------===//
// TablePrinter
//===----------------------------------------------------------------------===//

TEST(TablePrinter, AlignsColumns) {
  TablePrinter TP;
  TP.setHeader({"name", "value"});
  TP.addRow({"a", "1"});
  TP.addRow({"long-name", "22"});
  std::string Out = TP.render();
  EXPECT_NE(Out.find("long-name"), std::string::npos);
  EXPECT_NE(Out.find("name"), std::string::npos);
  // Every line has the same length (aligned columns).
  std::vector<size_t> Lengths;
  for (size_t Start = 0, NL; (NL = Out.find('\n', Start)) != std::string::npos;
       Start = NL + 1)
    Lengths.push_back(NL - Start);
  ASSERT_EQ(Lengths.size(), 4u); // header, rule, two rows
  for (size_t Length : Lengths)
    EXPECT_EQ(Length, Lengths.front());
  EXPECT_EQ(Out.back(), '\n');
}

TEST(TablePrinter, FormatDouble) {
  EXPECT_EQ(TablePrinter::formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::formatDouble(-0.5, 1), "-0.5");
}

TEST(TablePrinter, SeparatorAndPadding) {
  TablePrinter TP;
  TP.setHeader({"a"});
  TP.addRow({"1", "extra"});
  TP.addSeparator();
  TP.addRow({});
  std::string Out = TP.render();
  EXPECT_NE(Out.find("extra"), std::string::npos);
  EXPECT_NE(Out.find("---"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Json text view
//===----------------------------------------------------------------------===//

TEST(JsonText, RendersSectionsTablesAndLexemes) {
  json::JsonParseResult R = json::parseJson(
      R"({"name":"demo","ok":true,"ratio":2.50,)"
      R"("nested":{"depth":2,"label":"x y"},)"
      R"("rows":[{"id":1,"tags":[7,8,9]},{"id":22,"tags":[]}],)"
      R"("empty":[]})");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(json::writeText(*R.Value),
            "name   demo  \n"
            "ok     true  \n"
            "ratio  2.50  \n"
            "\n"
            "nested:\n"
            "depth    2  \n"
            "label  x y  \n"
            "\n"
            "rows:\n"
            "id  tags  \n"
            "----------\n"
            " 1     3  \n"
            "22     0  \n");
}

//===----------------------------------------------------------------------===//
// ArgParser
//===----------------------------------------------------------------------===//

namespace {

/// Parser over \p Arguments whose errors surface as exceptions, so the
/// rejection paths are testable in-process (the default handler exits).
support::ArgParser parser(std::vector<std::string> Arguments) {
  support::ArgParser P(std::move(Arguments));
  P.setErrorHandler(
      [](const std::string &M) { throw std::runtime_error(M); });
  return P;
}

} // namespace

TEST(ArgParser, PositionalsComeInOrder) {
  support::ArgParser P = parser({"run", "prog.cbs"});
  EXPECT_EQ(P.positional("command"), "run");
  EXPECT_EQ(P.positional("program"), "prog.cbs");
  P.finish();
}

TEST(ArgParser, MissingPositionalFails) {
  support::ArgParser P = parser({});
  EXPECT_THROW(P.positional("command"), std::runtime_error);
}

TEST(ArgParser, OptionReturnsValueOrDefault) {
  support::ArgParser P = parser({"--json", "out.json"});
  EXPECT_EQ(P.option("--json", ""), "out.json");
  EXPECT_EQ(P.option("--save", "none"), "none");
  P.finish();
}

TEST(ArgParser, TrailingOptionWithoutValueFails) {
  support::ArgParser P = parser({"--json"});
  EXPECT_THROW(P.option("--json", ""), std::runtime_error);
}

TEST(ArgParser, OptionsAndPositionalsInterleave) {
  // Options must be pulled before positionals: an option's value is
  // indistinguishable from a positional until its name consumes it.
  support::ArgParser P = parser({"--jobs", "4", "compare", "--seed", "9"});
  EXPECT_EQ(P.optionUInt("--jobs", 0, 1, 1024), 4u);
  EXPECT_EQ(P.optionUInt("--seed", 1, 1, UINT64_MAX), 9u);
  EXPECT_EQ(P.positional("command"), "compare");
  P.finish();
}

TEST(ArgParser, OptionUIntStrictness) {
  // The whole value must lex as a plain decimal integer: no trailing
  // junk, no sign, no whitespace — strtoull accepts all three.
  for (const char *Bad : {"12x", "0x10", "+5", "-5", " 5", "5 "}) {
    support::ArgParser P = parser({"--stride", Bad});
    EXPECT_THROW(P.optionUInt("--stride", 1, 1, 100), std::runtime_error)
        << "accepted '" << Bad << "'";
  }
}

TEST(ArgParser, OptionUIntRangeChecked) {
  EXPECT_THROW(parser({"--stride", "0"}).optionUInt("--stride", 1, 1, 100),
               std::runtime_error);
  EXPECT_THROW(parser({"--stride", "101"}).optionUInt("--stride", 1, 1, 100),
               std::runtime_error);
  EXPECT_EQ(parser({"--stride", "100"}).optionUInt("--stride", 1, 1, 100),
            100u);
}

TEST(ArgParser, OptionUIntDefaultWhenAbsent) {
  support::ArgParser P = parser({});
  EXPECT_EQ(P.optionUInt("--jobs", 7, 1, 1024), 7u);
  P.finish();
}

TEST(ArgParser, OptionDoubleStrictness) {
  // Same contract as optionUInt: the whole value must lex as a plain
  // decimal number — no trailing junk ("0.9x"), no inf/nan, no hex
  // floats, no whitespace.
  for (const char *Bad :
       {"0.9x", "1e", "nan", "NaN", "inf", "-inf", "0x1p2", " 0.5", "0.5 ",
        "1.2.3", "--", "e5"}) {
    support::ArgParser P = parser({"--decay-factor", Bad});
    EXPECT_THROW(P.optionDouble("--decay-factor", 0.5, 0.0, 1.0),
                 std::runtime_error)
        << "accepted '" << Bad << "'";
  }
}

TEST(ArgParser, OptionDoubleAcceptsPlainDecimals) {
  EXPECT_DOUBLE_EQ(
      parser({"--f", "0.9"}).optionDouble("--f", 0.0, 0.0, 1.0), 0.9);
  EXPECT_DOUBLE_EQ(
      parser({"--f", "+0.25"}).optionDouble("--f", 0.0, 0.0, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(
      parser({"--f", "-2"}).optionDouble("--f", 0.0, -10.0, 10.0), -2.0);
  EXPECT_DOUBLE_EQ(
      parser({"--f", "1e2"}).optionDouble("--f", 0.0, 0.0, 1000.0), 100.0);
  EXPECT_DOUBLE_EQ(parser({}).optionDouble("--f", 0.75, 0.0, 1.0), 0.75);
}

TEST(ArgParser, OptionDoubleRangeChecked) {
  EXPECT_THROW(
      parser({"--f", "1.5"}).optionDouble("--f", 0.5, 0.0, 1.0),
      std::runtime_error);
  EXPECT_THROW(
      parser({"--f", "-0.1"}).optionDouble("--f", 0.5, 0.0, 1.0),
      std::runtime_error);
  // Overflow to infinity is out of any finite range.
  EXPECT_THROW(
      parser({"--f", "1e999"}).optionDouble("--f", 0.5, 0.0, 1e308),
      std::runtime_error);
}

TEST(ArgParser, OptionDoubleIsLocaleIndependent) {
  // Under a comma-decimal locale, strtod("0.9") stops at the period and
  // yields 0 — a silently wrong profile decay factor. The parser must
  // read the C-locale decimal point regardless of the process locale.
  std::string Saved = std::setlocale(LC_NUMERIC, nullptr);
  bool HaveLocale = std::setlocale(LC_NUMERIC, "de_DE.UTF-8") != nullptr ||
                    std::setlocale(LC_NUMERIC, "de_DE.utf8") != nullptr;
  if (!HaveLocale)
    GTEST_SKIP() << "no comma-decimal locale available in this image";
  double Parsed =
      parser({"--f", "0.9"}).optionDouble("--f", 0.0, 0.0, 1.0);
  std::setlocale(LC_NUMERIC, Saved.c_str());
  EXPECT_DOUBLE_EQ(Parsed, 0.9);
}

TEST(ArgParser, FlagConsumesAndReports) {
  support::ArgParser P = parser({"--force"});
  EXPECT_TRUE(P.flag("--force"));
  EXPECT_FALSE(P.flag("--force")) << "second query sees it consumed";
  EXPECT_FALSE(P.flag("--quiet"));
  P.finish();
}

TEST(ArgParser, FinishRejectsLeftovers) {
  support::ArgParser P = parser({"--jbos", "8"});
  EXPECT_THROW(P.finish(), std::runtime_error)
      << "typos must not be silently ignored";
}

TEST(ArgParser, SkipsArgvZero) {
  const char *Argv[] = {"cbsvm", "run"};
  support::ArgParser P(2, const_cast<char *const *>(Argv));
  P.setErrorHandler(
      [](const std::string &M) { throw std::runtime_error(M); });
  EXPECT_EQ(P.positional("command"), "run");
  P.finish();
}
