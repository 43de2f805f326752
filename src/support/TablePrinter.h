//===- support/TablePrinter.h - Fixed-width table output ---------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-width table renderer used by the bench binaries to print
/// paper-style tables (Table 1, Table 2A/2B, Table 3) and figure series,
/// and by json::writeText for the text view of a JSON document.
/// Columns auto-size to their widest cell; numeric cells are right
/// aligned, text cells left aligned.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_SUPPORT_TABLEPRINTER_H
#define CBSVM_SUPPORT_TABLEPRINTER_H

#include <string>
#include <vector>

namespace cbs {

/// Accumulates rows of cells and renders them with aligned columns.
class TablePrinter {
public:
  /// Sets the column headers. Must be called before addRow.
  void setHeader(std::vector<std::string> Names);

  /// Appends a data row. Rows shorter than the header are padded with
  /// empty cells; longer rows extend the table width.
  void addRow(std::vector<std::string> Cells);

  /// Appends a horizontal separator line at the current position.
  void addSeparator();

  /// Renders the table to a string, ending with a newline.
  std::string render() const;

  /// Formats \p Value with \p Digits digits after the decimal point.
  static std::string formatDouble(double Value, int Digits);

private:
  struct Row {
    std::vector<std::string> Cells;
    bool Separator = false;
  };

  std::vector<std::string> Header;
  std::vector<Row> Rows;
};

} // namespace cbs

#endif // CBSVM_SUPPORT_TABLEPRINTER_H
