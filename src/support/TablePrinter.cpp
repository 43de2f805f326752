//===- support/TablePrinter.cpp - Fixed-width table output ----------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "support/TablePrinter.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cstdio>

using namespace cbs;

void TablePrinter::setHeader(std::vector<std::string> Names) {
  assert(Rows.empty() && "setHeader must precede addRow");
  Header = std::move(Names);
}

void TablePrinter::addRow(std::vector<std::string> Cells) {
  Rows.push_back({std::move(Cells), /*Separator=*/false});
}

void TablePrinter::addSeparator() { Rows.push_back({{}, /*Separator=*/true}); }

static bool looksNumeric(const std::string &Cell) {
  if (Cell.empty())
    return false;
  for (char C : Cell)
    if (!(std::isdigit(static_cast<unsigned char>(C)) || C == '.' ||
          C == '-' || C == '+' || C == '%' || C == 'e' || C == 'E'))
      return false;
  return true;
}

std::string TablePrinter::render() const {
  size_t NumCols = Header.size();
  for (const Row &R : Rows)
    NumCols = std::max(NumCols, R.Cells.size());

  std::vector<size_t> Widths(NumCols, 0);
  for (size_t I = 0; I != Header.size(); ++I)
    Widths[I] = std::max(Widths[I], Header[I].size());
  for (const Row &R : Rows)
    for (size_t I = 0; I != R.Cells.size(); ++I)
      Widths[I] = std::max(Widths[I], R.Cells[I].size());

  auto appendCell = [&](std::string &Out, const std::string &Cell, size_t W) {
    bool RightAlign = looksNumeric(Cell);
    size_t Pad = W > Cell.size() ? W - Cell.size() : 0;
    if (RightAlign)
      Out.append(Pad, ' ');
    Out += Cell;
    if (!RightAlign)
      Out.append(Pad, ' ');
  };

  size_t TotalWidth = 0;
  for (size_t W : Widths)
    TotalWidth += W + 2;

  std::string Out;
  if (!Header.empty()) {
    for (size_t I = 0; I != NumCols; ++I) {
      const std::string &Cell = I < Header.size() ? Header[I] : std::string();
      std::string Padded = Cell;
      Padded.resize(Widths[I], ' ');
      Out += Padded;
      Out += "  ";
    }
    Out += '\n';
    Out.append(TotalWidth, '-');
    Out += '\n';
  }
  for (const Row &R : Rows) {
    if (R.Separator) {
      Out.append(TotalWidth, '-');
      Out += '\n';
      continue;
    }
    for (size_t I = 0; I != NumCols; ++I) {
      const std::string &Cell =
          I < R.Cells.size() ? R.Cells[I] : std::string();
      appendCell(Out, Cell, Widths[I]);
      Out += "  ";
    }
    Out += '\n';
  }
  return Out;
}

std::string TablePrinter::formatDouble(double Value, int Digits) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.*f", Digits, Value);
  return Buffer;
}
