#include "check.h"

#include <algorithm>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common/a1.h"
#include "eval/evaluator.h"
#include "stats.h"

namespace perfbench {
namespace {

using taco::Cell;
using taco::Range;

/// Rows per GETRANGE: well under the protocol's 65536-cell limit.
constexpr int32_t kGateRows = 16384;

void Apply(Workload& workload, const CellEdit& edit) {
  taco::Sheet& sheet = workload.books[edit.book].corpus.sheet;
  if (edit.formula.empty()) {
    (void)sheet.SetNumber(edit.cell, edit.number);
  } else {
    (void)sheet.SetFormula(edit.cell, edit.formula);
  }
}

/// Every formula column of `book`, from its first to its last formula
/// row, cut into GETRANGE-sized pieces.
std::vector<Range> FormulaRegions(const Book& book) {
  std::map<int32_t, std::pair<int32_t, int32_t>> columns;
  book.corpus.sheet.ForEachFormulaCellColumnMajor(
      [&](const Cell& cell, const taco::FormulaCell&) {
        auto [it, fresh] =
            columns.try_emplace(cell.col, cell.row, cell.row);
        if (!fresh) {
          it->second.first = std::min(it->second.first, cell.row);
          it->second.second = std::max(it->second.second, cell.row);
        }
      });
  std::vector<Range> regions;
  for (const auto& [col, rows] : columns) {
    for (int32_t top = rows.first; top <= rows.second; top += kGateRows) {
      regions.emplace_back(col, top, col,
                           std::min(rows.second, top + kGateRows - 1));
    }
  }
  return regions;
}

void Mismatch(CheckResult* result, const std::string& what) {
  if (result->mismatches++ == 0) result->first_mismatch = what;
}

/// Compares one book's regions; runs on its own thread and connection.
void CheckBook(const Book& book, taco::Evaluator& oracle,
               taco::SocketClient& conn, CheckResult* result) {
  for (const Range& region : FormulaRegions(book)) {
    ++result->ranges;
    std::string where = book.name + " " + taco::RangeToA1(region);
    auto response = conn.Call("GETRANGE " + book.name + " " +
                              taco::RangeToA1(region));
    if (!response.ok() || !response->starts_with("OK range")) {
      Mismatch(result, where + ": " +
                           (response.ok() ? response->substr(0, 200)
                                          : response.status().ToString()));
      continue;
    }
    uint64_t expected_cells = 0;
    for (int32_t row = region.head.row; row <= region.tail.row; ++row) {
      if (book.corpus.sheet.Get(Cell{region.head.col, row}) != nullptr) {
        ++expected_cells;
      }
    }
    uint64_t served_cells = 0;
    size_t begin = response->find('\n') + 1;
    while (begin > 0 && begin < response->size()) {
      size_t end = response->find('\n', begin);
      if (end == std::string::npos) end = response->size();
      std::string_view line(response->data() + begin, end - begin);
      begin = end + 1;
      if (!line.starts_with("VALUE ")) continue;
      line.remove_prefix(6);
      size_t space = line.find(' ');
      std::string_view cell_text = line.substr(0, space);
      std::string_view served =
          space == std::string_view::npos ? "" : line.substr(space + 1);
      auto cell = taco::ParseCellA1(cell_text);
      ++served_cells;
      ++result->cells;
      if (!cell.ok()) {
        Mismatch(result, where + ": bad cell " + std::string(cell_text));
        continue;
      }
      std::string expected = oracle.EvaluateCell(*cell).ToString();
      if (served != expected) {
        Mismatch(result, book.name + " " + std::string(cell_text) +
                             ": served " + std::string(served) +
                             ", oracle " + expected);
      }
    }
    if (served_cells != expected_cells) {
      Mismatch(result, where + ": served " + std::to_string(served_cells) +
                           " cells, oracle has " +
                           std::to_string(expected_cells));
    }
  }
}

}  // namespace

CheckResult RunGate(Workload& workload, const std::vector<CellEdit>& warmups,
                    const std::vector<std::vector<CellEdit>>& acked,
                    std::vector<taco::SocketClient>& conns) {
  for (const CellEdit& edit : warmups) Apply(workload, edit);
  for (const auto& log : acked) {
    for (const CellEdit& edit : log) Apply(workload, edit);
  }

  const size_t books = workload.books.size();
  std::vector<std::unique_ptr<taco::Evaluator>> oracles(books);
  std::vector<CheckResult> per_book(books);
  // Thread t owns books t, t + n, ... and connection t, so no evaluator
  // or connection is shared between threads.
  const size_t n = std::min(conns.size(), books);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      for (size_t b = t; b < books; b += n) {
        const Book& book = workload.books[b];
        oracles[b] = std::make_unique<taco::Evaluator>(&book.corpus.sheet);
        // Column-major, top to bottom: every precedent of a generated
        // formula lies left of or above it, so recursion stays shallow.
        book.corpus.sheet.ForEachFormulaCellColumnMajor(
            [&](const Cell& cell, const taco::FormulaCell&) {
              oracles[b]->EvaluateCell(cell);
            });
        CheckBook(book, *oracles[b], conns[t], &per_book[b]);
        oracles[b].reset();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  CheckResult total;
  for (const CheckResult& r : per_book) {
    total.ranges += r.ranges;
    total.cells += r.cells;
    if (total.mismatches == 0 && r.mismatches > 0) {
      total.first_mismatch = r.first_mismatch;
    }
    total.mismatches += r.mismatches;
  }
  return total;
}

CheckResult CheckRecovery(const Workload& workload,
                          const std::vector<CellEdit>& warmups,
                          const std::vector<std::vector<CellEdit>>& acked,
                          taco::SocketClient& conn) {
  std::vector<std::unordered_map<Cell, double>> expected(
      workload.books.size());
  auto record = [&](const CellEdit& edit) {
    if (edit.formula.empty()) expected[edit.book][edit.cell] = edit.number;
  };
  for (const CellEdit& edit : warmups) record(edit);
  for (const auto& log : acked) {
    for (const CellEdit& edit : log) record(edit);
  }

  CheckResult result;
  for (size_t b = 0; b < workload.books.size(); ++b) {
    const std::string& name = workload.books[b].name;
    ++result.ranges;
    auto opened = conn.Call("OPEN " + name);
    auto storage = conn.Call("STORAGE " + name);
    if (!opened.ok() || !opened->starts_with("OK opened") || !storage.ok()) {
      Mismatch(&result, "OPEN " + name + " failed: " +
                            (opened.ok() ? *opened
                                         : opened.status().ToString()));
      continue;
    }
    result.recovered_records += static_cast<uint64_t>(
        FieldValue(*storage, "recovered").value_or(0));
    // Sorted, so the reads walk the sheet in a fixed order.
    std::map<Cell, double> cells(expected[b].begin(), expected[b].end());
    for (const auto& [cell, number] : cells) {
      ++result.cells;
      std::string want = "VALUE " + taco::CellToA1(cell) + " " +
                         taco::Value::Number(number).ToString();
      auto got = conn.Call("GET " + name + " " + taco::CellToA1(cell));
      if (!got.ok() || *got != want) {
        Mismatch(&result, name + ": expected '" + want + "', got '" +
                              (got.ok() ? *got : got.status().ToString()) +
                              "'");
      }
    }
  }
  return result;
}

}  // namespace perfbench
