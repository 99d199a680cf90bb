#include "layers.h"

#include <chrono>
#include <unordered_set>

#include "common/range_set.h"
#include "eval/evaluator.h"
#include "formula/parser.h"
#include "formula/references.h"
#include "graph/dependency_graph.h"
#include "service/protocol.h"
#include "service/workbook_service.h"
#include "sheet/textio.h"
#include "taco/taco_graph.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using taco::Cell;
using taco::Range;

/// Wall-clock cap per replay pass, so a slow build cannot push a traced
/// run past its time limit.
constexpr double kPassSeconds = 4.0;

double UsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// The formula edit as the recalc engine applies it: drop the cell's old
/// edges, then add one per distinct reference of the new formula.
taco::Status Maintain(taco::DependencyGraph& graph, const taco::Sheet& sheet,
                      const Cell& cell) {
  TACO_RETURN_IF_ERROR(graph.RemoveFormulaCells(Range(cell, cell)));
  std::unordered_set<Range> seen;
  for (const taco::A1Reference& ref :
       taco::ExtractReferences(*sheet.Get(cell)->formula().ast)) {
    if (!seen.insert(ref.range).second) continue;
    taco::Dependency dep;
    dep.prec = ref.range;
    dep.dep = cell;
    dep.head_flags = ref.head_flags;
    dep.tail_flags = ref.tail_flags;
    TACO_RETURN_IF_ERROR(graph.AddDependency(dep));
  }
  return taco::Status::OK();
}

}  // namespace

taco::Result<ModuleLayers> ReplayModules(const Workload& workload,
                                         const std::vector<Op>& ops) {
  ModuleLayers out;
  Clock::time_point pass_start = Clock::now();
  for (int b = 0; b < static_cast<int>(workload.books.size()); ++b) {
    const Book& book = workload.books[b];
    Clock::time_point start = Clock::now();
    TACO_ASSIGN_OR_RETURN(taco::Sheet sheet, taco::LoadSheetFile(book.path));
    out.load_ms += UsSince(start) / 1e3;

    taco::TacoGraph graph;
    start = Clock::now();
    TACO_RETURN_IF_ERROR(taco::BuildGraphFromSheet(sheet, &graph));
    out.build_ms += UsSince(start) / 1e3;
    out.edges += graph.NumEdges();

    taco::Evaluator evaluator(&sheet);
    sheet.ForEachFormulaCellColumnMajor(
        [&](const Cell& cell, const taco::FormulaCell&) {
          evaluator.EvaluateCell(cell);
        });

    for (const Op& op : ops) {
      if (op.book != b || !IsWrite(op.kind)) continue;
      if (std::chrono::duration<double>(Clock::now() - pass_start).count() >
          kPassSeconds) {
        break;
      }
      std::vector<Range> changed;
      for (const CellEdit& edit : op.edits) {
        if (edit.formula.empty()) {
          TACO_RETURN_IF_ERROR(sheet.SetNumber(edit.cell, edit.number));
        } else {
          start = Clock::now();
          auto parsed = taco::ParseFormula(edit.formula);
          out.parse_us.push_back(UsSince(start));
          TACO_RETURN_IF_ERROR(parsed.status());
          TACO_RETURN_IF_ERROR(sheet.SetFormula(edit.cell, edit.formula));
          start = Clock::now();
          TACO_RETURN_IF_ERROR(Maintain(graph, sheet, edit.cell));
          out.maintain_us.push_back(UsSince(start));
        }
        changed.emplace_back(edit.cell, edit.cell);
      }
      // The engine's merged recipe: disjoint seeds, one query each, the
      // union made disjoint.
      start = Clock::now();
      std::vector<Range> seeds = taco::DisjointifyRanges(changed);
      std::vector<Range> dirty_union;
      for (const Range& seed : seeds) {
        std::vector<Range> dirty = graph.FindDependents(seed);
        dirty_union.insert(dirty_union.end(), dirty.begin(), dirty.end());
      }
      std::vector<Range> dirty = taco::DisjointifyRanges(dirty_union);
      out.find_us.push_back(UsSince(start));

      start = Clock::now();
      for (const Range& seed : seeds) evaluator.Invalidate(seed);
      for (const Range& range : dirty) evaluator.Invalidate(range);
      out.invalidate_us.push_back(UsSince(start));

      for (const Range& range : dirty) {
        for (const Cell& cell : taco::EnumerateCells(range)) {
          if (sheet.IsFormulaCell(cell)) evaluator.EvaluateCell(cell);
        }
      }
    }
  }
  return out;
}

taco::Result<ServiceLayers> ReplayService(const Workload& workload,
                                          const std::vector<Op>& ops,
                                          const std::string& wal_dir) {
  taco::WorkbookServiceOptions options;
  options.recalc_threads = workload.spec->recalc_threads;
  if (workload.spec->wal) {
    options.wal_dir = wal_dir;
    options.group_commit = true;
  }
  taco::WorkbookService service(options);
  taco::CommandProcessor processor(&service);
  std::vector<std::shared_ptr<taco::WorkbookSession>> sessions;
  for (int b = 0; b < static_cast<int>(workload.books.size()); ++b) {
    const Book& book = workload.books[b];
    std::string loaded =
        processor.Execute("LOAD " + book.name + " " + book.path);
    std::string warmed =
        processor.Execute(EditCommand(workload, WarmupEdit(workload, b)));
    if (!loaded.starts_with("OK loaded") || !warmed.starts_with("OK set")) {
      return taco::Status::Internal("in-process setup of " + book.name +
                                    " failed: " + loaded + " / " + warmed);
    }
    TACO_ASSIGN_OR_RETURN(auto session, service.Get(book.name));
    sessions.push_back(std::move(session));
  }

  ServiceLayers out;
  Clock::time_point pass_start = Clock::now();
  for (const Op& op : ops) {
    if (std::chrono::duration<double>(Clock::now() - pass_start).count() >
        kPassSeconds) {
      break;
    }
    Clock::time_point start = Clock::now();
    std::string response = processor.Execute(op.text);
    double us = UsSince(start);
    if (response.starts_with("ERR")) {
      return taco::Status::Internal("in-process " + op.text + " -> " +
                                    response);
    }
    out.execute_us.push_back(us);
    if (op.kind == OpKind::kGet) out.execute_get_us.push_back(us);
  }

  pass_start = Clock::now();
  for (const Op& op : ops) {
    if (std::chrono::duration<double>(Clock::now() - pass_start).count() >
        kPassSeconds) {
      break;
    }
    taco::WorkbookSession& session = *sessions[op.book];
    taco::Result<taco::RecalcResult> result = taco::RecalcResult{};
    Clock::time_point start = Clock::now();
    switch (op.kind) {
      case OpKind::kGet:
        session.GetValue(op.range.head);
        out.read_us.push_back(UsSince(start));
        continue;
      case OpKind::kGetRange:
        session.GetRange(op.range);
        out.read_range_us.push_back(UsSince(start));
        continue;
      case OpKind::kSet:
        result = session.SetNumber(op.edits[0].cell, op.edits[0].number);
        break;
      case OpKind::kFormula:
        result = session.SetFormula(op.edits[0].cell, op.edits[0].formula);
        break;
      case OpKind::kBatch: {
        taco::EditBatch batch;
        for (const CellEdit& edit : op.edits) {
          batch.push_back(taco::Edit::SetNumber(edit.cell, edit.number));
        }
        result = session.ApplyBatch(batch);
        break;
      }
    }
    TACO_RETURN_IF_ERROR(result.status());
    out.eval_us.push_back(static_cast<double>(result->eval_ns) / 1e3);
    out.cells_evaluated.push_back(static_cast<double>(result->recalculated));
    out.waves.push_back(static_cast<double>(result->waves));
    out.barrier_us.push_back(static_cast<double>(result->barrier_wait_ns) /
                             1e3);
  }
  return out;
}

}  // namespace perfbench
