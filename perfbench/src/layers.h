// In-process replays for the traced run's per-layer figures: the leading
// commands of the traced window, replayed against each module's public
// functions (sheet load, formula parse, graph build/query/maintenance,
// evaluator invalidation) and against an in-process WorkbookService
// (CommandProcessor::Execute, then direct WorkbookSession calls whose
// RecalcResult carries the eval and scheduler figures). Nothing inside
// the program is instrumented; every timer sits around a public call.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "workload.h"

namespace perfbench {

struct ModuleLayers {
  double load_ms = 0;   ///< LoadSheetFile, summed over workbooks.
  double build_ms = 0;  ///< BuildGraphFromSheet (TACO), summed.
  uint64_t edges = 0;   ///< Compressed edges after the builds.
  std::vector<double> parse_us;       ///< ParseFormula per FORMULA.
  std::vector<double> maintain_us;    ///< RemoveFormulaCells + AddDependency.
  std::vector<double> find_us;        ///< FindDependents per edit command.
  std::vector<double> invalidate_us;  ///< Evaluator::Invalidate per edit.
};

/// Replays the edit commands of `ops`, workbook by workbook, from the
/// saved .tsheet files.
taco::Result<ModuleLayers> ReplayModules(const Workload& workload,
                                         const std::vector<Op>& ops);

struct ServiceLayers {
  std::vector<double> execute_us;      ///< Every command.
  std::vector<double> execute_get_us;  ///< GET commands only.
  std::vector<double> eval_us;         ///< RecalcResult::eval_ns per edit.
  std::vector<double> cells_evaluated; ///< RecalcResult::recalculated.
  std::vector<double> waves;           ///< RecalcResult::waves.
  std::vector<double> barrier_us;      ///< RecalcResult::barrier_wait_ns.
  std::vector<double> read_us;         ///< WorkbookSession::GetValue.
  std::vector<double> read_range_us;   ///< WorkbookSession::GetRange.
};

/// Replays `ops` on an in-process service configured like the workload's
/// server (WAL files under `wal_dir` when the workload logs).
taco::Result<ServiceLayers> ReplayService(const Workload& workload,
                                          const std::vector<Op>& ops,
                                          const std::string& wal_dir);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
