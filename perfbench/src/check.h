// Output checks run after the timed window: the correctness gate against
// an independent oracle, and (durable_edit) recovery of every acked edit
// by a fresh server on the same WAL directory.

#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/socket_client.h"
#include "workload.h"

namespace perfbench {

struct CheckResult {
  uint64_t ranges = 0;      ///< GETRANGE reads (gate) or OPENs (recovery).
  uint64_t cells = 0;       ///< Cells compared.
  uint64_t mismatches = 0;
  uint64_t recovered_records = 0;  ///< WAL records replayed (recovery).
  std::string first_mismatch;
};

/// Applies the warm-up edits and then each client's acked edits, in
/// client order, to the workload's own copies of the workbooks; evaluates
/// them with the recursive Evaluator; and compares every formula region,
/// read back with GETRANGE over `conns`, cell for cell. Leaves the
/// workbooks holding the final state.
CheckResult RunGate(Workload& workload,
                    const std::vector<CellEdit>& warmups,
                    const std::vector<std::vector<CellEdit>>& acked,
                    std::vector<taco::SocketClient>& conns);

/// OPENs every workbook on a server that recovered from the WAL and
/// checks that each acked SET's cell holds its last acked value.
CheckResult CheckRecovery(const Workload& workload,
                          const std::vector<CellEdit>& warmups,
                          const std::vector<std::vector<CellEdit>>& acked,
                          taco::SocketClient& conn);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
