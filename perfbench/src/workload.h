// The three workloads: which workbooks they serve, who owns which cells,
// and the command stream each client sends.
//
// The corpus is fixed: the first six Enron and first six Github sheets
// (profile seeds as shipped, data columns filled) whose formula count lies
// in [3000, 54000] and whose max-dependents anchor dirties at least 100
// formulas. Runs at different seeds therefore serve the same workbooks;
// --seed drives the traffic (which cells, which values, in what order).
//
// Ownership: every data cell a workload writes, and every formula cell it
// rewrites, belongs to exactly one writing client (8-row blocks of a
// column share an owner, so a row-adjacent BATCH stays with one client).
// Each client's edits to its own cells are acknowledged in order, so the
// final state is the same under any interleaving, and an oracle that
// applies every acked edit client by client reproduces it.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "common/cell.h"
#include "common/range.h"
#include "common/status.h"
#include "corpus/generator.h"

namespace perfbench {

enum class OpKind { kSet, kFormula, kBatch, kGet, kGetRange };

std::string_view OpName(OpKind kind);
inline bool IsWrite(OpKind kind) {
  return kind == OpKind::kSet || kind == OpKind::kFormula ||
         kind == OpKind::kBatch;
}

/// One cell edit as the client sent it. A non-empty `formula` is a
/// FORMULA rewrite (source without '='); otherwise a numeric SET.
struct CellEdit {
  int book = 0;
  taco::Cell cell;
  double number = 0;
  std::string formula;
};

/// One protocol command with the structure it was built from.
struct Op {
  OpKind kind = OpKind::kGet;
  int book = 0;
  std::vector<CellEdit> edits;  ///< SET/FORMULA: one; BATCH: eight.
  taco::Range range;            ///< GET: the cell; GETRANGE: the block.
  std::string text;             ///< The command as sent.
};

/// A data cell a client may SET, with one of its dependents (the GET
/// read-back target) and how many cells it dirties.
struct SetTarget {
  taco::Cell cell;
  taco::Cell dependent;
  uint64_t dirty = 0;
};

struct Book {
  std::string name;  ///< Session name.
  std::string path;  ///< The saved .tsheet file.
  taco::CorpusSheet corpus;
  uint64_t anchor_dirty = 0;
  taco::Cell anchor_dependent;
  int anchor_owner = 0;
  std::vector<taco::Cell> formula_cells;  ///< Column-major.
  /// Per owner slot.
  std::vector<std::vector<SetTarget>> set_pool;
  std::vector<std::vector<SetTarget>> batch_pool;  ///< Block top cells.
  std::vector<std::vector<taco::Cell>> formula_pool;
};

enum class Role { kEditor, kReader };

/// What a client does next. Each role repeats a cycle holding every
/// action its mix count times, in a seeded order.
enum class Action {
  kAnchorSet,   ///< SET of a max-dependents anchor the client owns.
  kUniformSet,  ///< SET of an owned data cell.
  kFormula,     ///< FORMULA rewriting an owned formula cell.
  kBatch,       ///< BATCH of 8 row-adjacent owned SETs.
  kReadBack,    ///< GET of a dependent of the client's last edit.
  kGet,         ///< GET of a formula cell.
  kGetRange,    ///< GETRANGE of a 4x50 block over a formula region.
};
inline constexpr int kActions = 7;

struct WorkloadSpec {
  std::string name;
  int recalc_threads = 0;
  bool wal = false;  ///< --wal-dir + --group-commit.
  std::vector<Role> roles;  ///< One per connection.
  /// Serve only the two smallest Enron workbooks.
  bool two_smallest_enron = false;
  /// Writes only to cells that dirty few formulas.
  bool low_fanout = false;
  /// Actions per cycle, indexed by Action.
  std::array<int, kActions> editor_mix{};
  std::array<int, kActions> reader_mix{};
};

const std::vector<WorkloadSpec>& AllWorkloads();
const WorkloadSpec* FindWorkload(std::string_view name);

struct Workload {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  int owners = 1;  ///< Writing clients (editors).
  std::vector<Book> books;

  /// Owner slot of a client, or -1 for a reader.
  int OwnerSlot(int client) const;
};

/// Generates the workload's workbooks, saves them under `dir`, and builds
/// the per-owner target pools (a seeded sample; FindDependents on a local
/// graph supplies each target's fan-out and read-back cell).
taco::Result<Workload> PrepareWorkload(const WorkloadSpec& spec,
                                       uint64_t seed, const std::string& dir);

/// The warm-up edit for a book: its anchor set to the value it already
/// holds, so the first recalc and the first full version build run
/// before timing without changing any value.
CellEdit WarmupEdit(const Workload& workload, int book);

/// The protocol text of a single SET or FORMULA.
std::string EditCommand(const Workload& workload, const CellEdit& edit);

/// A client's endless, seeded command stream. The same (seed, client)
/// always yields the same sequence.
///
/// Sampling is stratified so that a short window already holds the
/// workload's proportions: each cycle contains the exact action mix,
/// books are visited in seeded round-robin order, anchors in turn, and
/// draws from a pool (sorted by fan-out) follow a golden-ratio sequence
/// from a seeded start, which spreads them evenly over the pool.
class CommandStream {
 public:
  CommandStream(const Workload* workload, int client);
  Op Next();

 private:
  Op MakeSet(int book, const SetTarget& target);
  Op MakeFormula(int book);
  Op MakeBatch(int book);
  Op MakeGet(int book, const taco::Cell& cell);
  Op MakeGetRange(int book);
  Action NextAction();
  int NextBook();
  /// Next index into a pool of `size` items; `pool` picks the counter.
  size_t Draw(int book, int pool, size_t size);
  double RandomValue();

  const Workload* workload_;
  int slot_;
  std::mt19937_64 rng_;
  std::vector<Action> cycle_;
  size_t cycle_pos_ = 0;
  std::vector<int> book_order_;
  size_t book_pos_ = 0;
  std::vector<int> owned_anchors_;
  size_t anchor_pos_ = 0;
  double draw_start_ = 0;
  std::vector<uint64_t> draws_;  ///< Per (book, pool) counters.
  int last_book_ = -1;
  taco::Cell last_dependent_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
