#include "workload.h"

#include <algorithm>
#include <cstdio>

#include "common/a1.h"
#include "graph/dependency_graph.h"
#include "sheet/textio.h"
#include "taco/taco_graph.h"

namespace perfbench {
namespace {

using taco::Cell;
using taco::Range;

constexpr uint64_t kMinFormulas = 3000;
constexpr uint64_t kMaxFormulas = 54000;
constexpr uint64_t kMinAnchorDependents = 100;
constexpr int kBooksPerProfile = 6;
constexpr int kMaxSheetIndex = 64;

constexpr size_t kSetPoolSample = 4096;
constexpr size_t kBatchPoolSample = 512;
constexpr size_t kFormulaPoolSample = 1024;
constexpr int kBatchRows = 8;
/// Fan-out limits of the low-fan-out (durable) workload.
constexpr uint64_t kLowFanoutSet = 32;
constexpr uint64_t kLowFanoutBatch = 64;
constexpr int kGetRangeCols = 4;
constexpr int kGetRangeRows = 50;

std::string Num(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Owner slot of `cell` in book `book`: 8-row column blocks share one,
/// and the anchor belongs to `anchor_owner`.
int OwnerOf(const Workload& w, int book, const Book& b, const Cell& cell) {
  if (cell == b.corpus.max_dependents_cell) return b.anchor_owner;
  int64_t key = int64_t{book} * 7 + int64_t{cell.col} * 3 + (cell.row - 1) / 8;
  return static_cast<int>(key % w.owners);
}

/// Cells dirtied by an edit of `range`, and the first of them (the
/// range's own head when nothing depends on it).
SetTarget FanOut(taco::DependencyGraph& graph, const Range& range) {
  SetTarget target;
  target.cell = range.head;
  target.dependent = range.head;
  for (const Range& dirty : graph.FindDependents(range)) {
    if (target.dirty == 0) target.dependent = dirty.head;
    target.dirty += dirty.Area();
  }
  return target;
}

template <typename T>
std::vector<T> Sample(const std::vector<T>& items, size_t n,
                      std::mt19937_64& rng) {
  std::vector<T> out;
  std::sample(items.begin(), items.end(), std::back_inserter(out), n, rng);
  return out;
}

taco::Status BuildPools(Workload& w, int index, Book& book) {
  const taco::Sheet& sheet = book.corpus.sheet;
  const Cell anchor = book.corpus.max_dependents_cell;
  const taco::CellContent* anchor_content = sheet.Get(anchor);
  if (anchor_content == nullptr || !anchor_content->IsNumber()) {
    return taco::Status::Internal("anchor of " + book.name +
                                  " is not a number");
  }
  std::vector<Cell> numbers;
  sheet.ForEachCellColumnMajor(
      [&](const Cell& cell, const taco::CellContent& content) {
        if (content.IsNumber()) numbers.push_back(cell);
      });
  sheet.ForEachFormulaCellColumnMajor(
      [&](const Cell& cell, const taco::FormulaCell&) {
        book.formula_cells.push_back(cell);
      });

  taco::TacoGraph graph;
  TACO_RETURN_IF_ERROR(taco::BuildGraphFromSheet(sheet, &graph));
  SetTarget anchor_target = FanOut(graph, Range(anchor, anchor));
  book.anchor_dirty = anchor_target.dirty;
  book.anchor_dependent = anchor_target.dependent;
  book.anchor_owner = index % w.owners;

  std::mt19937_64 rng(w.seed * 1000003u + static_cast<uint64_t>(index));
  book.set_pool.assign(w.owners, {});
  book.batch_pool.assign(w.owners, {});
  book.formula_pool.assign(w.owners, {});
  for (const Cell& cell : Sample(numbers, kSetPoolSample, rng)) {
    if (cell == anchor) continue;
    SetTarget target = FanOut(graph, Range(cell, cell));
    if (w.spec->low_fanout && target.dirty > kLowFanoutSet) continue;
    book.set_pool[OwnerOf(w, index, book, cell)].push_back(target);
  }

  auto is_number = [&](const Cell& cell) {
    const taco::CellContent* content = sheet.Get(cell);
    return content != nullptr && content->IsNumber();
  };
  std::vector<Cell> block_tops;
  for (const Cell& cell : numbers) {
    if ((cell.row - 1) % kBatchRows != 0) continue;
    if (cell.row + kBatchRows - 1 > taco::kMaxRow) continue;
    bool whole = true;
    for (int r = 0; r < kBatchRows && whole; ++r) {
      Cell member{cell.col, cell.row + r};
      whole = member != anchor && is_number(member);
    }
    if (whole) block_tops.push_back(cell);
  }
  for (const Cell& top : Sample(block_tops, kBatchPoolSample, rng)) {
    Range block(top.col, top.row, top.col, top.row + kBatchRows - 1);
    SetTarget target = FanOut(graph, block);
    if (w.spec->low_fanout && target.dirty > kLowFanoutBatch) continue;
    book.batch_pool[OwnerOf(w, index, book, top)].push_back(target);
  }

  for (const Cell& cell :
       Sample(book.formula_cells, kFormulaPoolSample, rng)) {
    book.formula_pool[OwnerOf(w, index, book, cell)].push_back(cell);
  }
  // Sorted by fan-out, so evenly spread draws cover cheap and costly
  // edits in their true proportions.
  auto by_fanout = [](const SetTarget& a, const SetTarget& b) {
    if (a.dirty != b.dirty) return a.dirty < b.dirty;
    return a.cell < b.cell;
  };
  for (int owner = 0; owner < w.owners; ++owner) {
    std::sort(book.set_pool[owner].begin(), book.set_pool[owner].end(),
              by_fanout);
    std::sort(book.batch_pool[owner].begin(), book.batch_pool[owner].end(),
              by_fanout);
  }
  return taco::Status::OK();
}

}  // namespace

std::string_view OpName(OpKind kind) {
  switch (kind) {
    case OpKind::kSet: return "SET";
    case OpKind::kFormula: return "FORMULA";
    case OpKind::kBatch: return "BATCH";
    case OpKind::kGet: return "GET";
    case OpKind::kGetRange: return "GETRANGE";
  }
  return "?";
}

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> all;
    WorkloadSpec recalc;
    recalc.name = "recalc_edit";
    recalc.recalc_threads = 2;
    recalc.roles.assign(4, Role::kEditor);
    // Per 40 commands: 26 SETs (a quarter of them at anchors), 4
    // FORMULA, 2 BATCH, 8 GET read-backs. The read share is twice a
    // typical editor's 10%, so a 30 s window holds the ~1000 reads a
    // steady read_p99_ms needs.
    recalc.editor_mix[static_cast<int>(Action::kAnchorSet)] = 7;
    recalc.editor_mix[static_cast<int>(Action::kUniformSet)] = 19;
    recalc.editor_mix[static_cast<int>(Action::kFormula)] = 4;
    recalc.editor_mix[static_cast<int>(Action::kBatch)] = 2;
    recalc.editor_mix[static_cast<int>(Action::kReadBack)] = 8;
    all.push_back(recalc);

    WorkloadSpec read;
    read.name = "read_mostly";
    read.roles = {Role::kReader, Role::kReader, Role::kReader, Role::kEditor};
    read.editor_mix[static_cast<int>(Action::kUniformSet)] = 1;
    read.reader_mix[static_cast<int>(Action::kGet)] = 1;
    read.reader_mix[static_cast<int>(Action::kGetRange)] = 1;
    all.push_back(read);

    WorkloadSpec durable;
    durable.name = "durable_edit";
    durable.wal = true;
    durable.roles.assign(4, Role::kEditor);
    durable.two_smallest_enron = true;
    durable.low_fanout = true;
    // Per 20 commands: 75% SET, 15% BATCH, 10% GET read-backs.
    durable.editor_mix[static_cast<int>(Action::kUniformSet)] = 15;
    durable.editor_mix[static_cast<int>(Action::kBatch)] = 3;
    durable.editor_mix[static_cast<int>(Action::kReadBack)] = 2;
    all.push_back(durable);
    return all;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

int Workload::OwnerSlot(int client) const {
  int slot = 0;
  for (int i = 0; i < static_cast<int>(spec->roles.size()); ++i) {
    if (spec->roles[i] == Role::kReader) continue;
    if (i == client) return slot;
    ++slot;
  }
  return -1;
}

taco::Result<Workload> PrepareWorkload(const WorkloadSpec& spec,
                                       uint64_t seed,
                                       const std::string& dir) {
  Workload w;
  w.spec = &spec;
  w.seed = seed;
  w.owners = 0;
  for (Role role : spec.roles) w.owners += role != Role::kReader ? 1 : 0;

  std::vector<taco::CorpusProfile> profiles = {taco::CorpusProfile::Enron()};
  if (!spec.two_smallest_enron) {
    profiles.push_back(taco::CorpusProfile::Github());
  }
  for (taco::CorpusProfile profile : profiles) {
    profile.fill_values = true;
    taco::CorpusGenerator generator(profile);
    std::vector<Book> chosen;
    for (int i = 0; i < kMaxSheetIndex &&
                    static_cast<int>(chosen.size()) < kBooksPerProfile;
         ++i) {
      Book book;
      book.corpus = generator.GenerateSheet(i);
      uint64_t formulas = book.corpus.sheet.formula_cell_count();
      if (formulas < kMinFormulas || formulas > kMaxFormulas ||
          book.corpus.expected_max_dependents < kMinAnchorDependents) {
        continue;
      }
      std::string lower = profile.name;
      std::transform(lower.begin(), lower.end(), lower.begin(), ::tolower);
      book.name = lower + "_" + std::to_string(i);
      chosen.push_back(std::move(book));
    }
    if (spec.two_smallest_enron) {
      std::stable_sort(chosen.begin(), chosen.end(),
                       [](const Book& a, const Book& b) {
                         return a.corpus.sheet.formula_cell_count() <
                                b.corpus.sheet.formula_cell_count();
                       });
      chosen.resize(std::min<size_t>(chosen.size(), 2));
    }
    for (Book& book : chosen) w.books.push_back(std::move(book));
  }

  for (int i = 0; i < static_cast<int>(w.books.size()); ++i) {
    Book& book = w.books[i];
    book.path = dir + "/" + book.name + ".tsheet";
    TACO_RETURN_IF_ERROR(taco::SaveSheetFile(book.corpus.sheet, book.path));
    TACO_RETURN_IF_ERROR(BuildPools(w, i, book));
  }
  return w;
}

CellEdit WarmupEdit(const Workload& workload, int book) {
  const Book& b = workload.books[book];
  CellEdit edit;
  edit.book = book;
  edit.cell = b.corpus.max_dependents_cell;
  edit.number = b.corpus.sheet.Get(edit.cell)->number();
  return edit;
}

std::string EditCommand(const Workload& workload, const CellEdit& edit) {
  const std::string& name = workload.books[edit.book].name;
  if (!edit.formula.empty()) {
    return "FORMULA " + name + " " + taco::CellToA1(edit.cell) + " " +
           edit.formula;
  }
  return "SET " + name + " " + taco::CellToA1(edit.cell) + " " +
         Num(edit.number);
}

CommandStream::CommandStream(const Workload* workload, int client)
    : workload_(workload),
      slot_(workload->OwnerSlot(client)),
      rng_(workload->seed * 0x9E3779B97F4A7C15ull +
           static_cast<uint64_t>(client) + 1) {
  const WorkloadSpec& spec = *workload->spec;
  const auto& mix = spec.roles[client] == Role::kReader ? spec.reader_mix
                                                        : spec.editor_mix;
  for (int a = 0; a < kActions; ++a) {
    cycle_.insert(cycle_.end(), mix[a], static_cast<Action>(a));
  }
  for (int i = 0; i < static_cast<int>(workload->books.size()); ++i) {
    book_order_.push_back(i);
    if (workload->books[i].anchor_owner == slot_) owned_anchors_.push_back(i);
  }
  std::shuffle(owned_anchors_.begin(), owned_anchors_.end(), rng_);
  draw_start_ = std::uniform_real_distribution<double>(0, 1)(rng_);
  draws_.assign(workload->books.size() * 4, 0);
  cycle_pos_ = cycle_.size();
  book_pos_ = book_order_.size();
}

Action CommandStream::NextAction() {
  if (cycle_pos_ == cycle_.size()) {
    std::shuffle(cycle_.begin(), cycle_.end(), rng_);
    cycle_pos_ = 0;
  }
  return cycle_[cycle_pos_++];
}

int CommandStream::NextBook() {
  if (book_pos_ == book_order_.size()) {
    std::shuffle(book_order_.begin(), book_order_.end(), rng_);
    book_pos_ = 0;
  }
  return book_order_[book_pos_++];
}

size_t CommandStream::Draw(int book, int pool, size_t size) {
  constexpr double kGolden = 0.6180339887498949;
  uint64_t k = draws_[static_cast<size_t>(book) * 4 + pool]++;
  double u = draw_start_ + static_cast<double>(k) * kGolden;
  u -= static_cast<double>(static_cast<uint64_t>(u));
  return std::min(size - 1, static_cast<size_t>(u * size));
}

double CommandStream::RandomValue() {
  // The generator's own data range.
  return std::uniform_int_distribution<int>(1, 97)(rng_);
}

Op CommandStream::MakeSet(int book, const SetTarget& target) {
  Op op;
  op.kind = OpKind::kSet;
  op.book = book;
  CellEdit edit;
  edit.book = book;
  edit.cell = target.cell;
  edit.number = RandomValue();
  op.text = EditCommand(*workload_, edit);
  op.range = Range(target.cell, target.cell);
  op.edits.push_back(std::move(edit));
  last_book_ = book;
  last_dependent_ = target.dependent;
  return op;
}

Op CommandStream::MakeFormula(int book) {
  const Book& b = workload_->books[book];
  const auto& pool = b.formula_pool[slot_];
  Cell cell = pool[Draw(book, 2, pool.size())];
  // Same references as the generated formula, so the rewrite keeps the
  // graph acyclic; the offset changes the value.
  const std::string& original = b.corpus.sheet.Get(cell)->formula().text;
  int offset = std::uniform_int_distribution<int>(0, 9)(rng_);
  Op op;
  op.kind = OpKind::kFormula;
  op.book = book;
  CellEdit edit;
  edit.book = book;
  edit.cell = cell;
  edit.formula = offset == 0 ? original
                             : "(" + original + ")+" + std::to_string(offset);
  op.text = EditCommand(*workload_, edit);
  op.range = Range(cell, cell);
  op.edits.push_back(std::move(edit));
  last_book_ = book;
  last_dependent_ = cell;
  return op;
}

Op CommandStream::MakeBatch(int book) {
  const Book& b = workload_->books[book];
  const auto& pool = b.batch_pool[slot_];
  const SetTarget& target = pool[Draw(book, 1, pool.size())];
  Op op;
  op.kind = OpKind::kBatch;
  op.book = book;
  op.text = "BATCH " + b.name + " " + std::to_string(kBatchRows);
  for (int r = 0; r < kBatchRows; ++r) {
    CellEdit edit;
    edit.book = book;
    edit.cell = Cell{target.cell.col, target.cell.row + r};
    edit.number = RandomValue();
    op.text += "\nSET " + taco::CellToA1(edit.cell) + " " + Num(edit.number);
    op.edits.push_back(std::move(edit));
  }
  op.range = Range(target.cell.col, target.cell.row, target.cell.col,
                   target.cell.row + kBatchRows - 1);
  last_book_ = book;
  last_dependent_ = target.dependent;
  return op;
}

Op CommandStream::MakeGet(int book, const Cell& cell) {
  Op op;
  op.kind = OpKind::kGet;
  op.book = book;
  op.range = Range(cell, cell);
  op.text = "GET " + workload_->books[book].name + " " + taco::CellToA1(cell);
  return op;
}

Op CommandStream::MakeGetRange(int book) {
  const auto& cells = workload_->books[book].formula_cells;
  Cell top = cells[Draw(book, 3, cells.size())];
  Op op;
  op.kind = OpKind::kGetRange;
  op.book = book;
  op.range = Range(top.col, top.row,
                   std::min(top.col + kGetRangeCols - 1, taco::kMaxCol),
                   std::min(top.row + kGetRangeRows - 1, taco::kMaxRow));
  op.text = "GETRANGE " + workload_->books[book].name + " " +
            taco::RangeToA1(op.range);
  return op;
}

Op CommandStream::Next() {
  Action action = NextAction();
  if (action == Action::kAnchorSet && !owned_anchors_.empty()) {
    int book = owned_anchors_[anchor_pos_++ % owned_anchors_.size()];
    const Book& b = workload_->books[book];
    SetTarget target;
    target.cell = b.corpus.max_dependents_cell;
    target.dependent = b.anchor_dependent;
    target.dirty = b.anchor_dirty;
    return MakeSet(book, target);
  }
  if (action == Action::kAnchorSet) action = Action::kUniformSet;
  if (action == Action::kGet || action == Action::kGetRange) {
    int book = NextBook();
    if (action == Action::kGetRange) return MakeGetRange(book);
    const auto& cells = workload_->books[book].formula_cells;
    return MakeGet(book, cells[Draw(book, 0, cells.size())]);
  }
  if (action != Action::kReadBack) {
    // Walk the book order until a book holds a target of this kind for
    // this client (pools are filtered by owner and, on durable_edit, by
    // fan-out).
    for (size_t attempt = 0; attempt < book_order_.size(); ++attempt) {
      int book = NextBook();
      const Book& b = workload_->books[book];
      if (action == Action::kUniformSet && !b.set_pool[slot_].empty()) {
        const auto& pool = b.set_pool[slot_];
        return MakeSet(book, pool[Draw(book, 0, pool.size())]);
      }
      if (action == Action::kFormula && !b.formula_pool[slot_].empty()) {
        return MakeFormula(book);
      }
      if (action == Action::kBatch && !b.batch_pool[slot_].empty()) {
        return MakeBatch(book);
      }
    }
  }
  if (last_book_ < 0) {
    int book = NextBook();
    const auto& cells = workload_->books[book].formula_cells;
    return MakeGet(book, cells[Draw(book, 0, cells.size())]);
  }
  return MakeGet(last_book_, last_dependent_);
}

}  // namespace perfbench
