// Application interface: a parameterized task graph (PTG-lite).
//
// The application describes its computation algebraically, the way a
// PaRSEC JDF does: given any task key the definition can answer who runs
// it, what its successors are, and how to execute its body.  The runtime
// instantiates task state on demand (first activation) and discards it at
// completion, so graphs with millions of tasks never exist in memory at
// once — only the execution frontier does.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "des/time.hpp"
#include "amt/task_key.hpp"

namespace amt {

class DataCopyPtr;

/// A piece of task data.  `bytes` may be null ("virtual" payload): the
/// size still drives communication timing, but no memory moves —
/// paper-scale experiments run this way.  Copying a DataCopy copies the
/// data reference, never the handle count.
class DataCopy {
 public:
  std::shared_ptr<std::vector<std::byte>> bytes;
  std::size_t size = 0;

  DataCopy() = default;
  DataCopy(const DataCopy& o) : bytes(o.bytes), size(o.size) {}
  DataCopy& operator=(const DataCopy& o) {
    bytes = o.bytes;
    size = o.size;
    return *this;
  }

  static DataCopyPtr real(std::size_t n);
  static DataCopyPtr virt(std::size_t n);

 private:
  friend class DataCopyPtr;
  std::uint32_t handles_ = 0;  ///< DataCopyPtrs naming this copy
};

/// An 8-byte counted handle to a heap DataCopy.  The simulation runs on
/// one OS thread, so the count is a plain integer inside the copy: taking
/// or dropping a handle is an increment or a decrement, where a
/// shared_ptr pays a locked read-modify-write for each.
class DataCopyPtr {
 public:
  DataCopyPtr() = default;
  DataCopyPtr(std::nullptr_t) {}  // NOLINT(runtime/explicit)
  DataCopyPtr(const DataCopyPtr& o) : p_(o.p_) {
    if (p_ != nullptr) ++p_->handles_;
  }
  DataCopyPtr(DataCopyPtr&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
  DataCopyPtr& operator=(DataCopyPtr o) noexcept {
    std::swap(p_, o.p_);
    return *this;
  }
  ~DataCopyPtr() { reset(); }

  /// A handle to a new heap copy of `c`.
  static DataCopyPtr make(const DataCopy& c) {
    return DataCopyPtr(new DataCopy(c));
  }

  void reset() {
    if (p_ != nullptr && --p_->handles_ == 0) delete p_;
    p_ = nullptr;
  }
  DataCopy* get() const { return p_; }
  DataCopy& operator*() const { return *p_; }
  DataCopy* operator->() const { return p_; }
  explicit operator bool() const { return p_ != nullptr; }
  friend bool operator==(const DataCopyPtr& a, std::nullptr_t) {
    return a.p_ == nullptr;
  }

 private:
  explicit DataCopyPtr(DataCopy* p) : p_(p) { ++p_->handles_; }

  DataCopy* p_ = nullptr;
};
static_assert(sizeof(DataCopyPtr) == 8);

inline DataCopyPtr DataCopy::real(std::size_t n) {
  DataCopy d;
  d.bytes = std::make_shared<std::vector<std::byte>>(n);
  d.size = n;
  return DataCopyPtr::make(d);
}

inline DataCopyPtr DataCopy::virt(std::size_t n) {
  DataCopy d;
  d.size = n;
  return DataCopyPtr::make(d);
}

/// The data copies of one task's inputs or outputs.  Up to kInline live
/// inline (every TLR Cholesky task fits), so a task's inputs and outputs
/// cost no heap allocation; longer lists spill to one heap array.
class CopyList {
 public:
  static constexpr std::size_t kInline = 5;

  /// Resizes to `n` null entries.
  void reset(std::size_t n) {
    for (auto& c : inline_) c.reset();
    spill_ = n > kInline ? std::make_unique<DataCopyPtr[]>(n) : nullptr;
    n_ = n;
  }
  std::size_t size() const { return n_; }

  DataCopyPtr& at(std::size_t i) {
    check(i);
    return n_ > kInline ? spill_[i] : inline_[i];
  }
  const DataCopyPtr& at(std::size_t i) const {
    check(i);
    return n_ > kInline ? spill_[i] : inline_[i];
  }

 private:
  void check(std::size_t i) const {
    if (i >= n_) throw std::out_of_range("CopyList index");
  }

  std::array<DataCopyPtr, kInline> inline_;
  std::unique_ptr<DataCopyPtr[]> spill_;
  std::size_t n_ = 0;
};

/// Handed to a task body: read inputs, publish outputs.
class RunContext {
 public:
  RunContext(CopyList& inputs, CopyList& outputs)
      : inputs_(inputs), outputs_(outputs) {}

  const DataCopyPtr& input(int idx) const {
    return inputs_.at(static_cast<std::size_t>(idx));
  }
  std::size_t num_inputs() const { return inputs_.size(); }

  /// Publishes the datum for output flow `flow`.  Every flow that has
  /// successors must be set before the body returns.
  void set_output(int flow, DataCopyPtr data) {
    outputs_.at(static_cast<std::size_t>(flow)) = std::move(data);
  }
  const DataCopyPtr& output(int flow) const {
    return outputs_.at(static_cast<std::size_t>(flow));
  }

 private:
  CopyList& inputs_;
  CopyList& outputs_;
};

/// The application-provided, immutable graph definition.  One instance is
/// shared by every simulated node (it encodes global knowledge the same
/// way a JDF compiled into every process does).
class TaskGraphDef {
 public:
  virtual ~TaskGraphDef() = default;

  /// Number of input dependencies of `t` (0 for source tasks).
  virtual int num_inputs(const TaskKey& t) const = 0;

  /// Number of output flows of `t`.
  virtual int num_outputs(const TaskKey& t) const = 0;

  /// Owner-computes rank for `t`.
  virtual int rank_of(const TaskKey& t) const = 0;

  /// Appends the consumers of output `flow` of `t` to `out`.
  virtual void successors(const TaskKey& t, int flow,
                          std::vector<Dep>& out) const = 0;

  /// Appends the consumers of output `flow` of `t` that `rank` owns, in
  /// successors() order.  A receiving node needs only its own consumers;
  /// a graph whose ownership is regular overrides this to skip the rest
  /// instead of enumerating and filtering them.
  virtual void successors_on(int rank, const TaskKey& t, int flow,
                             std::vector<Dep>& out) const {
    const std::size_t first = out.size();
    successors(t, flow, out);
    std::size_t kept = first;
    for (std::size_t i = first; i < out.size(); ++i) {
      if (rank_of(out[i].task) == rank) out[kept++] = out[i];
    }
    out.resize(kept);
  }

  /// Scheduling priority; larger runs earlier, and data for
  /// higher-priority consumers is fetched first.
  virtual double priority(const TaskKey& /*t*/) const { return 0.0; }

  /// Executes the body of `t` and returns its modeled duration.  The body
  /// must set every output flow that has successors.
  virtual des::Duration execute(const TaskKey& t, RunContext& ctx) = 0;

  /// Appends the source tasks (num_inputs == 0) owned by `rank`.
  virtual void initial_tasks(int rank, std::vector<TaskKey>& out) const = 0;

  /// Total number of tasks across all ranks (for completion checking).
  virtual std::uint64_t total_tasks() const = 0;

  /// Dense id of `t`: a bijection onto [0, total_tasks()), so per-task
  /// state can live in arrays.  The default hands out ids in first-use
  /// order from a map; a graph with regular structure overrides it with
  /// a closed form.
  virtual std::uint64_t task_id(const TaskKey& t) const {
    return ids_.try_emplace(t, ids_.size()).first->second;
  }

 private:
  mutable std::unordered_map<TaskKey, std::uint64_t, TaskKeyHash> ids_;
};

}  // namespace amt
