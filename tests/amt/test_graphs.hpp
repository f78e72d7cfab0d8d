// Small task-graph definitions used by the runtime tests.
#pragma once

#include <cassert>
#include <cstring>
#include <vector>

#include "amt/task_graph.hpp"

namespace amt_test {

using amt::DataCopy;
using amt::DataCopyPtr;
using amt::Dep;
using amt::RunContext;
using amt::TaskKey;

/// A linear chain of `length` tasks; task t runs on rank t % nodes and
/// passes an 8-byte counter that each task increments.
class ChainGraph final : public amt::TaskGraphDef {
 public:
  ChainGraph(int length, int nodes, bool real_data = true,
             std::size_t data_size = 8)
      : length_(length), nodes_(nodes), real_(real_data), size_(data_size) {}

  int num_inputs(const TaskKey& t) const override { return t.i == 0 ? 0 : 1; }
  int num_outputs(const TaskKey& t) const override {
    return t.i + 1 < length_ ? 1 : 0;
  }
  int rank_of(const TaskKey& t) const override { return t.i % nodes_; }
  void successors(const TaskKey& t, int, std::vector<Dep>& out) const override {
    if (t.i + 1 < length_) out.push_back(Dep{TaskKey{0, t.i + 1}, 0});
  }
  des::Duration execute(const TaskKey& t, RunContext& ctx) override {
    if (num_outputs(t) > 0) {
      DataCopyPtr out =
          real_ ? DataCopy::real(std::max<std::size_t>(size_, 8))
                : DataCopy::virt(size_);
      if (real_) {
        std::int64_t v = 0;
        if (t.i > 0 && ctx.input(0)->bytes) {
          std::memcpy(&v, ctx.input(0)->bytes->data(), sizeof v);
        }
        ++v;
        std::memcpy(out->bytes->data(), &v, sizeof v);
      }
      ctx.set_output(0, out);
    } else if (t.i > 0 && real_ && ctx.input(0)->bytes) {
      std::memcpy(&final_value_, ctx.input(0)->bytes->data(),
                  sizeof final_value_);
    }
    return 1000;  // 1 us body
  }
  void initial_tasks(int rank, std::vector<TaskKey>& out) const override {
    if (rank_of(TaskKey{0, 0}) == rank) out.push_back(TaskKey{0, 0});
  }
  std::uint64_t total_tasks() const override {
    return static_cast<std::uint64_t>(length_);
  }

  std::int64_t final_value() const { return final_value_; }

 private:
  int length_, nodes_;
  bool real_;
  std::size_t size_;
  std::int64_t final_value_ = -1;
};

/// One root task broadcasting a datum to `fanout` consumer tasks spread
/// round-robin over ranks (exercises the multicast tree).
class BroadcastGraph final : public amt::TaskGraphDef {
 public:
  BroadcastGraph(int fanout, int nodes, std::size_t data_size = 4096)
      : fanout_(fanout), nodes_(nodes), size_(data_size) {}

  int num_inputs(const TaskKey& t) const override {
    return t.cls == 0 ? 0 : 1;
  }
  int num_outputs(const TaskKey& t) const override {
    return t.cls == 0 ? 1 : 0;
  }
  int rank_of(const TaskKey& t) const override {
    return t.cls == 0 ? 0 : (1 + t.i) % nodes_;
  }
  void successors(const TaskKey& t, int, std::vector<Dep>& out) const override {
    if (t.cls != 0) return;
    for (int c = 0; c < fanout_; ++c) out.push_back(Dep{TaskKey{1, c}, 0});
  }
  des::Duration execute(const TaskKey& t, RunContext& ctx) override {
    if (t.cls == 0) {
      auto out = DataCopy::real(size_);
      std::memset(out->bytes->data(), 0x5A, size_);
      ctx.set_output(0, out);
    } else {
      const auto& in = ctx.input(0);
      if (in->bytes && (*in->bytes)[0] == std::byte{0x5A}) {
        ++verified_;
      }
    }
    return 500;
  }
  void initial_tasks(int rank, std::vector<TaskKey>& out) const override {
    if (rank == 0) out.push_back(TaskKey{0, 0});
  }
  std::uint64_t total_tasks() const override {
    return 1 + static_cast<std::uint64_t>(fanout_);
  }

  int verified() const { return verified_; }

 private:
  int fanout_, nodes_;
  std::size_t size_;
  int verified_ = 0;
};

/// N x N wavefront: task (i,j) depends on (i-1,j) and (i,j-1); values
/// propagate as out = left + up + 1, checkable against a sequential DP.
/// rank_of = (i + j) % nodes gives heavy cross-node traffic.
class WavefrontGraph final : public amt::TaskGraphDef {
 public:
  WavefrontGraph(int n, int nodes) : n_(n), nodes_(nodes) {}

  int num_inputs(const TaskKey& t) const override {
    return (t.i > 0 ? 1 : 0) + (t.j > 0 ? 1 : 0);
  }
  int num_outputs(const TaskKey& /*t*/) const override {
    // Flow 0 feeds (i+1, j); flow 1 feeds (i, j+1).
    return 2;
  }
  int rank_of(const TaskKey& t) const override {
    return (t.i + t.j) % nodes_;
  }
  void successors(const TaskKey& t, int flow,
                  std::vector<Dep>& out) const override {
    if (flow == 0 && t.i + 1 < n_) {
      // (i+1, j)'s input 0 is its "up" neighbour.
      out.push_back(Dep{TaskKey{0, t.i + 1, t.j}, 0});
    }
    if (flow == 1 && t.j + 1 < n_) {
      // (i, j+1)'s input layout: input 0 = up when i > 0, left otherwise.
      const int input = t.i > 0 ? 1 : 0;
      out.push_back(Dep{TaskKey{0, t.i, t.j + 1}, input});
    }
  }
  double priority(const TaskKey& t) const override {
    return static_cast<double>(2 * n_ - t.i - t.j);  // wavefront order
  }
  des::Duration execute(const TaskKey& t, RunContext& ctx) override {
    std::int64_t up = 0, left = 0;
    if (t.i > 0) read_value(ctx.input(0), up);
    if (t.j > 0) read_value(ctx.input(t.i > 0 ? 1 : 0), left);
    const std::int64_t v = up + left + 1;
    auto mk = [&]() {
      auto d = DataCopy::real(8);
      std::memcpy(d->bytes->data(), &v, 8);
      return d;
    };
    ctx.set_output(0, mk());
    ctx.set_output(1, mk());
    if (t.i == n_ - 1 && t.j == n_ - 1) corner_ = v;
    return 2000;
  }
  void initial_tasks(int rank, std::vector<TaskKey>& out) const override {
    if (rank_of(TaskKey{0, 0, 0}) == rank) out.push_back(TaskKey{0, 0, 0});
  }
  std::uint64_t total_tasks() const override {
    return static_cast<std::uint64_t>(n_) * static_cast<std::uint64_t>(n_);
  }

  std::int64_t corner() const { return corner_; }
  std::int64_t expected_corner() const {
    // Sequential DP reference.
    std::vector<std::vector<std::int64_t>> v(
        static_cast<std::size_t>(n_),
        std::vector<std::int64_t>(static_cast<std::size_t>(n_), 0));
    for (int i = 0; i < n_; ++i) {
      for (int j = 0; j < n_; ++j) {
        const std::int64_t up = i > 0 ? v[static_cast<std::size_t>(i - 1)]
                                         [static_cast<std::size_t>(j)]
                                      : 0;
        const std::int64_t left = j > 0 ? v[static_cast<std::size_t>(i)]
                                           [static_cast<std::size_t>(j - 1)]
                                        : 0;
        v[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            up + left + 1;
      }
    }
    return v[static_cast<std::size_t>(n_ - 1)]
            [static_cast<std::size_t>(n_ - 1)];
  }

 private:
  static void read_value(const DataCopyPtr& d, std::int64_t& v) {
    assert(d && d->bytes);
    std::memcpy(&v, d->bytes->data(), 8);
  }
  int n_, nodes_;
  std::int64_t corner_ = -1;
};

}  // namespace amt_test
