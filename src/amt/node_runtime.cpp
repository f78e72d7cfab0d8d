#include "amt/node_runtime.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <optional>
#include <string>

#include "obs/flight_recorder.hpp"

namespace amt {

NodeRuntime::NodeRuntime(des::Engine& engine, int rank, ce::CommEngine& comm,
                         TaskGraphDef& def, const RuntimeConfig& cfg,
                         NodeStats& stats, FaultState* ft)
    : eng_(engine), rank_(rank), comm_(comm), def_(def), cfg_(cfg),
      stats_(stats),
      comm_thread_(engine, "comm-" + std::to_string(rank),
                   cfg.comm_loop_cost, [this]() { return comm_body(); }),
      ft_(ft) {
  assert(def.total_tasks() < (std::uint64_t{1} << 32) &&
         "dense task ids must fit the 32-bit waiting-task index");
  static_assert(sizeof(Worker) <= 32, "worker row grew past 32 bytes");
  static_assert(sizeof(TaskState) <= 120, "task slot grew past 120 bytes");
  static_assert(sizeof(ProducedRecord) <= 96,
                "produced-data record grew past 96 bytes");
  static_assert(decltype(task_index_)::entry_bytes() == 8,
                "waiting-task index entries are 8 bytes");
}

void NodeRuntime::start() {
  comm_.set_wake_callback([this]() { comm_thread_.wake(); });
  comm_thread_.wake();

  // The two runtime active messages (§4.1) plus the put r_tag.  The tags
  // are compile-time distinct and the sizes within the backend AM limit,
  // so registration cannot fail here.
  ce::Status reg_st = comm_.tag_reg(
      wire::kTagActivate,
      [](ce::CommEngine&, ce::Tag, const void* msg, std::size_t size,
         int src, void* self) {
        static_cast<NodeRuntime*>(self)->on_activate(msg, size, src);
      },
      this, 12 * 1024);
  assert(reg_st == ce::Status::Ok);
  reg_st = comm_.tag_reg(
      wire::kTagGetData,
      [](ce::CommEngine&, ce::Tag, const void* msg, std::size_t size,
         int src, void* self) {
        static_cast<NodeRuntime*>(self)->on_getdata(msg, size, src);
      },
      this, 256);
  assert(reg_st == ce::Status::Ok);
  reg_st = comm_.tag_reg(
      wire::kTagDataArrived,
      [](ce::CommEngine&, ce::Tag, const void* msg, std::size_t size,
         int src, void* self) {
        static_cast<NodeRuntime*>(self)->on_data_arrived(msg, size, src);
      },
      this, 256);
  assert(reg_st == ce::Status::Ok);
  (void)reg_st;

  // Source tasks.  A source's chain starts at time zero; the gap until it
  // is scheduled counts as runtime overhead, keeping the critical-path
  // invariant (sums total == finish time) from the start.
  std::vector<TaskKey> initial;
  def_.initial_tasks(rank_, initial);
  for (const TaskKey& t : initial) {
    assert(def_.num_inputs(t) == 0 && "initial task with inputs");
    source_ready(t, charged_now());
  }
}

des::Duration NodeRuntime::worker_busy_time() const {
  des::Duration total = 0;
  if (workers_) {
    for (const Worker& w : *workers_) total += w.busy_time();
  }
  return total;
}

des::Time NodeRuntime::threads_free_at() const {
  des::Time t = comm_thread_.busy_until();
  if (workers_) {
    for (const Worker& w : *workers_) t = std::max(t, w.busy_until());
  }
  return t;
}

std::string NodeRuntime::track_name(const des::ChargeTarget& t) const {
  const auto& w = static_cast<const Worker&>(t);
  return "worker-" + std::to_string(rank_) + "." +
         std::to_string(cfg_.workers - 1 - static_cast<int>(w.index));
}

void NodeRuntime::wake_comm() { comm_thread_.wake(); }

// ---------------------------------------------------------------------------
// Scheduling

void NodeRuntime::source_ready(const TaskKey& key, des::Time rel_g) {
  const std::uint32_t slot = task_states_.acquire();
  TaskState& st = task_states_[slot];
  st.key = key;
  st.remaining = 0;
  st.inputs.reset(0);
  // The chain starts at time zero; the gap until release counts as
  // runtime overhead, so pred.total() == rel_g (the critical-path
  // invariant).
  st.in_sums = PathSums{};
  st.in_sums.overhead = rel_g;
  st.release_g = rel_g;
  task_ready(slot);
}

void NodeRuntime::task_ready(std::uint32_t slot) {
  const TaskKey key = task_states_[slot].key;
  if (dead_) {
    release_task(slot);
    return;
  }
  if (ft_ != nullptr) {
    if (ft_->lineage.is_done(key)) {
      ++stats_.dup_completions_suppressed;
      release_task(slot);
      return;
    }
    ft_->lineage.mark_ready(key);
  }
  ready_.push(ReadyRef{def_.priority(key), ready_seq_++, slot});
  try_dispatch();
}

void NodeRuntime::release_task(std::uint32_t slot) {
  task_states_[slot].inputs.reset(0);
  task_states_.release(slot);
}

void NodeRuntime::try_dispatch() {
  while (!ready_.empty()) {
    Worker* w;
    if (!idle_workers_.empty()) {
      w = &(*workers_)[idle_workers_.back()];
      idle_workers_.pop_back();
    } else if (workers_started() < cfg_.workers) {
      // Every built worker is busy: build the next row.
      if (!workers_) workers_.emplace();
      const des::ChargeTarget::Namer& namer = *this;
      w = &workers_->emplace_back(
          namer, static_cast<std::uint32_t>(workers_->size()));
    } else {
      return;
    }
    w->slot = ready_.top().slot;
    ready_.pop();
    // A worker handed its own next task while still inside its item gets
    // it dispatched when the item ends (run_worker).
    if (des::ChargeTarget::current() != w) dispatch(*w);
  }
}

void NodeRuntime::dispatch(Worker& w) {
  w.schedule_item(eng_, cfg_.scheduler_cost, [this, &w]() { run_worker(w); });
}

void NodeRuntime::run_worker(Worker& w) {
  const std::uint32_t slot = w.slot;
  w.slot = kNoTask;
  w.run_item(eng_, cfg_.scheduler_cost, "task",
             [&]() { run_task(w, slot); });
  if (w.slot != kNoTask) dispatch(w);
}

void NodeRuntime::run_task(Worker& w, std::uint32_t slot) {
  // Fail-stop: work items queued before the crash still fire (they live
  // under owner 0, not the node), but a dead node does no work.
  if (dead_) return;
  TaskState& task = task_states_[slot];
  if (ft_ != nullptr && ft_->lineage.is_done(task.key)) {
    // Lost the race with a re-execution elsewhere (possible only after a
    // false-positive death verdict): drop the duplicate run.
    ++stats_.dup_completions_suppressed;
    release_task(slot);
    idle_workers_.push_back(w.index);
    try_dispatch();
    return;
  }
  // Task bodies never nest, so one output list serves every worker.
  CopyList& outputs = outputs_;
  outputs.reset(static_cast<std::size_t>(def_.num_outputs(task.key)));
  RunContext ctx(task.inputs, outputs);
  std::optional<des::ChargeSpan> span;
  if (eng_.trace_sink() != nullptr) {
    char label[64];
    std::snprintf(label, sizeof label, "T%d(%d,%d,%d)", task.key.cls,
                  task.key.i, task.key.j, task.key.k);
    span.emplace(eng_, label);
  }
  const des::Time start_g = charged_now();
  const des::Duration body = def_.execute(task.key, ctx);
  des::charge_current(body + cfg_.task_epilogue_cost);
  span.reset();  // the span covers execute + epilogue, not the releases
  ++stats_.tasks_executed;
  obs::FlightRecorder::global().record(
      rank_, obs::FlightKind::TaskDone, eng_.now(), 0,
      TaskKeyHash{}(task.key), stats_.tasks_executed);

  // Critical path: extend the trigger input's chain through this task.
  // The wait between release and body start is runtime overhead (scheduler
  // queue + worker availability); body + epilogue is compute.  The
  // invariant chain.total() == finish_g holds because pred_sums.total()
  // == release_g at every hand-off.
  const des::Time finish_g = charged_now();
  PathSums chain = task.in_sums;
  chain.overhead += start_g - task.release_g;
  chain.compute += finish_g - start_g;
  ++chain.tasks;
  crit_.observe(finish_g, chain, task.key);
  stats_.stages[Stage::TaskStart].add(
      static_cast<double>(start_g - task.release_g));

  task_completed(task.key, outputs, chain);
  outputs.reset(0);
  release_task(slot);
  idle_workers_.push_back(w.index);
  try_dispatch();
}

void NodeRuntime::deliver_local(const Dep& dep, const DataCopyPtr& copy,
                                const PathSums& prod, bool remote,
                                des::Time release_g) {
  const std::uint32_t id = task_id(dep.task);
  if (ft_ != nullptr && ft_->lineage.is_done_by_id(id)) {
    // Re-delivery to a task that already ran (recovery re-announce).
    ++stats_.dup_inputs_dropped;
    return;
  }
  std::uint32_t slot = task_index_.find(id);
  if (slot == task_index_.kNone) {
    slot = task_states_.acquire();
    task_index_.insert(id, slot);
    TaskState& fresh = task_states_[slot];
    fresh.key = dep.task;
    fresh.remaining = def_.num_inputs(dep.task);
    fresh.inputs.reset(static_cast<std::size_t>(fresh.remaining));
    fresh.has_sums = false;
    assert(fresh.remaining > 0);
  }
  TaskState& st = task_states_[slot];
  auto& input = st.inputs.at(static_cast<std::size_t>(dep.input));
  if (input != nullptr) {
    assert(ft_ != nullptr && "input delivered twice");
    ++stats_.dup_inputs_dropped;
    return;
  }
  input = copy;
  // The latest release is the trigger: its chain gates the task.  The gap
  // between the producer chain's end and this release is communication
  // time when the input crossed the wire, runtime overhead otherwise.  A
  // negative gap means the delivery overlapped the producer's charged
  // compute (messages inject at the uncharged event time); the overlapped
  // portion was not actually on the path, so it comes out of compute.
  if (!st.has_sums || release_g >= st.release_g) {
    PathSums in = prod;
    const des::Duration gap = release_g - in.total();
    if (gap >= 0) {
      (remote ? in.comm : in.overhead) += gap;
    } else {
      in.compute += gap;
    }
    st.in_sums = in;
    st.release_g = release_g;
    st.has_sums = true;
  }
  if (--st.remaining == 0) {
    task_index_.erase(id);
    task_ready(slot);
  }
}

void NodeRuntime::task_completed(const TaskKey& key, const CopyList& outputs,
                                 const PathSums& chain) {
  if (ft_ != nullptr) {
    if (ft_->lineage.is_done(key)) {
      ++stats_.dup_completions_suppressed;
      return;
    }
    ft_->lineage.mark_done(key);
  }
  const int nout = def_.num_outputs(key);
  for (int f = 0; f < nout; ++f) {
    deps_scratch_.clear();
    def_.successors(key, f, deps_scratch_);
    if (deps_scratch_.empty()) continue;
    const DataCopyPtr& copy = outputs.at(static_cast<std::size_t>(f));
    assert(copy != nullptr && "task did not set an output with successors");

    std::vector<std::int32_t>& remote_ranks = remote_scratch_;
    remote_ranks.clear();
    double remote_prio = 0.0;
    bool off_node = false;  // any consumer homed elsewhere, Done or not
    for (const Dep& dep : deps_scratch_) {
      if (ft_ != nullptr && ft_->lineage.is_done(dep.task)) {
        off_node = off_node || owner_rank(dep.task) != rank_;
        continue;
      }
      const int r = owner_rank(dep.task);
      if (r == rank_) {
        deliver_local(dep, copy, chain, /*remote=*/false, charged_now());
      } else {
        off_node = true;
        if (std::find(remote_ranks.begin(), remote_ranks.end(), r) ==
            remote_ranks.end()) {
          remote_ranks.push_back(r);
        }
        remote_prio = std::max(remote_prio, def_.priority(dep.task));
      }
    }
    if (ft_ != nullptr && off_node) {
      // The producer's home keeps every flow a consumer on another node
      // may need again: recovery re-announces and a GET DATA after
      // retirement read this log, and only here.  A Done consumer counts
      // too, since a later crash can re-arm it on another node.
      ProducedRecord& rec = produced_[produced_.acquire()];
      rec.flow = FlowKey{key, f};
      rec.copy = *copy;
      rec.path = chain;
      rec.priority = remote_prio;
      ++stats_.produced_records;
    }
    if (!remote_ranks.empty()) {
      std::sort(remote_ranks.begin(), remote_ranks.end());
      publish_remote(FlowKey{key, f}, copy, remote_prio, eng_.now(), chain,
                     remote_ranks);
    }
  }
}

// ---------------------------------------------------------------------------
// Multicast publication (producer or forwarding node).  Keeps nothing
// for recovery: task_completed logs the flow on the producer's home.

void NodeRuntime::publish_remote(
    const FlowKey& flow, const DataCopyPtr& copy, double priority,
    des::Time root_ts, const PathSums& path,
    const std::vector<std::int32_t>& destinations) {
  // Split the destination list into at most `multicast_arity` children;
  // each child receives a contiguous slice of the remainder to forward.
  const int arity = std::max(1, cfg_.multicast_arity);
  const auto n = static_cast<int>(destinations.size());
  const int children = std::min(arity, n);

  std::uint32_t slot = outgoing_index_.find(flow);
  if (slot == outgoing_index_.kNone) {
    slot = outgoing_.acquire();
    outgoing_index_.insert(flow, slot);
    OutgoingData& out = outgoing_[slot];
    out.owner = this;
    out.flow = flow;
    out.slot = slot;
    out.copy = copy;
    out.expected_gets = children;
    out.gets_served = 0;
    out.puts_inflight = 0;
  } else {
    // Re-publication (recovery re-announce): serve the extra children
    // from the existing entry.
    assert(ft_ != nullptr && "flow published twice");
    outgoing_[slot].expected_gets += children;
  }

  const int rest = n - children;
  int consumed = children;
  for (int c = 0; c < children; ++c) {
    const int share = rest / children + (c < rest % children ? 1 : 0);
    wire::ActivationRecord rec;
    rec.flow = flow;
    rec.size = copy->size;
    rec.src_rank = rank_;
    rec.priority = priority;
    rec.root_ts = root_ts;
    rec.send_ts = eng_.now();
    rec.real = copy->bytes != nullptr ? 1 : 0;
    rec.trace = new_ctx(flow);
    rec.path = path;
    if (share > 0) {
      rec.subtree = subtrees_.take();
      rec.subtree.assign(destinations.begin() + consumed,
                         destinations.begin() + consumed + share);
    }
    consumed += share;
    emit_activation(destinations[static_cast<std::size_t>(c)],
                    std::move(rec));
  }
  assert(consumed == n);
}

void NodeRuntime::emit_activation(int dst, wire::ActivationRecord&& rec) {
  ++stats_.activations_sent;
  // Stamps are event times (no pending-charge correction): messages are
  // injected at the current sim time, so charged stamps would run ahead
  // of the wire.  Within-callback CPU is charged, not elapsed — it shows
  // up as wait time of whatever queues behind this thread.
  rec.enqueue_ts = eng_.now();
  if (cfg_.mt_activate) {
    // §6.4.3: the worker (or whichever thread completes the flow) sends
    // directly.  No aggregation.
    des::charge_current(cfg_.activate_pack_cost);
    rec.send_ts = eng_.now();
    send_activate_am(dst, &rec, 1);
    subtrees_.give(rec.subtree);
  } else {
    auto [it, created] = outgoing_activations_.try_emplace(dst);
    if (created) it->second = record_vectors_.take();
    it->second.push_back(std::move(rec));
    wake_comm();
  }
}

void NodeRuntime::send_activate_am(int dst,
                                   const wire::ActivationRecord* records,
                                   std::size_t count) {
  if (eng_.trace_sink() != nullptr) {
    for (std::size_t i = 0; i < count; ++i) {
      des::emit_flow(eng_, "activate", records[i].trace.span_id,
                     /*begin=*/true);
    }
  }
  wire::pack_activate(activate_buf_, records, count);
  const ce::Status st = comm_.send_am(wire::kTagActivate, dst,
                                      activate_buf_.data(),
                                      activate_buf_.size());
  assert(st == ce::Status::Ok && "activation batch exceeds AM limit");
  (void)st;
  ++stats_.activate_ams;
}

bool NodeRuntime::flush_activations() {
  bool sent = false;
  for (auto& [dst, records] : outgoing_activations_) {
    std::size_t next = 0;
    while (next < records.size()) {
      // Aggregate as many records as fit under the batch limit (§4.3).
      const std::size_t first = next;
      std::size_t bytes = sizeof(std::uint16_t);
      while (next < records.size() &&
             (next == first ||
              bytes + wire::record_wire_size(records[next]) <=
                  cfg_.am_batch_bytes)) {
        bytes += wire::record_wire_size(records[next]);
        des::charge_current(cfg_.activate_pack_cost);
        records[next].send_ts = eng_.now();
        ++next;
      }
      send_activate_am(dst, records.data() + first, next - first);
      sent = true;
    }
    for (auto& rec : records) subtrees_.give(rec.subtree);
    records.clear();
  }
  if (sent) {
    for (auto it = outgoing_activations_.begin();
         it != outgoing_activations_.end();) {
      if (!it->second.empty()) {
        ++it;
        continue;
      }
      record_vectors_.give(it->second);
      it = outgoing_activations_.erase(it);
    }
  }
  return sent;
}

// ---------------------------------------------------------------------------
// Receiving side

void NodeRuntime::on_activate(const void* msg, std::size_t size, int src) {
  (void)src;
  const std::size_t count = wire::unpack_activate(msg, size, unpacked_);
  for (std::size_t r = 0; r < count; ++r) {
    const wire::ActivationRecord& rec = unpacked_[r];
    // One sub-span per aggregated record: this is the per-record work that
    // makes the ACTIVATE callback block progress on the MPI backend (§4.3).
    std::optional<des::ChargeSpan> span;
    if (eng_.trace_sink() != nullptr) span.emplace(eng_, "activate.rec");
    const des::Time reached_ts = eng_.now();
    des::emit_flow(eng_, "activate", rec.trace.span_id, /*begin=*/false);
    des::charge_current(cfg_.activate_unpack_cost);
    // This node's consumers of the flow.  Until recovery re-homes a task,
    // every home is the owner-computes rank and the graph can enumerate
    // just this rank's consumers; after that, filter by lineage home.
    std::vector<Dep>& local_deps = deps_scratch_;
    local_deps.clear();
    if (ft_ == nullptr || !ft_->lineage.rehomed()) {
      def_.successors_on(rank_, rec.flow.producer, rec.flow.flow, local_deps);
    } else {
      def_.successors(rec.flow.producer, rec.flow.flow, local_deps);
      std::erase_if(local_deps, [this](const Dep& dep) {
        return owner_rank(dep.task) != rank_;
      });
    }
    double prio = rec.priority;
    std::size_t kept = 0;
    for (const Dep& dep : local_deps) {
      if (ft_ != nullptr && ft_->lineage.is_done(dep.task)) continue;
      local_deps[kept++] = dep;
      prio = std::max(prio, def_.priority(dep.task));
    }
    local_deps.resize(kept);
    // Iterating descendants is the expensive part of the callback (§4.3).
    des::charge_current(static_cast<des::Duration>(local_deps.size()) *
                        cfg_.activate_per_dep_cost);
    const des::Time activated_ts = eng_.now();

    if (rec.size == 0 && rec.subtree.empty()) {
      // Control-only dependency: nothing to fetch; release immediately.
      // The lifecycle ends at activation, so the latency endpoint and the
      // last e2e stage are the activation-processed stamp; the fetch and
      // transfer stages contribute zero samples, keeping stage counts and
      // the telescoping sum aligned with the e2e histogram.
      const des::Time end = activated_ts;
      stats_.latency.add(static_cast<double>(end - rec.send_ts),
                         static_cast<double>(end - rec.root_ts));
      ++stats_.data_arrivals;
      record_stages(rec, reached_ts, end, end, end, end);
      const des::Time rel0 = charged_now();
      des::charge_current(static_cast<des::Duration>(local_deps.size()) *
                          cfg_.release_per_dep_cost);
      stats_.stages[Stage::Release].add(
          static_cast<double>(charged_now() - rel0));
      auto empty = DataCopy::virt(0);
      for (const Dep& dep : local_deps) {
        deliver_local(dep, empty, rec.path, /*remote=*/true, end);
      }
      continue;
    }

    const FlowKey flow = rec.flow;
    const std::uint32_t fetching = pending_index_.find(flow);
    if (ft_ != nullptr && fetching != pending_index_.kNone) {
      // A recovery re-announce of a flow this node already fetches.  The
      // verdict may have re-homed more consumers here since the fetch
      // was announced: the arriving data releases them too.
      std::vector<Dep>& listed = pending_[fetching].local_deps;
      const std::size_t before = listed.size();
      for (const Dep& dep : local_deps) {
        if (std::none_of(listed.begin(), listed.begin() + before,
                         [&](const Dep& d) {
                           return d.task == dep.task && d.input == dep.input;
                         })) {
          listed.push_back(dep);
        }
      }
      ++stats_.stale_activations;
      continue;
    }
    if (ft_ != nullptr && local_deps.empty() && rec.subtree.empty()) {
      // Every consumer completed meanwhile (a recovery re-announce).
      ++stats_.stale_activations;
      continue;
    }
    assert(fetching == pending_index_.kNone && "duplicate activation for flow");
    const std::uint32_t slot = pending_.acquire();
    pending_index_.insert(flow, slot);
    // Copy-assign into the recycled slot: its vectors keep their storage.
    PendingFetch& pf = pending_[slot];
    pf.record = rec;
    pf.local_deps.assign(local_deps.begin(), local_deps.end());
    pf.buffer.reset();
    pf.fetch_priority = prio;
    pf.requested = false;
    pf.reached_ts = reached_ts;
    pf.activated_ts = activated_ts;
    pf.requested_ts = 0;
    fetch_queue_.push(FetchOrder{prio, fetch_seq_++, flow});
    if (inflight_fetches_ >= cfg_.max_inflight_fetches) {
      ++stats_.getdata_deferred;
    }
  }
  issue_fetches();
}

bool NodeRuntime::issue_fetches() {
  bool issued = false;
  while (inflight_fetches_ < cfg_.max_inflight_fetches &&
         !fetch_queue_.empty()) {
    const FetchOrder fo = fetch_queue_.top();
    fetch_queue_.pop();
    const std::uint32_t slot = pending_index_.find(fo.flow);
    if (ft_ != nullptr &&
        (slot == pending_index_.kNone || pending_[slot].requested)) {
      continue;  // entry purged (dead server) or superseded; skip
    }
    assert(slot != pending_index_.kNone);
    PendingFetch& pf = pending_[slot];
    assert(!pf.requested);
    pf.requested = true;
    pf.buffer = pf.record.real != 0
                    ? DataCopy::real(static_cast<std::size_t>(pf.record.size))
                    : DataCopy::virt(static_cast<std::size_t>(pf.record.size));
    wire::GetDataMsg g;
    g.flow = fo.flow;
    g.rbase = pf.buffer->bytes
                  ? reinterpret_cast<std::uint64_t>(pf.buffer->bytes->data())
                  : 0;
    g.rsize = pf.record.size;
    des::charge_current(cfg_.getdata_handle_cost);
    pf.requested_ts = eng_.now();
    g.send_ts = pf.requested_ts;
    g.trace = new_ctx(fo.flow);
    des::emit_flow(eng_, "getdata", g.trace.span_id, /*begin=*/true);
    const ce::Status st =
        comm_.send_am(wire::kTagGetData, pf.record.src_rank, &g, sizeof g);
    assert(st == ce::Status::Ok);
    (void)st;
    ++stats_.getdata_sent;
    ++inflight_fetches_;
    issued = true;
  }
  return issued;
}

void NodeRuntime::on_getdata(const void* msg, std::size_t size, int src) {
  const auto g = wire::unpack_pod<wire::GetDataMsg>(msg, size);
  // The GET DATA wire stage ends when the handler reaches this request;
  // handling cost and the put transfer belong to the transfer stage.
  const des::Time reached_ts = eng_.now();
  des::emit_flow(eng_, "getdata", g.trace.span_id, /*begin=*/false);
  des::charge_current(cfg_.getdata_handle_cost);
  // A tracked serve passes its outgoing entry as the put's l_cb_data: the
  // entry holds the copy until its last put completes locally, then
  // retires once every direct child has been served.
  OutgoingData* out = nullptr;
  const DataCopy* serving = nullptr;
  const std::uint32_t slot = outgoing_index_.find(g.flow);
  if (slot != outgoing_index_.kNone) {
    out = &outgoing_[slot];
    serving = out->copy.get();
    ++out->puts_inflight;
  } else if (ft_ != nullptr) {
    // Retired (or never-published-here) flow requested during recovery:
    // serve it from the produced-data cache, outside the expected-gets
    // bookkeeping.  A miss here means the tile is gone everywhere the
    // requester could reach — fail closed, never abort.
    const ProducedRecord* rec = find_produced(g.flow);
    if (rec == nullptr) {
      ft_->fail(RunStatus::ErrTileLost);
      return;
    }
    serving = &rec->copy;
    ++stats_.cache_serves;
  } else {
    assert(false && "GET DATA for unknown flow");
    return;
  }

  ce::MemReg lreg{rank_,
                  serving->bytes ? static_cast<void*>(serving->bytes->data())
                                 : nullptr,
                  serving->size};
  ce::MemReg rreg{src, reinterpret_cast<void*>(g.rbase),
                  static_cast<std::size_t>(g.rsize)};
  wire::DataArrivedMsg arrived;
  arrived.flow = g.flow;
  arrived.put_ts = reached_ts;
  arrived.trace = new_ctx(g.flow);
  des::emit_flow(eng_, "data", arrived.trace.span_id, /*begin=*/true);
  comm_.put(lreg, 0, rreg, 0, serving->size, src, &NodeRuntime::on_put_local,
            out, wire::kTagDataArrived, &arrived, sizeof arrived);
}

void NodeRuntime::on_put_local(ce::CommEngine&, const ce::MemReg&,
                               std::ptrdiff_t, const ce::MemReg&,
                               std::ptrdiff_t, std::size_t, int,
                               void* cb_data) {
  if (cb_data == nullptr) return;  // cache-only serve: nothing to retire
  OutgoingData& out = *static_cast<OutgoingData*>(cb_data);
  --out.puts_inflight;
  if (++out.gets_served >= out.expected_gets && out.puts_inflight == 0) {
    NodeRuntime& self = *out.owner;
    self.outgoing_index_.erase(out.flow);
    out.copy.reset();
    self.outgoing_.release(out.slot);
  }
}

void NodeRuntime::on_data_arrived(const void* msg, std::size_t size,
                                  int src) {
  (void)src;
  const auto d = wire::unpack_pod<wire::DataArrivedMsg>(msg, size);
  const des::Time now = eng_.now();
  const des::Time rel0 = charged_now();
  des::emit_flow(eng_, "data", d.trace.span_id, /*begin=*/false);
  des::charge_current(cfg_.data_release_cost);
  const std::uint32_t slot = pending_index_.erase(d.flow);
  if (slot == pending_index_.kNone) {
    // Possible under recovery: the entry was purged (its server died and a
    // re-announce re-created the fetch elsewhere) or the same flow arrived
    // twice via a redundant re-announce.  Drop tolerantly.
    assert(ft_ != nullptr && "data arrived for unknown flow");
    ++stats_.stale_activations;
    return;
  }
  PendingFetch& pf = pending_[slot];
  --inflight_fetches_;
  ++stats_.data_arrivals;

  // Latency accounting (§6.1.3), per flow.  Every node stamps with the
  // one engine clock, so stamps taken on different nodes subtract
  // directly.
  stats_.latency.add(static_cast<double>(now - pf.record.send_ts),
                     static_cast<double>(now - pf.record.root_ts));
  record_stages(pf.record, pf.reached_ts, pf.activated_ts, pf.requested_ts,
                d.put_ts, now);

  des::charge_current(static_cast<des::Duration>(pf.local_deps.size()) *
                      cfg_.release_per_dep_cost);
  stats_.stages[Stage::Release].add(
      static_cast<double>(charged_now() - rel0));
  for (const Dep& dep : pf.local_deps) {
    deliver_local(dep, pf.buffer, pf.record.path, /*remote=*/true, now);
  }

  if (!pf.record.subtree.empty()) {
    ++stats_.forwards;
    publish_remote(pf.record.flow, pf.buffer, pf.record.priority,
                   pf.record.root_ts, pf.record.path, pf.record.subtree);
  }
  pf.buffer.reset();
  pending_.release(slot);
  issue_fetches();
}

// ---------------------------------------------------------------------------
// Tracing / stage instrumentation

des::Time NodeRuntime::charged_now() const {
  return eng_.now() + des::ChargeTarget::pending_charge();
}

wire::TraceCtx NodeRuntime::new_ctx(const FlowKey& flow) {
  wire::TraceCtx ctx;
  // The trace id names the flow: a hash of the root FlowKey, identical on
  // every hop of the multicast tree.  The span id names this message leg;
  // the rank in the high bits keeps ids unique without coordination, and
  // the per-node counter is deterministic (single-threaded simulation).
  ctx.trace_id = static_cast<std::uint64_t>(FlowKeyHash{}(flow));
  ctx.span_id = ((static_cast<std::uint64_t>(rank_) + 1) << 44) | ++span_seq_;
  return ctx;
}

void NodeRuntime::record_stages(const wire::ActivationRecord& rec,
                                des::Time reached, des::Time activated,
                                des::Time requested, des::Time put,
                                des::Time end) {
  StageLats& st = stats_.stages;
  st[Stage::Upstream].add(static_cast<double>(rec.enqueue_ts - rec.root_ts));
  st[Stage::Queue].add(static_cast<double>(rec.send_ts - rec.enqueue_ts));
  st[Stage::ActivateWire].add(static_cast<double>(reached - rec.send_ts));
  st[Stage::ActivateHandle].add(static_cast<double>(activated - reached));
  st[Stage::FetchWait].add(static_cast<double>(requested - activated));
  st[Stage::GetdataWire].add(static_cast<double>(put - requested));
  st[Stage::Transfer].add(static_cast<double>(end - put));
}

// ---------------------------------------------------------------------------
// Communication thread body

bool NodeRuntime::comm_body() {
  if (dead_) return false;
  bool worked = false;
  if (!cfg_.mt_activate) worked |= flush_activations();
  worked |= issue_fetches();
  worked |= comm_.progress() > 0;
  return worked;
}

// ---------------------------------------------------------------------------
// Fail-stop recovery hooks

void NodeRuntime::mark_crashed() { dead_ = true; }

void NodeRuntime::purge_peer(int dead_rank) {
  if (dead_) return;
  // Activations queued to the corpse will never be wanted again: the
  // coordinator rearms every not-Done task homed there.
  const auto ait = outgoing_activations_.find(dead_rank);
  if (ait != outgoing_activations_.end()) {
    for (auto& rec : ait->second) subtrees_.give(rec.subtree);
    record_vectors_.give(ait->second);
    outgoing_activations_.erase(ait);
  }
  // Fetches served by the corpse can never complete; the coordinator
  // re-announces the data from an alive holder (or rearms the producer).
  std::vector<FlowKey> abandoned;
  pending_index_.for_each([&](const FlowKey& flow, std::uint32_t slot) {
    if (pending_[slot].record.src_rank == dead_rank) abandoned.push_back(flow);
  });
  for (const FlowKey& flow : abandoned) {
    const std::uint32_t slot = pending_index_.erase(flow);
    PendingFetch& pf = pending_[slot];
    if (pf.requested) --inflight_fetches_;
    ++stats_.fetches_abandoned;
    pf.buffer.reset();
    pending_.release(slot);
  }
  // Stale fetch_queue_ orders for erased flows are skipped by
  // issue_fetches; freed in-flight slots can admit queued fetches now.
  issue_fetches();
}

void NodeRuntime::inject_source(const TaskKey& key) {
  if (dead_) return;
  // The whole wait until re-injection is recovery (runtime) overhead.
  source_ready(key, charged_now());
}

bool NodeRuntime::reannounce(const FlowKey& flow, int dst) {
  assert(ft_ != nullptr && !dead_);
  const ProducedRecord* pd = find_produced(flow);
  if (pd == nullptr) return false;
  ++stats_.reannounces;
  if (dst == rank_) {
    ++stats_.local_reannounces;
    // Local consumers: hand the cached copy straight to every
    // still-unfilled input (deliver_local drops filled/Done ones anyway).
    deps_scratch_.clear();
    def_.successors(flow.producer, flow.flow, deps_scratch_);
    const des::Time now = charged_now();
    const DataCopyPtr copy = DataCopyPtr::make(pd->copy);
    for (const Dep& dep : deps_scratch_) {
      if (owner_rank(dep.task) != rank_) continue;
      if (ft_->lineage.is_done(dep.task)) continue;
      if (!input_unfilled(dep.task, dep.input)) continue;
      deliver_local(dep, copy, pd->path, /*remote=*/true, now);
    }
    return true;
  }
  // Remote consumer: a fresh single-destination ACTIVATE.  This leg is a
  // new multicast root, so root_ts restarts here — recovery latency is
  // measured from the re-announce, not the lost original.
  wire::ActivationRecord rec;
  rec.flow = flow;
  rec.size = pd->copy.size;
  rec.src_rank = rank_;
  rec.priority = pd->priority;
  rec.root_ts = eng_.now();
  rec.send_ts = rec.root_ts;
  rec.real = pd->copy.bytes != nullptr ? 1 : 0;
  rec.trace = new_ctx(flow);
  rec.path = pd->path;
  emit_activation(dst, std::move(rec));
  return true;
}

const NodeRuntime::ProducedRecord* NodeRuntime::find_produced(
    const FlowKey& flow) {
  // Appending overwrites an earlier record's index entry: the newest
  // publication of a flow is the one served.
  for (; produced_indexed_ < produced_.size(); ++produced_indexed_) {
    const FlowKey& f = produced_[produced_indexed_].flow;
    produced_index_.erase(f);
    produced_index_.insert(f, produced_indexed_);
  }
  const std::uint32_t slot = produced_index_.find(flow);
  return slot == produced_index_.kNone ? nullptr : &produced_[slot];
}

bool NodeRuntime::input_unfilled(const TaskKey& task, int input) const {
  if (ft_ != nullptr && ft_->lineage.phase(task) != TaskPhase::Pending) {
    return false;  // Ready/Done: the task holds (or held) all its inputs
  }
  const std::uint32_t slot = task_index_.find(task_id(task));
  if (slot == task_index_.kNone) return true;
  return task_states_[slot].inputs.at(static_cast<std::size_t>(input)) ==
         nullptr;
}

}  // namespace amt
