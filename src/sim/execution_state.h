// udring/sim/execution_state.h
//
// ExecutionState — the *mutable* half of a run (and, via the legacy
// constructor, the class the rest of the repo has always called Simulator).
//
// An ExecutionState owns a global configuration C = (S, T, M, P, Q) exactly
// as Table 2 of the paper defines it:
//
//   S  agent program states            (AgentProgram objects, resume points
//                                       included)
//   T  node states = token counts      (tokens_)
//   M  undelivered message sequences   (per-agent mailboxes)
//   P  staying sets p_i                (intrusive lists, see below)
//   Q  FIFO link queues q_i            (intrusive lists: agents in transit
//                                       to v_i)
//
// and advances it one *atomic action* at a time under a pluggable fair
// Scheduler. An atomic action (§2.1) is: arrive (if in transit) → receive
// all pending messages → run local computation → optionally broadcast and/or
// release a token → move, stay, wait, suspend, or halt.
//
// Model guarantees enforced structurally:
//  - FIFO links: only the head of each link queue may arrive; arrivals
//    preserve departure order.
//  - Initial buffers: every agent starts *in transit to its home node* and
//    is the sole initial occupant of that queue, so its first action happens
//    at its home before any visitor's action there (§2.1). This rule is
//    load-bearing: without it a fast agent could pass a slow agent's home
//    before its token is dropped and miscount the ring.
//  - No overtaking: an agent is observable only while staying at a node;
//    agents in transit are invisible and cannot be passed except by queueing
//    behind them.
//
// Per-node lists: each link queue q_i and staying set p_i is an intrusive
// index list. A node holds the head, tail and length of both; an agent's
// cell holds its next link within its queue and its prev/next links within
// its staying set. So the whole of P and Q lives in two flat arrays (one
// entry per node, one per agent), with no per-node heap buffer. Queues are
// FIFO (a non-FIFO jump unlinks from the middle); staying sets keep
// insertion order with stable removal, which fixes the order broadcast
// receivers are refreshed in and so the enabled set's insertion order.
//
// Pooling: reset(const Instance&) rebinds the state to a (possibly
// different) instance while *reusing every arena allocation* — the node and
// agent arrays, mailboxes, metrics arrays, the enabled set, the event log.
// A campaign that runs thousands of instances through one per-worker
// ExecutionState performs O(k) allocations per run (the agent programs,
// which are inherently per-run) instead of O(n): the steady-state action
// loop allocates nothing.
//
// Enabled set: kept in two forms that every enabledness change updates
// together. enabled() is the id vector in insertion order with swap-remove;
// the random, burst and synchronous draws read its order, so every trace
// depends on it. enabled_bits() is the same set as a bitmask over agent ids
// (⌈k/64⌉ words), which lets RoundRobinScheduler find the first enabled id
// at or after its cursor in O(k/64) instead of O(|enabled|). Both are reset
// and copied with the rest of the arena. Beside them one word, the removal
// floor (enabled_removal_floor()), holds the lowest position of enabled()
// a removal rewrote since the last draw of run() or step(). enabled()
// changes only by append and swap-remove, so every position below the floor
// is as that draw saw it; SynchronousScheduler resumes its scan there
// instead of at the front. The floor is 0 after reset() and in a copy,
// whose enabled set no draw has seen.
//
// Copying: an ExecutionState is a plain value. A copy is an independent
// state at the same configuration — programs (with their resume points),
// mailboxes, queues, metrics, event log and live fault state — that shares
// only the immutable Instance. The copy operations are the implicit
// member-wise ones: copy-assignment reuses the destination's arena capacity
// and copies each program in place when the destination slot already holds
// one of the same type, so restoring a snapshot into a state that has run
// the same instance allocates only where the snapshot holds more mail than
// that buffer ever has; queues and staying sets are flat array copies.
// Agent contexts are built per action, bound to the state executing it, so
// stepping a copy never touches its source. mc::check copies a state only
// to hand a BFS frontier node to a shard.
//
// Undo: save_step(actor, record) reads off everything step_agent(actor) can
// write (the action's footprint, the bound DigestComponents::update and the
// incremental checker rest on too), and undo(record) puts it back, so the
// model checker backtracks over one edge in O(footprint) instead of copying
// a whole state. save_rewire() and undo() do the same for apply_rewire().

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/agent.h"
#include "sim/event_log.h"
#include "sim/instance.h"
#include "sim/metrics.h"
#include "sim/scheduler.h"
#include "sim/topology.h"
#include "sim/types.h"

namespace udring::sim {

struct RunResult {
  enum class Outcome { Quiescent, ActionLimit };
  Outcome outcome = Outcome::Quiescent;
  std::size_t actions = 0;

  [[nodiscard]] bool quiescent() const noexcept {
    return outcome == Outcome::Quiescent;
  }
};

/// Observable state of one agent for snapshots (instrumentation only).
struct AgentSnap {
  AgentId id = 0;
  AgentStatus status = AgentStatus::InTransit;
  NodeId node = 0;  ///< staying node, or destination while in transit
  std::size_t moves = 0;
  std::size_t phase = 0;
  std::size_t mailbox_size = 0;
  std::uint64_t state_hash = 0;
};

/// Deep-copyable observable configuration; used by the checker, the ASCII
/// renderer, and the Theorem-5 local-configuration comparison.
struct Snapshot {
  std::size_t node_count = 0;
  std::vector<std::size_t> tokens;            // index = node
  std::vector<AgentSnap> agents;              // index = agent id
  std::vector<std::vector<AgentId>> queues;   // index = destination node
};

class ExecutionState {
 private:
  struct AgentCell;

 public:
  /// Ends an intrusive agent list (see queue_head() and queue_next()).
  static constexpr AgentId kNoAgent = static_cast<AgentId>(-1);
  /// Sentinel for "no agent" (see last_acting_agent()).
  static constexpr AgentId kNoAgentActing = static_cast<AgentId>(-1);
  /// enabled_removal_floor() when no removal rewrote a position.
  static constexpr std::size_t kNoRemoval = static_cast<std::size_t>(-1);

  /// Read-only view of one per-node list — a link queue q_i in FIFO order
  /// (link_queue()) or a staying set p_i in insertion order (staying_set())
  /// — that walks the intrusive links of the agent cells. Valid until the
  /// state next changes.
  class AgentList {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = AgentId;
      using difference_type = std::ptrdiff_t;
      using pointer = const AgentId*;
      using reference = AgentId;

      iterator() = default;
      [[nodiscard]] AgentId operator*() const noexcept { return id_; }
      iterator& operator++() noexcept {
        id_ = cells_[id_].*next_;
        return *this;
      }
      iterator operator++(int) noexcept {
        iterator before = *this;
        ++*this;
        return before;
      }
      [[nodiscard]] bool operator==(const iterator& other) const noexcept {
        return id_ == other.id_;
      }

     private:
      friend class AgentList;
      iterator(const AgentCell* cells, AgentId AgentCell::*next,
               AgentId id) noexcept
          : cells_(cells), next_(next), id_(id) {}

      const AgentCell* cells_ = nullptr;
      AgentId AgentCell::*next_ = nullptr;
      AgentId id_ = kNoAgent;
    };

    [[nodiscard]] iterator begin() const noexcept {
      return {cells_, next_, head_};
    }
    [[nodiscard]] iterator end() const noexcept {
      return {cells_, next_, kNoAgent};
    }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

   private:
    friend class ExecutionState;
    AgentList(const AgentCell* cells, AgentId AgentCell::*next, AgentId head,
              std::size_t size) noexcept
        : cells_(cells), next_(next), head_(head), size_(size) {}

    const AgentCell* cells_;
    AgentId AgentCell::*next_;
    AgentId head_;
    std::size_t size_;
  };

  /// An empty state: reset() it onto an Instance before use. This is the
  /// pooled form — construct once per worker, reset per run.
  ExecutionState() = default;

  /// Legacy one-shot form (the historical Simulator constructor): builds and
  /// *owns* a ring Instance, then resets onto it. Programs are created
  /// immediately; their bodies start at the first scheduled action.
  ExecutionState(std::size_t node_count, std::vector<NodeId> homes,
                 const ProgramFactory& factory, SimOptions options = {});

  /// Owns `instance` (shared) and resets onto it — for callers that need a
  /// self-contained simulator with a non-ring topology (core::make_simulator).
  explicit ExecutionState(std::shared_ptr<const Instance> instance);

  /// Rebinds this state to `instance` as configuration C_0, reusing all
  /// existing arena capacity. `instance` must outlive this state's use of it
  /// (until the next reset or destruction); it is NOT owned. Any number of
  /// states may share one Instance concurrently.
  void reset(const Instance& instance);

  /// True once reset onto an instance (default-constructed states are not
  /// runnable until then).
  [[nodiscard]] bool bound() const noexcept { return instance_ != nullptr; }
  [[nodiscard]] const Instance& instance() const { return *instance_; }

  // ---- execution ----------------------------------------------------------

  /// Runs atomic actions under `scheduler` until quiescence (no enabled
  /// agents — Definitions 1/2's terminal shapes) or the action limit.
  RunResult run(Scheduler& scheduler);

  /// Executes one atomic action; returns false when quiescent. Unlike
  /// run(), step() neither attaches nor resets `scheduler`: a driver that
  /// steps by hand calls attach() and reset(agent_count()) itself before the
  /// first step, or the scheduler draws with whatever state it last had.
  bool step(Scheduler& scheduler);

  /// Force-steps a specific agent (tests); returns false if not enabled.
  bool step_agent(AgentId id);

  // ---- dynamic-ring rewiring (sim/fault.h) --------------------------------

  /// True while a scheduled rewiring (FaultPlan::rewire_at) awaits its
  /// replacement-cycle choice. run()/step() resolve it at the
  /// next choice point via Scheduler::pick_index; drivers that step agents
  /// directly (the model checker) must resolve it themselves with
  /// apply_rewire() before the next action.
  [[nodiscard]] bool pending_rewire() const noexcept { return pending_rewire_; }

  /// Number of replacement cycles a pending rewiring can choose among
  /// (φ(node_count); see sim/fault.h).
  [[nodiscard]] std::size_t rewire_candidate_count() const noexcept {
    return rewire_candidates_;
  }

  /// Resolves the pending rewiring by installing candidate
  /// `candidate_index` (index into the ascending coprime-stride list).
  /// Throws std::logic_error when no rewiring is pending and
  /// std::out_of_range on a bad index. Changes no agent's enabledness —
  /// only where future moves lead.
  void apply_rewire(std::size_t candidate_index);

  /// The stride of the live successor map; 0 = the instance topology's own
  /// successor (no rewiring applied yet).
  [[nodiscard]] std::size_t live_stride() const noexcept { return live_stride_; }

  /// Rewirings applied so far.
  [[nodiscard]] std::size_t rewires_applied() const noexcept {
    return rewires_applied_;
  }

  /// The *live* forward neighbour of `v`: the instance topology's successor
  /// until a rewiring fires, then the stride ring (v + d) mod n. Every move
  /// the execution makes goes through this — consumers of the
  /// {node, next(node)} footprint bound (last_action_nodes()) must use it,
  /// not Topology::next, or a rewired run would unsound their node sets.
  [[nodiscard]] NodeId live_next(NodeId v) const noexcept {
    if (live_stride_ == 0) return topo_->next(v);
    const NodeId moved = v + live_stride_;
    return moved >= tokens_.size() ? moved - tokens_.size() : moved;
  }

  // ---- inspection ---------------------------------------------------------

  [[nodiscard]] const Topology& topology() const noexcept {
    return instance_->topology();
  }
  [[nodiscard]] std::size_t node_count() const noexcept { return tokens_.size(); }
  [[nodiscard]] std::size_t agent_count() const noexcept { return agents_.size(); }
  [[nodiscard]] const std::vector<NodeId>& homes() const noexcept {
    return instance_->homes();
  }

  /// Number of tokens at `node` (T in the configuration). In this paper's
  /// algorithms it is 0 or 1, but the substrate supports arbitrary counts.
  [[nodiscard]] std::size_t tokens(NodeId node) const { return tokens_.at(node); }
  /// Maintained incrementally (tokens are indelible, so a counter suffices):
  /// O(1), which is what lets per-action oracles check token monotonicity at
  /// n = 10^6 without re-summing the ring.
  [[nodiscard]] std::size_t total_tokens() const noexcept {
    return total_tokens_;
  }
  [[nodiscard]] const std::vector<std::size_t>& token_counts() const noexcept {
    return tokens_;
  }

  [[nodiscard]] AgentStatus status(AgentId id) const { return cell(id).status; }

  /// The node an agent is staying at, or its destination while in transit.
  [[nodiscard]] NodeId agent_node(AgentId id) const { return cell(id).node; }

  /// Agents currently allowed to act (queue heads; schedulable stayers;
  /// parked agents with pending mail), in insertion order with swap-remove:
  /// the order the random, burst and synchronous draws (and so every trace)
  /// depend on.
  [[nodiscard]] const std::vector<AgentId>& enabled() const noexcept {
    return enabled_;
  }

  /// The same set as enabled(), as a bitmask over agent ids: bit id % 64 of
  /// word id / 64, ⌈agent_count() / 64⌉ words, no bit set at or past
  /// agent_count(). Lets RoundRobinScheduler find the first enabled id at
  /// or after its cursor in O(k/64) instead of scanning enabled().
  [[nodiscard]] std::span<const std::uint64_t> enabled_bits() const noexcept {
    return enabled_bits_;
  }

  /// The lowest position of enabled() that a removal rewrote since the last
  /// draw of run() or step(), or kNoRemoval if none did (appends never lower
  /// it; step_agent() does not clear it). A swap-remove rewrites the removed
  /// agent's position, so every position below the floor holds what it held
  /// at that draw. 0 after reset() and in a copy, whose enabled set no draw
  /// has seen.
  [[nodiscard]] std::size_t enabled_removal_floor() const noexcept {
    return removal_floor_.value;
  }

  [[nodiscard]] bool quiescent() const noexcept { return enabled_.empty(); }
  [[nodiscard]] bool all_halted() const noexcept;
  [[nodiscard]] bool all_suspended() const noexcept;

  /// Nodes of all staying agents (one entry per staying agent, sorted).
  [[nodiscard]] std::vector<NodeId> staying_nodes() const;

  /// |q_node|, in O(1).
  [[nodiscard]] std::size_t queue_length(NodeId node) const {
    return nodes_.at(node).queue_size;
  }

  /// Direct read access to q_node (FIFO order). Checkers iterate this
  /// instead of materializing a Snapshot — per-action oracles must not pay
  /// an O(n + k) allocation to look at two queues.
  [[nodiscard]] AgentList link_queue(NodeId node) const {
    const NodeLists& lists = nodes_.at(node);
    return {agents_.data(), &AgentCell::queue_next, lists.queue_head,
            lists.queue_size};
  }

  /// p_node, the agents staying at `node`, in the order they began staying
  /// (the order a broadcast there reaches them).
  [[nodiscard]] AgentList staying_set(NodeId node) const {
    const NodeLists& lists = nodes_.at(node);
    return {agents_.data(), &AgentCell::stay_next, lists.stay_head,
            lists.stay_size};
  }

  /// The raw links of Q, unchecked, for whole-state sweeps (the invariant
  /// checker): the first agent of q_node, and the agent behind `id` in its
  /// queue; kNoAgent ends a queue. Unlike link_queue() they assume nothing
  /// about the links, so a sweep of a corrupted state can bound its walk by
  /// agent_count() and check every id before it reads that agent.
  [[nodiscard]] AgentId queue_head(NodeId node) const noexcept {
    return nodes_[node].queue_head;
  }
  [[nodiscard]] AgentId queue_next(AgentId id) const noexcept {
    return agents_[id].queue_next;
  }

  /// The conservative node footprint of the most recently executed atomic
  /// action: the node the agent acted at, plus — when it moved — the
  /// successor it departed to. Every component of the configuration an
  /// action can change (queue membership, staying sets, tokens, the acting
  /// agent's status, co-located mailboxes) lives at one of these nodes, and
  /// both lie inside the pre-action pair {agent_node(a), live_next(
  /// agent_node(a))}; that bound is what makes O(dirty) incremental
  /// invariant checking sound (tests/test_checker_incremental.cpp checks it
  /// on every action of a run of each algorithm).
  /// Empty until the first action after a reset.
  [[nodiscard]] std::span<const NodeId> last_action_nodes() const noexcept {
    return {last_action_nodes_.data(), last_action_node_count_};
  }

  /// The agent that executed the most recent action (the only agent whose
  /// status/queue membership that action can have changed).
  /// kNoAgentActing until the first action after a reset.
  [[nodiscard]] AgentId last_acting_agent() const noexcept {
    return last_acting_agent_;
  }

  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] EventLog& log() noexcept { return log_; }
  [[nodiscard]] const EventLog& log() const noexcept { return log_; }

  [[nodiscard]] const AgentProgram& program(AgentId id) const {
    return *cell(id).program;
  }

  [[nodiscard]] Snapshot snapshot() const;

  /// Canonical 64-bit digest of the configuration C = (S, T, M, P, Q): agent
  /// program states (status, node, phase, action count, AgentProgram::
  /// state_hash), token counts, undelivered message sequences, staying
  /// membership (derived from status + node), and link-queue contents in
  /// FIFO order. Deliberately EXCLUDES causal timestamps and the event log —
  /// they record *history*, not state — so two schedules that reach the same
  /// configuration by commuting independent actions digest equally. This is
  /// the visited-state key of the mc:: model checker; its fidelity caveat is
  /// the AgentProgram contract that all algorithm state is reported by
  /// state_hash(). A program's resume point and its await-spanning locals
  /// are members too, and copies carry them, but state_hash() leaves them
  /// out (sim/agent.h): covering them would move every pinned digest and mc
  /// count, a decision left open on the ROADMAP. src/mc's
  /// pruned-vs-unpruned equality tests exercise the caveat.
  ///
  /// Encoding: a sum (mod 2^64) of components, one per agent and one per
  /// occupied node, folded with n, k and the live fault state. An agent's
  /// component is a fold64 chain of its id, status, node, phase, action
  /// count, state_hash and mail (count, then every payload field); a node's
  /// — 0 when it holds no token and no queued agent — is a chain of its
  /// index, token count, queue length and queue members in FIFO order. Each
  /// component is led by its own index, so the sum still separates
  /// configurations; and an action changes only the components of its
  /// footprint, which is what lets DigestComponents re-hash O(changed
  /// state) per action. The values are in-memory dedup keys only (mc's
  /// visited tables, LockFreeVisitedSet): nothing persists or pins them, so
  /// the encoding may change whenever equality semantics are kept.
  [[nodiscard]] std::uint64_t config_digest() const;

  [[nodiscard]] std::size_t actions_executed() const noexcept {
    return action_counter_;
  }
  [[nodiscard]] std::size_t max_actions() const noexcept {
    return options_.max_actions;
  }

  // ---- undo (the model checker's backtracking) ----------------------------

  /// What save_step() or save_rewire() keeps for undo(). A record keeps its
  /// buffers and the program object it last held between saves, so a walk
  /// that reuses its records stops allocating once they are warm.
  class UndoRecord;

  /// Saves into `record` everything step_agent(actor) can write, read off
  /// this state before the action. With v = agent_node(actor) and w =
  /// live_next(v), that is:
  ///  - the actor's program (copied in place into the record's slot), its
  ///    mailbox, which the action consumes, and its metrics;
  ///  - the cells of the actor, of the agent queued just ahead of it in q_v
  ///    (an arrival relinks it), of the agents staying at v and of the tail
  ///    of q_w — or of every agent under a plan with crashes, since a crash
  ///    due after the action stops an agent anywhere — each with its
  ///    mailbox length (a broadcast only appends);
  ///  - the lists, tokens and arrival stamps of v and w;
  ///  - the enabled set in its order, and the removal floor;
  ///  - the counters, the live fault state and the event log's length.
  /// O(the footprint + |enabled()| + the actor's program), not O(n + k).
  void save_step(AgentId actor, UndoRecord& record) const;

  /// Saves into `record` what apply_rewire() can write: the counters and
  /// the live fault state.
  void save_rewire(UndoRecord& record) const;

  /// Puts back what `record` saved. Call it after the one step_agent() or
  /// apply_rewire() that followed the save, and before anything else
  /// changes this state; the state is then equal to the one saved, down to
  /// the enabled set's order, the causal stamps and the event log. The
  /// actor's program comes back by a pointer swap, so the record keeps the
  /// program the action left, for its next save to copy over.
  void undo(UndoRecord& record);

  /// The first part of this state that differs from `other`'s, named for a
  /// report ("tokens", "agent 2 mailbox", "enabled set", ...), or "" when
  /// none does. It compares the configuration, the causal stamps, the
  /// metrics, the enabled set's order, the counters, the live fault state
  /// and the event log. Programs compare by halted() and state_hash() (a
  /// program's other members are not visible here). The
  /// removal floor is left out: a copy's is 0. O(n + k + events); a
  /// debug-build and test check, not a hot-path one.
  [[nodiscard]] std::string difference(const ExecutionState& other) const;

 private:
  friend class AgentContext;
  /// Test-only editing of a copied state's statuses, nodes and queue links
  /// (defined under tests/support/, nowhere in the library).
  friend struct ExecutionStateTestAccess;

  /// Owning program pointer with value semantics: copies deep-copy the
  /// program through AgentProgram::copy_to (in place when the types match),
  /// which is all it takes for the defaulted ExecutionState copy to be a
  /// faithful one.
  class ProgramSlot {
   public:
    ProgramSlot() = default;
    ProgramSlot(const ProgramSlot& other)
        : program_(other.program_ ? other.program_->clone() : nullptr) {}
    ProgramSlot& operator=(const ProgramSlot& other) {
      if (other.program_ == nullptr) {
        program_.reset();
      } else if (this != &other) {
        other.program_->copy_to(program_);
      }
      return *this;
    }
    ProgramSlot(ProgramSlot&&) noexcept = default;
    ProgramSlot& operator=(ProgramSlot&&) noexcept = default;
    ProgramSlot& operator=(std::unique_ptr<AgentProgram> program) noexcept {
      program_ = std::move(program);
      return *this;
    }

    [[nodiscard]] explicit operator bool() const noexcept {
      return program_ != nullptr;
    }
    [[nodiscard]] AgentProgram* operator->() const noexcept {
      return program_.get();
    }
    [[nodiscard]] AgentProgram& operator*() const noexcept { return *program_; }

   private:
    std::unique_ptr<AgentProgram> program_;
  };

  struct AgentCell {
    ProgramSlot program;
    AgentStatus status = AgentStatus::InTransit;
    NodeId node = 0;  ///< staying node, or destination while in transit
    bool in_staying_set = false;
    /// Intrusive list links: the next agent in q_node while in transit;
    /// the neighbours in p_node while staying.
    AgentId queue_next = kNoAgent;
    AgentId stay_prev = kNoAgent;
    AgentId stay_next = kNoAgent;
    std::vector<Message> mailbox;
    /// Delivered messages during the agent's action (AgentContext::inbox);
    /// empty between actions, swapped with `mailbox` to recycle capacity.
    std::vector<Message> inbox;
    std::uint64_t wake_ts = 0;  ///< max sender stamp among undelivered mail
    std::uint64_t last_ts = 0;
  };

  /// enabled_removal_floor()'s word. Copying yields 0: a copy's enabled set
  /// is one no draw of the destination has seen.
  struct RemovalFloor {
    RemovalFloor() = default;
    RemovalFloor(const RemovalFloor& /*other*/) noexcept {}
    RemovalFloor& operator=(const RemovalFloor& /*other*/) noexcept {
      value = 0;
      return *this;
    }
    std::size_t value = 0;
  };

  /// The heads, tails and lengths of q_i and p_i for one node i.
  struct NodeLists {
    AgentId queue_head = kNoAgent;
    AgentId queue_tail = kNoAgent;
    std::size_t queue_size = 0;
    AgentId stay_head = kNoAgent;
    AgentId stay_tail = kNoAgent;
    std::size_t stay_size = 0;

    friend bool operator==(const NodeLists&, const NodeLists&) = default;
  };

  // Unchecked: agent ids come from the enabled set / queues and are always
  // in range; this sits on the per-action hot path.
  [[nodiscard]] AgentCell& cell(AgentId id) { return agents_[id]; }
  [[nodiscard]] const AgentCell& cell(AgentId id) const { return agents_[id]; }

  friend class DigestComponents;

  /// config_digest()'s components and its final fold of their sum.
  [[nodiscard]] std::uint64_t agent_digest(AgentId id) const;
  [[nodiscard]] std::uint64_t node_digest(NodeId node) const;
  [[nodiscard]] std::uint64_t digest_of_sum(std::uint64_t component_sum) const;

  /// Folds the *live* fault state (current stride, pending/consumed
  /// rewires, crash cursor) into config_digest()'s
  /// `state` — but only when the instance's FaultPlan carries fault events,
  /// so fault-free digests fold no fault words at all.
  void fold_fault_state(std::uint64_t& state) const noexcept;

  // The action engine: one body for every mode, branching at run time on
  // the two mode flags (event logging on? non-FIFO fault injection on?).
  void execute_action(AgentId id);
  void refresh_enabled(AgentId id);
  /// Adds `id` to the enabled set (`want`) or removes it; no-op if it is
  /// already there (absent).
  void set_enabled(AgentId id, bool want);
  /// Under the non-FIFO fault: re-judges every agent left in q_{node} after
  /// an arrival there (see execution_state.cpp). Kept out of line so the
  /// fault-free action body stays as compact as it was without the fault.
  [[gnu::noinline]] void refresh_overtakers(NodeId node);
  void push_to_queue(AgentId id);
  /// Unlinks `id` from q_{node}: its head under FIFO, anywhere under the
  /// non-FIFO fault. False if `id` is not queued there.
  bool remove_from_queue(AgentId id);
  void add_to_staying(AgentId id);
  void remove_from_staying(AgentId id);
  /// Fires every fault event due at the current action counter (crash-stop
  /// faults take effect; rewire points become pending). Called at reset and
  /// after every action — guarded by has_fault_events_, so the fault-free
  /// hot path pays one predicted branch.
  void apply_due_faults();
  void apply_crash(AgentId id);
  [[nodiscard]] bool should_be_enabled(AgentId id) const;
  /// The non-FIFO overtaking rule: `id` is inside the fault's phase window;
  /// `member` keeps the agents behind it in its queue from overtaking.
  [[nodiscard]] bool in_fault_window(AgentId id) const;
  [[nodiscard]] bool blocks_overtaking(AgentId member) const;

  // AgentContext hooks (the acting agent's perceptions and actions).
  [[nodiscard]] std::size_t tokens_at_agent(AgentId id) const;
  [[nodiscard]] std::size_t others_staying_at_agent(AgentId id) const;
  void agent_release_token(AgentId id);
  void agent_broadcast(AgentId id, Message message);
  void agent_set_phase(AgentId id, std::size_t phase);

  std::shared_ptr<const Instance> owned_instance_;  // legacy ctors only
  const Instance* instance_ = nullptr;
  const Topology* topo_ = nullptr;                 // == &instance_->topology()
  SimOptions options_;                             // copy for hot-path access
  std::vector<std::size_t> tokens_;                // T: token count per node
  std::vector<AgentCell> agents_;
  std::vector<NodeLists> nodes_;                   // q_i and p_i per node i
  std::vector<std::uint64_t> queue_arrival_ts_;    // FIFO causal stamps
  std::vector<AgentId> enabled_;
  std::vector<std::size_t> enabled_pos_;           // id -> index in enabled_
  std::vector<std::uint64_t> enabled_bits_;        // enabled_ as a bitmask
  RemovalFloor removal_floor_;                     // enabled_removal_floor()
  Metrics metrics_;
  EventLog log_;
  std::size_t action_counter_ = 0;
  std::size_t total_tokens_ = 0;                   // invariant: sum of tokens_
  AgentId acting_agent_ = kNoAgentActing;
  std::array<NodeId, 2> last_action_nodes_{};      // footprint of last action
  std::size_t last_action_node_count_ = 0;
  AgentId last_acting_agent_ = kNoAgentActing;

  // Live fault state (reset() derives it all from options_.faults).
  bool has_fault_events_ = false;   // plan has crashes or rewires
  std::size_t crash_cursor_ = 0;    // next unfired entry of faults.crashes
  std::size_t rewire_cursor_ = 0;   // next unreached entry of faults.rewire_at
  bool pending_rewire_ = false;
  std::size_t live_stride_ = 0;     // 0 = topology successor
  std::size_t rewires_applied_ = 0;
  std::size_t rewire_candidates_ = 0;  // φ(n), cached at reset

  static constexpr std::size_t kNotEnabled = static_cast<std::size_t>(-1);

  // save_step()'s helpers.
  void save_counters(UndoRecord& record) const;
  void save_cell(AgentId id, UndoRecord& record) const;

 public:
  class UndoRecord {
   private:
    friend class ExecutionState;

    /// An agent cell's fields but its program and mail, and its mailbox's
    /// length.
    struct Cell {
      AgentId id = 0;
      AgentStatus status = AgentStatus::InTransit;
      bool in_staying_set = false;
      NodeId node = 0;
      AgentId queue_next = kNoAgent;
      AgentId stay_prev = kNoAgent;
      AgentId stay_next = kNoAgent;
      std::uint64_t wake_ts = 0;
      std::uint64_t last_ts = 0;
      std::size_t mailbox_size = 0;
    };
    /// One node's lists, tokens and arrival stamp.
    struct Node {
      NodeId node = 0;
      NodeLists lists;
      std::size_t tokens = 0;
      std::uint64_t arrival_ts = 0;
    };

    // The counters, the live fault state and the event log's length.
    std::size_t action_counter = 0;
    std::size_t total_tokens = 0;
    std::array<NodeId, 2> last_action_nodes{};
    std::size_t last_action_node_count = 0;
    AgentId last_acting_agent = kNoAgentActing;
    std::size_t removal_floor = 0;
    std::size_t crash_cursor = 0;
    std::size_t rewire_cursor = 0;
    bool pending_rewire = false;
    std::size_t live_stride = 0;
    std::size_t rewires_applied = 0;
    std::size_t log_size = 0;

    // A step's footprint (save_step only).
    AgentId actor = kNoAgent;  ///< kNoAgent: a rewiring's record
    ProgramSlot program;
    std::vector<Message> mailbox;
    AgentMetrics metrics;
    std::vector<Cell> cells;
    std::array<Node, 2> nodes{};  ///< v, then w
    std::vector<AgentId> enabled;
  };
};

/// config_digest() kept by its components: one word per agent, one per node
/// (0 while unoccupied) and their sum. rebuild() hashes them all, O(n + k).
/// After one atomic action, update() re-hashes only what that action can
/// have changed: the actor, the nodes of last_action_nodes() and the agents
/// staying at the acting node (the broadcast receivers) — the footprint the
/// incremental invariant checker rests on too — or, under a plan that
/// crashes agents, every agent, since a crash due after the action changes
/// an agent outside it. A rewiring changes no component: digest() folds the
/// live fault state. update() can journal the words it overwrites, and
/// revert() puts them back, so the model checker keeps one set of
/// components for its working state and backtracks them with the action.
class DigestComponents {
 public:
  /// The components one update() overwrote, each with its old word.
  using Journal = std::vector<std::pair<std::size_t, std::uint64_t>>;

  /// Hashes every component of `state`.
  void rebuild(const ExecutionState& state);
  /// Brings components that described `state` just before its most recent
  /// action up to date with that action, appending every component it
  /// overwrites to `journal` when one is given.
  void update(const ExecutionState& state, Journal* journal = nullptr);
  /// Puts back the words `journal` recorded, undoing the update() that
  /// recorded them.
  void revert(const Journal& journal);
  /// config_digest() of the configuration these components describe, whose
  /// live fault state is `state`'s.
  [[nodiscard]] std::uint64_t digest(const ExecutionState& state) const {
    return state.digest_of_sum(sum_);
  }

 private:
  void set(std::size_t slot, std::uint64_t word) noexcept {
    sum_ += word - words_[slot];
    words_[slot] = word;
  }

  std::vector<std::uint64_t> words_;  ///< k agent words, then n node words
  std::uint64_t sum_ = 0;
};

/// Historical name, kept so the execution engine reads as "the simulator"
/// everywhere a run is one-shot. The pooled APIs say ExecutionState.
using Simulator = ExecutionState;

}  // namespace udring::sim
