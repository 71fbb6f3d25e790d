#include "sim/execution_state.h"

#include <algorithm>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <variant>

#include "util/rng.h"

namespace udring::sim {

ExecutionState::ExecutionState(std::size_t node_count, std::vector<NodeId> homes,
                               const ProgramFactory& factory, SimOptions options)
    : ExecutionState(std::make_shared<const Instance>(
          Topology::ring(node_count), std::move(homes), factory, options)) {}

ExecutionState::ExecutionState(std::shared_ptr<const Instance> instance)
    : owned_instance_(std::move(instance)) {
  if (!owned_instance_) {
    throw std::invalid_argument("ExecutionState: null instance");
  }
  reset(*owned_instance_);
}

void ExecutionState::reset(const Instance& instance) {
  // Release the previously-owned instance only if it is not the one being
  // reset onto (re-running a legacy-constructed simulator stays valid).
  if (owned_instance_.get() != &instance) owned_instance_.reset();
  instance_ = &instance;
  topo_ = &instance.topology();
  options_ = instance.options();

  const std::size_t n = instance.node_count();
  const std::size_t k = instance.agent_count();

  log_.set_enabled(options_.record_events);
  log_.clear();
  metrics_.reset(k);
  action_counter_ = 0;
  total_tokens_ = 0;
  acting_agent_ = kNoAgentActing;
  last_action_node_count_ = 0;
  last_acting_agent_ = kNoAgentActing;

  // Live fault state, derived once from the (already normalized and
  // validated) plan. The hot path then only ever tests has_fault_events_.
  const FaultPlan& plan = options_.faults;
  has_fault_events_ = plan.has_events();
  crash_cursor_ = 0;
  rewire_cursor_ = 0;
  pending_rewire_ = false;
  live_stride_ = 0;
  rewires_applied_ = 0;
  rewire_candidates_ =
      plan.has_rewires() ? sim::rewire_candidate_count(n) : 0;

  tokens_.assign(n, 0);
  queue_arrival_ts_.assign(n, 0);
  nodes_.assign(n, NodeLists{});

  enabled_.clear();
  enabled_.reserve(k);
  enabled_pos_.assign(k, kNotEnabled);
  enabled_bits_.assign((k + 63) / 64, 0);

  agents_.resize(k);
  for (AgentId id = 0; id < k; ++id) {
    AgentCell& c = agents_[id];
    c.program = instance.factory()(id);
    if (!c.program) {
      throw std::invalid_argument("ExecutionState: factory returned null program");
    }
    c.status = AgentStatus::InTransit;
    c.node = instance.homes()[id];  // destination: the home node's buffer
    c.in_staying_set = false;
    c.stay_prev = c.stay_next = kNoAgent;
    c.mailbox.clear();
    c.inbox.clear();
    c.wake_ts = 0;
    c.last_ts = 0;
    push_to_queue(id);
  }
  for (AgentId id = 0; id < k; ++id) {
    refresh_enabled(id);
  }
  // Faults due at action counter 0: dead-on-arrival crashes, a rewiring
  // scheduled before the first action.
  if (has_fault_events_) apply_due_faults();
  removal_floor_.value = 0;
}

RunResult ExecutionState::run(Scheduler& scheduler) {
  scheduler.attach(*this);
  scheduler.reset(agents_.size());
  RunResult result;
  while (!enabled_.empty()) {
    if (action_counter_ >= options_.max_actions) {
      result.outcome = RunResult::Outcome::ActionLimit;
      result.actions = action_counter_;
      return result;
    }
    if (has_fault_events_ && pending_rewire_) {
      // A scheduled rewiring resolves at the choice point, through the same
      // choice stream agent picks use — the recording/replaying schedulers
      // intercept pick_index, so the rewiring choice is part of the trace.
      apply_rewire(scheduler.pick_index(rewire_candidates_));
      continue;
    }
    const AgentId id = scheduler.pick(enabled_);
    removal_floor_.value = kNoRemoval;
    execute_action(id);
  }
  result.outcome = RunResult::Outcome::Quiescent;
  result.actions = action_counter_;
  return result;
}

bool ExecutionState::step(Scheduler& scheduler) {
  if (enabled_.empty()) return false;
  if (has_fault_events_ && pending_rewire_) {
    apply_rewire(scheduler.pick_index(rewire_candidates_));
  }
  const AgentId id = scheduler.pick(enabled_);
  removal_floor_.value = kNoRemoval;
  execute_action(id);
  return true;
}

bool ExecutionState::step_agent(AgentId id) {
  if (id >= agents_.size() || enabled_pos_.at(id) == kNotEnabled) return false;
  execute_action(id);
  return true;
}

bool ExecutionState::all_halted() const noexcept {
  return std::all_of(agents_.begin(), agents_.end(), [](const AgentCell& c) {
    return c.status == AgentStatus::Halted;
  });
}

bool ExecutionState::all_suspended() const noexcept {
  return std::all_of(agents_.begin(), agents_.end(), [](const AgentCell& c) {
    return c.status == AgentStatus::Suspended;
  });
}

std::vector<NodeId> ExecutionState::staying_nodes() const {
  std::vector<NodeId> nodes;
  for (const AgentCell& c : agents_) {
    if (c.in_staying_set) nodes.push_back(c.node);
  }
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

Snapshot ExecutionState::snapshot() const {
  Snapshot snap;
  snap.node_count = tokens_.size();
  snap.tokens = tokens_;
  snap.agents.reserve(agents_.size());
  for (AgentId id = 0; id < agents_.size(); ++id) {
    const AgentCell& c = agents_[id];
    AgentSnap a;
    a.id = id;
    a.status = c.status;
    a.node = c.node;
    a.moves = metrics_.agent(id).moves;
    a.phase = metrics_.agent(id).phase;
    a.mailbox_size = c.mailbox.size();
    a.state_hash = c.program->state_hash();
    snap.agents.push_back(a);
  }
  snap.queues.reserve(nodes_.size());
  for (NodeId node = 0; node < nodes_.size(); ++node) {
    const AgentList queue = link_queue(node);
    snap.queues.emplace_back(queue.begin(), queue.end());
  }
  return snap;
}

namespace {

template <class>
inline constexpr bool kUnhandledMessageAlternative = false;

/// Folds one undelivered message into a configuration digest. Every payload
/// field participates: M is part of the configuration, and two states that
/// differ only in a pending message must never dedup together. The visitor
/// is deliberately exhaustive — adding a Message alternative without
/// folding its payload would silently punch a soundness hole in the model
/// checker's visited-state key, so it is a compile error instead.
void fold_message(std::uint64_t& state, const Message& message) {
  fold64(state, message.index());
  std::visit(
      [&state](const auto& payload) {
        using T = std::decay_t<decltype(payload)>;
        if constexpr (std::is_same_v<T, BaseInfoMessage>) {
          fold64(state, payload.t_base);
          fold64(state, payload.seg_agents);
          fold64(state, payload.ceil_gaps);
          fold64(state, payload.floor_gap);
        } else if constexpr (std::is_same_v<T, EstimateMessage>) {
          fold64(state, payload.n_est);
          fold64(state, payload.k_est);
          fold64(state, payload.nodes_visited);
          fold64(state, payload.distance_seq.size());
          for (const std::size_t d : payload.distance_seq) fold64(state, d);
        } else if constexpr (std::is_same_v<T, TextMessage>) {
          fold64(state, payload.text.size());
          for (const char c : payload.text) {
            fold64(state,
                   static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
          }
        } else {
          static_assert(kUnhandledMessageAlternative<T>,
                        "config_digest: fold every Message payload");
        }
      },
      message);
}

}  // namespace

std::uint64_t ExecutionState::agent_digest(AgentId id) const {
  const AgentCell& c = agents_[id];
  const AgentMetrics& m = metrics_.agent(id);
  std::uint64_t word = 0xa9e47d16e5700000ULL;  // "agents" domain
  fold64(word, id);
  fold64(word, static_cast<std::uint64_t>(c.status));
  fold64(word, c.node);
  // Phase and action count are behavioural under the non-FIFO fault
  // (should_be_enabled reads both); including them unconditionally keeps
  // one digest definition for every mode, and commuting schedules agree on
  // per-agent counts, so dedup effectiveness is unaffected.
  fold64(word, m.phase);
  fold64(word, m.actions);
  fold64(word, c.program->state_hash());
  fold64(word, c.mailbox.size());
  for (const Message& message : c.mailbox) fold_message(word, message);
  return word;
}

std::uint64_t ExecutionState::node_digest(NodeId node) const {
  const NodeLists& lists = nodes_[node];
  if (tokens_[node] == 0 && lists.queue_size == 0) return 0;  // unoccupied
  std::uint64_t word = 0x0e0ed16e57000000ULL;  // "nodes" domain
  fold64(word, node);
  fold64(word, tokens_[node]);
  fold64(word, lists.queue_size);
  // FIFO order is state.
  for (AgentId id = lists.queue_head; id != kNoAgent;
       id = cell(id).queue_next) {
    fold64(word, id);
  }
  return word;
}

std::uint64_t ExecutionState::digest_of_sum(std::uint64_t component_sum) const {
  std::uint64_t state = 0xc0f1Dd16e5700000ULL;  // "config-digest" domain
  fold64(state, tokens_.size());
  fold64(state, agents_.size());
  fold64(state, component_sum);
  // P (staying membership) is fully determined by status + node above.
  // Live fault state (no-op for event-free plans): what the adversary may
  // still do is part of the configuration, or mc dedup would merge states
  // with different futures.
  fold_fault_state(state);
  return state;
}

std::uint64_t ExecutionState::config_digest() const {
  std::uint64_t sum = 0;
  for (AgentId id = 0; id < agents_.size(); ++id) sum += agent_digest(id);
  for (NodeId node = 0; node < nodes_.size(); ++node) sum += node_digest(node);
  return digest_of_sum(sum);
}

void DigestComponents::rebuild(const ExecutionState& state) {
  const std::size_t k = state.agent_count();
  words_.assign(k + state.node_count(), 0);
  sum_ = 0;
  for (AgentId id = 0; id < k; ++id) set(id, state.agent_digest(id));
  for (NodeId node = 0; node < state.node_count(); ++node) {
    set(k + node, state.node_digest(node));
  }
}

void DigestComponents::update(const ExecutionState& state, Journal* journal) {
  const std::size_t k = state.agent_count();
  const std::span<const NodeId> nodes = state.last_action_nodes();
  const AgentId actor = state.last_acting_agent();
  const auto rehash = [&](std::size_t slot, std::uint64_t word) {
    if (journal != nullptr) journal->emplace_back(slot, words_[slot]);
    set(slot, word);
  };
  if (!state.options_.faults.crashes.empty()) {
    for (AgentId id = 0; id < k; ++id) rehash(id, state.agent_digest(id));
  } else {
    rehash(actor, state.agent_digest(actor));
    for (const AgentId receiver : state.staying_set(nodes.front())) {
      if (receiver != actor) rehash(receiver, state.agent_digest(receiver));
    }
  }
  for (const NodeId node : nodes) rehash(k + node, state.node_digest(node));
}

void DigestComponents::revert(const Journal& journal) {
  for (auto entry = journal.rbegin(); entry != journal.rend(); ++entry) {
    set(entry->first, entry->second);
  }
}

// ---- undo (the model checker's backtracking) ---------------------------------

void ExecutionState::save_counters(UndoRecord& record) const {
  record.action_counter = action_counter_;
  record.total_tokens = total_tokens_;
  record.last_action_nodes = last_action_nodes_;
  record.last_action_node_count = last_action_node_count_;
  record.last_acting_agent = last_acting_agent_;
  record.removal_floor = removal_floor_.value;
  record.crash_cursor = crash_cursor_;
  record.rewire_cursor = rewire_cursor_;
  record.pending_rewire = pending_rewire_;
  record.live_stride = live_stride_;
  record.rewires_applied = rewires_applied_;
  record.log_size = log_.events().size();
}

void ExecutionState::save_cell(AgentId id, UndoRecord& record) const {
  const AgentCell& c = agents_[id];
  record.cells.push_back({id, c.status, c.in_staying_set, c.node, c.queue_next,
                          c.stay_prev, c.stay_next, c.wake_ts, c.last_ts,
                          c.mailbox.size()});
}

void ExecutionState::save_rewire(UndoRecord& record) const {
  save_counters(record);
  record.actor = kNoAgent;
}

void ExecutionState::save_step(AgentId actor, UndoRecord& record) const {
  save_counters(record);
  record.actor = actor;
  const AgentCell& c = agents_[actor];
  record.program = c.program;  // in place when the slot holds the same type
  record.mailbox = c.mailbox;
  record.metrics = metrics_.agent(actor);
  record.enabled.assign(enabled_.begin(), enabled_.end());

  const NodeId v = c.node;
  const NodeId w = live_next(v);
  record.nodes[0] = {v, nodes_[v], tokens_[v], queue_arrival_ts_[v]};
  record.nodes[1] = {w, nodes_[w], tokens_[w], queue_arrival_ts_[w]};

  record.cells.clear();
  if (!options_.faults.crashes.empty()) {
    for (AgentId id = 0; id < agents_.size(); ++id) save_cell(id, record);
    return;
  }
  // An arrival unlinks the actor from q_v, which relinks the agent ahead of
  // it (only under the non-FIFO fault, where the actor need not be the
  // head); a stop links it into p_v behind its tail, a departure unlinks it
  // from p_v and links it behind q_w's tail, and a broadcast writes to
  // every other agent staying at v.
  save_cell(actor, record);
  if (c.status == AgentStatus::InTransit) {
    AgentId ahead = kNoAgent;
    for (AgentId id = nodes_[v].queue_head; id != actor && id != kNoAgent;
         id = agents_[id].queue_next) {
      ahead = id;
    }
    if (ahead != kNoAgent) save_cell(ahead, record);
  }
  for (const AgentId id : staying_set(v)) {
    if (id != actor) save_cell(id, record);
  }
  const AgentId tail = nodes_[w].queue_tail;
  if (tail != kNoAgent && tail != actor) save_cell(tail, record);
}

void ExecutionState::undo(UndoRecord& record) {
  action_counter_ = record.action_counter;
  total_tokens_ = record.total_tokens;
  last_action_nodes_ = record.last_action_nodes;
  last_action_node_count_ = record.last_action_node_count;
  last_acting_agent_ = record.last_acting_agent;
  removal_floor_.value = record.removal_floor;
  crash_cursor_ = record.crash_cursor;
  rewire_cursor_ = record.rewire_cursor;
  pending_rewire_ = record.pending_rewire;
  live_stride_ = record.live_stride;
  rewires_applied_ = record.rewires_applied;
  log_.truncate(record.log_size);
  if (record.actor == kNoAgent) return;  // a rewiring writes nothing else

  for (const UndoRecord::Cell& saved : record.cells) {
    AgentCell& c = agents_[saved.id];
    c.status = saved.status;
    c.in_staying_set = saved.in_staying_set;
    c.node = saved.node;
    c.queue_next = saved.queue_next;
    c.stay_prev = saved.stay_prev;
    c.stay_next = saved.stay_next;
    c.wake_ts = saved.wake_ts;
    c.last_ts = saved.last_ts;
    if (c.mailbox.size() > saved.mailbox_size) {
      c.mailbox.erase(
          c.mailbox.begin() + static_cast<std::ptrdiff_t>(saved.mailbox_size),
          c.mailbox.end());
    }
  }
  for (const UndoRecord::Node& saved : record.nodes) {
    nodes_[saved.node] = saved.lists;
    tokens_[saved.node] = saved.tokens;
    queue_arrival_ts_[saved.node] = saved.arrival_ts;
  }

  AgentCell& actor = agents_[record.actor];
  std::swap(actor.program, record.program);
  // The action swapped the two buffers and emptied both; swapping them back
  // returns the mail to the buffer that held it, so the copy allocates
  // nothing.
  std::swap(actor.mailbox, actor.inbox);
  actor.mailbox = record.mailbox;
  metrics_.agent(record.actor) = record.metrics;

  for (const AgentId id : enabled_) {
    enabled_pos_[id] = kNotEnabled;
    enabled_bits_[id / 64] &= ~(std::uint64_t{1} << (id % 64));
  }
  enabled_.assign(record.enabled.begin(), record.enabled.end());
  for (std::size_t pos = 0; pos < enabled_.size(); ++pos) {
    const AgentId id = enabled_[pos];
    enabled_pos_[id] = pos;
    enabled_bits_[id / 64] |= std::uint64_t{1} << (id % 64);
  }
}

std::string ExecutionState::difference(const ExecutionState& other) const {
  if (instance_ != other.instance_) return "instance";
  if (tokens_ != other.tokens_ || total_tokens_ != other.total_tokens_) {
    return "tokens";
  }
  if (nodes_ != other.nodes_) return "node lists";
  if (queue_arrival_ts_ != other.queue_arrival_ts_) return "arrival stamps";
  for (AgentId id = 0; id < agents_.size(); ++id) {
    const AgentCell& a = agents_[id];
    const AgentCell& b = other.agents_[id];
    const auto agent = [id](const char* part) {
      return "agent " + std::to_string(id) + ' ' + part;
    };
    if (a.status != b.status || a.node != b.node ||
        a.in_staying_set != b.in_staying_set) {
      return agent("status");
    }
    if (a.queue_next != b.queue_next || a.stay_prev != b.stay_prev ||
        a.stay_next != b.stay_next) {
      return agent("links");
    }
    if (a.wake_ts != b.wake_ts || a.last_ts != b.last_ts) {
      return agent("stamps");
    }
    if (a.mailbox != b.mailbox || !a.inbox.empty() || !b.inbox.empty()) {
      return agent("mailbox");
    }
    if (a.program->halted() != b.program->halted() ||
        a.program->state_hash() != b.program->state_hash()) {
      return agent("program");
    }
    if (!(metrics_.agent(id) == other.metrics_.agent(id))) {
      return agent("metrics");
    }
  }
  if (enabled_ != other.enabled_ || enabled_pos_ != other.enabled_pos_ ||
      enabled_bits_ != other.enabled_bits_) {
    return "enabled set";
  }
  if (action_counter_ != other.action_counter_ ||
      acting_agent_ != other.acting_agent_ ||
      last_acting_agent_ != other.last_acting_agent_ ||
      !std::equal(last_action_nodes().begin(), last_action_nodes().end(),
                  other.last_action_nodes().begin(),
                  other.last_action_nodes().end())) {
    return "counters";
  }
  if (crash_cursor_ != other.crash_cursor_ ||
      rewire_cursor_ != other.rewire_cursor_ ||
      pending_rewire_ != other.pending_rewire_ ||
      live_stride_ != other.live_stride_ ||
      rewires_applied_ != other.rewires_applied_) {
    return "fault state";
  }
  if (log_.enabled() != other.log_.enabled() ||
      log_.events() != other.log_.events()) {
    return "event log";
  }
  return "";
}

void ExecutionState::fold_fault_state(std::uint64_t& state) const noexcept {
  if (!has_fault_events_) return;
  state ^= 0xfa17d16e57a7e000ULL;  // "fault-state" domain
  fold64(state, crash_cursor_);
  fold64(state, rewire_cursor_);
  fold64(state, pending_rewire_ ? 1 : 0);
  fold64(state, live_stride_);
  fold64(state, rewires_applied_);
}

// ---- fault events (sim/fault.h) ---------------------------------------------

void ExecutionState::apply_due_faults() {
  const FaultPlan& plan = options_.faults;
  // Crashes before rewire scheduling at the same action index (a rewiring
  // pending at index t resolves at the next choice point, so an agent
  // crashing at t is dead before the new cycle installs).
  while (crash_cursor_ < plan.crashes.size() &&
         plan.crashes[crash_cursor_].at_action <= action_counter_) {
    apply_crash(plan.crashes[crash_cursor_].agent);
    ++crash_cursor_;
  }
  while (rewire_cursor_ < plan.rewire_at.size() &&
         plan.rewire_at[rewire_cursor_] <= action_counter_) {
    pending_rewire_ = true;
    ++rewire_cursor_;
  }
}

void ExecutionState::apply_crash(AgentId id) {
  AgentCell& c = agents_[id];
  if (c.status == AgentStatus::Crashed) return;
  // Crash-stop: freeze in place. An in-transit corpse stays in its link
  // queue (under FIFO it blocks every follower forever — a legitimate
  // degradation the oracles report); a staying/parked corpse remains in
  // p_i. No other agent's enabledness changes: crashing only *removes*
  // this agent from the enabled set.
  c.status = AgentStatus::Crashed;
  refresh_enabled(id);
  if (log_.enabled()) {
    log_.record({action_counter_, EventKind::Halt, id, c.node, c.last_ts, 0});
  }
}

void ExecutionState::apply_rewire(std::size_t candidate_index) {
  if (!pending_rewire_) {
    throw std::logic_error("ExecutionState: no rewiring is pending");
  }
  const std::size_t stride =
      rewire_candidate_stride(tokens_.size(), candidate_index);
  // is_single_cycle_stride holds by construction (coprime stride); the
  // 1-interval-connectivity revalidation is the candidate enumeration
  // itself. Installing the new cycle changes where future moves lead and
  // nothing else — no queue, staying set, mailbox or status is touched, so
  // no agent's enabledness changes.
  live_stride_ = stride;
  pending_rewire_ = false;
  ++rewires_applied_;
}

// ---- action engine ----------------------------------------------------------

void ExecutionState::execute_action(AgentId id) {
  AgentCell& c = agents_[id];
  ++action_counter_;
  // Footprint bookkeeping for incremental oracles: this action can only
  // touch the node it executes at (c.node — the arrival node when in
  // transit, the staying node otherwise) and, if it moves, the successor —
  // the conservative pre-action bound {node, live_next(node)}, narrowed
  // post hoc to the nodes actually touched.
  last_acting_agent_ = id;
  last_action_nodes_[0] = c.node;
  last_action_node_count_ = 1;
  // Read once per action: the default-off logging and non-FIFO modes then
  // cost one predictable branch per site.
  const bool logging = log_.enabled();
  const bool non_fifo = options_.faults.non_fifo;

  const bool arrival = (c.status == AgentStatus::InTransit);
  std::uint64_t ts = c.last_ts;
  if (arrival) {
    const NodeLists& lists = nodes_[c.node];
    // Only the head arrives, unless the non-FIFO fault lets the agent jump
    // the queue (see SimOptions).
    if ((lists.queue_head != id && !non_fifo) || !remove_from_queue(id)) {
      throw std::logic_error(
          "ExecutionState: scheduled a non-head in-transit agent");
    }
    ts = std::max(ts, queue_arrival_ts_[c.node]);
    if (lists.queue_size != 0) refresh_enabled(lists.queue_head);
  } else if (!c.mailbox.empty()) {
    ts = std::max(ts, c.wake_ts);
  }
  ts += 1;
  c.last_ts = ts;
  if (arrival) {
    queue_arrival_ts_[c.node] = ts;
    if (logging) {
      log_.record({action_counter_, EventKind::Arrive, id, c.node, ts, 0});
    }
  }

  // Receive all pending messages (step 2 of the atomic action). Swapping
  // (not move-assigning) ping-pongs the two buffers, so their capacities are
  // recycled and steady-state delivery never heap-allocates.
  std::swap(c.inbox, c.mailbox);
  c.mailbox.clear();
  c.wake_ts = 0;

  // Local computation + broadcasts + token drops (steps 3–5).
  acting_agent_ = id;
  AgentContext ctx(*this, id, c.inbox);
  const Request request = c.program->resume(ctx);
  acting_agent_ = kNoAgentActing;
  c.inbox.clear();

  AgentMetrics& m = metrics_.agent(id);
  ++m.actions;
  m.causal_time = ts;
  m.peak_memory_bits = std::max(m.peak_memory_bits, c.program->memory_bits());

  switch (request) {
    case Request::Move: {
      if (c.in_staying_set) remove_from_staying(id);
      if (logging) {
        log_.record({action_counter_, EventKind::Depart, id, c.node, ts, 0});
      }
      const NodeId dest = live_next(c.node);
      c.status = AgentStatus::InTransit;
      c.node = dest;
      push_to_queue(id);
      if (dest != last_action_nodes_[0]) {
        last_action_nodes_[1] = dest;
        last_action_node_count_ = 2;
      }
      m.count_move();
      break;
    }
    case Request::Stay:
      c.status = AgentStatus::Staying;
      if (!c.in_staying_set) add_to_staying(id);
      if (logging) {
        log_.record({action_counter_, EventKind::StayPut, id, c.node, ts, 0});
      }
      break;
    case Request::WaitMessage:
      c.status = AgentStatus::Waiting;
      if (!c.in_staying_set) add_to_staying(id);
      if (logging) {
        log_.record({action_counter_, EventKind::EnterWait, id, c.node, ts, 0});
      }
      break;
    case Request::Suspend:
      c.status = AgentStatus::Suspended;
      if (!c.in_staying_set) add_to_staying(id);
      if (logging) {
        log_.record(
            {action_counter_, EventKind::EnterSuspend, id, c.node, ts, 0});
      }
      break;
    case Request::Done:
      c.status = AgentStatus::Halted;
      if (!c.in_staying_set) add_to_staying(id);
      if (logging) {
        log_.record({action_counter_, EventKind::Halt, id, c.node, ts, 0});
      }
      break;
    case Request::None:
      throw std::logic_error("ExecutionState: agent yielded no request");
  }

  refresh_enabled(id);
  if (non_fifo && arrival) refresh_overtakers(last_action_nodes_[0]);
  // Event faults keyed to the new action count fire now — after the
  // action's own bookkeeping, before the next choice point.
  if (has_fault_events_) apply_due_faults();
}

// The non-FIFO fault's overtaking rule. An in-transit agent is enabled from
// any position of its queue, but only within the configured phase window,
// and never past a member that has not yet had its first action (the
// initial occupant of its home buffer: overtaking it would break the
// home-node-first rule, which is not the guarantee under test) or that is
// itself outside the window.
bool ExecutionState::in_fault_window(AgentId id) const {
  return metrics_.agent(id).phase >= options_.faults.non_fifo_min_phase;
}

bool ExecutionState::blocks_overtaking(AgentId member) const {
  return metrics_.agent(member).actions == 0 || !in_fault_window(member);
}

void ExecutionState::refresh_overtakers(NodeId node) {
  // After an arrival at `node`, only the agents left in its queue can change
  // enabledness: the actor re-enters a queue at its tail, where it blocks no
  // one, and an agent's phase changes only while it is in no queue. One
  // walk judges them all; the changes apply in ascending id order, the
  // order of a refresh over every agent, so enabled()'s order is that
  // sweep's and so is every draw.
  std::vector<AgentId> changed;
  const AgentId head = nodes_[node].queue_head;
  bool blocked = false;  // a member ahead blocks overtaking
  for (const AgentId member : link_queue(node)) {
    const bool want = cell(member).status == AgentStatus::InTransit &&
                      (member == head || (!blocked && in_fault_window(member)));
    if (want != (enabled_pos_[member] != kNotEnabled)) {
      changed.push_back(member);
    }
    blocked = blocked || blocks_overtaking(member);
  }
  std::sort(changed.begin(), changed.end());
  for (const AgentId member : changed) {
    set_enabled(member, enabled_pos_[member] == kNotEnabled);
  }
}

bool ExecutionState::should_be_enabled(AgentId id) const {
  const AgentCell& c = cell(id);
  switch (c.status) {
    case AgentStatus::InTransit: {
      if (nodes_[c.node].queue_head == id) return true;
      if (!options_.faults.non_fifo || !in_fault_window(id)) return false;
      for (const AgentId member : link_queue(c.node)) {
        if (member == id) return true;
        if (blocks_overtaking(member)) return false;
      }
      return false;
    }
    case AgentStatus::Staying:
      return true;
    case AgentStatus::Waiting:
    case AgentStatus::Suspended:
      return !c.mailbox.empty();
    case AgentStatus::Halted:
    case AgentStatus::Crashed:
      return false;
  }
  return false;
}

void ExecutionState::refresh_enabled(AgentId id) {
  set_enabled(id, should_be_enabled(id));
}

void ExecutionState::set_enabled(AgentId id, bool want) {
  const std::size_t pos = enabled_pos_[id];
  const std::uint64_t bit = std::uint64_t{1} << (id % 64);
  if (want && pos == kNotEnabled) {
    enabled_pos_[id] = enabled_.size();
    enabled_.push_back(id);
    enabled_bits_[id / 64] |= bit;
  } else if (!want && pos != kNotEnabled) {
    removal_floor_.value = std::min(removal_floor_.value, pos);
    const AgentId moved = enabled_.back();
    enabled_[pos] = moved;
    enabled_pos_[moved] = pos;
    enabled_.pop_back();
    enabled_pos_[id] = kNotEnabled;
    enabled_bits_[id / 64] &= ~bit;
  }
}

void ExecutionState::push_to_queue(AgentId id) {
  AgentCell& c = cell(id);
  NodeLists& lists = nodes_[c.node];
  c.queue_next = kNoAgent;
  if (lists.queue_size == 0) {
    lists.queue_head = id;
  } else {
    cell(lists.queue_tail).queue_next = id;
  }
  lists.queue_tail = id;
  ++lists.queue_size;
}

bool ExecutionState::remove_from_queue(AgentId id) {
  AgentCell& c = cell(id);
  NodeLists& lists = nodes_[c.node];
  AgentId prev = kNoAgent;
  for (AgentId at = lists.queue_head; at != id; at = cell(at).queue_next) {
    if (at == kNoAgent) return false;
    prev = at;
  }
  if (prev == kNoAgent) {
    lists.queue_head = c.queue_next;
  } else {
    cell(prev).queue_next = c.queue_next;
  }
  if (lists.queue_tail == id) lists.queue_tail = prev;
  c.queue_next = kNoAgent;
  --lists.queue_size;
  return true;
}

void ExecutionState::add_to_staying(AgentId id) {
  AgentCell& c = cell(id);
  NodeLists& lists = nodes_[c.node];
  c.stay_prev = lists.stay_tail;
  c.stay_next = kNoAgent;
  if (lists.stay_size == 0) {
    lists.stay_head = id;
  } else {
    cell(lists.stay_tail).stay_next = id;
  }
  lists.stay_tail = id;
  ++lists.stay_size;
  c.in_staying_set = true;
}

void ExecutionState::remove_from_staying(AgentId id) {
  AgentCell& c = cell(id);
  NodeLists& lists = nodes_[c.node];
  if (c.stay_prev == kNoAgent) {
    lists.stay_head = c.stay_next;
  } else {
    cell(c.stay_prev).stay_next = c.stay_next;
  }
  if (c.stay_next == kNoAgent) {
    lists.stay_tail = c.stay_prev;
  } else {
    cell(c.stay_next).stay_prev = c.stay_prev;
  }
  c.stay_prev = c.stay_next = kNoAgent;
  --lists.stay_size;
  c.in_staying_set = false;
}

// ---- AgentContext hooks ------------------------------------------------------

std::size_t ExecutionState::tokens_at_agent(AgentId id) const {
  return tokens_[cell(id).node];
}

std::size_t ExecutionState::others_staying_at_agent(AgentId id) const {
  const AgentCell& c = cell(id);
  const std::size_t here = nodes_[c.node].stay_size;
  return c.in_staying_set ? here - 1 : here;
}

void ExecutionState::agent_release_token(AgentId id) {
  const AgentCell& c = cell(id);
  ++tokens_[c.node];
  ++total_tokens_;
  if (log_.enabled()) {
    log_.record({action_counter_, EventKind::TokenDrop, id, c.node, c.last_ts, 0});
  }
}

void ExecutionState::agent_broadcast(AgentId id, Message message) {
  const AgentCell& sender = cell(id);
  const bool logging = log_.enabled();
  std::size_t receivers = 0;
  for (const AgentId other : staying_set(sender.node)) {
    if (other == id) continue;
    AgentCell& rc = cell(other);
    if (rc.status == AgentStatus::Halted ||
        rc.status == AgentStatus::Crashed) {
      continue;  // Definition 1 halts; crash-stop corpses receive nothing
    }
    rc.mailbox.push_back(message);
    rc.wake_ts = std::max(rc.wake_ts, sender.last_ts);
    const bool was_enabled = enabled_pos_[other] != kNotEnabled;
    refresh_enabled(other);
    if (logging && !was_enabled && enabled_pos_[other] != kNotEnabled) {
      log_.record({action_counter_, EventKind::Wake, other, rc.node, sender.last_ts, id});
    }
    ++receivers;
  }
  if (logging) {
    log_.record({action_counter_, EventKind::Broadcast, id, sender.node,
                 sender.last_ts, receivers});
  }
}

void ExecutionState::agent_set_phase(AgentId id, std::size_t phase) {
  metrics_.agent(id).phase = phase;
}

}  // namespace udring::sim
