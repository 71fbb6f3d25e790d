// udring/sim/agent.h
//
// The agent programming model.
//
// The paper's pseudocode is sequential ("move to the next token node", "wait
// until a message arrives", …) while the execution model is one *atomic
// action* at a time chosen by an adversarial fair scheduler. We bridge the
// two with a resumable program per agent: the algorithm is written as
// straight sequential code inside AgentProgram::act(), and every
// UDRING_AWAIT(ctx.move()) (or stay/wait/suspend) ends the current atomic
// action. The simulator calls resume() exactly once per scheduled action,
// which continues the body where the previous action left it, so atomicity
// and FIFO discipline live entirely in the simulator, and the algorithm code
// reads like the paper.
//
// The resume point is an explicit member (a protothread label, see
// UDRING_BEGIN below). Every variable that lives across an await is a named
// member too, so a program is a plain copyable value: ExecutionState copies
// (and so the model checker's snapshots) carry each agent exactly where it
// stands.
//
// Within one atomic action (one resume) an agent may, per §2.1:
//   1. arrive at a node (or start at its staying node),
//   2. observe its delivered messages (ctx.inbox()),
//   3. compute locally,
//   4. broadcast a message to staying co-located agents (ctx.broadcast()),
//   5. release its token (ctx.release_token()),
//   6. and finally either move, stay, wait, suspend (UDRING_AWAIT(…)) or
//      halt (return ctx.halt(), or run off the end of the body).
//
// Anonymity: AgentContext exposes only what the model allows — token count
// here, how many *other* agents are staying here, and the inbox. Node and
// agent identities are not observable from algorithm code.

#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include "sim/message.h"
#include "sim/types.h"

namespace udring::sim {

class ExecutionState;

/// What an agent requested when it ended its atomic action.
enum class Request : std::uint8_t {
  None,         ///< no control request (a program bug: resume() throws)
  Move,         ///< leave for the forward neighbour (enqueue on the link)
  Stay,         ///< stay at the node, remain unconditionally schedulable
  WaitMessage,  ///< stay parked until at least one message is delivered
  Suspend,      ///< as WaitMessage, but the Definition-2 suspended state
  Done,         ///< program finished: the Definition-1 halt state
};

/// The window through which an agent program perceives and acts on the ring
/// during one atomic action. The simulator builds a fresh context for every
/// resume, bound to the state executing the action, so a program never holds
/// on to one (and a copied ExecutionState cannot act on its source).
class AgentContext {
 public:
  AgentContext(ExecutionState& state, AgentId self,
               const std::vector<Message>& inbox) noexcept
      : sim_(&state), self_(self), inbox_(&inbox) {}

  AgentContext(const AgentContext&) = delete;
  AgentContext& operator=(const AgentContext&) = delete;

  // ---- observations -------------------------------------------------------

  /// Tokens at the current node.
  [[nodiscard]] std::size_t tokens_here() const;

  /// Number of *other* agents staying at the current node (waiting,
  /// suspended and halted agents all count — they are all "staying" in the
  /// model's p_i sense). In-transit agents are never visible.
  [[nodiscard]] std::size_t others_staying_here() const;

  /// Messages delivered at the start of this atomic action. The model
  /// delivers *all* pending messages at once; they are consumed by this
  /// action regardless of whether the program inspects them.
  [[nodiscard]] const std::vector<Message>& inbox() const noexcept {
    return *inbox_;
  }

  // ---- actions (take effect within the current atomic action) ------------

  /// Releases this agent's token at the current node. The model gives each
  /// agent one token; algorithms call this once, at the home node. The
  /// substrate does not enforce the once-only rule (tests exercise multiple
  /// tokens), but TokenPolicy in the checker can.
  void release_token();

  /// Broadcasts `message` to every agent staying at the current node
  /// (waiting and suspended agents receive and are woken; halted agents
  /// ignore messages per Definition 1; in-transit agents are unreachable).
  void broadcast(Message message);

  // ---- control flow (each ends the atomic action) -------------------------
  //
  // Pass these to UDRING_AWAIT, which records the resume point and returns
  // the request; halt() is returned directly (`return ctx.halt();`).

  /// Move over the forward link; the next action is the arrival.
  [[nodiscard]] Request move() const noexcept { return Request::Move; }

  /// Stay at this node and remain schedulable (used by tests/extensions).
  [[nodiscard]] Request stay() const noexcept { return Request::Stay; }

  /// Park until at least one message is delivered (non-terminal wait).
  [[nodiscard]] Request wait_message() const noexcept {
    return Request::WaitMessage;
  }

  /// Enter the Definition-2 suspended state: park until a message arrives.
  [[nodiscard]] Request suspend() const noexcept { return Request::Suspend; }

  /// Terminate (the Definition-1 halt state). The program is never resumed
  /// again.
  [[nodiscard]] Request halt() const noexcept { return Request::Done; }

  // ---- instrumentation (invisible to the model) ---------------------------

  /// Tags subsequent actions with an algorithm-defined phase index for the
  /// metrics' per-phase move breakdown (e.g. selection vs deployment).
  void set_phase(std::size_t phase);

 private:
  ExecutionState* sim_;
  AgentId self_;
  const std::vector<Message>* inbox_;
};

/// Base class for an agent's algorithm. One instance per agent. Keep all
/// algorithm variables as *named members*: memory_bits() and state_hash()
/// report them (memory_bits() backs the paper's space complexity
/// measurements, state_hash() the Theorem-5 indistinguishability experiment
/// and the model checker's visited-state key), and the protothread body
/// (UDRING_BEGIN) cannot keep a local alive across an await anyway. The
/// members a body keeps only to continue where it stopped (the resume point,
/// loop counters and received messages that live across an await) stay out
/// of state_hash() and compute_memory_bits(), so digests and memory figures
/// cover the algorithm's own variables only.
///
/// Programs are copyable values: derive through CopyableProgram<Derived>,
/// which implements copy_to() from the class's own copy assignment.
class AgentProgram {
 public:
  virtual ~AgentProgram() = default;

  /// Runs one atomic action: continues act() from the resume point until
  /// its next UDRING_AWAIT (returning that request) or its halt (returning
  /// Request::Done, after which the program is finished for good). The first
  /// call is the arrival at the home node, per the initial-buffer rule.
  /// Exceptions thrown by the program propagate to the caller (a bug in
  /// algorithm code). Inline: one call per atomic action, on the campaign
  /// hot path.
  Request resume(AgentContext& ctx) {
    if (resume_point_ == kHalted) [[unlikely]] {
      throw_not_resumable();
    }
    const Request request = act(ctx);
    if (request == Request::Done) {
      resume_point_ = kHalted;
    } else if (request == Request::None) [[unlikely]] {
      throw_no_request();
    }
    return request;
  }

  /// True once the program returned Request::Done.
  [[nodiscard]] bool halted() const noexcept { return resume_point_ == kHalted; }

  /// Deep-copies this program (its dynamic type, every member, the resume
  /// point) into `slot`: assigns in place when `slot` already holds a program
  /// of the same dynamic type — so pooled copies allocate nothing — and
  /// replaces it otherwise.
  virtual void copy_to(std::unique_ptr<AgentProgram>& slot) const = 0;

  /// A fresh deep copy.
  [[nodiscard]] std::unique_ptr<AgentProgram> clone() const {
    std::unique_ptr<AgentProgram> copy;
    copy_to(copy);
    return copy;
  }

  /// Algorithm name for logs and reports.
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Current size of the agent's algorithm state in bits, using the paper's
  /// accounting: a counter bounded by m costs bit_width(m) bits, an array
  /// costs length × element-width. The simulator samples this after every
  /// action and records the peak, so it sits on the campaign hot path:
  /// the value is cached and recomputed only after the program declared a
  /// state change through memory_changed(). Debug builds verify the cache
  /// against a fresh compute_memory_bits() at every sample, so a mutation
  /// site that forgot to call memory_changed() fails the test suite rather
  /// than silently under-reporting the peak.
  [[nodiscard]] std::size_t memory_bits() const {
    if (memory_dirty_) {
      memory_bits_cache_ = compute_memory_bits();
      memory_dirty_ = false;
    }
    assert(memory_bits_cache_ == compute_memory_bits());
    return memory_bits_cache_;
  }

  /// Order-insensitive hash of the algorithm state, for comparing the local
  /// configurations of corresponding agents in two executions (Lemma 1).
  [[nodiscard]] virtual std::uint64_t state_hash() const { return 0; }

  /// Names for the phase indices passed to AgentContext::set_phase, used in
  /// reports. Index i names phase i; out-of-range phases print numerically.
  [[nodiscard]] virtual std::vector<std::string_view> phase_names() const {
    return {};
  }

 protected:
  AgentProgram() = default;
  AgentProgram(const AgentProgram&) = default;
  AgentProgram& operator=(const AgentProgram&) = default;

  /// The agent's lifetime behaviour as a protothread body: UDRING_BEGIN,
  /// sequential code with UDRING_AWAIT at every control operation,
  /// UDRING_END. Called by resume(), once per atomic action.
  virtual Request act(AgentContext& ctx) = 0;

  /// The actual bit accounting, overridden by algorithms (the former
  /// memory_bits() body). Called only when the cache is stale.
  [[nodiscard]] virtual std::size_t compute_memory_bits() const { return 0; }

  /// Algorithms call this after mutating any counted member. Cheap enough to
  /// sprinkle after every assignment; only the next sample pays a recompute.
  void memory_changed() const noexcept { memory_dirty_ = true; }

  /// Protothread resume point: 0 = not started, otherwise the source line of
  /// the UDRING_AWAIT the body is parked at. Touched only by the macros.
  int resume_point_ = 0;
  static constexpr int kHalted = -1;

 private:
  // Cold throw sites out of line, keeping resume()'s inlined body small.
  [[noreturn]] static void throw_not_resumable();
  [[noreturn]] static void throw_no_request();

  mutable std::size_t memory_bits_cache_ = 0;
  mutable bool memory_dirty_ = true;
};

/// CRTP base every concrete program derives from (`class X final : public
/// CopyableProgram<X>`, or `CopyableProgram<X, Intermediate>` under an
/// intermediate base): implements copy_to() with X's own copy constructor /
/// assignment. X must be final, so the dynamic-type check is exact.
template <class Derived, class Base = AgentProgram>
class CopyableProgram : public Base {
 public:
  using Base::Base;

  void copy_to(std::unique_ptr<AgentProgram>& slot) const final {
    static_assert(std::is_final_v<Derived>,
                  "CopyableProgram<Derived>: Derived must be final");
    const auto& self = static_cast<const Derived&>(*this);
    if (slot != nullptr) {
      AgentProgram& current = *slot;
      if (typeid(current) == typeid(Derived)) {
        static_cast<Derived&>(current) = self;
        return;
      }
    }
    slot = std::make_unique<Derived>(self);
  }
};

}  // namespace udring::sim

// ---- protothread layer --------------------------------------------------------
//
// An act() body is written as straight-line code between UDRING_BEGIN and
// UDRING_END; UDRING_AWAIT(ctx.move()) ends the atomic action and the next
// resume() continues right after it. The three macros expand to a switch
// over AgentProgram::resume_point_ (Duff's device): each await stores its
// source line and returns, and a `case` label at the same line jumps back
// in. Rules that follow from it:
//   - no local variable may live across an await (use a named member) — an
//     initialized local still in scope at a later await is a compile error
//     (the case label jumps past its initialization), but an uninitialized
//     scalar is not caught, so never declare one without an initializer;
//   - at most one UDRING_AWAIT per source line (duplicate case labels do
//     not compile);
//   - never `switch` around an await, and end the body with UDRING_END.
// Halting mid-body is `return ctx.halt();`.

#define UDRING_BEGIN             \
  switch (this->resume_point_) { \
    case 0:

#define UDRING_AWAIT(request)           \
  do {                                  \
    this->resume_point_ = __LINE__;     \
    return (request);                   \
    case __LINE__:;                     \
  } while (false)

#define UDRING_END \
  }                \
  return ::udring::sim::Request::Done
