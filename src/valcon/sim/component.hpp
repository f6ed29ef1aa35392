// Protocol composition.
//
// The paper's algorithms are built from nested instances ("Uses: Quad,
// instance quad" etc.). A Component is a protocol layer with the same three
// callbacks as a Process; Mux is a Component that owns named child
// components and transparently multiplexes messages and timers to them, so a
// stack like Universal -> VectorConsensus -> Quad composes without any layer
// knowing about the others' wire formats.
//
// Child messages are wrapped in MuxMsg (the wrapper contributes nothing to
// word accounting — headers are constant-size). Timer tags are radix-encoded
// along the nesting path.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "valcon/sim/process.hpp"

namespace valcon::sim {

class Component {
 public:
  virtual ~Component() = default;
  virtual void on_start(Context&) {}
  virtual void on_message(Context&, ProcessId /*from*/, const PayloadPtr&) {}
  virtual void on_timer(Context&, std::uint64_t /*tag*/) {}
};

// A metrics name of its own would hide the real per-type traffic breakdown,
// so MuxMsg forwards the wrapped payload's identity (captured once at
// construction, see below).
// valcon-lint: allow(payload-type) -- forwards the inner payload's identity
struct MuxMsg final : Payload {
  MuxMsg(std::uint32_t child_idx, PayloadPtr inner_payload)
      : child(child_idx),
        inner(std::move(inner_payload)),
        name_(inner->type_name()),
        type_id_(inner->type_id()),
        words_(inner->size_words()) {}

  // The wrapped message's metrics identity, captured once at construction:
  // Metrics::on_send queries the outermost payload on every send, and for
  // a multi-level Mux stack the per-send virtual walk down the wrapper
  // chain (twice: id and words) was measurable on the hot path.
  [[nodiscard]] const char* type_name() const override { return name_; }
  [[nodiscard]] PayloadTypeId type_id() const override { return type_id_; }
  [[nodiscard]] std::size_t size_words() const override { return words_; }
  [[nodiscard]] std::int32_t mux_child() const override {
    return static_cast<std::int32_t>(child);
  }

  std::uint32_t child;
  PayloadPtr inner;

 private:
  const char* name_;
  PayloadTypeId type_id_;
  std::size_t words_;
};

/// A component with children. Subclasses implement the own_* hooks for their
/// own protocol logic and register children with make_child().
class Mux : public Component {
 public:
  static constexpr std::uint64_t kTagRadix = 1024;

  void on_start(Context& ctx) final {
    ScopedCtx scope(this, ctx);
    own_start(ctx);
    for (std::size_t i = 0; i < children_.size(); ++i) {
      children_[i]->on_start(*child_ctxs_[i]);
    }
  }

  void on_message(Context& ctx, ProcessId from, const PayloadPtr& m) final {
    ScopedCtx scope(this, ctx);
    const std::int32_t child = m->mux_child();
    if (child != Payload::kNotWrapped) {
      // Only MuxMsg answers the routing hook (see Payload::mux_child).
      assert(dynamic_cast<const MuxMsg*>(m.get()) != nullptr);
      const auto* mux = static_cast<const MuxMsg*>(m.get());
      if (mux->child < children_.size()) {
        children_[mux->child]->on_message(*child_ctxs_[mux->child], from,
                                          mux->inner);
      }
      return;
    }
    own_message(ctx, from, m);
  }

  void on_timer(Context& ctx, std::uint64_t tag) final {
    ScopedCtx scope(this, ctx);
    const std::uint64_t idx = tag % kTagRadix;
    if (idx == 0) {
      own_timer(ctx, tag / kTagRadix);
    } else if (idx - 1 < children_.size()) {
      children_[idx - 1]->on_timer(*child_ctxs_[idx - 1], tag / kTagRadix);
    }
  }

 protected:
  virtual void own_start(Context&) {}
  virtual void own_message(Context&, ProcessId /*from*/, const PayloadPtr&) {}
  virtual void own_timer(Context&, std::uint64_t /*tag*/) {}

  /// Constructs and registers a child component; returns a typed reference
  /// owned by this Mux.
  template <typename T, typename... Args>
  T& make_child(Args&&... args) {
    auto child = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *child;
    add_child(std::move(child));
    return ref;
  }

  /// Registers an already-constructed (possibly polymorphic) child.
  Component& add_child(std::unique_ptr<Component> child) {
    const auto idx = static_cast<std::uint32_t>(children_.size());
    children_.push_back(std::move(child));
    child_ctxs_.push_back(std::make_unique<ChildCtx>(this, idx));
    return *children_.back();
  }

  /// Sizes the child tables once for a layer that knows how many children
  /// it will register, instead of regrowing them child by child.
  void reserve_children(std::size_t count) {
    children_.reserve(count);
    child_ctxs_.reserve(count);
  }

  /// Context adapter for child `idx`, for invoking child methods directly
  /// (e.g. a late `propose` request). Only valid while a callback of this
  /// Mux is on the stack.
  [[nodiscard]] Context& child_context(std::size_t idx) {
    return *child_ctxs_[idx];
  }

  [[nodiscard]] Component& child(std::size_t idx) { return *children_[idx]; }

  /// The context of the callback currently executing. Valid only inside
  /// on_start / on_message / on_timer (including child callbacks invoked
  /// from them), which is where all protocol logic runs.
  [[nodiscard]] Context& ctx() {
    assert(current_ != nullptr);
    return *current_;
  }

  /// Delivers a message to child `idx` as if it arrived from `from` — used
  /// by layers that perform local (non-network) handoff.
  void inject_to_child(std::size_t idx, ProcessId from, const PayloadPtr& m) {
    children_[idx]->on_message(*child_ctxs_[idx], from, m);
  }

  [[nodiscard]] std::size_t child_count() const { return children_.size(); }

  /// Sets own timer with a tag that routes back to own_timer.
  void set_own_timer(Context& base, Time delay, std::uint64_t tag) {
    base.set_timer(delay, tag * kTagRadix);
  }

  /// Binds `ctx` as the current context for the duration of a scope. Needed
  /// by public entry points invoked from *outside* this Mux's callbacks
  /// (e.g. a parent layer calling disseminate()/propose() on a child Mux):
  /// such methods must open a CallScope before touching child_context().
  class CallScope;

 private:
  class ChildCtx final : public Context {
   public:
    ChildCtx(Mux* owner, std::uint32_t idx) : owner_(owner), idx_(idx) {}

    [[nodiscard]] Time now() const override { return base().now(); }
    [[nodiscard]] ProcessId id() const override { return base().id(); }
    [[nodiscard]] int n() const override { return base().n(); }
    [[nodiscard]] int t() const override { return base().t(); }
    [[nodiscard]] Time delta() const override { return base().delta(); }

    void send(ProcessId to, PayloadPtr payload) override {
      base().send(to, make_payload<MuxMsg>(idx_, std::move(payload)));
    }
    void broadcast(const PayloadPtr& payload) override {
      // One wrapper shared by every recipient instead of n identical
      // wrappers: payloads are immutable and shared by design, so this is
      // observationally identical — and protocol stacks broadcast almost
      // everything, so on a multi-level stack it removes (levels × n - 1)
      // allocations per broadcast. The base context still sees one send()
      // per recipient (Byzantine shims interpose on those, not here).
      base().broadcast(make_payload<MuxMsg>(idx_, payload));
    }
    void set_timer(Time delay, std::uint64_t tag) override {
      base().set_timer(delay, tag * kTagRadix + idx_ + 1);
    }
    void note_quorum(int margin, std::uint64_t conflicting) override {
      base().note_quorum(margin, conflicting);
    }
    [[nodiscard]] const crypto::KeyRegistry& keys() const override {
      return base().keys();
    }
    [[nodiscard]] const crypto::Signer& signer() const override {
      return base().signer();
    }
    [[nodiscard]] Rng& rng() override { return base().rng(); }

   private:
    [[nodiscard]] Context& base() const {
      assert(owner_->current_ != nullptr);
      return *owner_->current_;
    }
    Mux* owner_;
    std::uint32_t idx_;
  };

  struct ScopedCtx {
    ScopedCtx(Mux* mux, Context& ctx) : mux_(mux), prev_(mux->current_) {
      mux_->current_ = &ctx;
    }
    ~ScopedCtx() { mux_->current_ = prev_; }
    Mux* mux_;
    Context* prev_;
  };

  std::vector<std::unique_ptr<Component>> children_;
  std::vector<std::unique_ptr<ChildCtx>> child_ctxs_;
  Context* current_ = nullptr;
};

class Mux::CallScope {
 public:
  CallScope(Mux* mux, Context& ctx) : scope_(mux, ctx) {}

 private:
  ScopedCtx scope_;
};

/// Adapts a root Component into a Process the simulator can host.
class ComponentHost final : public Process {
 public:
  explicit ComponentHost(std::unique_ptr<Component> root)
      : root_(std::move(root)) {}

  [[nodiscard]] Component& root() { return *root_; }

  void on_start(Context& ctx) override { root_->on_start(ctx); }
  void on_message(Context& ctx, ProcessId from, const PayloadPtr& m) override {
    root_->on_message(ctx, from, m);
  }
  void on_timer(Context& ctx, std::uint64_t tag) override {
    root_->on_timer(ctx, tag);
  }

 private:
  std::unique_ptr<Component> root_;
};

}  // namespace valcon::sim
