// Abstract causal-span sink.
//
// Instrumented subsystems (RPC, fabric, node service, swap) open and close
// spans against this interface without depending on the obs layer; the
// concrete implementation is obs::SpanTracer. Trace ids are the net-layer
// TraceId values carried on the RPC wire, passed here as plain integers so
// this header stays at the sim layer of the dependency DAG.
//
// Contract: begin_span/end_span are passive — they may read the simulator
// clock but must never schedule events, so attaching a sink cannot perturb
// the event order of a seeded run.
#pragma once

#include <cstdint>
#include <string_view>

namespace dm::sim {

class SpanSink {
 public:
  virtual ~SpanSink() = default;

  // Opens a span on `node` attributed to (subsystem, name), causally tied to
  // `trace` (a net::TraceId; 0 = untraced, the sink may drop it). Returns an
  // opaque span handle; 0 means the span was dropped and must not be ended.
  //
  // dm-lint: allow(span-unclosed) — this is the interface declaration.
  virtual std::uint64_t begin_span(std::uint64_t trace, std::uint32_t node,
                                   std::string_view subsystem,
                                   std::string_view name) = 0;
  virtual void end_span(std::uint64_t span) = 0;

  // Point-in-time annotation on `trace` (flight-recorder fodder).
  virtual void event(std::uint64_t trace, std::uint32_t node,
                     std::string_view category, std::string_view detail) = 0;
};

// RAII guard: opens a span on construction (if the sink is non-null and the
// trace is real) and closes it on destruction or explicit close(). This is
// the form the dm_lint `span-unclosed` rule expects at instrumentation
// sites.
class SpanScope {
 public:
  SpanScope(SpanSink* sink, std::uint64_t trace, std::uint32_t node,
            std::string_view subsystem, std::string_view name)
      : sink_(sink) {
    if (sink_ != nullptr && trace != 0) {
      // Guard owns the pair; every exit closes it. dm-lint: allow(span-unclosed)
      span_ = sink_->begin_span(trace, node, subsystem, name);
    }
  }
  ~SpanScope() { close(); }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  // Ends the span now (idempotent); lets callers close before trailing work
  // that should not be attributed to the span.
  void close() {
    if (sink_ != nullptr && span_ != 0) sink_->end_span(span_);
    span_ = 0;
  }

  bool active() const noexcept { return span_ != 0; }

 private:
  SpanSink* sink_ = nullptr;
  std::uint64_t span_ = 0;
};

// A span held across an asynchronous gap, inside an op's closure or state
// record: opened at post, closed by the completion on every settle path.
// Closing one that was never opened does nothing.
struct AsyncSpan {
  SpanSink* sink = nullptr;
  std::uint64_t id = 0;

  // Opens when `sink` is non-null and the trace is real.
  static AsyncSpan open(SpanSink* sink, std::uint64_t trace,
                        std::uint32_t node, std::string_view subsystem,
                        std::string_view name) {
    if (sink == nullptr || trace == 0) return {};
    // Closed by the op's completion. dm-lint: allow(span-unclosed)
    return {sink, sink->begin_span(trace, node, subsystem, name)};
  }

  void close() const {
    if (sink != nullptr) sink->end_span(id);
  }
};

}  // namespace dm::sim
