#include "net/rpc.h"

#include <array>
#include <cassert>
#include <cstring>
#include <memory>
#include <utility>

#include "common/status.h"
#include "common/units.h"
#include "net/retry_policy.h"
#include "net/wire.h"
#include "sim/span_sink.h"

namespace dm::net {
namespace {

// Message layout: u8 kind (0=request, 1=reply-ok, 2=reply-error),
// u64 call id, u64 trace id, u16 method (request) or u16 status code
// (error reply), then the payload bytes.
enum class Kind : std::uint8_t { kRequest = 0, kReplyOk = 1, kReplyError = 2 };

// kind + call id + trace id, common to every frame.
constexpr std::size_t kFrameHeader = 1 + 8 + 8;
// Length prefix of a put_bytes/put_string field.
constexpr std::size_t kLengthPrefix = 4;

// A frame header encoded on the stack, field by field as WireWriter encodes
// them, then put in front of a body the caller already owns. The body is a
// length-prefixed byte string, so the frame reads exactly as one written by
// WireWriter::put_bytes. A body built by a default WireWriter has room left
// in its first block, so a small frame reuses the body's buffer and costs no
// allocation; a larger one costs the single allocation a fresh frame would.
class FrameHeader {
 public:
  FrameHeader(Kind kind, std::uint64_t call_id, TraceId trace) {
    put(static_cast<std::uint8_t>(kind));
    put(call_id);
    put(trace);
  }

  template <typename T>
  void put(T v) {
    static_assert(sizeof(T) <= kMaxBytes);
    std::memcpy(bytes_.data() + size_, &v, sizeof(T));
    size_ += sizeof(T);
  }

  std::vector<std::byte> frame(std::vector<std::byte> body) {
    put(static_cast<std::uint32_t>(body.size()));
    body.insert(body.begin(), bytes_.begin(), bytes_.begin() + size_);
    return body;
  }

 private:
  static constexpr std::size_t kMaxBytes =
      kFrameHeader + sizeof(RpcMethod) + kLengthPrefix;
  std::array<std::byte, kMaxBytes> bytes_{};
  std::size_t size_ = 0;
};

}  // namespace

void RpcEndpoint::attach_channel(QueuePair* qp) {
  channels_[qp->remote()] = qp;
  qp->set_receive_handler(
      [this](NodeId from, std::vector<std::byte>& message) {
        on_message(from, message);
      });
}

void RpcEndpoint::detach_channel(NodeId peer) { channels_.erase(peer); }

RpcEndpoint::Pending* RpcEndpoint::find_pending(std::uint64_t call_id) {
  const std::uint64_t slot = call_id & kSlotMask;
  if (call_id == 0 || slot >= calls_.size()) return nullptr;
  Pending& pending = calls_[slot];
  return pending.call_id == call_id ? &pending : nullptr;
}

const RpcEndpoint::MethodNames& RpcEndpoint::method_names(RpcMethod method) {
  auto it = methods_.find(method);
  if (it == methods_.end()) {
    std::string label = "m";
    label += std::to_string(method);
    it = methods_.emplace(method, MethodNames(std::move(label))).first;
  }
  return it->second;
}

void RpcEndpoint::call(NodeId peer, RpcMethod method,
                       std::vector<std::byte> payload, SimTime timeout,
                       RpcResponseCallback done, TraceId trace) {
  if (trace == kNoTrace) trace = new_trace();
  if (!retry_.enabled()) {
    call_once(peer, method, std::move(payload), timeout, std::move(done),
              trace);
    return;
  }
  // Retryable call: re-issue on retryable failures with capped exponential
  // backoff. All attempts share the trace id (the causal chain shows the
  // retries) and the salt decorrelating their jitter.
  struct Attempt : std::enable_shared_from_this<Attempt> {
    RpcEndpoint* self;
    NodeId peer;
    RpcMethod method;
    std::vector<std::byte> payload;
    SimTime timeout;
    RpcResponseCallback done;
    TraceId trace;
    std::size_t attempt = 0;

    void run() {
      ++attempt;
      auto keep = shared_from_this();
      self->call_once(
          peer, method, payload, timeout,
          [keep](StatusOr<std::vector<std::byte>> result) {
            const RetryPolicy& policy = keep->self->retry_;
            if (result.ok() || keep->attempt >= policy.max_attempts ||
                !policy.retryable(result.status().code())) {
              keep->done(std::move(result));
              return;
            }
            const SimTime wait = policy.backoff(keep->attempt, keep->trace);
            ++keep->self->metrics_.counter("rpc.retries");
            keep->self->metrics_.histogram("net.backoff_ns")
                .record(static_cast<std::uint64_t>(wait));
            keep->self->trace_event("rpc.retry", [&] {
              return "node" + std::to_string(keep->self->self_) + " " +
                     keep->self->method_names(keep->method).label +
                     " attempt " + std::to_string(keep->attempt + 1) +
                     " after " + std::to_string(wait) + "ns " +
                     format_trace_id(keep->trace);
            });
            keep->self->sim_.schedule_after(wait,
                                            [keep]() { keep->run(); });
          },
          trace);
    }
  };
  auto state = std::make_shared<Attempt>();
  state->self = this;
  state->peer = peer;
  state->method = method;
  state->payload = std::move(payload);
  state->timeout = timeout;
  state->done = std::move(done);
  state->trace = trace;
  state->run();
}

void RpcEndpoint::call_once(NodeId peer, RpcMethod method,
                            std::vector<std::byte> payload, SimTime timeout,
                            RpcResponseCallback done, TraceId trace) {
  auto it = channels_.find(peer);
  if ((it == channels_.end() || it->second->in_error()) && repairer_) {
    (void)repairer_(peer);  // lazily establish / repair the channel
    it = channels_.find(peer);
  }
  if (it == channels_.end() || it->second->in_error()) {
    ++metrics_.counter("rpc.no_channel");
    // Fail asynchronously so callers see uniform completion ordering.
    sim_.schedule_after(0, [done = std::move(done)]() mutable {
      done(UnavailableError("no control channel to peer"));
    });
    return;
  }
  std::uint32_t slot;
  if (!free_calls_.empty()) {
    slot = free_calls_.back();
    free_calls_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(calls_.size());
    assert(slot <= kSlotMask);
    calls_.emplace_back();
  }
  const std::uint64_t call_id = next_call_++ << kSlotBits | slot;
  Pending& pending = calls_[slot];
  pending.call_id = call_id;
  pending.done = std::move(done);
  pending.started = sim_.now();
  pending.method = method;
  pending.trace = trace;
  if (spans_ != nullptr) {
    const std::string& name = method_names(method).span;
    // Caller-side span: open here, closed by settle() when the reply, error
    // or timeout lands — the Pending record owns the handle across the async
    // gap. dm-lint: allow(span-unclosed)
    pending.span = spans_->begin_span(trace, self_, "net", name);
  }
  ++metrics_.counter("rpc.calls");
  trace_event("rpc.call", [&] {
    return "node" + std::to_string(self_) + " -> node" +
           std::to_string(peer) + " " + method_names(method).label + " " +
           format_trace_id(trace);
  });

  // The payload's buffer becomes the frame, and the QP carries that same
  // buffer to delivery.
  FrameHeader header(Kind::kRequest, call_id, trace);
  header.put(method);
  auto sent = [this, call_id](const Completion& c) {
    if (!c.status.ok()) settle(call_id, c.status);
  };
  static_assert(CompletionCallback::stores_inline<decltype(sent)>());
  Status posted =
      it->second->post_send(header.frame(std::move(payload)), std::move(sent));
  if (!posted.ok()) {
    settle(call_id, posted);
    return;
  }
  auto expire = [this, call_id]() {
    // A call that already settled leaves no record; its timer is a no-op.
    if (find_pending(call_id) == nullptr) return;
    settle(call_id, TimeoutError("rpc deadline exceeded"));
  };
  static_assert(sim::EventCallback::stores_inline<decltype(expire)>());
  sim_.schedule_after(timeout, std::move(expire));
}

void RpcEndpoint::on_message(NodeId from, std::vector<std::byte>& message) {
  WireReader r(message);
  const auto kind = static_cast<Kind>(r.u8());
  const std::uint64_t call_id = r.u64();
  const TraceId trace = r.u64();
  if (!r.ok()) return;  // torn message: drop (sender will time out)

  if (kind == Kind::kRequest) {
    const RpcMethod method = r.u16();
    auto payload = r.bytes();
    if (!r.ok()) return;
    auto reply_channel = channels_.find(from);
    if (reply_channel == channels_.end()) return;

    ++metrics_.counter("rpc.dispatched");
    trace_event("rpc.dispatch", [&] {
      return "node" + std::to_string(self_) + " <- node" +
             std::to_string(from) + " " + method_names(method).label + " " +
             format_trace_id(trace);
    });
    // Error replies are sized to the code and message they carry.
    auto error_reply = [call_id, trace](std::size_t body) {
      WireWriter w(kFrameHeader + body);
      w.put_u8(static_cast<std::uint8_t>(Kind::kReplyError));
      w.put_u64(call_id);
      w.put_u64(trace);
      return w;
    };
    auto handler = handlers_.find(method);
    if (handler == handlers_.end()) {
      WireWriter w = error_reply(sizeof(std::uint16_t));
      w.put_u16(static_cast<std::uint16_t>(StatusCode::kInvalidArgument));
      (void)reply_channel->second->post_send(std::move(w).take(), {});
      return;
    }
    WireReader req(payload);
    // Expose the request's trace id to the handler so downstream calls
    // stay on the same causal chain.
    sim::SpanScope dispatch_span(spans_, trace, self_, "remote",
                                 method_names(method).span);
    current_trace_ = trace;
    auto result = handler->second(from, req);
    current_trace_ = kNoTrace;
    dispatch_span.close();
    if (result.ok()) {
      // The handler's result buffer becomes the reply frame.
      FrameHeader header(Kind::kReplyOk, call_id, trace);
      (void)reply_channel->second->post_send(
          header.frame(std::move(*result)), {});
    } else {
      const Status error = result.status();
      WireWriter w = error_reply(sizeof(std::uint16_t) + kLengthPrefix +
                                 error.message().size());
      w.put_u16(static_cast<std::uint16_t>(error.code()));
      w.put_string(error.message());
      (void)reply_channel->second->post_send(std::move(w).take(), {});
    }
    return;
  }

  // Reply path.
  if (kind == Kind::kReplyOk) {
    auto payload = r.bytes();
    if (!r.ok()) return;
    // The reply frame becomes the response: drop the header in place and
    // hand the buffer on, instead of copying the payload out of it.
    const auto start = payload.data() - message.data();
    const std::size_t size = payload.size();
    message.erase(message.begin(), message.begin() + start);
    message.resize(size);
    settle(call_id, std::move(message));
  } else if (kind == Kind::kReplyError) {
    const auto code = static_cast<StatusCode>(r.u16());
    std::string msg = r.remaining() > 0 ? r.string() : std::string{};
    settle(call_id, Status(code, std::move(msg)));
  }
}

void RpcEndpoint::settle(std::uint64_t call_id,
                         StatusOr<std::vector<std::byte>> result) {
  Pending* slot = find_pending(call_id);
  if (slot == nullptr) return;
  Pending pending = std::move(*slot);
  *slot = Pending{};
  free_calls_.push_back(static_cast<std::uint32_t>(call_id & kSlotMask));
  // Round-trip latency per method, timeouts and error-settles included —
  // failure detection time is part of the paper's recovery story.
  const MethodNames& names = method_names(pending.method);
  metrics_.histogram(names.rtt_histogram)
      .record(static_cast<std::uint64_t>(sim_.now() - pending.started));
  if (spans_ != nullptr && pending.span != 0) spans_->end_span(pending.span);
  if (!result.ok()) {
    ++metrics_.counter(result.status().code() == StatusCode::kTimeout
                           ? "rpc.timeouts"
                           : "rpc.errors");
  }
  trace_event("rpc.reply", [&] {
    return "node" + std::to_string(self_) + " " + names.label + " " +
           (result.ok() ? "ok " : "err ") + format_trace_id(pending.trace);
  });
  pending.done(std::move(result));
}

}  // namespace dm::net
