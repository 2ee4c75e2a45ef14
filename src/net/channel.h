// Typed point-to-point channels over the simulator.
//
// A Channel<Msg> is one *directed* link between two components: Send()
// schedules delivery of a message copy to the receiving handler after
// the link's modelled latency (link.h).  Channels are the system's only
// transport — every inter-component hop (client<->LB, LB<->proxy,
// proxy<->certifier, refresh fan-out, standby stream) is a named channel,
// which gives each hop per-link telemetry, fault injection, and crash
// semantics (mute/close) in one place.
//
// Delivery semantics:
//  - Default (no jitter/faults): exactly one Schedule(base_latency) per
//    Send, in call order — indistinguishable from direct scheduling.
//  - FIFO per link is preserved under jitter via a delivery-time
//    watermark; only messages hit by the reorder fault may overtake.
//  - kReliable links stamp sequence numbers, retransmit fault-dropped
//    messages, and release arrivals to the handler in send order
//    (duplicates are suppressed, gaps are held).
//  - A muted or partitioned channel, or one whose destination Endpoint
//    is closed, drops at Send() (counted) — crash/partition injection.

#ifndef SCREP_NET_CHANNEL_H_
#define SCREP_NET_CHANNEL_H_

#include <functional>
#include <map>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "net/link.h"
#include "obs/metrics_registry.h"
#include "runtime/runtime.h"

namespace screp::net {

/// One party of the cluster (a replica, the LB, the certifier, the
/// client fleet).  Channels hold their destination endpoint; closing it
/// (crash-stop) makes every channel pointed at it drop at Send until
/// reopened.
class Endpoint {
 public:
  explicit Endpoint(std::string name = "") : name_(std::move(name)) {}

  void Close() { closed_ = true; }
  void Open() { closed_ = false; }
  bool closed() const { return closed_; }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  bool closed_ = false;
};

/// A directed, typed message channel.  Not copyable/movable: handlers and
/// in-flight deliveries capture `this`.
template <typename Msg>
class Channel {
 public:
  using Handler = std::function<void(const Msg&)>;
  using SizeFn = std::function<size_t(const Msg&)>;
  /// Observes each delivery the instant before the handler runs:
  /// (message, send time, delivery time).  Retransmitted and resequenced
  /// messages report their *original* send time, so the observed interval
  /// is the full transport delay the receiver experienced.
  using TraceFn = std::function<void(const Msg&, TimePoint, TimePoint)>;

  Channel(runtime::Runtime* rt, std::string name, const LinkConfig& config,
          uint64_t seed)
      : rt_(rt), name_(std::move(name)), config_(config), rng_(seed) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Installs the receiver.  Must be set before the first Send.
  void SetHandler(Handler handler) { handler_ = std::move(handler); }
  /// Installs the payload size model (drives per-byte latency and the
  /// bytes counter).  Channels without one count zero-byte messages.
  void SetSizeFn(SizeFn fn) { size_fn_ = std::move(fn); }
  /// Points the channel at its destination endpoint; a closed endpoint
  /// drops sends.
  void SetDestination(Endpoint* dst) { dst_ = dst; }
  /// Installs a delivery observer (e.g. per-hop latency spans).  Purely
  /// passive: it runs right before the handler on every delivery.
  void SetTraceFn(TraceFn fn) { trace_fn_ = std::move(fn); }

  /// Registers this channel's telemetry under "net.<name>.*":
  /// messages/bytes/dropped/redelivered counters plus an in_flight
  /// callback gauge polled by the sampler.
  void AttachMetrics(obs::MetricsRegistry* registry) {
    const std::string prefix = "net." + name_ + ".";
    ctr_messages_ = registry->GetCounter(prefix + "messages");
    ctr_bytes_ = registry->GetCounter(prefix + "bytes");
    ctr_dropped_ = registry->GetCounter(prefix + "dropped");
    ctr_redelivered_ = registry->GetCounter(prefix + "redelivered");
    registry->RegisterCallbackGauge(prefix + "in_flight", [this]() {
      return static_cast<double>(stats_.in_flight);
    });
  }

  /// Transmits one message toward the handler.
  void Send(const Msg& msg) {
    SCREP_CHECK_MSG(handler_ != nullptr,
                    "channel " << name_ << " has no handler");
    ++stats_.sent;
    if (ctr_messages_ != nullptr) ctr_messages_->Increment();
    const size_t bytes = size_fn_ ? size_fn_(msg) : 0;
    stats_.bytes += static_cast<int64_t>(bytes);
    if (ctr_bytes_ != nullptr) {
      ctr_bytes_->Increment(static_cast<int64_t>(bytes));
    }
    if (Blocked()) {
      // Administrative drop (crash/partition): no sequence number is
      // consumed, so a reliable link sees no gap from a dead peer.
      CountDrop();
      return;
    }
    const uint64_t seq = next_seq_++;
    const TimePoint sent = rt_->Now();
    Transmit(msg, bytes, seq, sent, /*redelivery=*/false,
             /*exempt_fifo=*/false);
    if (config_.duplicate_probability > 0 &&
        rng_.NextBool(config_.duplicate_probability)) {
      ++stats_.duplicated;
      Transmit(msg, bytes, seq, sent, /*redelivery=*/false,
               /*exempt_fifo=*/true);
    }
  }

  /// Crash semantics, sender side: a muted channel silently swallows
  /// sends (counted as drops).
  void SetMuted(bool muted) { muted_ = muted; }
  bool muted() const { return muted_; }

  /// Directed partition: same drop behaviour as mute, flipped by fault
  /// injection rather than crash bookkeeping.
  void SetPartitioned(bool partitioned) { partitioned_ = partitioned; }
  bool partitioned() const { return partitioned_; }

  /// Forgets all in-flight traffic and sequencing state: cancels pending
  /// retransmissions and deliveries, clears the reorder hold, and
  /// fast-forwards the receive cursor to the next send.  Owners call
  /// this when the receiver is resynchronized out of band (recovery /
  /// partition-heal catch-up from the certifier or a peer's snapshot),
  /// which repairs any sequence gap left by retransmissions that gave up.
  void Reset() {
    ++epoch_;
    stats_.in_flight = 0;
    hold_.clear();
    next_deliver_seq_ = next_seq_;
    fifo_watermark_ = 0;
  }

  const LinkStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }
  const LinkConfig& config() const { return config_; }

 private:
  bool Blocked() const {
    return muted_ || partitioned_ || (dst_ != nullptr && dst_->closed());
  }

  void CountDrop() {
    ++stats_.dropped;
    if (ctr_dropped_ != nullptr) ctr_dropped_->Increment();
  }

  /// Schedules one copy of `msg` for delivery (or its loss + possible
  /// retransmission).  `sent` is the original Send() time, preserved
  /// across retransmissions for the delivery observer.
  void Transmit(const Msg& msg, size_t bytes, uint64_t seq, TimePoint sent,
                bool redelivery, bool exempt_fifo) {
    if (redelivery) {
      if (Blocked()) {
        // The peer died while the retransmission was pending: give up —
        // catch-up (plus Reset) takes over.
        CountDrop();
        return;
      }
      ++stats_.redelivered;
      if (ctr_redelivered_ != nullptr) ctr_redelivered_->Increment();
    }
    if (config_.drop_probability > 0 &&
        rng_.NextBool(config_.drop_probability)) {
      CountDrop();
      if (config_.reliability == Reliability::kReliable) {
        const uint64_t epoch = epoch_;
        rt_->Schedule(config_.EffectiveRetransmitTimeout(),
                       [this, msg, bytes, seq, sent, epoch]() {
                         if (epoch != epoch_) return;
                         Transmit(msg, bytes, seq, sent, /*redelivery=*/true,
                                  /*exempt_fifo=*/true);
                       });
      }
      return;
    }
    Duration delay = config_.base_latency;
    if (config_.per_byte_us > 0 && bytes > 0) {
      delay += static_cast<Duration>(config_.per_byte_us *
                                    static_cast<double>(bytes));
    }
    if (config_.jitter_mean > 0) {
      delay += static_cast<Duration>(
          rng_.NextExponential(static_cast<double>(config_.jitter_mean)));
    }
    bool reordered = false;
    if (config_.reorder_probability > 0 &&
        rng_.NextBool(config_.reorder_probability)) {
      reordered = true;
      ++stats_.reordered;
      if (config_.reorder_window > 0) {
        delay += static_cast<Duration>(rng_.NextBounded(
            static_cast<uint64_t>(config_.reorder_window) + 1));
      }
    }
    TimePoint arrival = rt_->Now() + delay;
    if (config_.fifo && !reordered && !exempt_fifo) {
      // FIFO clamp: never schedule a delivery before an earlier one on
      // this link (ties preserve send order — the simulator fires
      // same-time events in insertion order).
      if (arrival < fifo_watermark_) arrival = fifo_watermark_;
      fifo_watermark_ = arrival;
    }
    ++stats_.in_flight;
    const uint64_t epoch = epoch_;
    rt_->Schedule(arrival - rt_->Now(), [this, msg, seq, sent, epoch]() {
      if (epoch != epoch_) return;  // Reset while in flight
      --stats_.in_flight;
      Arrive(msg, seq, sent);
    });
  }

  void Deliver(const Msg& msg, TimePoint sent) {
    ++stats_.delivered;
    if (trace_fn_) trace_fn_(msg, sent, rt_->Now());
    handler_(msg);
  }

  void Arrive(const Msg& msg, uint64_t seq, TimePoint sent) {
    if (config_.reliability != Reliability::kReliable) {
      Deliver(msg, sent);
      return;
    }
    // Reliable: release in send order, exactly once.
    if (seq < next_deliver_seq_) return;  // stale duplicate / late copy
    if (seq > next_deliver_seq_) {
      hold_.emplace(seq, std::make_pair(msg, sent));  // hold until gap fills
      return;
    }
    ++next_deliver_seq_;
    Deliver(msg, sent);
    for (auto it = hold_.begin();
         it != hold_.end() && it->first == next_deliver_seq_;
         it = hold_.begin()) {
      std::pair<Msg, TimePoint> held = std::move(it->second);
      hold_.erase(it);
      ++next_deliver_seq_;
      Deliver(held.first, held.second);
    }
  }

  runtime::Runtime* rt_;
  std::string name_;
  LinkConfig config_;
  Rng rng_;
  Handler handler_;
  SizeFn size_fn_;
  TraceFn trace_fn_;
  Endpoint* dst_ = nullptr;

  bool muted_ = false;
  bool partitioned_ = false;
  /// Bumped by Reset(): in-flight deliveries and pending retransmissions
  /// from before the reset fire into silence.
  uint64_t epoch_ = 0;

  /// Latest scheduled delivery time (the FIFO clamp).
  TimePoint fifo_watermark_ = 0;

  /// Next sequence number to stamp (reliable links; assigned always so
  /// Reset can fast-forward).
  uint64_t next_seq_ = 0;
  /// Next sequence number the handler is owed.
  uint64_t next_deliver_seq_ = 0;
  /// Out-of-order arrivals awaiting their turn, with their send times.
  std::map<uint64_t, std::pair<Msg, TimePoint>> hold_;

  LinkStats stats_;
  obs::Counter* ctr_messages_ = nullptr;
  obs::Counter* ctr_bytes_ = nullptr;
  obs::Counter* ctr_dropped_ = nullptr;
  obs::Counter* ctr_redelivered_ = nullptr;
};

}  // namespace screp::net

#endif  // SCREP_NET_CHANNEL_H_
