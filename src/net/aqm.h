// Queue disciplines. The paper's buffer-sizing discussion (Sec. 4.2) pits
// two fixes against each other: grow drop-tail buffers (cheap, but invites
// bufferbloat) or deploy smarter queues. This module implements the
// bufferbloat-era toolbox behind one pluggable interface: drop-tail (the
// measured status quo), CoDel (RFC 8289), FQ-CoDel (flow hashing + DRR
// across per-flow CoDel queues, RFC 8290 shape) and RED (EWMA average
// queue with min/max thresholds). Every AQM can CE-mark ECT packets
// instead of dropping (RFC 3168 ECN).
//
// One core serves all four: the base class owns the timed FIFO entries and
// every statistic, and the RFC 8289 dequeue law exists once, as a per-flow
// struct (CoDelFlow) that CoDelQueue runs once and FQ-CoDel runs per bucket
// (the shape of Linux's shared codel_dequeue()).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "net/packet.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace fiveg::net {

/// Which discipline a link runs, plus every tuning knob. One struct (not a
/// variant) so experiment sweeps can tweak a field without re-dispatching.
enum class QdiscKind { kDropTail, kCoDel, kFqCoDel, kRed };

/// Short stable id for metric labels: "droptail", "codel", ...
[[nodiscard]] std::string_view to_string(QdiscKind kind) noexcept;

struct QdiscConfig {
  QdiscKind kind = QdiscKind::kDropTail;
  /// CE-mark ECT packets instead of dropping (AQM decisions only; a full
  /// buffer still tail-drops — ECN cannot conjure space).
  bool ecn = false;
  // CoDel / FQ-CoDel.
  sim::Time target = 5 * sim::kMillisecond;      // acceptable sojourn
  sim::Time interval = 100 * sim::kMillisecond;  // initial drop spacing
  // FQ-CoDel.
  std::uint32_t quantum_bytes = 1514;  // DRR quantum (one full-size frame)
  std::uint32_t flows = 64;            // hash buckets
  // RED. 0 thresholds = derive from capacity (min = 15%, max = 45%).
  std::uint64_t red_min_bytes = 0;
  std::uint64_t red_max_bytes = 0;
  double red_max_p = 0.1;      // drop probability at max threshold
  double red_weight = 0.002;   // EWMA weight for the average queue
};

/// Queue discipline interface used by Link. Every discipline holds
/// `capacity_bytes` of buffer (shared across flows) and tail-drops an
/// arrival that would overflow it.
class QueueDiscipline {
 public:
  virtual ~QueueDiscipline() = default;
  QueueDiscipline(const QueueDiscipline&) = delete;
  QueueDiscipline& operator=(const QueueDiscipline&) = delete;

  /// Offers a packet at time `now`; false = dropped on entry.
  virtual bool push(Packet p, sim::Time now) = 0;

  /// Dequeues the next packet to transmit at time `now`, or nullopt when
  /// empty (AQMs may drop internally while dequeuing).
  virtual std::optional<Packet> pop(sim::Time now) = 0;

  [[nodiscard]] bool empty() const noexcept { return packets_ == 0; }
  [[nodiscard]] std::uint64_t size_packets() const noexcept {
    return packets_;
  }
  [[nodiscard]] std::uint64_t size_bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }
  [[nodiscard]] std::uint64_t max_depth_bytes() const noexcept {
    return max_depth_bytes_;
  }
  /// Packets CE-marked instead of dropped (0 unless ECN is enabled).
  [[nodiscard]] std::uint64_t marks() const noexcept { return marks_; }
  /// Queueing delay of the most recently popped packet (enqueue -> pop).
  [[nodiscard]] sim::Time last_sojourn() const noexcept {
    return last_sojourn_;
  }

 protected:
  /// A queued packet and its enqueue time (sojourn = pop time - this).
  struct Entry {
    Packet packet;
    sim::Time enqueued_at;
  };
  using Fifo = std::deque<Entry>;

  /// One RFC 8289 CoDel flow: a FIFO plus the dequeue state machine. With
  /// ECN on, a control-law "drop" of an ECT packet becomes a CE mark and
  /// the packet is delivered; the state machine advances exactly as if it
  /// had dropped.
  struct CoDelFlow {
    Fifo fifo;
    bool dropping = false;
    sim::Time first_above_time = 0;
    sim::Time drop_next = 0;
    std::uint32_t drop_count = 0;
    std::uint32_t last_drop_count = 0;

    /// Dequeues the next packet to deliver, shedding per the control law
    /// and counting into `owner`'s statistics; nullopt once the FIFO ran
    /// dry.
    std::optional<Packet> pop(QueueDiscipline* owner, sim::Time now);
  };

  QueueDiscipline(const QdiscConfig& config, std::uint64_t capacity_bytes)
      : config_(config), capacity_bytes_(capacity_bytes) {}

  /// The tail-drop check every discipline applies first: false (and one
  /// drop counted) when `p` would overflow the buffer.
  [[nodiscard]] bool admit(const Packet& p);
  void enqueue(Fifo* fifo, Packet p, sim::Time now);
  /// Pops the head of a non-empty `fifo` and records its sojourn.
  Entry dequeue(Fifo* fifo, sim::Time now);
  /// An AQM decision against `p`: CE-marks it when ECN is on and `p` is
  /// ECT (returns false: deliver it), else counts a drop (returns true).
  [[nodiscard]] bool shed(Packet* p);

  QdiscConfig config_;
  std::uint64_t capacity_bytes_;
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t marks_ = 0;
  std::uint64_t max_depth_bytes_ = 0;
  sim::Time last_sojourn_ = 0;
};

/// Builds a discipline over `capacity_bytes` of buffer. `link_name` seeds
/// RED's private drop stream so probabilistic drops are deterministic per
/// link and independent of construction order.
[[nodiscard]] std::unique_ptr<QueueDiscipline> make_qdisc(
    const QdiscConfig& config, std::uint64_t capacity_bytes,
    std::string_view link_name);

/// Parses a CLI spec like "codel", "fq_codel+ecn", "red", "droptail".
/// Returns false (out untouched) on an unknown spec.
[[nodiscard]] bool parse_qdisc_spec(std::string_view spec, QdiscConfig* out);

/// The measured status quo: a byte-bounded FIFO that tail-drops.
class DropTailQdisc : public QueueDiscipline {
 public:
  DropTailQdisc(const QdiscConfig& config, std::uint64_t capacity_bytes)
      : QueueDiscipline(config, capacity_bytes) {}

  bool push(Packet p, sim::Time now) override;
  std::optional<Packet> pop(sim::Time now) override;

 protected:
  Fifo fifo_;
};

/// RFC 8289 CoDel on top of a byte-bounded FIFO: one CoDelFlow.
class CoDelQueue final : public QueueDiscipline {
 public:
  CoDelQueue(const QdiscConfig& config, std::uint64_t capacity_bytes)
      : QueueDiscipline(config, capacity_bytes) {}

  bool push(Packet p, sim::Time now) override;
  std::optional<Packet> pop(sim::Time now) override;

 private:
  CoDelFlow flow_;
};

/// FQ-CoDel (RFC 8290 shape): packets hash by flow id into buckets, each
/// bucket runs its own CoDelFlow, and a deficit-round-robin scheduler with
/// a new-flow priority list serves the buckets. Heavy flows build sojourn
/// (and get throttled) in their own bucket; sparse flows pass through
/// untouched — the flow-isolation property the incast and mixed-RTT
/// experiments measure.
class FqCoDelQueue final : public QueueDiscipline {
 public:
  FqCoDelQueue(const QdiscConfig& config, std::uint64_t capacity_bytes);

  bool push(Packet p, sim::Time now) override;
  std::optional<Packet> pop(sim::Time now) override;

  /// Which bucket a flow hashes to (exposed so tests can build collision-
  /// free flow sets).
  [[nodiscard]] std::uint32_t bucket_of(std::uint32_t flow_id) const;

 private:
  struct Bucket {
    CoDelFlow flow;
    int deficit = 0;
    bool queued = false;  // on new_flows_ or old_flows_
  };

  std::vector<Bucket> buckets_;
  std::deque<std::uint32_t> new_flows_;  // bucket indices, served first
  std::deque<std::uint32_t> old_flows_;
};

/// Random Early Detection (Floyd & Jacobson 1993): a drop-tail FIFO whose
/// admission adds early drops. An EWMA of the queue depth gates
/// probabilistic drops between a min and max threshold; above max every
/// arrival drops. With `ecn` on, an early "drop" of an ECT packet becomes a
/// CE mark (forced drops above max still drop). `seed` keys the private
/// drop stream (make_qdisc forks it from the link name).
class RedQueue final : public DropTailQdisc {
 public:
  RedQueue(const QdiscConfig& config, std::uint64_t capacity_bytes,
           std::uint64_t seed);

  bool push(Packet p, sim::Time now) override;

  /// Current EWMA of the queue depth in bytes (for tests).
  [[nodiscard]] double avg_bytes() const noexcept { return avg_bytes_; }

 private:
  sim::Rng rng_;
  double avg_bytes_ = 0.0;  // EWMA of the instantaneous depth
  int count_ = -1;          // arrivals since the last early drop/mark
};

}  // namespace fiveg::net
