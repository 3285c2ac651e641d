#include "net/aqm.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

namespace fiveg::net {

std::string_view to_string(QdiscKind kind) noexcept {
  switch (kind) {
    case QdiscKind::kDropTail:
      return "droptail";
    case QdiscKind::kCoDel:
      return "codel";
    case QdiscKind::kFqCoDel:
      return "fq_codel";
    case QdiscKind::kRed:
      return "red";
  }
  return "droptail";
}

bool parse_qdisc_spec(std::string_view spec, QdiscConfig* out) {
  QdiscConfig cfg;
  if (spec.size() >= 4 && spec.substr(spec.size() - 4) == "+ecn") {
    cfg.ecn = true;
    spec.remove_suffix(4);
  }
  if (spec == "droptail") {
    cfg.kind = QdiscKind::kDropTail;
  } else if (spec == "codel") {
    cfg.kind = QdiscKind::kCoDel;
  } else if (spec == "fq_codel") {
    cfg.kind = QdiscKind::kFqCoDel;
  } else if (spec == "red") {
    cfg.kind = QdiscKind::kRed;
  } else {
    return false;
  }
  *out = cfg;
  return true;
}

std::unique_ptr<QueueDiscipline> make_qdisc(const QdiscConfig& config,
                                            std::uint64_t capacity_bytes,
                                            std::string_view link_name) {
  switch (config.kind) {
    case QdiscKind::kCoDel:
      return std::make_unique<CoDelQueue>(config, capacity_bytes);
    case QdiscKind::kFqCoDel:
      return std::make_unique<FqCoDelQueue>(config, capacity_bytes);
    case QdiscKind::kRed: {
      // A per-link fork keeps RED's probabilistic drops independent of
      // every model stream and of link construction order.
      const std::uint64_t seed =
          sim::Rng(0x8ed).fork("red." + std::string(link_name)).seed();
      return std::make_unique<RedQueue>(config, capacity_bytes, seed);
    }
    case QdiscKind::kDropTail:
      break;
  }
  return std::make_unique<DropTailQdisc>(config, capacity_bytes);
}

// --- shared core -----------------------------------------------------------

bool QueueDiscipline::admit(const Packet& p) {
  if (bytes_ + p.size_bytes <= capacity_bytes_) return true;
  ++drops_;
  return false;
}

void QueueDiscipline::enqueue(Fifo* fifo, Packet p, sim::Time now) {
  bytes_ += p.size_bytes;
  ++packets_;
  max_depth_bytes_ = std::max(max_depth_bytes_, bytes_);
  fifo->push_back({std::move(p), now});
}

QueueDiscipline::Entry QueueDiscipline::dequeue(Fifo* fifo, sim::Time now) {
  Entry e = std::move(fifo->front());
  fifo->pop_front();
  bytes_ -= e.packet.size_bytes;
  --packets_;
  last_sojourn_ = now - e.enqueued_at;
  return e;
}

bool QueueDiscipline::shed(Packet* p) {
  if (config_.ecn && p->ect) {
    // RFC 3168: signal instead of shoot. The bytes still reach the
    // receiver.
    p->ce = true;
    ++marks_;
    return false;
  }
  ++drops_;
  return true;
}

namespace {

// RFC 8289 control law: the next drop comes interval / sqrt(count) after
// `t`, so drops accelerate while congestion holds.
sim::Time control_law(sim::Time t, sim::Time interval, std::uint32_t count) {
  return t + static_cast<sim::Time>(
                 static_cast<double>(interval) /
                 std::sqrt(static_cast<double>(std::max(count, 1u))));
}

}  // namespace

std::optional<Packet> QueueDiscipline::CoDelFlow::pop(QueueDiscipline* owner,
                                                      sim::Time now) {
  const sim::Time interval = owner->config_.interval;
  while (!fifo.empty()) {
    Entry e = owner->dequeue(&fifo, now);
    if (now - e.enqueued_at <= owner->config_.target) {
      dropping = false;
      first_above_time = 0;
      return std::move(e.packet);
    }
    if (dropping) {
      if (now < drop_next) return std::move(e.packet);
      ++drop_count;
      drop_next = control_law(drop_next, interval, drop_count);
    } else {
      if (first_above_time == 0) {
        first_above_time = now + interval;
        return std::move(e.packet);
      }
      if (now < first_above_time) return std::move(e.packet);
      // Sojourn has exceeded target for a full interval: enter dropping,
      // resuming near the last drop rate if congestion only just eased.
      dropping = true;
      drop_count = drop_count > last_drop_count + 1 &&
                           now - drop_next < 8 * interval
                       ? drop_count - last_drop_count
                       : 1;
      drop_next = control_law(now, interval, drop_count);
      last_drop_count = drop_count;
    }
    if (!owner->shed(&e.packet)) return std::move(e.packet);  // CE-marked
  }
  dropping = false;
  first_above_time = 0;
  return std::nullopt;
}

// --- DropTailQdisc ---------------------------------------------------------

bool DropTailQdisc::push(Packet p, sim::Time now) {
  if (!admit(p)) return false;
  enqueue(&fifo_, std::move(p), now);
  return true;
}

std::optional<Packet> DropTailQdisc::pop(sim::Time now) {
  if (fifo_.empty()) return std::nullopt;
  return dequeue(&fifo_, now).packet;
}

// --- CoDelQueue ------------------------------------------------------------

bool CoDelQueue::push(Packet p, sim::Time now) {
  if (!admit(p)) return false;
  enqueue(&flow_.fifo, std::move(p), now);
  return true;
}

std::optional<Packet> CoDelQueue::pop(sim::Time now) {
  return flow_.pop(this, now);
}

// --- FqCoDelQueue ----------------------------------------------------------

FqCoDelQueue::FqCoDelQueue(const QdiscConfig& config,
                           std::uint64_t capacity_bytes)
    : QueueDiscipline(config, capacity_bytes),
      buckets_(std::max(config.flows, 1u)) {}

std::uint32_t FqCoDelQueue::bucket_of(std::uint32_t flow_id) const {
  // Knuth multiplicative hash: spreads small consecutive flow ids without
  // needing a keyed hash (there is no adversary inside the simulation).
  return (flow_id * 2654435761u) % static_cast<std::uint32_t>(buckets_.size());
}

bool FqCoDelQueue::push(Packet p, sim::Time now) {
  // Linux sheds from the fattest flow on overflow; dropping the arrival is
  // simpler and deterministic, and the AQM keeps queues far below capacity
  // in every scenario we run.
  if (!admit(p)) return false;
  const std::uint32_t idx = bucket_of(p.flow_id);
  Bucket& b = buckets_[idx];
  enqueue(&b.flow.fifo, std::move(p), now);
  if (!b.queued) {
    // A flow that was idle re-enters through the priority list with a
    // fresh quantum: sparse flows jump the heavy ones.
    b.queued = true;
    b.deficit = static_cast<int>(config_.quantum_bytes);
    new_flows_.push_back(idx);
  }
  return true;
}

std::optional<Packet> FqCoDelQueue::pop(sim::Time now) {
  while (true) {
    const bool from_new = !new_flows_.empty();
    std::deque<std::uint32_t>& list = from_new ? new_flows_ : old_flows_;
    if (list.empty()) return std::nullopt;
    const std::uint32_t idx = list.front();
    Bucket& b = buckets_[idx];
    if (b.deficit <= 0) {
      // Quantum exhausted: recharge and rotate to the back of the old
      // list (DRR proper).
      b.deficit += static_cast<int>(config_.quantum_bytes);
      list.pop_front();
      old_flows_.push_back(idx);
      continue;
    }
    // Sojourn builds per bucket, so only the flow at fault gets throttled.
    std::optional<Packet> p = b.flow.pop(this, now);
    if (!p) {
      // Bucket ran dry. A new flow parks on the old list first (RFC 8290:
      // it must survive one rotation before leaving, or a sparse flow
      // that sends exactly one packet per quantum keeps "new" priority
      // forever); an old flow leaves the scheduler.
      list.pop_front();
      if (from_new) {
        old_flows_.push_back(idx);
      } else {
        b.queued = false;
      }
      continue;
    }
    b.deficit -= static_cast<int>(p->size_bytes);
    return p;
  }
}

// --- RedQueue --------------------------------------------------------------

RedQueue::RedQueue(const QdiscConfig& config, std::uint64_t capacity_bytes,
                   std::uint64_t seed)
    : DropTailQdisc(config, capacity_bytes), rng_(seed) {
  const auto capacity = static_cast<double>(capacity_bytes);
  if (config_.red_min_bytes == 0) {
    config_.red_min_bytes = static_cast<std::uint64_t>(0.15 * capacity);
  }
  if (config_.red_max_bytes == 0) {
    config_.red_max_bytes = static_cast<std::uint64_t>(0.45 * capacity);
  }
}

bool RedQueue::push(Packet p, sim::Time now) {
  // EWMA of the instantaneous depth, updated per arrival. (The classic
  // idle-time correction is omitted: arrivals on an idle link find
  // avg ~ 0 anyway at these weights, and the omission keeps the estimator
  // trivially deterministic.)
  avg_bytes_ = (1.0 - config_.red_weight) * avg_bytes_ +
               config_.red_weight * static_cast<double>(bytes_);

  // Physical tail drop first: ECN cannot conjure buffer space.
  if (!admit(p)) return false;
  const auto min_th = static_cast<double>(config_.red_min_bytes);
  const auto max_th = static_cast<double>(config_.red_max_bytes);
  if (avg_bytes_ >= max_th) {
    // Above max the estimator says sustained congestion: force a drop
    // even for ECT traffic (RFC 3168 Sec. 19.1 guidance).
    ++drops_;
    count_ = 0;
    return false;
  }
  if (avg_bytes_ > min_th) {
    ++count_;
    const double pb =
        config_.red_max_p * (avg_bytes_ - min_th) / (max_th - min_th);
    // Spread early decisions out (Floyd & Jacobson's 1/(1 - count*pb)
    // correction makes inter-decision gaps uniform, not geometric).
    const double pa = pb / std::max(1.0 - static_cast<double>(count_) * pb,
                                    1e-9);
    if (rng_.bernoulli(std::min(pa, 1.0))) {
      count_ = 0;
      // A marked arrival still enqueues below.
      if (shed(&p)) return false;
    }
  } else {
    count_ = -1;
  }
  enqueue(&fifo_, std::move(p), now);
  return true;
}

}  // namespace fiveg::net
