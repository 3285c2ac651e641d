#include "obs/trace.h"

#include <cstdio>
#include <utility>

#include "obs/obs.h"

namespace fiveg::obs {

Tracer::Tracer(std::size_t capacity) : capacity_(capacity > 0 ? capacity : 1) {
  // Reserve lazily: most runs never enable tracing, and a Tracer is only
  // constructed when they do.
  ring_.reserve(capacity_ < 4096 ? capacity_ : 4096);
}

void Tracer::emit(TraceEvent e) {
  ++emitted_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(e));
    return;
  }
  on_drop();
  ring_[head_] = std::move(e);
  head_ = (head_ + 1) % capacity_;
}

// Silent truncation is worse than a noisy ring: wrapping is legitimate
// (the ring bounds memory by design) but the operator must be able to see
// it happened. One stderr line on the first wrap, a kWall counter for the
// profile (and the store's execution section), and the Chrome exporter's
// events_dropped field carry the
// exact count downstream (fiveg_trace_check reports it, never fails on it).
void Tracer::on_drop() {
  if (!warned_wrap_) {
    warned_wrap_ = true;
    std::fprintf(stderr,
                 "obs: trace ring wrapped at %zu events; oldest events are "
                 "dropping (raise --trace-capacity to keep them)\n",
                 capacity_);
  }
  if (!drop_counter_resolved_) {
    drop_counter_resolved_ = true;
    if (MetricsRegistry* m = metrics()) {
      drop_counter_ =
          &m->counter("obs.trace.dropped_events", MetricClock::kWall);
    }
  }
  if (drop_counter_ != nullptr) drop_counter_->add();
}

void Tracer::begin(sim::Time at, std::string_view name, std::string_view cat,
                   TraceArgs args) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kBegin;
  e.at = at;
  e.name = name;
  e.cat = cat;
  e.args = std::move(args);
  emit(std::move(e));
}

void Tracer::end(sim::Time at, std::string_view name, std::string_view cat) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kEnd;
  e.at = at;
  e.name = name;
  e.cat = cat;
  emit(std::move(e));
}

void Tracer::instant(sim::Time at, std::string_view name,
                     std::string_view cat, TraceArgs args) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kInstant;
  e.at = at;
  e.name = name;
  e.cat = cat;
  e.args = std::move(args);
  emit(std::move(e));
}

void Tracer::counter(sim::Time at, std::string_view track,
                     std::string_view cat, double value) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kCounter;
  e.at = at;
  e.name = track;
  e.cat = cat;
  e.value = value;
  emit(std::move(e));
}

Tracer::Span::Span(Tracer* tracer, std::string name, std::string cat)
    : tracer_(tracer), name_(std::move(name)), cat_(std::move(cat)) {}

Tracer::Span::Span(Span&& other) noexcept
    : tracer_(std::exchange(other.tracer_, nullptr)),
      name_(std::move(other.name_)),
      cat_(std::move(other.cat_)) {}

Tracer::Span::~Span() {
  if (tracer_ != nullptr) tracer_->end(tracer_->clock_now(), name_, cat_);
}

Tracer::Span Tracer::span(std::string_view name, std::string_view cat,
                          TraceArgs args) {
  begin(clock_now(), name, cat, std::move(args));
  return Span(this, std::string(name), std::string(cat));
}

void Tracer::append_from(const Tracer& other) {
  other.for_each([this](const TraceEvent& e) { emit(e); });
  inherited_drops_ += other.dropped();
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for_each([&out](const TraceEvent& e) { out.push_back(e); });
  return out;
}

void Tracer::for_each(
    const std::function<void(const TraceEvent&)>& fn) const {
  if (ring_.size() < capacity_) {
    // Never wrapped: in-order from the start.
    for (const TraceEvent& e : ring_) fn(e);
    return;
  }
  // Wrapped: head_ is the oldest slot.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    fn(ring_[(head_ + i) % capacity_]);
  }
}

}  // namespace fiveg::obs
