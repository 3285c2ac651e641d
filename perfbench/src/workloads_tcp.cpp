// The two packet-path workloads. Each flow runs alone on its own
// simulator, so per-flow host time is per-CC cost:
//
//   bulk_droptail  one bulk flow per loss-based CC (Reno, Cubic, Veno,
//                  Vegas) on a 5G-day core::Testbed with cross traffic and
//                  the default drop-tail bottleneck — the shape of the
//                  Fig. 7/8/12 and Table 3 stragglers.
//   bbr_codel      BBR and Cubic with ECN over a two-hop lab path whose
//                  50 Mbps bottleneck runs CoDel+ECN on a 16x-BDP buffer —
//                  the aqm_bufferbloat shape — plus the Testbed's ON/OFF
//                  cross traffic scaled to that bottleneck (see below).
//
// Neither installs an obs scope. The simulators advance in 100 ms chunks
// (the last one of a flow ends where it reaches its target); each chunk's
// host time is one step sample, and every 16 chunks end a RepClock segment.
//
// Every flow runs until its path has made a fixed number of link
// deliveries rather than for a fixed simulated time: how fast a flow grows
// depends on where the seeded cross-traffic bursts fall, so a fixed
// duration would make the host work per rep vary by tens of percent from
// seed to seed.
//
// aqm_bufferbloat itself has no cross traffic, so without some the seed
// would not reach bbr_codel at all and the held-out seed would repeat the
// default one. bbr_codel therefore adds core::Testbed's ambient bursts
// (0.35 s mean off, 0.06 s mean on) with the burst rates scaled from the
// Testbed's 1 Gbps bottleneck to the 50 Mbps one: the same ~11% mean
// offered load. net.cross_share bounds the share of the bottleneck's
// deliveries it makes up.
#include <algorithm>
#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "app/iperf.h"
#include "bench.h"
#include "core/scenario.h"
#include "fault/invariants.h"
#include "net/cross_traffic.h"
#include "net/path.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "tcp/congestion_control.h"

namespace perfbench {
namespace {

using namespace fiveg;  // NOLINT: benchmark file brevity

constexpr sim::Time kChunk = 100 * sim::kMillisecond;
// Within a chunk the delivery target is checked every kCheck, so a flow
// overshoots it by at most 1 ms of deliveries. Checked once a chunk, the
// overshoot was 4-11% of bulk_droptail's work, varying with the seed.
constexpr sim::Time kCheck = sim::kMillisecond;
// Chunks per RepClock segment, counted across the flows of a rep.
constexpr int kChunksPerSegment = 16;

struct FlowSpec {
  tcp::CcAlgo algo;
  bool ecn;
};

// One flow and everything it runs on. Declaration order is destruction
// order in reverse: the simulator outlives every object scheduling on it.
struct Flow {
  FlowSpec spec;
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<core::Testbed> bed;           // bulk_droptail
  std::unique_ptr<net::PathNetwork> lab_path;   // bbr_codel
  std::unique_ptr<app::PathFanout> lab_fanout;  // bbr_codel
  std::unique_ptr<net::CrossTraffic> lab_cross;
  std::unique_ptr<app::TcpSession> session;
  net::PathNetwork* path = nullptr;
  net::Link* bottleneck = nullptr;
  double host_s = 0;
  sim::Time ran_for = 0;
};

// Link deliveries on every hop of the path, both directions.
std::uint64_t path_deliveries(net::PathNetwork& path) {
  std::uint64_t n = 0;
  for (std::size_t h = 0; h < path.hop_count(); ++h) {
    n += path.forward_link(h).delivered_packets() +
         path.reverse_link(h).delivered_packets();
  }
  return n;
}

// 50 Mbps, 20 ms RTT: BDP = 125 kB; the buffer is 16x that.
constexpr double kLabRateBps = 50e6;
constexpr std::uint64_t kLabBufferBytes = 16 * 125 * 1000;

// core::Testbed's cross-traffic shape, burst rates scaled by
// kLabRateBps / 1 Gbps (the Testbed's bottleneck capacity).
net::CrossTraffic::Config lab_cross_config() {
  constexpr double kScale = kLabRateBps / 1e9;
  net::CrossTraffic::Config xcfg;
  xcfg.mean_off_s = 0.35;
  xcfg.mean_on_s = 0.06;
  xcfg.min_rate_bps = 150e6 * kScale;
  xcfg.max_rate_bps = 1300e6 * kScale;
  return xcfg;
}

std::vector<net::Link::Config> lab_hops() {
  net::Link::Config access;
  access.name = "lab-access";
  access.rate_bps = 1e9;
  access.prop_delay = sim::from_millis(2);
  access.queue_bytes = 4 * 1024 * 1024;

  net::Link::Config bottleneck;
  bottleneck.name = "lab-bottleneck";
  bottleneck.rate_bps = kLabRateBps;
  bottleneck.prop_delay = sim::from_millis(8);
  bottleneck.queue_bytes = kLabBufferBytes;
  bottleneck.qdisc.kind = net::QdiscKind::kCoDel;
  bottleneck.qdisc.ecn = true;
  return {access, bottleneck};
}

class TcpWorkload final : public Workload {
 public:
  /// Each flow runs until its path has made `target_deliveries` link
  /// deliveries, with `duration` of simulated time as the limit.
  TcpWorkload(bool lab, std::vector<FlowSpec> specs, sim::Time duration,
              std::uint64_t target_deliveries)
      : lab_(lab),
        specs_(std::move(specs)),
        duration_(duration),
        target_(target_deliveries) {}

  void setup(std::uint64_t seed, bool /*reference*/) override {
    flows_.clear();
    flows_.reserve(specs_.size());
    std::uint32_t flow_id = 1;
    for (const FlowSpec& spec : specs_) {
      const sim::Rng rng = sim::Rng(seed).fork(tcp::to_string(spec.algo));
      Flow& f = flows_.emplace_back();
      f.spec = spec;
      f.sim = std::make_unique<sim::Simulator>();
      if (lab_) {
        {
          Span s("net.path_build");
          f.lab_path =
              std::make_unique<net::PathNetwork>(f.sim.get(), lab_hops());
          f.lab_fanout = std::make_unique<app::PathFanout>(f.lab_path.get());
        }
        f.path = f.lab_path.get();
        f.bottleneck = &f.path->forward_link(1);
        Span s("net.cross_traffic_start");
        f.lab_cross = std::make_unique<net::CrossTraffic>(
            f.sim.get(), f.bottleneck, lab_cross_config(), rng.fork("cross"));
        f.lab_cross->start(duration_);
      } else {
        core::TestbedOptions opt;  // 5G, day, downlink, drop-tail
        {
          Span s("core.testbed_build");
          f.bed = std::make_unique<core::Testbed>(f.sim.get(), opt,
                                                  rng.seed());
        }
        f.path = &f.bed->path();
        f.bottleneck = &f.bed->bottleneck();
        Span s("net.cross_traffic_start");
        f.bed->start_cross_traffic(duration_);
      }
      tcp::TcpConfig cfg;
      cfg.algo = spec.algo;
      cfg.ecn = spec.ecn;
      {
        Span s("app.tcp_session_build");
        f.session = std::make_unique<app::TcpSession>(
            f.sim.get(), f.path,
            lab_ ? f.lab_fanout.get() : &f.bed->fanout(), cfg, flow_id++);
      }
      Span s("tcp.start_bulk");
      f.session->sender().start_bulk();
    }
  }

  void run(RepClock& clock) override {
    step_ms_.clear();
    int chunks = 0;
    for (Flow& f : flows_) {
      f.host_s = 0;
      bool done = false;
      for (sim::Time t = kChunk; t <= duration_ && !done; t += kChunk) {
        if (chunks > 0 && chunks % kChunksPerSegment == 0) clock.boundary();
        ++chunks;
        const auto chunk_start = Clock::now();
        {
          Span s("sim.run_until");
          for (sim::Time u = t - kChunk + kCheck; u <= t && !done;
               u += kCheck) {
            f.sim->run_until(u);
            f.ran_for = u;
            done = path_deliveries(*f.path) >= target_;
          }
        }
        const double chunk_s = seconds_since(chunk_start);
        step_ms_.push_back(1e3 * chunk_s);
        f.host_s += chunk_s;
      }
    }
  }

  RepResult collect() override {
    RepResult r;
    r.step_ms = std::move(step_ms_);
    Checksum sum;
    double events = 0, scheduled = 0, cancelled = 0;
    double link_pkts = 0, drops = 0, marks = 0, hwm = 0;
    double acked = 0, segments = 0, retx = 0, timeouts = 0, ecn = 0;
    double simulated_s = 0;
    double cross_pkts = 0, bneck_pkts = 0;
    for (const Flow& f : flows_) {
      ++r.ops;
      std::string algo = tcp::to_string(f.spec.algo);
      for (char& c : algo) c = static_cast<char>(std::tolower(c));
      fault::InvariantChecker checker;
      simulated_s += sim::to_seconds(f.ran_for);
      events += static_cast<double>(f.sim->executed_events());
      scheduled += static_cast<double>(f.sim->scheduled_total());
      cancelled += static_cast<double>(f.sim->cancelled_total());
      {
        Span s("net.link_stats");
        for (std::size_t h = 0; h < f.path->hop_count(); ++h) {
          for (const net::Link* link :
               {&f.path->forward_link(h), &f.path->reverse_link(h)}) {
            checker.check_link_conservation(*link);
            link_pkts += static_cast<double>(link->delivered_packets());
            drops += static_cast<double>(link->dropped_packets() +
                                         link->fault_dropped_packets());
            marks += static_cast<double>(link->marked_packets());
            sum.add(link->config().name);
            sum.add(link->offered_packets());
            sum.add(link->delivered_packets());
            sum.add(link->delivered_bytes());
            sum.add(link->dropped_packets());
            sum.add(link->marked_packets());
            sum.add(link->max_queue_bytes());
          }
        }
        hwm = std::max(
            hwm, static_cast<double>(f.bottleneck->max_queue_bytes()));
      }
      Span s("tcp.sender_stats");
      const tcp::TcpSender& tx = f.session->sender();
      const tcp::TcpReceiver& rx = f.session->receiver();
      checker.check_tcp(tx, rx);
      std::vector<std::string> failures = checker.violations();
      if (tx.bytes_acked() == 0) failures.emplace_back("flow made no progress");
      if (path_deliveries(*f.path) < target_) {
        failures.emplace_back("path did not reach its delivery target in time");
      }
      for (const std::string& what : failures) r.fail(algo + ": " + what);
      if (!failures.empty()) ++r.failed_ops;
      if (f.lab_cross != nullptr) {
        cross_pkts += static_cast<double>(f.lab_cross->packets_sent());
        bneck_pkts += static_cast<double>(f.bottleneck->delivered_packets());
      }
      const std::uint64_t mss = tx.config().mss_bytes;
      acked += static_cast<double>(tx.bytes_acked());
      segments += static_cast<double>((tx.max_sent_seq() + mss - 1) / mss +
                                      tx.retransmissions());
      retx += static_cast<double>(tx.retransmissions());
      timeouts += static_cast<double>(tx.timeouts());
      ecn += static_cast<double>(tx.ecn_responses());
      sum.add(algo);
      sum.add(static_cast<std::uint64_t>(f.ran_for));
      sum.add(tx.bytes_acked());
      sum.add(tx.max_sent_seq());
      sum.add(tx.retransmissions());
      sum.add(tx.timeouts());
      sum.add(tx.fast_recoveries());
      sum.add(tx.ecn_responses());
      sum.add(tx.cwnd_bytes());
      sum.add(rx.bytes_received());
      sum.add(rx.total_accepted());
      sum.add(rx.ce_marks_seen());
      // Per-CC cost: host time and events of this flow's simulator alone.
      const double flow_events = static_cast<double>(f.sim->executed_events());
      r.put("tcp.flow_s." + algo, f.host_s, "s");
      r.put("sim.events." + algo, flow_events, "count");
      r.put("tcp.ns_per_event." + algo, 1e9 * f.host_s / flow_events, "ns");
      r.put("tcp.goodput_mbps." + algo,
            8.0 * static_cast<double>(tx.bytes_acked()) /
                sim::to_seconds(f.ran_for) / 1e6,
            "Mbps");
    }
    r.checksum = sum.value();
    r.put("sim.simulated_s", simulated_s, "s");
    r.put("sim.events", events, "count");
    r.put("sim.scheduled", scheduled, "count");
    r.put("sim.cancelled", cancelled, "count");
    r.put("net.link_pkts", link_pkts, "count");
    r.put("net.drops", drops, "count");
    r.put("net.marks", marks, "count");
    r.put("net.bneck_queue_hwm_bytes", hwm, "bytes");
    r.put("tcp.bytes_acked", acked, "bytes");
    r.put("tcp.segments_sent", segments, "count");
    r.put("tcp.retransmissions", retx, "count");
    r.put("tcp.timeouts", timeouts, "count");
    r.put("tcp.ecn_responses", ecn, "count");
    if (bneck_pkts > 0) {
      // Cross packets sent over bottleneck deliveries: the cross traffic's
      // share of deliveries, exact when CoDel drops none of its packets.
      r.put("net.cross_share", cross_pkts / bneck_pkts, "ratio");
    }
    reset();
    return r;
  }

  void reset() override { flows_.clear(); }

 private:
  bool lab_;
  std::vector<FlowSpec> specs_;
  sim::Time duration_;
  std::uint64_t target_;
  std::vector<Flow> flows_;
  std::vector<double> step_ms_;
};

}  // namespace

std::unique_ptr<Workload> make_bulk_droptail() {
  return std::make_unique<TcpWorkload>(
      false,
      std::vector<FlowSpec>{{tcp::CcAlgo::kReno, false},
                            {tcp::CcAlgo::kCubic, false},
                            {tcp::CcAlgo::kVeno, false},
                            {tcp::CcAlgo::kVegas, false}},
      60 * sim::kSecond, 400000);
}

std::unique_ptr<Workload> make_bbr_codel() {
  return std::make_unique<TcpWorkload>(
      true,
      std::vector<FlowSpec>{{tcp::CcAlgo::kBbr, true},
                            {tcp::CcAlgo::kCubic, true}},
      20 * sim::kSecond, 150000);
}

}  // namespace perfbench
