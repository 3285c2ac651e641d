// Cross-module property tests: invariants that must hold for any seed or
// parameter draw — congestion-window sanity under chaotic loss, packet
// conservation with outages, monotonicity of the radio maps, energy
// monotonicity, and hand-off legality.
#include <gtest/gtest.h>

#include <cmath>

#include "app/iperf.h"
#include "energy/rrc_power_machine.h"
#include "energy/traffic_trace.h"
#include "geo/campus.h"
#include "geo/route.h"
#include "net/path.h"
#include "net/udp.h"
#include "radio/mcs.h"
#include "ran/deployment.h"
#include "ran/handoff.h"
#include "sim/simulator.h"
#include "tcp/congestion_control.h"
#include "tcp/tcp_receiver.h"
#include "tcp/tcp_sender.h"

namespace fiveg {
namespace {

// ---------- Geometry: spatial index vs the brute-force scans ----------

// The spatial index (and the memos in front of it) must reproduce the
// original O(n) scans bit-for-bit on every query, for any campus. These
// are the reference scans the index replaced.
bool brute_has_los(const std::vector<geo::Building>& bs,
                   const geo::Segment& s) {
  for (const geo::Building& b : bs) {
    if (b.footprint.intersects(s)) return false;
  }
  return true;
}

double brute_penetration_db(const std::vector<geo::Building>& bs,
                            const geo::Segment& s, double freq_ghz) {
  double total = 0.0;
  for (const geo::Building& b : bs) total += b.penetration_db(s, freq_ghz);
  return total;
}

const geo::Building* brute_containing(const std::vector<geo::Building>& bs,
                                      const geo::Point& p) {
  for (const geo::Building& b : bs) {
    if (b.contains(p)) return &b;
  }
  return nullptr;
}

double brute_o2i_db(const std::vector<geo::Building>& bs, const geo::Point& p,
                    double freq_ghz) {
  const geo::Building* b = brute_containing(bs, p);
  if (b == nullptr) return 0.0;
  const geo::Rect& f = b->footprint;
  const double depth = std::min(std::min(p.x - f.min.x, f.max.x - p.x),
                                std::min(p.y - f.min.y, f.max.y - p.y));
  return geo::wall_loss_db(b->material, freq_ghz) + 0.3 * depth;
}

std::vector<geo::Building> random_buildings(sim::Rng& rng, int count,
                                            const geo::Rect& bounds) {
  std::vector<geo::Building> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double w = rng.uniform(4.0, 120.0);
    const double h = rng.uniform(4.0, 120.0);
    // Some footprints extend past the bounds: the grid must widen for them.
    const double x = rng.uniform(bounds.min.x - 30.0, bounds.max.x - w + 30.0);
    const double y = rng.uniform(bounds.min.y - 30.0, bounds.max.y - h + 30.0);
    geo::Building b;
    b.footprint = {{x, y}, {x + w, y + h}};
    b.material = static_cast<geo::Material>(rng.uniform_int(0, 3));
    out.push_back(std::move(b));
  }
  return out;
}

// One campus size per mask regime: small maps use per-cell bitmasks, maps
// with more than 64 buildings fall back to the CSR item lists.
class CampusIndexProperty : public ::testing::TestWithParam<int> {};

TEST_P(CampusIndexProperty, MatchesBruteForceBitForBit) {
  const geo::Rect bounds{{0.0, 0.0}, {500.0, 920.0}};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sim::Rng rng(seed * 7919);
    auto buildings = random_buildings(rng, GetParam(), bounds);
    const geo::CampusMap campus(bounds, std::vector<geo::Building>(buildings));

    std::vector<geo::Point> pts;
    for (int i = 0; i < 60; ++i) {
      pts.push_back({rng.uniform(bounds.min.x - 40.0, bounds.max.x + 40.0),
                     rng.uniform(bounds.min.y - 40.0, bounds.max.y + 40.0)});
    }
    // Boundary-touching points: footprint corners and edge midpoints are
    // exactly representable, so queries land precisely on the boundary.
    for (std::size_t i = 0; i < buildings.size(); i += 7) {
      const geo::Rect& f = buildings[i].footprint;
      pts.push_back(f.min);
      pts.push_back(f.max);
      pts.push_back({f.min.x, f.max.y});
      pts.push_back({(f.min.x + f.max.x) / 2.0, f.min.y});
    }

    std::vector<geo::Segment> segs;
    for (int i = 0; i + 1 < static_cast<int>(pts.size()); ++i) {
      segs.push_back({pts[static_cast<std::size_t>(i)],
                      pts[static_cast<std::size_t>(i + 1)]});
    }
    for (std::size_t i = 0; i < pts.size(); i += 5) {
      segs.push_back({pts[i], pts[i]});  // zero-length paths
    }

    // Two rounds: the first may miss the memos, the second must hit them —
    // both must agree with the brute-force scan exactly.
    for (int round = 0; round < 2; ++round) {
      for (const geo::Point& p : pts) {
        EXPECT_EQ(campus.is_indoor(p), brute_containing(buildings, p) != nullptr);
        const geo::Building* mine = campus.containing_building(p);
        const geo::Building* ref = brute_containing(buildings, p);
        ASSERT_EQ(mine == nullptr, ref == nullptr);
        if (mine != nullptr) {
          // Same building, by construction order (first match wins).
          EXPECT_EQ(mine->footprint.min.x, ref->footprint.min.x);
          EXPECT_EQ(mine->footprint.min.y, ref->footprint.min.y);
        }
        for (const double f : {1.8, 3.5}) {
          EXPECT_EQ(campus.o2i_loss_db(p, f), brute_o2i_db(buildings, p, f));
        }
      }
      for (const geo::Segment& s : segs) {
        EXPECT_EQ(campus.has_los(s), brute_has_los(buildings, s));
        for (const double f : {1.8, 3.5}) {
          EXPECT_EQ(campus.penetration_db(s, f),
                    brute_penetration_db(buildings, s, f));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(MaskAndCsrRegimes, CampusIndexProperty,
                         ::testing::Values(1, 12, 64, 150));


using sim::from_millis;
using sim::kSecond;

// ---------- TCP: cwnd sanity under chaotic ACK/loss sequences ----------

struct CcChaosParam {
  tcp::CcAlgo algo;
  std::uint64_t seed;
};

class CcChaosTest : public ::testing::TestWithParam<CcChaosParam> {};

TEST_P(CcChaosTest, CwndStaysFiniteAndPositive) {
  const auto cc = tcp::make_congestion_control(GetParam().algo, 1460);
  sim::Rng rng(GetParam().seed);
  sim::Time now = 0;
  std::uint64_t delivered = 0;
  for (int i = 0; i < 5000; ++i) {
    now += from_millis(rng.uniform(0.1, 30));
    const double roll = rng.uniform(0, 1);
    if (roll < 0.75) {
      tcp::AckEvent e;
      e.now = now;
      e.rtt = from_millis(rng.uniform(5, 200));
      e.min_rtt = from_millis(5);
      e.acked_bytes = static_cast<std::uint64_t>(rng.uniform_int(1, 4 * 1460));
      delivered += e.acked_bytes;
      e.delivered_bytes = delivered;
      e.bytes_in_flight =
          static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 22));
      e.delivery_rate_bps = rng.uniform(1e5, 1e9);
      e.app_limited = rng.bernoulli(0.2);
      cc->on_ack(e);
    } else if (roll < 0.92) {
      cc->on_loss(now, static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 22)));
    } else {
      cc->on_timeout(now);
    }
    const double cwnd = cc->cwnd_bytes();
    ASSERT_TRUE(std::isfinite(cwnd)) << cc->name() << " step " << i;
    ASSERT_GE(cwnd, 1460.0) << cc->name() << " step " << i;
    ASSERT_LT(cwnd, 1e12) << cc->name() << " step " << i;
    const double pacing = cc->pacing_rate_bps();
    ASSERT_TRUE(std::isfinite(pacing)) << cc->name();
    ASSERT_GE(pacing, 0.0) << cc->name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgosAndSeeds, CcChaosTest,
    ::testing::Values(CcChaosParam{tcp::CcAlgo::kReno, 1},
                      CcChaosParam{tcp::CcAlgo::kCubic, 2},
                      CcChaosParam{tcp::CcAlgo::kVegas, 3},
                      CcChaosParam{tcp::CcAlgo::kVeno, 4},
                      CcChaosParam{tcp::CcAlgo::kBbr, 5},
                      CcChaosParam{tcp::CcAlgo::kCubic, 6},
                      CcChaosParam{tcp::CcAlgo::kBbr, 7}),
    [](const auto& info) {
      return tcp::to_string(info.param.algo) + "_" +
             std::to_string(info.param.seed);
    });

// ---------- TCP over flapping links: no data corruption, ever ----------

class FlappyLinkTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlappyLinkTest, TransferCompletesExactly) {
  sim::Simulator simr;
  sim::Rng rng(GetParam());
  bool blocked = false;
  std::vector<net::Link::Config> hops(2);
  hops[0].rate_bps = 40e6;
  hops[0].prop_delay = from_millis(10);
  hops[0].queue_bytes = 30 * 1500;
  hops[0].blocked_fn = [&] { return blocked; };
  hops[1].rate_bps = 1e9;
  hops[1].prop_delay = from_millis(5);
  net::PathNetwork path(&simr, hops);
  app::PathFanout fanout(&path);
  tcp::TcpConfig cfg;
  cfg.algo = tcp::CcAlgo::kCubic;
  app::TcpSession s(&simr, &path, &fanout, cfg);

  bool completed = false;
  const std::uint64_t kBytes = 3'000'000;
  s.sender().send_bytes(kBytes, [&] { completed = true; });
  // Random outages.
  for (int i = 0; i < 12; ++i) {
    simr.schedule_at(from_millis(rng.uniform(0, 20000)),
                     [&blocked] { blocked = !blocked; });
  }
  simr.schedule_at(21 * kSecond, [&blocked] { blocked = false; });
  simr.run_until(120 * kSecond);
  EXPECT_TRUE(completed);
  EXPECT_EQ(s.receiver().bytes_received(), kBytes);
  EXPECT_EQ(s.sender().bytes_in_flight(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlappyLinkTest,
                         ::testing::Values(11u, 22u, 33u, 44u));

// ---------- Radio: monotone maps ----------

class SinrSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(SinrSweepTest, BitrateMonotoneInSinr) {
  const radio::CarrierConfig c =
      GetParam() == 0 ? radio::nr3500() : radio::lte1800();
  double last = -1;
  for (double sinr = -12; sinr <= 35; sinr += 0.25) {
    const double rate = radio::dl_bitrate_bps(c, sinr);
    EXPECT_GE(rate, last) << "sinr " << sinr;
    last = rate;
  }
  EXPECT_DOUBLE_EQ(last, c.peak_dl_bitrate_bps());
}

INSTANTIATE_TEST_SUITE_P(Rats, SinrSweepTest, ::testing::Values(0, 1));

// ---------- RAN: hand-off records are always legal ----------

class HandoffLegalityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HandoffLegalityTest, RecordsAreWellFormed) {
  const geo::CampusMap campus =
      geo::make_campus(sim::Rng(GetParam()).fork("campus"));
  const ran::Deployment dep =
      ran::make_deployment(&campus, sim::Rng(GetParam()).fork("dep"));
  sim::Simulator simr;
  ran::MobilityConfig cfg;
  cfg.speed_mps = 2.0;
  ran::HandoffEngine engine(&simr, &dep, cfg, sim::Rng(GetParam()));
  engine.start(geo::make_survey_route(campus, 110.0));
  simr.run_until(25 * sim::kMinute);

  sim::Time last_end = 0;
  for (const ran::HandoffRecord& r : engine.records()) {
    // Latency within physical bounds of the signalling model.
    EXPECT_GT(r.latency, from_millis(10));
    EXPECT_LT(r.latency, from_millis(250));
    // No overlapping hand-offs.
    EXPECT_GE(r.trigger_at, last_end);
    last_end = r.trigger_at + r.latency;
    // PCIs belong to the right RATs for the type.
    const bool to_nr = r.type == ran::HandoffType::k5G5G ||
                       r.type == ran::HandoffType::k4G5G;
    if (to_nr) {
      EXPECT_GE(r.to_pci, 60);
      EXPECT_LE(r.to_pci, 80);
    } else {
      EXPECT_GE(r.to_pci, 200);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HandoffLegalityTest,
                         ::testing::Values(42u, 43u, 44u));

// ---------- Energy: monotonicity ----------

class EnergyMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(EnergyMonotoneTest, MoreBytesNeverCostLess) {
  const energy::RrcPowerMachine machine;
  const auto model = static_cast<energy::RadioModel>(GetParam());
  double last = 0;
  for (const std::uint64_t mb : {10ull, 50ull, 200ull, 800ull}) {
    const auto r =
        machine.replay(energy::file_transfer_trace(mb * 1'000'000), model);
    EXPECT_GT(r.radio_joules, last);
    last = r.radio_joules;
  }
}

INSTANTIATE_TEST_SUITE_P(Models, EnergyMonotoneTest,
                         ::testing::Values(0, 1, 2, 3));

// ---------- Geo: route samples lie on the route ----------

class RouteSampleTest : public ::testing::TestWithParam<double> {};

TEST_P(RouteSampleTest, SamplesAreOnSegments) {
  const geo::CampusMap campus = geo::make_campus(sim::Rng(42));
  const geo::Route route = geo::make_survey_route(campus, GetParam());
  double walked = 0.0;
  geo::Point prev = route.position_at(0);
  for (const geo::Point& p : route.samples(25.0)) {
    EXPECT_TRUE(campus.bounds().contains(p));
    walked += geo::distance(prev, p);
    prev = p;
  }
  // Walking sample-to-sample cannot exceed the route length (+ rounding).
  EXPECT_LE(walked, route.length_m() + 1.0);
  EXPECT_GT(walked, 0.9 * route.length_m());
}

INSTANTIATE_TEST_SUITE_P(LaneSpacings, RouteSampleTest,
                         ::testing::Values(40.0, 60.0, 90.0, 140.0));

// ---------- Net: conservation with cross traffic and outages ----------

class ChaosConservationTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ChaosConservationTest, NoPacketIsCreatedOrLostSilently) {
  sim::Simulator simr;
  sim::Rng rng(GetParam());
  bool blocked = false;
  std::vector<net::Link::Config> hops(3);
  for (auto& h : hops) {
    h.rate_bps = rng.uniform(20e6, 200e6);
    h.prop_delay = from_millis(rng.uniform(0.5, 10));
    h.queue_bytes = static_cast<std::uint64_t>(rng.uniform_int(8, 64)) * 1500;
  }
  hops[1].blocked_fn = [&] { return blocked; };
  net::PathNetwork path(&simr, hops);
  net::UdpSink sink(&simr, 1);
  path.attach_b(&sink);
  net::UdpSource src(&simr, {1, 80e6, 1500},
                     [&](net::Packet p) { path.send_a_to_b(std::move(p)); });
  src.start(3 * kSecond);
  for (int i = 0; i < 6; ++i) {
    simr.schedule_at(from_millis(rng.uniform(0, 3000)),
                     [&blocked] { blocked = !blocked; });
  }
  simr.schedule_at(3 * kSecond + 1, [&blocked] { blocked = false; });
  simr.run();
  EXPECT_EQ(src.packets_sent(),
            sink.packets_received() + path.total_drops());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosConservationTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace fiveg
