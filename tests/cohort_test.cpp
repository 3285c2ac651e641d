// Property tests for the city-scale UE core: the batched SoA measurement
// path must be bit-identical to the scalar per-UE path, the row cache must
// reuse only when a recompute would reproduce the row, and the extracted
// a3_step/nsa_step helpers must match their stateful counterparts.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/scenario.h"
#include "fault/fault.h"
#include "geo/campus.h"
#include "geo/route.h"
#include "ran/cell.h"
#include "ran/deployment.h"
#include "ran/measurement_events.h"
#include "ran/ue.h"
#include "ran/ue_cohort.h"
#include "sim/simulator.h"

namespace fiveg::ran {
namespace {

// A batch of UE positions mixing outdoor, indoor and arbitrary points.
std::vector<geo::Point> random_ues(const geo::CampusMap& campus,
                                   sim::Rng& rng, int n) {
  std::vector<geo::Point> ues;
  ues.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ues.push_back(rng.bernoulli(0.5) ? campus.random_point(rng)
                                     : campus.random_outdoor_point(rng));
  }
  return ues;
}

// measure_cells_batch vs. the scalar per-UE measure_cells loop, across
// campus sizes, RATs, indoor/outdoor mixes and repeated sweeps (the
// memo-hit regime). EXPECT_EQ on doubles is exact: any bit difference
// between the paths fails.
TEST(CohortBatchTest, BatchMatchesScalarBitExact) {
  const struct {
    double width_m, height_m, open_frac;
    int rings, n_ue;
  } kCases[] = {
      {500.0, 920.0, 0.2, 1, 40},
      {900.0, 900.0, 0.35, 2, 60},
  };
  int cs = 0;
  for (const auto& c : kCases) {
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(cs++);
    const geo::CampusMap campus = geo::make_city_campus(
        sim::Rng(seed).fork("campus"), c.width_m, c.height_m, c.open_frac);
    ran::CityGridConfig grid;
    grid.rings = c.rings;
    const Deployment dep =
        make_city_deployment(&campus, sim::Rng(seed).fork("dep"), grid);
    sim::Rng rng = sim::Rng(seed).fork("ues");
    const std::vector<geo::Point> ues = random_ues(campus, rng, c.n_ue);

    for (const radio::Rat rat : {radio::Rat::kLte, radio::Rat::kNr}) {
      const std::vector<Cell>& cells = dep.cells(rat);
      const auto plan = radio::SectorPlan::build(
          cells.begin(), cells.end(),
          [](const Cell& cell) -> const radio::TxSite& { return cell.site; });
      const std::size_t n = cells.size();
      std::vector<double> rsrp(ues.size() * n), sinr(ues.size() * n),
          rsrq(ues.size() * n);
      // Visit in a non-trivial order to exercise the order parameter.
      std::vector<std::uint32_t> order(ues.size());
      for (std::size_t u = 0; u < ues.size(); ++u) {
        order[u] = static_cast<std::uint32_t>(ues.size() - 1 - u);
      }
      // Two sweeps: the second runs entirely in the memo-hit regime.
      for (int sweep = 0; sweep < 2; ++sweep) {
        measure_cells_batch(dep.env(), dep.carrier(rat), plan, ues.data(),
                            order.data(), ues.size(), 0.5, rsrp.data(),
                            sinr.data(), rsrq.data());
        for (std::size_t u = 0; u < ues.size(); ++u) {
          const auto scalar =
              measure_cells(dep.env(), dep.carrier(rat), cells, ues[u], 0.5);
          ASSERT_EQ(scalar.size(), n);
          for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(scalar[i].rsrp_dbm, rsrp[u * n + i]);
            EXPECT_EQ(scalar[i].sinr_db, sinr[u * n + i]);
            EXPECT_EQ(scalar[i].rsrq_db, rsrq[u * n + i]);
          }
        }
      }
    }
  }
}

// The scratch-buffer overload must agree with the allocating one.
TEST(CohortBatchTest, ScratchOverloadMatches) {
  const geo::CampusMap campus = geo::make_campus(sim::Rng(7));
  const Deployment dep = make_deployment(&campus, sim::Rng(11));
  sim::Rng rng(13);
  std::vector<CellMeasurement> out;
  for (int i = 0; i < 20; ++i) {
    const geo::Point ue = campus.random_point(rng);
    for (const radio::Rat rat : {radio::Rat::kLte, radio::Rat::kNr}) {
      const auto fresh =
          measure_cells(dep.env(), dep.carrier(rat), dep.cells(rat), ue, 0.5);
      measure_cells(dep.env(), dep.carrier(rat), dep.cells(rat), ue, 0.5,
                    out);
      ASSERT_EQ(fresh.size(), out.size());
      for (std::size_t k = 0; k < fresh.size(); ++k) {
        EXPECT_EQ(fresh[k].cell, out[k].cell);
        EXPECT_EQ(fresh[k].rsrp_dbm, out[k].rsrp_dbm);
        EXPECT_EQ(fresh[k].sinr_db, out[k].sinr_db);
        EXPECT_EQ(fresh[k].rsrq_db, out[k].rsrq_db);
      }
    }
  }
}

class CohortFixture : public ::testing::Test {
 protected:
  CohortFixture()
      : campus_(geo::make_city_campus(sim::Rng(42).fork("campus"), 640.0,
                                      640.0, 0.3)),
        dep_(make_city_deployment(&campus_, sim::Rng(42).fork("dep"),
                                  {.rings = 1})) {}

  UeCohort make_cohort(int n_stationary, int n_movers) {
    CohortConfig cfg;
    cfg.name = "test";
    UeCohort cohort(&dep_, cfg, sim::Rng(42).fork("cohort"));
    sim::Rng rng = sim::Rng(42).fork("place");
    for (int i = 0; i < n_stationary; ++i) {
      cohort.add_stationary(campus_.random_point(rng));
    }
    for (int i = 0; i < n_movers; ++i) {
      cohort.add_route(geo::make_waypoint_route(campus_, rng, 4), 1.4);
    }
    return cohort;
  }

  geo::CampusMap campus_;
  Deployment dep_;
};

// Cohort measurement rows = the scalar Deployment::measure() values,
// bit for bit, sweep after sweep (movers force recomputes, stationaries
// hit the row cache).
TEST_F(CohortFixture, CohortRowsMatchScalarAcrossSweeps) {
  UeCohort cohort = make_cohort(30, 6);
  for (int s = 0; s < 3; ++s) {
    const sim::Time now = s * sim::kSecond;
    cohort.sweep(now);
    for (const radio::Rat rat : {radio::Rat::kLte, radio::Rat::kNr}) {
      const auto& block = cohort.block(rat);
      const std::size_t n = block.n_cells;
      for (std::size_t u = 0; u < cohort.size(); ++u) {
        const auto scalar = dep_.measure(rat, cohort.position(u));
        ASSERT_EQ(scalar.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(scalar[i].rsrp_dbm, block.rsrp_dbm[u * n + i]);
          EXPECT_EQ(scalar[i].sinr_db, block.sinr_db[u * n + i]);
          EXPECT_EQ(scalar[i].rsrq_db, block.rsrq_db[u * n + i]);
        }
      }
    }
  }
}

// Stationary UEs never recompute after the first sweep; the reused rows
// stay bit-identical.
TEST_F(CohortFixture, RowCacheReusesStationaryRows) {
  UeCohort cohort = make_cohort(25, 0);
  cohort.sweep(0);
  const auto first_lte = cohort.block(radio::Rat::kLte).rsrp_dbm;
  EXPECT_EQ(cohort.stats().rows_computed, 2u * 25u);  // both RATs
  EXPECT_EQ(cohort.stats().rows_reused, 0u);
  cohort.sweep(sim::kSecond);
  EXPECT_EQ(cohort.stats().rows_computed, 2u * 25u);
  EXPECT_EQ(cohort.stats().rows_reused, 2u * 25u);
  EXPECT_EQ(cohort.block(radio::Rat::kLte).rsrp_dbm, first_lte);
}

// A coverage-hole window flips the fault offset, which must invalidate
// every cached row (the key includes the offset) and shift RSRP by
// exactly the offset. The deployment is built inside the fault scope so
// its RadioEnvironment sees the runtime, like the Runner's per-experiment
// setup.
TEST(CohortFaultTest, CoverageOffsetInvalidatesRows) {
  fault::FaultPlan plan;
  fault::FaultSpec hole;
  hole.kind = fault::FaultKind::kCoverageHole;
  hole.begin = sim::kSecond;
  hole.end = 100 * sim::kSecond;
  hole.offset_db = 30.0;
  plan.add(hole);
  fault::Runtime rt(&plan, 99);
  fault::ScopedFaults scoped(&rt);
  sim::Simulator simr;
  fault::arm(simr);

  const geo::CampusMap campus = geo::make_city_campus(
      sim::Rng(42).fork("campus"), 640.0, 640.0, 0.3);
  const Deployment dep =
      make_city_deployment(&campus, sim::Rng(42).fork("dep"), {.rings = 1});
  CohortConfig cfg;
  cfg.name = "fault_test";
  UeCohort cohort(&dep, cfg, sim::Rng(42).fork("cohort"));
  sim::Rng place = sim::Rng(42).fork("place");
  for (int i = 0; i < 10; ++i) {
    cohort.add_stationary(campus.random_point(place));
  }
  cohort.sweep(0);
  const auto before = cohort.block(radio::Rat::kNr).rsrp_dbm;
  const std::uint64_t computed_before = cohort.stats().rows_computed;

  simr.run_until(2 * sim::kSecond);  // the hole opens at t=1s
  cohort.sweep(simr.now());
  EXPECT_EQ(cohort.stats().rows_computed, computed_before + 2u * 10u);
  const auto& after = cohort.block(radio::Rat::kNr).rsrp_dbm;
  for (std::size_t k = 0; k < after.size(); ++k) {
    EXPECT_DOUBLE_EQ(after[k], before[k] - 30.0);
  }
}

// Randomized parity: a3_step against the stateful A3Detector.
TEST(CohortStepTest, A3StepMatchesDetector) {
  sim::Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    A3Config cfg;
    cfg.hysteresis_db = rng.uniform(0.5, 5.0);
    cfg.time_to_trigger = sim::from_millis(rng.uniform(50.0, 600.0));
    A3Detector detector(cfg);
    sim::Time since = kA3NotEntering;
    sim::Time at = 0;
    for (int step = 0; step < 300; ++step) {
      at += sim::from_millis(rng.uniform(20.0, 200.0));
      const double serving = rng.uniform(-20.0, -5.0);
      const double neighbor = serving + rng.uniform(-4.0, 8.0);
      const bool fired_detector = detector.update(at, serving, neighbor);
      const bool fired_step = a3_step(cfg, since, at, serving, neighbor);
      ASSERT_EQ(fired_detector, fired_step) << "trial " << trial << " step "
                                            << step;
    }
  }
}

// Randomized parity: nsa_step against the stateful NsaUe controller.
TEST(CohortStepTest, NsaStepMatchesNsaUe) {
  sim::Rng rng(4048);
  for (int trial = 0; trial < 20; ++trial) {
    NsaUe::Config cfg;
    cfg.add_margin_db = rng.uniform(2.0, 8.0);
    cfg.time_to_trigger = sim::from_millis(rng.uniform(50.0, 400.0));
    NsaUe ue(cfg);
    bool attached = false;
    sim::Time add_since = kNsaNotDwelling;
    sim::Time drop_since = kNsaNotDwelling;
    sim::Time at = 0;
    for (int step = 0; step < 300; ++step) {
      at += sim::from_millis(rng.uniform(20.0, 200.0));
      const double rsrp = rng.uniform(-120.0, -90.0);
      const std::optional<HandoffType> from_ue = ue.update(at, rsrp);
      const std::optional<HandoffType> from_step = nsa_step(
          cfg, attached, add_since, drop_since, at, rsrp);
      ASSERT_EQ(from_ue, from_step) << "trial " << trial << " step " << step;
      if (from_ue) {
        ue.complete(*from_ue);
        attached = *from_ue == HandoffType::k4G5G;
      }
    }
  }
}

// End-to-end cohort sanity under the simulator event loop.
TEST_F(CohortFixture, CohortSweepEventLoop) {
  UeCohort cohort = make_cohort(40, 8);
  sim::Simulator simr;
  cohort.start(&simr, 10 * sim::kSecond);
  simr.run_until(10 * sim::kSecond);

  const UeCohort::Stats& st = cohort.stats();
  EXPECT_GE(st.sweeps, 50u);  // 200 ms period over 10 s
  EXPECT_GT(st.rows_reused, 0u);
  EXPECT_GT(st.handoffs, 0u);
  for (std::size_t u = 0; u < cohort.size(); ++u) {
    EXPECT_GE(cohort.serving_cell(radio::Rat::kLte, u), 0);
    if (cohort.nr_attached(u)) {
      EXPECT_EQ(cohort.rrc_state(u), RrcState::kConnectedNr);
    } else {
      EXPECT_EQ(cohort.rrc_state(u), RrcState::kConnectedLte);
    }
  }
}

// City scenario determinism: same seed, same construction, twice.
TEST(CityScenarioTest, DeterministicPerSeed) {
  const core::CityScenario a(77), b(77);
  ASSERT_EQ(a.deployment().cells(radio::Rat::kLte).size(),
            b.deployment().cells(radio::Rat::kLte).size());
  for (std::size_t i = 0; i < a.deployment().cells(radio::Rat::kLte).size();
       ++i) {
    const Cell& ca = a.deployment().cells(radio::Rat::kLte)[i];
    const Cell& cb = b.deployment().cells(radio::Rat::kLte)[i];
    EXPECT_EQ(ca.pci, cb.pci);
    EXPECT_EQ(ca.site.pos.x, cb.site.pos.x);
    EXPECT_EQ(ca.site.pos.y, cb.site.pos.y);
  }
  // 19 sites x 3 sectors on the default rings=2 grid.
  EXPECT_EQ(a.deployment().cells(radio::Rat::kNr).size(), 57u);
  EXPECT_EQ(a.deployment().site_count(radio::Rat::kNr), 19);
}

// The paper campus is exactly the generalized city builder at the legacy
// parameters — the delegation must not move any rng draw.
TEST(CityScenarioTest, PaperCampusUnchangedByGeneralization) {
  const geo::CampusMap legacy = geo::make_campus(sim::Rng(42));
  const geo::CampusMap city =
      geo::make_city_campus(sim::Rng(42), 500.0, 920.0, 0.2);
  ASSERT_EQ(legacy.buildings().size(), city.buildings().size());
  for (std::size_t i = 0; i < legacy.buildings().size(); ++i) {
    EXPECT_EQ(legacy.buildings()[i].footprint.min.x,
              city.buildings()[i].footprint.min.x);
    EXPECT_EQ(legacy.buildings()[i].footprint.max.y,
              city.buildings()[i].footprint.max.y);
  }
}

}  // namespace
}  // namespace fiveg::ran
