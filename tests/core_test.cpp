// Integration tests for the experiment framework: registry completeness,
// scenario/testbed wiring, and smoke runs of the fast experiments.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "app/iperf.h"
#include "core/experiment.h"
#include "core/paper.h"
#include "core/runner.h"
#include "core/scenario.h"
#include "net/aqm.h"

namespace fiveg::core {
namespace {

TEST(RegistryTest, AllExperimentsRegistered) {
  const auto names = ExperimentRegistry::instance().names();
  const std::vector<std::string> expected = {
      "ablation_buffer_sizing", "ablation_cc_robustness",
      "ablation_sa_handoff",    "ablation_tail_timer",
      "aqm_bufferbloat",        "aqm_incast",
      "aqm_rtt_fairness",       "aqm_table3_mitigation",
      "city_grid_10k",          "city_grid_1k",
      "city_grid_smoke",        "city_par_100k",
      "city_par_smoke",
      "dsl_replacement",        "ext_abr_video",
      "ext_cell_load",          "ext_codel_aqm",
      "ext_densification",      "ext_faststart_web",
      "ext_ho_tuning",          "ext_indoor_microcell",
      "ext_mec",                "ext_multipath",
      "ext_sa_energy",          "fig10_harq_retx",
      "ho_event_mix",
      "fig11_bursty_loss",      "fig12_ho_throughput",
      "fig13_rtt_scatter",      "fig14_hop_breakdown",
      "fig15_rtt_distance",     "fig16_17_web",
      "fig18_19_video_tput",    "fig20_frame_delay",
      "fig21_energy_apps",      "fig22_energy_per_bit",
      "fig23_power_trace",      "fig2_coverage_map",
      "fig3_indoor_outdoor",    "fig4_5_ho_quality",
      "fig6_ho_latency",        "fig7_throughput",
      "fig8_cwnd",              "fig9_loss_vs_load",
      "smoke_tcp_bulk",
      "table1_phy_info",        "table2_rsrp_distribution",
      "table3_buffer_sizing",   "table4_power_policies",
  };
  for (const std::string& e : expected) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), e) != names.end())
        << "missing experiment " << e;
  }
  EXPECT_EQ(names.size(), expected.size());
}

TEST(RegistryTest, UnknownExperimentRejected) {
  EXPECT_EQ(ExperimentRegistry::instance().create("nope"), nullptr);
}

TEST(RegistryTest, DuplicateNameRejectedAtRegistration) {
  class Dummy final : public Experiment {
   public:
    std::string name() const override { return "dup_experiment"; }
    std::string paper_ref() const override { return "n/a"; }
    std::string description() const override { return "dup"; }
    void run(const ExperimentContext&) override {}
  };
  ExperimentRegistry reg;  // local registry, not the global instance
  reg.add([] { return std::make_unique<Dummy>(); });
  EXPECT_THROW(reg.add([] { return std::make_unique<Dummy>(); }),
               std::invalid_argument);
  // The first registration survives the rejected duplicate.
  EXPECT_NE(reg.create("dup_experiment"), nullptr);
}

TEST(RegistryTest, CreateInstantiatesByName) {
  auto exp = ExperimentRegistry::instance().create("table1_phy_info");
  ASSERT_NE(exp, nullptr);
  EXPECT_EQ(exp->paper_ref(), "Table 1");
}

TEST(ExperimentContextTest, MetricsAccumulateIntoResult) {
  ExperimentResult res;
  ExperimentContext ctx;
  ctx.result = &res;
  ctx.metric("tput", 1.5, "Mbps");
  ctx.metric("tput", 2.5);
  ctx.metric_point("sweep", 10, 0.1, "%");
  ASSERT_EQ(res.metrics.size(), 2u);
  EXPECT_EQ(res.metrics[0].name, "tput");
  EXPECT_EQ(res.metrics[0].unit, "Mbps");
  ASSERT_EQ(res.metrics[0].points.size(), 2u);
  EXPECT_DOUBLE_EQ(res.metrics[0].points[0].x, 0);
  EXPECT_DOUBLE_EQ(res.metrics[0].points[1].x, 1);
  EXPECT_DOUBLE_EQ(res.metrics[0].points[1].y, 2.5);
  EXPECT_DOUBLE_EQ(res.metrics[1].points[0].x, 10);
  // A null result sink makes metric() a no-op, not a crash.
  ExperimentContext no_sink;
  no_sink.metric("ignored", 1.0);
}

TEST(RegistryTest, FastExperimentsProduceTables) {
  RunnerOptions opt;
  opt.only_names = {"table1_phy_info", "fig10_harq_retx",
                    "fig22_energy_per_bit", "table4_power_policies",
                    "ablation_sa_handoff"};
  const RunSummary summary = Runner(opt).run();
  ASSERT_EQ(summary.results.size(), opt.only_names.size());
  for (const ExperimentResult& r : summary.results) {
    EXPECT_EQ(r.status, RunStatus::kOk) << r.name << ": " << r.error;
    EXPECT_NE(r.text.find("=="), std::string::npos) << r.name;
    EXPECT_NE(r.text.find("reproduces"), std::string::npos) << r.name;
  }
}

TEST(ScenarioTest, DeterministicPerSeed) {
  const Scenario a(7), b(7), c(8);
  EXPECT_EQ(a.campus().buildings().size(), b.campus().buildings().size());
  const geo::Point p = a.campus().bounds().center();
  EXPECT_DOUBLE_EQ(a.deployment().best(radio::Rat::kNr, p).rsrp_dbm,
                   b.deployment().best(radio::Rat::kNr, p).rsrp_dbm);
  // A different seed moves the deployment.
  EXPECT_NE(a.deployment().best(radio::Rat::kNr, p).rsrp_dbm,
            c.deployment().best(radio::Rat::kNr, p).rsrp_dbm);
}

TEST(ScenarioTest, Table1CalibrationHolds) {
  // Guard the Table 2 calibration: coverage-hole fractions must stay near
  // the paper across seeds.
  const Scenario sc(42);
  sim::Rng rng(9);
  int holes_nr = 0, holes_lte = 0;
  const int n = 1200;
  for (int i = 0; i < n; ++i) {
    const geo::Point p = sc.campus().random_outdoor_point(rng);
    holes_nr += !sc.deployment().best(radio::Rat::kNr, p).in_coverage();
    holes_lte += !sc.deployment().best(radio::Rat::kLte, p).in_coverage();
  }
  const double nr_frac = static_cast<double>(holes_nr) / n;
  const double lte_frac = static_cast<double>(holes_lte) / n;
  EXPECT_NEAR(nr_frac, paper::kNrRsrpDist[5], 0.05);   // ~8%
  EXPECT_LT(lte_frac, 0.05);                           // ~1.8%
  EXPECT_GT(nr_frac, 2.0 * lte_frac);                  // the paper's story
}

TEST(TestbedTest, BaselineRatesMatchPaper) {
  using ran::LoadRegime;
  EXPECT_DOUBLE_EQ(
      baseline_rate_bps(radio::Rat::kNr, LoadRegime::kDay,
                        Direction::kDownlink),
      880e6);
  EXPECT_DOUBLE_EQ(
      baseline_rate_bps(radio::Rat::kLte, LoadRegime::kNight,
                        Direction::kDownlink),
      200e6);
  EXPECT_DOUBLE_EQ(
      baseline_rate_bps(radio::Rat::kNr, LoadRegime::kDay,
                        Direction::kUplink),
      130e6);
  EXPECT_DOUBLE_EQ(
      baseline_rate_bps(radio::Rat::kLte, LoadRegime::kDay,
                        Direction::kUplink),
      50e6);
}

TEST(TestbedTest, DownlinkOrientationPutsRanLast) {
  sim::Simulator simr;
  TestbedOptions opt;  // downlink default
  Testbed dl(&simr, opt, 42);
  EXPECT_EQ(dl.path().forward_link(dl.hop_count() - 1).config().name.find(
                "ran"),
            0u);
  EXPECT_EQ(dl.bottleneck().config().name, "metro-bottleneck");

  opt.direction = Direction::kUplink;
  Testbed ul(&simr, opt, 42);
  EXPECT_EQ(ul.path().forward_link(0).config().name.find("ran"), 0u);
  EXPECT_EQ(ul.bottleneck().config().name, "metro-bottleneck");
}

TEST(TestbedTest, UdpAtBaselineIsNearLossless) {
  sim::Simulator simr;
  TestbedOptions opt;
  opt.cross_traffic = false;
  Testbed bed(&simr, opt, 42);
  app::UdpTest test(&simr, &bed.path(), &bed.fanout(),
                    0.95 * bed.ran_rate_bps());
  test.start(3 * sim::kSecond);
  simr.run_until(5 * sim::kSecond);
  EXPECT_LT(test.result(0, 3 * sim::kSecond).loss_ratio, 0.001);
}

// `--qdisc codel+ecn` must reach the senders: testbed flows negotiate ECN
// when the bottleneck marks, so the smoke transfer sees CE marks and its
// output differs from plain CoDel.
TEST(TestbedTest, CampaignEcnQdiscMarksTestbedFlows) {
  const auto run_smoke_tcp = [](const char* spec) {
    net::QdiscConfig qdisc;
    EXPECT_TRUE(net::parse_qdisc_spec(spec, &qdisc));
    set_campaign_bottleneck_qdisc(qdisc);
    RunnerOptions opt;
    opt.only_names = {"smoke_tcp_bulk"};
    const RunSummary summary = Runner(opt).run();
    set_campaign_bottleneck_qdisc(net::QdiscConfig{});
    EXPECT_EQ(summary.results.size(), 1u);
    return summary.results.empty() ? ExperimentResult{}
                                   : summary.results[0];
  };
  const ExperimentResult ecn = run_smoke_tcp("codel+ecn");
  const ExperimentResult plain = run_smoke_tcp("codel");
  ASSERT_EQ(ecn.status, RunStatus::kOk) << ecn.error;
  ASSERT_EQ(plain.status, RunStatus::kOk) << plain.error;

  const auto marks = [](const ExperimentResult& r) {
    double total = 0;
    for (const obs::MetricSnapshot& s : r.counters) {
      if (s.name.rfind("net.qdisc.marks{", 0) == 0) total += s.value;
    }
    return total;
  };
  EXPECT_GT(marks(ecn), 0.0);
  EXPECT_EQ(marks(plain), 0.0);
  RunSummary a, b;
  a.results.push_back(ecn);
  b.results.push_back(plain);
  std::ostringstream ja, jb;
  write_json(a, ja, /*include_timing=*/false);
  write_json(b, jb, /*include_timing=*/false);
  EXPECT_NE(ja.str(), jb.str());
}

}  // namespace
}  // namespace fiveg::core
