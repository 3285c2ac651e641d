// Ablations of the design choices DESIGN.md calls out: wireline buffer
// sizing (the paper's proposed fix), NSA-vs-SA hand-off signalling, DRX
// tail length, and CC robustness to ambient burst loss.
#include <ostream>

#include "app/iperf.h"
#include "core/experiment.h"
#include "core/paper.h"
#include "core/scenario.h"
#include "energy/rrc_power_machine.h"
#include "energy/traffic_trace.h"
#include "measure/table.h"
#include "ran/nsa_signaling.h"

namespace fiveg::core {
namespace {

using measure::TextTable;
using sim::kSecond;

class BufferSizingAblation final : public Experiment {
 public:
  std::string name() const override { return "ablation_buffer_sizing"; }
  std::string paper_ref() const override {
    return "Sec. 4.2 (proposed fix: grow wired buffers ~2x)";
  }
  std::string description() const override {
    return "Cubic utilisation on 5G as the wireline bottleneck buffer "
           "scales from 0.5x to 4x";
  }

  void run(const ExperimentContext& ctx) override {
    TextTable t("Ablation — Cubic on 5G vs bottleneck buffer size",
                {"buffer scale", "buffer (KB)", "utilisation"});
    const std::uint64_t base = 1638 * 1024;
    for (const double scale : {0.5, 1.0, 2.0, 4.0}) {
      sim::Simulator simr;
      TestbedOptions opt;
      opt.bottleneck_buffer_bytes =
          static_cast<std::uint64_t>(base * scale);
      Testbed bed(&simr, opt, ctx.seed);
      bed.start_cross_traffic(30 * kSecond);
      tcp::TcpConfig cfg;
      cfg.algo = tcp::CcAlgo::kCubic;
      app::TcpSession session(&simr, &bed.path(), &bed.fanout(), cfg);
      session.sender().start_bulk();
      simr.run_until(25 * kSecond);
      const double util =
          session.receiver().mean_goodput_bps(5 * kSecond, 25 * kSecond) /
          (paper::kNrUdpDayMbps * 1e6);
      t.add_row({TextTable::num(scale, 1),
                 TextTable::num(base * scale / 1024.0, 0),
                 TextTable::pct(util)});
      ctx.metric_point("cubic_util_vs_buffer_scale", scale, util, "fraction");
    }
    t.print(*ctx.out);
    *ctx.out << "the paper's recommendation: ~2x wired buffers largely "
                "repairs loss-based TCP on 5G\n\n";
  }
};

class SaHandoffAblation final : public Experiment {
 public:
  std::string name() const override { return "ablation_sa_handoff"; }
  std::string paper_ref() const override {
    return "Sec. 3.4 (NSA as the hand-off latency culprit)";
  }
  std::string description() const override {
    return "5G-5G hand-off latency with the NSA detour legs removed (an SA "
           "preview)";
  }
  bool smoke() const override { return true; }

  void run(const ExperimentContext& ctx) override {
    // SA removes: NR release, roll-back, LTE RACH detour and re-addition —
    // a direct gNB-to-gNB hand-off keeps only the X2-style legs.
    sim::Rng rng = sim::Rng(ctx.seed).fork("sa");
    measure::RunningStats nsa, sa;
    for (int i = 0; i < 2000; ++i) {
      nsa.add(sim::to_millis(
          ran::sample_handoff_latency(ran::HandoffType::k5G5G, rng)));
      sa.add(sim::to_millis(
          ran::sample_handoff_latency(ran::HandoffType::k4G4G, rng)));
    }
    TextTable t("Ablation — hand-off signalling architecture",
                {"architecture", "mean latency (ms)"});
    t.add_row({"5G NSA (measured sequence)", TextTable::num(nsa.mean(), 1)});
    t.add_row({"5G SA (direct, 4G-4G-equivalent legs)",
               TextTable::num(sa.mean(), 1)});
    t.print(*ctx.out);
    *ctx.out << "removing the NSA detour recovers "
             << TextTable::pct(1.0 - sa.mean() / nsa.mean())
             << " of the hand-off latency\n\n";
    ctx.metric("nsa_ho_ms", nsa.mean(), "ms");
    ctx.metric("sa_ho_ms", sa.mean(), "ms");
    ctx.metric("sa_latency_recovered", 1.0 - sa.mean() / nsa.mean(),
               "fraction");
  }
};

class TailTimerAblation final : public Experiment {
 public:
  std::string name() const override { return "ablation_tail_timer"; }
  std::string paper_ref() const override {
    return "Sec. 6.2/6.3 (the compounded NSA tail)";
  }
  std::string description() const override {
    return "Web-browsing energy vs the NR tail timer: shorter tails close "
           "most of the NSA-vs-Oracle gap";
  }
  bool smoke() const override { return true; }

  void run(const ExperimentContext& ctx) override {
    const energy::TrafficTrace trace =
        energy::web_browsing_trace(sim::Rng(ctx.seed).fork("tail"));
    TextTable t("Ablation — NR tail length vs web energy",
                {"Ttail (s)", "NSA energy (J)", "vs stock"});
    energy::ReplayConfig stock_cfg;
    const double stock = energy::RrcPowerMachine(stock_cfg)
                             .replay(trace, energy::RadioModel::kNrNsa)
                             .radio_joules;
    for (const double tail_s : {21.44, 10.72, 5.0, 2.0, 0.5}) {
      energy::ReplayConfig cfg;
      cfg.nr_drx.tail = sim::from_seconds(tail_s);
      const double j = energy::RrcPowerMachine(cfg)
                           .replay(trace, energy::RadioModel::kNrNsa)
                           .radio_joules;
      t.add_row({TextTable::num(tail_s, 2), TextTable::num(j, 1),
                 TextTable::pct(j / stock - 1.0)});
      ctx.metric_point("web_energy_vs_tail", tail_s, j, "J");
    }
    t.print(*ctx.out);
  }
};

class CcRobustnessAblation final : public Experiment {
 public:
  std::string name() const override { return "ablation_cc_robustness"; }
  std::string paper_ref() const override {
    return "Sec. 4.1 (BBR as the pragmatic fix)";
  }
  std::string description() const override {
    return "BBR vs Cubic on 5G as ambient cross-traffic intensity grows";
  }

  void run(const ExperimentContext& ctx) override {
    TextTable t("Ablation — utilisation vs ambient burst duty cycle",
                {"burst duty", "Cubic", "BBR"});
    for (const double duty_scale : {0.0, 0.5, 1.0, 2.0}) {
      double util[2];
      for (const tcp::CcAlgo algo :
           {tcp::CcAlgo::kCubic, tcp::CcAlgo::kBbr}) {
        sim::Simulator simr;
        TestbedOptions opt;
        opt.cross_traffic = false;  // custom cross traffic below
        Testbed bed(&simr, opt, ctx.seed);
        std::unique_ptr<net::CrossTraffic> cross;
        if (duty_scale > 0) {
          net::CrossTraffic::Config xcfg;
          xcfg.mean_on_s = 0.045 * duty_scale;
          xcfg.mean_off_s = 0.35;
          xcfg.min_rate_bps = 150e6;
          xcfg.max_rate_bps = 1300e6;
          cross = std::make_unique<net::CrossTraffic>(
              &simr, &bed.bottleneck(), xcfg,
              sim::Rng(ctx.seed).fork("xabl"));
          cross->start(30 * kSecond);
        }
        tcp::TcpConfig cfg;
        cfg.algo = algo;
        app::TcpSession session(&simr, &bed.path(), &bed.fanout(), cfg);
        session.sender().start_bulk();
        simr.run_until(25 * kSecond);
        util[algo == tcp::CcAlgo::kBbr ? 1 : 0] =
            session.receiver().mean_goodput_bps(5 * kSecond, 25 * kSecond) /
            (paper::kNrUdpDayMbps * 1e6);
      }
      t.add_row({TextTable::num(duty_scale, 1), TextTable::pct(util[0]),
                 TextTable::pct(util[1])});
      ctx.metric_point("cubic_util_vs_duty", duty_scale, util[0], "fraction");
      ctx.metric_point("bbr_util_vs_duty", duty_scale, util[1], "fraction");
    }
    t.print(*ctx.out);
  }
};

}  // namespace

void register_ablation_experiments() {
  register_experiment<BufferSizingAblation>();
  register_experiment<SaHandoffAblation>();
  register_experiment<TailTimerAblation>();
  register_experiment<CcRobustnessAblation>();
}

}  // namespace fiveg::core
