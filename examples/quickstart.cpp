// Quickstart: build the campus scenario, peek at the radio environment,
// and push a TCP flow through a full 5G NSA path — the library's public
// API in ~60 lines.
//
//   ./example_quickstart
#include <iostream>

#include "app/iperf.h"
#include "core/scenario.h"
#include "measure/table.h"

int main() {
  using namespace fiveg;

  // 1. The measured world: a 500 x 920 m campus with 13 eNBs + 6 gNBs.
  const core::Scenario scenario(/*seed=*/42);
  const auto& dep = scenario.deployment();
  const geo::Point ue = scenario.campus().bounds().center();

  const auto nr = dep.best(radio::Rat::kNr, ue);
  const auto lte = dep.best(radio::Rat::kLte, ue);
  std::cout << "UE at campus centre:\n"
            << "  5G: PCI " << nr.cell->pci << ", RSRP " << nr.rsrp_dbm
            << " dBm, SINR " << nr.sinr_db << " dB, DL "
            << dep.dl_bitrate_bps(radio::Rat::kNr, ue) / 1e6 << " Mbps\n"
            << "  4G: PCI " << lte.cell->pci << ", RSRP " << lte.rsrp_dbm
            << " dBm, DL " << dep.dl_bitrate_bps(radio::Rat::kLte, ue) / 1e6
            << " Mbps\n\n";

  // 2. An end-to-end 5G downlink with ambient metro cross traffic.
  sim::Simulator simr;
  core::TestbedOptions opt;  // 5G, daytime, downlink
  core::Testbed bed(&simr, opt, /*seed=*/42);
  bed.start_cross_traffic(20 * sim::kSecond);

  // 3. A BBR bulk flow, cloud -> UE.
  tcp::TcpConfig bbr;
  bbr.algo = tcp::CcAlgo::kBbr;
  app::TcpSession session(&simr, &bed.path(), &bed.fanout(), bbr);
  session.sender().start_bulk();
  simr.run_until(15 * sim::kSecond);

  const double goodput =
      session.receiver().mean_goodput_bps(5 * sim::kSecond,
                                          15 * sim::kSecond);
  std::cout << "15 s BBR bulk transfer over 5G NSA:\n"
            << "  steady goodput  " << goodput / 1e6 << " Mbps ("
            << measure::TextTable::pct(goodput / bed.ran_rate_bps())
            << " of the radio baseline)\n"
            << "  retransmissions " << session.sender().retransmissions()
            << "\n  smoothed RTT    "
            << sim::to_millis(session.sender().rtt().smoothed_rtt())
            << " ms\n";
  return 0;
}
