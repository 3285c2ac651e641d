// SPEEDTEST-style active probe: pick one of the paper's 20 wide-area
// servers (Table 6), then measure UDP baseline, TCP goodput and traceroute
// RTTs over 4G and 5G.
//
//   ./example_speedtest [server_index 0..19]
#include <cstdlib>
#include <iostream>

#include "app/iperf.h"
#include "core/scenario.h"
#include "measure/table.h"
#include "net/topology.h"
#include "net/traceroute.h"

int main(int argc, char** argv) {
  using namespace fiveg;
  const std::size_t idx =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 4;  // Qingdao
  const auto& servers = net::speedtest_servers();
  const net::ServerInfo& server = servers.at(idx % servers.size());
  std::cout << "Server: " << server.name << " (" << server.city << ", "
            << server.distance_km << " km away)\n\n";

  measure::TextTable t("Active measurement results",
                       {"network", "UDP (Mbps)", "TCP BBR (Mbps)",
                        "RTT p50 (ms)", "hops"});
  for (const radio::Rat rat : {radio::Rat::kNr, radio::Rat::kLte}) {
    sim::Simulator simr;
    core::TestbedOptions opt;
    opt.rat = rat;
    opt.server_distance_km = server.distance_km;
    core::Testbed bed(&simr, opt, /*seed=*/42);
    bed.start_cross_traffic(60 * sim::kSecond);

    // UDP baseline at the radio rate.
    app::UdpTest udp(&simr, &bed.path(), &bed.fanout(), bed.ran_rate_bps());
    udp.start(10 * sim::kSecond);

    // TCP bulk with BBR.
    tcp::TcpConfig bbr;
    bbr.algo = tcp::CcAlgo::kBbr;
    app::TcpSession tcp_session(&simr, &bed.path(), &bed.fanout(), bbr,
                                /*flow_id=*/2);
    tcp_session.sender().start_bulk();

    // Traceroute alongside.
    net::Traceroute tr(&simr, &bed.path(), 10, 500 * sim::kMillisecond);
    std::vector<net::HopRtt> hops;
    tr.run([&](std::vector<net::HopRtt> r) { hops = std::move(r); });

    simr.run_until(15 * sim::kSecond);
    const auto udp_result = udp.result(sim::kSecond, 10 * sim::kSecond);
    const double tcp_goodput = tcp_session.receiver().mean_goodput_bps(
        5 * sim::kSecond, 15 * sim::kSecond);
    const double rtt =
        hops.empty() ? 0.0 : hops.back().rtt_ms.mean();
    t.add_row({rat == radio::Rat::kNr ? "5G" : "4G",
               measure::TextTable::num(udp_result.mean_throughput_bps / 1e6, 0),
               measure::TextTable::num(tcp_goodput / 1e6, 0),
               measure::TextTable::num(rtt, 1),
               std::to_string(bed.hop_count())});
  }
  t.print(std::cout);
  return 0;
}
