#include "app/iperf.h"

namespace fiveg::app {

TcpSession::TcpSession(sim::Simulator* simulator, net::PathNetwork* path,
                       PathFanout* fanout, tcp::TcpConfig config,
                       std::uint32_t flow_id) {
  config.ecn = config.ecn || fanout->ecn;
  sender_ = std::make_unique<tcp::TcpSender>(
      simulator, config, flow_id,
      [path](net::Packet p) { path->send_a_to_b(std::move(p)); });
  receiver_ = std::make_unique<tcp::TcpReceiver>(
      simulator, config, flow_id,
      [path](net::Packet p) { path->send_b_to_a(std::move(p)); });
  fanout->a.add(sender_.get());    // ACKs arriving back at A
  fanout->b.add(receiver_.get());  // data arriving at B
}

UdpTest::UdpTest(sim::Simulator* simulator, net::PathNetwork* path,
                 PathFanout* fanout, double rate_bps, std::uint32_t flow_id)
    : sink_(simulator, flow_id),
      source_(simulator, {flow_id, rate_bps, 1500},
              [path](net::Packet p) { path->send_a_to_b(std::move(p)); }) {
  fanout->b.add(&sink_);
}

void UdpTest::start(sim::Time duration) { source_.start(duration); }

UdpTestResult UdpTest::result(sim::Time from, sim::Time to) const {
  UdpTestResult r;
  r.packets_sent = source_.packets_sent();
  r.packets_received = sink_.packets_received();
  r.loss_ratio = sink_.loss_ratio(source_.packets_sent());
  r.mean_throughput_bps = sink_.mean_throughput_bps(from, to);
  return r;
}

}  // namespace fiveg::app
