// UDP load generation and measurement: the iperf3-style constant-rate
// source used for the paper's baseline-bandwidth and loss-vs-load
// experiments, plus a sink that reconstructs loss patterns (Fig. 11) and
// windowed throughput.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "measure/timeseries.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace fiveg::net {

/// Constant-bit-rate UDP sender (iperf3 -u).
class UdpSource {
 public:
  struct Config {
    std::uint32_t flow_id = 1;
    double rate_bps = 100e6;
    std::uint32_t packet_bytes = 1500;
  };

  /// `emit` injects each packet into the network (e.g. path.send_a_to_b).
  UdpSource(sim::Simulator* simulator, Config config,
            std::function<void(Packet)> emit);

  /// Starts emitting now; stops after `duration`.
  void start(sim::Time duration);

  [[nodiscard]] std::uint64_t packets_sent() const noexcept { return sent_; }

 private:
  void emit_next();

  sim::Simulator* sim_;
  Config config_;
  std::function<void(Packet)> emit_;
  sim::Time stop_at_ = 0;
  std::uint64_t sent_ = 0;
};

/// Receiver-side accounting for one UDP flow.
class UdpSink final : public PacketSink {
 public:
  explicit UdpSink(sim::Simulator* simulator, std::uint32_t flow_id)
      : sim_(simulator), flow_id_(flow_id) {}

  void deliver(Packet p) override;

  [[nodiscard]] std::uint64_t packets_received() const noexcept {
    return received_;
  }
  [[nodiscard]] std::uint64_t bytes_received() const noexcept {
    return bytes_;
  }

  /// Loss ratio given how many packets the source sent.
  [[nodiscard]] double loss_ratio(std::uint64_t sent) const noexcept;

  /// Sequence numbers seen, in arrival order (Fig. 11's x/y data).
  [[nodiscard]] const std::vector<std::uint64_t>& arrival_seqs()
      const noexcept {
    return arrival_seqs_;
  }

  /// Mean goodput over [from, to], bits/s.
  [[nodiscard]] double mean_throughput_bps(sim::Time from,
                                           sim::Time to) const;

 private:
  sim::Simulator* sim_;
  std::uint32_t flow_id_;
  std::uint64_t received_ = 0;
  std::uint64_t bytes_ = 0;
  std::vector<std::uint64_t> arrival_seqs_;
  measure::TimeSeries byte_log_;
};

}  // namespace fiveg::net
