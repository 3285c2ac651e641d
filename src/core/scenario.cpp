#include "core/scenario.h"

#include <algorithm>
#include <utility>

#include "core/paper.h"
#include "obs/prof.h"

namespace fiveg::core {
namespace {

// Written once by the CLI before any experiment thread starts, then only
// read — no locking needed.
net::QdiscConfig g_campaign_qdisc;  // default-constructed = drop-tail

// Scenario/Testbed construction is the self-profiler's "construct" phase;
// wrapping the factory calls lets the phase cover work done in constructor
// initializer lists.
template <typename Fn>
auto timed_construct(Fn&& fn) {
  const obs::prof::ScopedPhase phase("construct");
  return std::forward<Fn>(fn)();
}

}  // namespace

void set_campaign_bottleneck_qdisc(const net::QdiscConfig& qdisc) {
  g_campaign_qdisc = qdisc;
}

const net::QdiscConfig& campaign_bottleneck_qdisc() noexcept {
  return g_campaign_qdisc;
}

Scenario::Scenario(std::uint64_t seed)
    : campus_(timed_construct(
          [&] { return geo::make_campus(sim::Rng(seed).fork("campus")); })),
      deployment_(timed_construct([&] {
        return ran::make_deployment(&campus_,
                                    sim::Rng(seed).fork("deployment"));
      })) {}

CityScenario::CityScenario(std::uint64_t seed, const CityConfig& config)
    : config_(config),
      campus_(timed_construct([&] {
        return geo::make_city_campus(sim::Rng(seed).fork("city_campus"),
                                     config.width_m, config.height_m,
                                     config.open_fraction);
      })),
      deployment_(timed_construct([&] {
        return ran::make_city_deployment(
            &campus_, sim::Rng(seed).fork("city_deployment"), config.grid);
      })) {}

double baseline_rate_bps(radio::Rat rat, ran::LoadRegime regime,
                         Direction direction) noexcept {
  const bool nr = rat == radio::Rat::kNr;
  if (direction == Direction::kDownlink) {
    if (nr) {
      return (regime == ran::LoadRegime::kDay ? paper::kNrUdpDayMbps
                                              : paper::kNrUdpNightMbps) *
             1e6;
    }
    return (regime == ran::LoadRegime::kDay ? paper::kLteUdpDayMbps
                                            : paper::kLteUdpNightMbps) *
           1e6;
  }
  if (nr) return paper::kNrUdpUlMbps * 1e6;
  return (regime == ran::LoadRegime::kDay ? paper::kLteUdpUlDayMbps : 100.0) *
         1e6;
}

Testbed::Testbed(sim::Simulator* simulator, const TestbedOptions& options,
                 std::uint64_t seed) {
  const obs::prof::ScopedPhase phase("construct");
  sim::Rng rng(seed);
  ran_rate_bps_ = options.ran_rate_bps > 0
                      ? options.ran_rate_bps
                      : baseline_rate_bps(options.rat, options.regime,
                                          options.direction);

  net::CellularPathOptions path_opt;
  path_opt.rat = options.rat;
  path_opt.ran.rat = options.rat;
  path_opt.ran.bitrate_bps = ran_rate_bps_;
  path_opt.ran.blocked_fn = options.ran_blocked_fn;
  path_opt.server_distance_km = options.server_distance_km;
  if (options.wired_hops > 0) path_opt.wired_hops = options.wired_hops;
  if (options.bottleneck_buffer_bytes != 0) {
    path_opt.bottleneck_buffer_bytes = options.bottleneck_buffer_bytes;
  }
  path_opt.bottleneck_qdisc =
      options.bottleneck_qdisc.value_or(campaign_bottleneck_qdisc());
  auto hops = make_cellular_path(path_opt, rng.fork("path"));

  std::size_t bottleneck = net::kBottleneckHopIndex;
  if (options.direction == Direction::kDownlink) {
    // A is the cloud: the UE-adjacent RAN hop goes last.
    std::reverse(hops.begin(), hops.end());
    bottleneck = hops.size() - 1 - bottleneck;
  }
  bottleneck_index_ = bottleneck;

  path_ = std::make_unique<net::PathNetwork>(simulator, std::move(hops));
  // TCP flows follow the bottleneck's ECN setting, so `--qdisc X+ecn`
  // marks instead of dropping on every testbed path.
  fanout_ = std::make_unique<app::PathFanout>(path_.get(),
                                              path_opt.bottleneck_qdisc.ecn);

  if (options.cross_traffic) {
    net::CrossTraffic::Config xcfg;
    xcfg.flow_id = 9999;
    // Ambient metro bursts: calibrated so UDP loss lands on Fig. 9's
    // curve (5G >= 10x the 4G loss at matched offered fractions).
    xcfg.mean_off_s = 0.35;
    xcfg.mean_on_s = 0.06;
    xcfg.min_rate_bps = 150e6;
    xcfg.max_rate_bps = 1300e6;
    cross_ = std::make_unique<net::CrossTraffic>(
        simulator, &path_->forward_link(bottleneck_index_), xcfg,
        rng.fork("cross"));
  }
}

void Testbed::start_cross_traffic(sim::Time until) {
  if (cross_ != nullptr) cross_->start(until);
}

sim::Time city_partition_lookahead(const PartitionedCityConfig& config) {
  // ~5 us/km one-way in fibre (2e8 m/s). Districts interact through the
  // metro core only — radio reach ends well inside a district — so this
  // propagation floor is a conservative bound on cross-lane influence.
  constexpr double kFibreUsPerKm = 5.0;
  const double one_way_us =
      std::max(config.backhaul_km, 0.0) * kFibreUsPerKm;
  const sim::Time floor_ns = 100 * sim::kMicrosecond;
  return std::max(floor_ns,
                  static_cast<sim::Time>(one_way_us * 1e3));
}

}  // namespace fiveg::core
