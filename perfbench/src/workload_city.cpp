// city_par: a partitioned city on sim::ParSim, shaped like bench_parsim —
// 4 radio-isolated districts of 2.5k UEs each on the 19-site hex grid,
// swept every 200 ms for 2 simulated seconds. No packets: the work is
// geo/radio/ran cohort sweeps plus ParSim window barriers.
//
// The warm-up rep runs the lanes on two worker threads (never more than
// the host has); every timed rep runs the identical window schedule
// serially and must reproduce the threaded checksum bit for bit. Timing
// the serial schedule keeps wall_s steady on a shared host: with two
// workers, the run-to-run spread of wall_s reached the benchmark's bound
// during a busy period.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/scenario.h"
#include "geo/route.h"
#include "ran/ue_cohort.h"
#include "sim/parsim.h"
#include "sim/rng.h"

namespace perfbench {
namespace {

using namespace fiveg;  // NOLINT: benchmark file brevity

constexpr int kDistricts = 4;
constexpr int kUesPerDistrict = 2500;
constexpr sim::Time kPeriod = sim::from_millis(200);
constexpr sim::Time kDuration = 2 * sim::kSecond;
constexpr int kMaxThreads = 2;  // lane workers of the reference rep

int reference_threads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, kMaxThreads);
}

struct District {
  std::unique_ptr<core::CityScenario> sc;
  std::unique_ptr<ran::UeCohort> cohort;
};

class CityParWorkload final : public Workload {
 public:
  void setup(std::uint64_t seed, bool reference) override {
    reset();
    core::PartitionedCityConfig part;
    part.districts = kDistricts;
    sim::ParSimConfig cfg;
    cfg.lanes = part.districts;
    cfg.threads = reference ? reference_threads() : 1;
    cfg.lookahead = core::city_partition_lookahead(part);
    par_ = std::make_unique<sim::ParSim>(cfg);
    geo_s_ = 0;
    cohort_s_ = 0;
    districts_.resize(kDistricts);
    for (int k = 0; k < kDistricts; ++k) {
      par_->with_lane(k, [&, k] {
        District& d = districts_[static_cast<std::size_t>(k)];
        const std::string tag = "district" + std::to_string(k);
        const sim::Rng base(seed);
        auto start = Clock::now();
        {
          Span s("geo.city_scenario_build");
          d.sc = std::make_unique<core::CityScenario>(base.fork(tag).seed(),
                                                      part.district);
        }
        geo_s_ += seconds_since(start);
        start = Clock::now();
        Span s("ran.cohort_build");
        ran::CohortConfig ccfg;
        ccfg.name = "bench.d" + std::to_string(k);
        ccfg.domain = k;
        d.cohort = std::make_unique<ran::UeCohort>(
            &d.sc->deployment(), ccfg, base.fork(tag + ".cohort"));
        sim::Rng place = base.fork(tag + ".ues");
        const int n_walk = kUesPerDistrict * 35 / 1000;
        const int n_drive = kUesPerDistrict * 15 / 1000;
        for (int i = 0; i < n_walk; ++i) {
          d.cohort->add_route(
              geo::make_waypoint_route(d.sc->campus(), place, 6), 1.4);
        }
        for (int i = 0; i < n_drive; ++i) {
          d.cohort->add_route(
              geo::make_waypoint_route(d.sc->campus(), place, 4), 11.0);
        }
        for (int i = n_walk + n_drive; i < kUesPerDistrict; ++i) {
          d.cohort->add_stationary(d.sc->campus().random_point(place));
        }
        d.cohort->start(&par_->lane(k), kDuration);
        cohort_s_ += seconds_since(start);
      });
    }
  }

  void run(RepClock& clock) override {
    step_ms_.clear();
    for (sim::Time t = 0; t <= kDuration; t += kPeriod) {
      if (t > 0) clock.boundary();
      const auto start = Clock::now();
      {
        Span s("parsim.run_until");
        par_->run_until(t);
      }
      step_ms_.push_back(1e3 * seconds_since(start));
    }
    Span s("parsim.finish");
    par_->finish();
  }

  RepResult collect() override {
    RepResult r;
    r.step_ms = std::move(step_ms_);
    Checksum sum;
    double evals = 0, computed = 0, reused = 0, sweeps = 0;
    {
      Span s("ran.cohort_stats");
      for (const District& d : districts_) {
        ++r.ops;
        const ran::UeCohort& cohort = *d.cohort;
        const ran::UeCohort::Stats& st = cohort.stats();
        const std::uint64_t rows = st.rows_computed + st.rows_reused;
        // Every sweep fills one row per UE and RAT.
        if (st.sweeps == 0 || rows != 2 * st.sweeps * cohort.size()) {
          r.fail("district " + cohort.config().name +
                 ": cohort row accounting does not match its sweeps");
          ++r.failed_ops;
        }
        sweeps += static_cast<double>(st.sweeps);
        computed += static_cast<double>(st.rows_computed);
        reused += static_cast<double>(st.rows_reused);
        sum.add(st.sweeps);
        sum.add(st.rows_computed);
        sum.add(st.rows_reused);
        sum.add(st.handoffs);
        sum.add(st.a3_triggers);
        sum.add(st.vertical_handoffs);
        for (const radio::Rat rat : {radio::Rat::kLte, radio::Rat::kNr}) {
          const std::size_t cells = d.sc->deployment().cells(rat).size();
          evals += static_cast<double>(st.sweeps * cohort.size() * cells);
          const auto& block = cohort.block(rat);
          for (std::size_t i = 0; i < cells * cohort.size(); ++i) {
            sum.add(block.rsrp_dbm[i]);
            sum.add(block.sinr_db[i]);
          }
          for (std::size_t u = 0; u < cohort.size(); ++u) {
            const int serving = cohort.serving_cell(rat, u);
            sum.add(static_cast<std::uint64_t>(serving + 1));
          }
        }
      }
    }
    r.checksum = sum.value();
    double scheduled = par_->control().scheduled_total();
    double cancelled = par_->control().cancelled_total();
    for (int k = 0; k < par_->lanes(); ++k) {
      scheduled += static_cast<double>(par_->lane(k).scheduled_total());
      cancelled += static_cast<double>(par_->lane(k).cancelled_total());
    }
    r.put("sim.simulated_s", sim::to_seconds(kDuration) * kDistricts, "s");
    r.put("sim.events", static_cast<double>(par_->executed_events()), "count");
    r.put("sim.scheduled", scheduled, "count");
    r.put("sim.cancelled", cancelled, "count");
    r.put("parsim.threads", par_->effective_threads(), "count");
    r.put("parsim.reference_threads", reference_threads(), "count");
    r.put("parsim.windows", static_cast<double>(par_->windows()), "count");
    r.put("geo.setup_s", geo_s_, "s");
    r.put("ran.cohort_setup_s", cohort_s_, "s");
    r.put("ran.sweeps", sweeps, "count");
    r.put("ran.ue_evals", evals, "count");
    r.put("ran.rows_requested", computed + reused, "count");
    r.put("ran.row_reuse_ratio", reused / (computed + reused), "ratio");
    reset();
    return r;
  }

  void reset() override {
    districts_.clear();  // cohorts hold lane pointers: drop them first
    par_.reset();
  }

 private:
  std::unique_ptr<sim::ParSim> par_;
  std::vector<District> districts_;
  std::vector<double> step_ms_;
  double geo_s_ = 0;
  double cohort_s_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_city_par() {
  return std::make_unique<CityParWorkload>();
}

}  // namespace perfbench
