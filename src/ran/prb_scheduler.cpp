#include "ran/prb_scheduler.h"

#include <algorithm>
#include <utility>

#include "obs/obs.h"

namespace fiveg::ran {

namespace {

void observe_prb(radio::Rat rat, double fraction) {
  obs::MetricsRegistry* reg = obs::metrics();
  if (reg == nullptr) return;
  static const std::string kNr =
      obs::labeled("ran.prb_fraction", {{"rat", "nr"}});
  static const std::string kLte =
      obs::labeled("ran.prb_fraction", {{"rat", "lte"}});
  reg->digest(rat == radio::Rat::kNr ? kNr : kLte).observe(fraction);
}

}  // namespace

PrbScheduler::PrbScheduler(radio::CarrierConfig carrier, int competing_users)
    : carrier_(std::move(carrier)),
      competing_users_(std::max(0, competing_users)) {}

double PrbScheduler::grant_fraction(sim::Rng& rng) const {
  double fraction;
  if (competing_users_ == 0) {
    // Alone on the carrier: scheduler still withholds a few PRBs for
    // SIB/paging — the paper sees 260-264 of 264.
    fraction = rng.uniform(0.985, 1.0);
  } else {
    const double fair = 1.0 / (1.0 + competing_users_);
    // Proportional-fair jitter around the equal share.
    fraction = std::clamp(fair * rng.uniform(0.8, 1.2), 0.0, 1.0);
  }
  observe_prb(carrier_.rat, fraction);
  return fraction;
}

double observed_prb_fraction(radio::Rat rat, LoadRegime regime,
                             sim::Rng& rng) {
  double fraction;
  if (rat == radio::Rat::kNr) {
    // 260-264 of 264 PRBs regardless of time of day.
    fraction = rng.uniform(260.0, 264.0) / 264.0;
  } else if (regime == LoadRegime::kDay) {
    fraction = rng.uniform(40.0, 85.0) / 100.0;  // 40-85 of 100 PRBs
  } else {
    fraction = rng.uniform(95.0, 100.0) / 100.0;  // 95-100 of 100 PRBs
  }
  observe_prb(rat, fraction);
  return fraction;
}

}  // namespace fiveg::ran
