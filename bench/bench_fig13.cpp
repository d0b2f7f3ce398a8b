// Fig. 13 and Fig. 14b: cross-band estimation on the HSR channel — REM vs
// the R2F2 and OptML baselines (SNR error CDF, handover decision precision
// and per-estimate runtime). OptML trains on an 80% split of channels drawn
// from the same statistics. The runtime column is Fig. 14b: each estimate()
// call on the HST-350 64x16 grid at 20 dB pilot SNR is timed inside
// crossband::evaluate_estimator and averaged over the trials.
#include "common/stats.hpp"
#include "common/units.hpp"
#include "crossband/metrics.hpp"
#include "crossband/optml.hpp"
#include "crossband/r2f2.hpp"
#include "crossband/rem_svd.hpp"

#include <cstdio>

using namespace rem;

int main() {
  crossband::EvalConfig cfg;
  cfg.draw.profile = channel::Profile::kHST350;
  cfg.draw.speed_mps = common::kmh_to_mps(350.0);
  cfg.draw.carrier_hz = 1.88e9;
  cfg.num.num_subcarriers = 64;
  cfg.num.num_symbols = 16;
  cfg.num.cp_len = 16;
  cfg.f1_hz = 1.88e9;
  cfg.f2_hz = 2.6e9;
  cfg.trials = 150;

  common::Rng rng(13);

  crossband::RemSvdEstimator rem_est;
  const auto r_rem = crossband::evaluate_estimator(rem_est, cfg, rng);

  crossband::OptMlEstimator optml;
  crossband::train_optml(optml, cfg, 600, rng);  // 80/20 split
  const auto r_optml = crossband::evaluate_estimator(optml, cfg, rng);

  crossband::R2f2Estimator r2f2;  // default slow cold-start config
  const auto r_r2f2 = crossband::evaluate_estimator(r2f2, cfg, rng);

  std::printf("Fig. 13: cross-band estimation on the HSR channel\n");
  std::printf("  %-8s %10s %10s %11s %10s\n", "method", "mean err",
              "p90 err", "precision", "runtime");
  const auto row = [](const char* name,
                      const crossband::EvalResult& r) {
    std::printf("  %-8s %8.2fdB %8.2fdB %11.2f %8.1fms\n", name,
                r.mean_snr_error_db, r.p90_snr_error_db,
                r.decision_precision, r.mean_runtime_ms);
  };
  row("REM", r_rem);
  row("OptML", r_optml);
  row("R2F2", r_r2f2);

  std::printf("\n  SNR-error CDF (dB -> fraction):\n");
  std::printf("  %6s %8s %8s %8s\n", "err", "REM", "OptML", "R2F2");
  common::Summary s_rem, s_opt, s_r2;
  s_rem.add_all(r_rem.snr_error_db);
  s_opt.add_all(r_optml.snr_error_db);
  s_r2.add_all(r_r2f2.snr_error_db);
  for (double e = 0.0; e <= 15.0; e += 1.5)
    std::printf("  %6.1f %8.2f %8.2f %8.2f\n", e, s_rem.cdf_at(e),
                s_opt.cdf_at(e), s_r2.cdf_at(e));
  std::printf(
      "\nPaper reference (Fig. 13): REM 86.8%% lower mean error than R2F2 "
      "and 51.9%% lower\nthan OptML; precision 0.95 vs 0.65 vs 0.11.\n");
  std::printf(
      "Paper reference (Fig. 14b): runtime REM 158.1 ms < OptML 416 ms < "
      "R2F2 2.4 s.\n");
  return 0;
}
