// Radio environment along a rail line: cell deployment, log-distance path
// loss, spatially correlated shadowing, and small-scale fading. The
// environment answers "what does cell c look like from track position x at
// time t" with both the instantaneous metric legacy management sees (RSRP
// with fast fading) and the stable delay-Doppler SNR REM sees.
#pragma once

#include "common/rng.hpp"
#include "mobility/cell.hpp"

#include <vector>

namespace rem::sim {

/// One deployed cell. Cells sharing `site` share the physical propagation
/// paths (the cross-band estimation opportunity: 53.4% of cells in the HSR
/// dataset are co-located with another).
struct Cell {
  mobility::CellId id;
  double site_pos_m = 0.0;      ///< position along the track
  double site_offset_m = 150.0; ///< lateral distance from the rails
  double carrier_hz = 2.0e9;
  double bandwidth_hz = 20e6;
  double tx_power_dbm = 46.0;
};

/// A stretch of track with no usable coverage (tunnel/cutting): every
/// cell's signal is attenuated below the connectable floor inside it.
struct HoleSegment {
  double start_m = 0.0;
  double length_m = 0.0;
};

struct PropagationConfig {
  double pathloss_exponent = 3.5;
  double ref_loss_db = 34.0;        ///< loss at 1 m (Hata-like anchor)
  double shadowing_sigma_db = 3.5;
  double shadowing_decorr_m = 80.0; ///< Gudmundson decorrelation distance
  /// Co-sited cells share the site's shadowing (same physical paths);
  /// each cell adds only this small frequency-dependent residual.
  double per_cell_shadow_sigma_db = 1.0;
  double per_cell_shadow_decorr_m = 25.0;
  /// Extra loss inside a coverage-hole segment.
  double hole_extra_loss_db = 45.0;
  double noise_floor_dbm = -101.0;  ///< thermal noise over 20 MHz + NF
  /// Residual fast-fading noise on the L1-filtered instantaneous metric
  /// (std dev, dB). Legacy RSRP feedback rides this; the delay-Doppler
  /// SNR averages it out (Fig. 11), leaving only `dd_residual_sigma_db`.
  double fading_sigma_db = 2.0;
  double dd_residual_sigma_db = 0.75;
};

/// A deployment plus per-cell correlated shadowing processes.
class RadioEnv {
 public:
  RadioEnv(std::vector<Cell> cells, PropagationConfig cfg,
           common::Rng rng, std::vector<HoleSegment> holes = {});

  const std::vector<Cell>& cells() const { return cells_; }
  const PropagationConfig& config() const { return cfg_; }

  /// What every cell shares about one track position: the hole-segment
  /// test and the shadowing-grid interpolation point. A caller that needs
  /// several cells' means at one position builds this once.
  struct TrackPoint {
    double pos_m = 0.0;
    bool in_hole = false;
    std::size_t i0 = 0, i1 = 0;  ///< shadowing-grid samples around pos_m
    double frac = 0.0;           ///< interpolation weight of sample i1
  };
  TrackPoint track_point(double track_pos_m) const;

  /// Deterministic mean RSRP (path loss + shadowing, no fast fading).
  double mean_rsrp_dbm(std::size_t cell_idx, const TrackPoint& at) const;
  double mean_rsrp_dbm(std::size_t cell_idx, double track_pos_m) const {
    return mean_rsrp_dbm(cell_idx, track_point(track_pos_m));
  }

  /// Instantaneous RSRP with fast fading around a cell's mean RSRP (one
  /// normal draw) — what legacy feedback measures.
  double faded_rsrp_dbm(double mean_dbm, common::Rng& rng) const {
    return mean_dbm + rng.gaussian(0.0, cfg_.fading_sigma_db);
  }
  double instant_rsrp_dbm(std::size_t cell_idx, double track_pos_m,
                          common::Rng& rng) const {
    return faded_rsrp_dbm(mean_rsrp_dbm(cell_idx, track_pos_m), rng);
  }

  /// Stable delay-Doppler SNR (dB) around a cell's mean RSRP: fading
  /// averaged over the grid, small residual only (one normal draw) — what
  /// REM's overlay measures.
  double dd_snr_from_mean_db(double mean_dbm, common::Rng& rng) const {
    return snr_db_from_rsrp(mean_dbm +
                            rng.gaussian(0.0, cfg_.dd_residual_sigma_db));
  }
  double dd_snr_db(std::size_t cell_idx, double track_pos_m,
                   common::Rng& rng) const {
    return dd_snr_from_mean_db(mean_rsrp_dbm(cell_idx, track_pos_m), rng);
  }

  /// SNR corresponding to a given RSRP on this cell.
  double snr_db_from_rsrp(double rsrp_dbm) const {
    return rsrp_dbm - cfg_.noise_floor_dbm;
  }

  /// Index of the strongest cell by mean RSRP (coverage-hole cells
  /// excluded); returns -1 if everything is below `min_rsrp_dbm`.
  /// `exclude_idx` skips one cell — the simulator passes a crashed BS so
  /// re-establishment and failure classification never pick a dead cell.
  int best_cell(double track_pos_m, double min_rsrp_dbm,
                int exclude_idx = -1) const;

  /// Multi-exclusion variant for correlated faults: `excluded[i] != 0`
  /// skips cell i. Region outages kill a whole failure domain at once, so
  /// the simulator passes its dead-cell mask instead of a single index.
  int best_cell(double track_pos_m, double min_rsrp_dbm,
                const std::vector<char>& excluded) const;

  /// True if no usable cell covers this position (coverage hole).
  bool in_coverage_hole(double track_pos_m, double min_rsrp_dbm) const {
    return best_cell(track_pos_m, min_rsrp_dbm) < 0;
  }

  /// True if the position lies in a hole segment.
  bool position_in_hole(double track_pos_m) const;

 private:
  std::vector<Cell> cells_;
  PropagationConfig cfg_;
  std::vector<HoleSegment> holes_;
  /// Per-site and per-cell residual shadowing grids, step `kShadowStep_m`,
  /// all `grid_steps_` long.
  std::vector<std::vector<double>> site_shadow_grids_;
  std::vector<std::vector<double>> cell_shadow_grids_;
  std::vector<std::size_t> cell_site_grid_;  ///< cell idx -> site grid idx
  /// Per-cell carrier term of the path loss, 20*log10(f / 2 GHz).
  std::vector<double> carrier_loss_db_;
  std::size_t grid_steps_ = 0;
  static constexpr double kShadowStep_m = 10.0;
};

/// Parameters for synthesizing a rail deployment.
struct DeploymentConfig {
  double route_len_m = 50e3;
  double site_spacing_mean_m = 1100.0;
  double site_spacing_jitter_m = 250.0;
  double site_offset_min_m = 80.0;    ///< paper: 80-550 m LOS distance
  double site_offset_max_m = 350.0;
  /// Probability a site hosts a second cell on another channel (the
  /// cross-band opportunity; 53.4% of cells share a site in the dataset).
  double colocated_second_cell_prob = 0.75;
  /// Fraction of sites *without* a corridor-layer (primary channel) cell:
  /// only a secondary-carrier cell covers them. Legacy multi-stage
  /// policies can miss these cells (Table 2's "missed cell" failures).
  double primary_missing_prob = 0.08;
  /// Available frequency channels (EARFCN-like ids paired with carriers).
  std::vector<std::pair<mobility::ChannelId, double>> channels = {
      {1825, 1.88e9}, {2452, 2.36e9}, {100, 2.11e9}};
  /// Corridor-layer bandwidth and the options for secondary cells (the
  /// datasets mix 5/10/15/20 MHz carriers — the Fig. 3 heterogeneity).
  double primary_bandwidth_hz = 20e6;
  std::vector<double> secondary_bandwidths_hz = {5e6, 10e6, 15e6, 20e6};
  /// Coverage holes: expected segments per km and their length range.
  double holes_per_km = 0.008;
  double hole_len_min_m = 120.0;
  double hole_len_max_m = 400.0;
  double tx_power_dbm = 46.0;
};

std::vector<Cell> make_rail_deployment(const DeploymentConfig& cfg,
                                       common::Rng& rng);

/// Sample coverage-hole segments along the route.
std::vector<HoleSegment> make_hole_segments(const DeploymentConfig& cfg,
                                            common::Rng& rng);

}  // namespace rem::sim
