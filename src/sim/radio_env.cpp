#include "sim/radio_env.hpp"

#include "common/units.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace rem::sim {
namespace {

std::vector<double> ar1_grid(std::size_t steps, double sigma, double decorr,
                             double step_m, common::Rng& rng) {
  const double rho = std::exp(-step_m / decorr);
  const double innov = sigma * std::sqrt(1.0 - rho * rho);
  std::vector<double> grid(steps);
  double x = rng.gaussian(0.0, sigma);
  for (std::size_t i = 0; i < steps; ++i) {
    grid[i] = x;
    x = rho * x + rng.gaussian(0.0, innov);
  }
  return grid;
}

}  // namespace

RadioEnv::RadioEnv(std::vector<Cell> cells, PropagationConfig cfg,
                   common::Rng rng, std::vector<HoleSegment> holes)
    : cells_(std::move(cells)), cfg_(cfg), holes_(std::move(holes)) {
  double track_len_m = 0.0;
  for (const auto& c : cells_)
    track_len_m = std::max(track_len_m, c.site_pos_m + 5000.0);
  const auto steps = static_cast<std::size_t>(track_len_m / kShadowStep_m) + 2;
  grid_steps_ = steps;

  // One shared shadowing process per physical site, plus a small
  // frequency-dependent residual per cell. Co-sited cells thus see nearly
  // identical large-scale dynamics — the physical basis of cross-band
  // estimation (§3.1's shared multipath).
  std::map<int, std::size_t> site_grid_index;
  cell_site_grid_.resize(cells_.size());
  cell_shadow_grids_.resize(cells_.size());
  carrier_loss_db_.resize(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    // Log-distance path loss carries a mild frequency term (higher
    // carriers lose more).
    carrier_loss_db_[i] = 20.0 * std::log10(cells_[i].carrier_hz / 2.0e9);
    const int site = cells_[i].id.base_station;
    auto [it, inserted] =
        site_grid_index.try_emplace(site, site_shadow_grids_.size());
    if (inserted) {
      site_shadow_grids_.push_back(ar1_grid(steps, cfg_.shadowing_sigma_db,
                                            cfg_.shadowing_decorr_m,
                                            kShadowStep_m, rng));
    }
    cell_site_grid_[i] = it->second;
    cell_shadow_grids_[i] =
        ar1_grid(steps, cfg_.per_cell_shadow_sigma_db,
                 cfg_.per_cell_shadow_decorr_m, kShadowStep_m, rng);
  }
}

RadioEnv::TrackPoint RadioEnv::track_point(double track_pos_m) const {
  TrackPoint at;
  at.pos_m = track_pos_m;
  at.in_hole = position_in_hole(track_pos_m);
  const double f = std::clamp(track_pos_m / kShadowStep_m, 0.0,
                              static_cast<double>(grid_steps_ - 1));
  at.i0 = static_cast<std::size_t>(f);
  at.i1 = std::min(at.i0 + 1, grid_steps_ - 1);
  at.frac = f - static_cast<double>(at.i0);
  return at;
}

bool RadioEnv::position_in_hole(double track_pos_m) const {
  for (const auto& h : holes_) {
    if (track_pos_m >= h.start_m && track_pos_m < h.start_m + h.length_m)
      return true;
  }
  return false;
}

double RadioEnv::mean_rsrp_dbm(std::size_t cell_idx,
                               const TrackPoint& at) const {
  const Cell& c = cells_[cell_idx];
  const double dx = at.pos_m - c.site_pos_m;
  const double d = std::max(
      std::sqrt(dx * dx + c.site_offset_m * c.site_offset_m), 1.0);
  double pl = cfg_.ref_loss_db +
              10.0 * cfg_.pathloss_exponent * std::log10(d) +
              carrier_loss_db_[cell_idx];
  if (at.in_hole) pl += cfg_.hole_extra_loss_db;
  // Correlated shadowing: the site's process plus the cell's small
  // residual (AR(1) grids, linearly interpolated).
  const auto sample = [&](const std::vector<double>& grid) {
    return grid[at.i0] * (1.0 - at.frac) + grid[at.i1] * at.frac;
  };
  return c.tx_power_dbm - pl +
         (sample(site_shadow_grids_[cell_site_grid_[cell_idx]]) +
          sample(cell_shadow_grids_[cell_idx]));
}

int RadioEnv::best_cell(double track_pos_m, double min_rsrp_dbm,
                        int exclude_idx) const {
  const TrackPoint at = track_point(track_pos_m);
  int best = -1;
  double best_rsrp = min_rsrp_dbm;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (static_cast<int>(i) == exclude_idx) continue;
    const double r = mean_rsrp_dbm(i, at);
    if (r > best_rsrp) {
      best_rsrp = r;
      best = static_cast<int>(i);
    }
  }
  return best;
}

int RadioEnv::best_cell(double track_pos_m, double min_rsrp_dbm,
                        const std::vector<char>& excluded) const {
  const TrackPoint at = track_point(track_pos_m);
  int best = -1;
  double best_rsrp = min_rsrp_dbm;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (i < excluded.size() && excluded[i]) continue;
    const double r = mean_rsrp_dbm(i, at);
    if (r > best_rsrp) {
      best_rsrp = r;
      best = static_cast<int>(i);
    }
  }
  return best;
}

std::vector<Cell> make_rail_deployment(const DeploymentConfig& cfg,
                                       common::Rng& rng) {
  std::vector<Cell> cells;
  int next_cell_id = 0;
  int next_site_id = 0;
  double pos = cfg.site_spacing_mean_m / 2.0;
  while (pos < cfg.route_len_m) {
    const int site = next_site_id++;
    const double offset =
        rng.uniform(cfg.site_offset_min_m, cfg.site_offset_max_m);
    // The rail corridor is covered by a dedicated layer on the first
    // channel (intra-frequency A3 dominates handovers, as in the HSR
    // datasets); extra co-located cells use the other carriers. A few
    // sites lack the corridor layer entirely — the cells legacy
    // multi-stage policies tend to miss.
    const std::size_t primary =
        (cfg.channels.size() > 1 && rng.bernoulli(cfg.primary_missing_prob))
            ? 1 + static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(cfg.channels.size()) - 2))
            : 0;

    Cell c;
    c.id = {next_cell_id++, site, cfg.channels[primary].first};
    c.site_pos_m = pos;
    c.site_offset_m = offset;
    c.carrier_hz = cfg.channels[primary].second;
    c.tx_power_dbm = cfg.tx_power_dbm;
    c.bandwidth_hz = primary == 0 ? cfg.primary_bandwidth_hz
                                  : cfg.secondary_bandwidths_hz[
                                        static_cast<std::size_t>(
                                            rng.uniform_int(
                                                0,
                                                static_cast<std::int64_t>(
                                                    cfg.secondary_bandwidths_hz
                                                        .size()) -
                                                    1))];
    cells.push_back(c);

    if (cfg.channels.size() > 1 && primary == 0 &&
        rng.bernoulli(cfg.colocated_second_cell_prob)) {
      std::size_t secondary = primary;
      while (secondary == primary) {
        secondary = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(cfg.channels.size()) - 1));
      }
      Cell c2 = c;
      c2.id = {next_cell_id++, site, cfg.channels[secondary].first};
      c2.carrier_hz = cfg.channels[secondary].second;
      c2.bandwidth_hz = cfg.secondary_bandwidths_hz[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(
                                 cfg.secondary_bandwidths_hz.size()) -
                                 1))];
      cells.push_back(c2);
    }
    pos += cfg.site_spacing_mean_m +
           rng.uniform(-cfg.site_spacing_jitter_m, cfg.site_spacing_jitter_m);
  }
  return cells;
}

std::vector<HoleSegment> make_hole_segments(const DeploymentConfig& cfg,
                                            common::Rng& rng) {
  std::vector<HoleSegment> holes;
  const double km = cfg.route_len_m / 1000.0;
  const int count = rng.poisson(cfg.holes_per_km * km);
  for (int i = 0; i < count; ++i) {
    HoleSegment h;
    h.start_m = rng.uniform(0.0, cfg.route_len_m);
    h.length_m = rng.uniform(cfg.hole_len_min_m, cfg.hole_len_max_m);
    holes.push_back(h);
  }
  return holes;
}

}  // namespace rem::sim
