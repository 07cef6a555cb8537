#include "prediction/cpa.h"

#include <cmath>

#include "geom/geo.h"

namespace tcmf::prediction {

CpaResult ComputeCpa(const Position& a, const Position& b) {
  // Work in the local ENU frame of the later report.
  const Position& ref = a.t >= b.t ? a : b;
  const Position& other = a.t >= b.t ? b : a;
  geom::LonLat origin{ref.lon, ref.lat};

  auto velocity = [](const Position& p) {
    double rad = geom::DegToRad(p.heading_deg);
    return geom::Enu{p.speed_mps * std::sin(rad),
                     p.speed_mps * std::cos(rad)};
  };
  geom::Enu v_ref = velocity(ref);
  geom::Enu v_other = velocity(other);

  // Advance the earlier state to the reference time.
  double lag_s = static_cast<double>(ref.t - other.t) / kMillisPerSecond;
  geom::Enu p_other = geom::ToEnu(origin, {other.lon, other.lat});
  p_other.x += v_other.x * lag_s;
  p_other.y += v_other.y * lag_s;

  // Relative kinematics: ref at origin, other at p_other, relative
  // velocity v = v_other - v_ref.
  double rx = p_other.x, ry = p_other.y;
  double vx = v_other.x - v_ref.x, vy = v_other.y - v_ref.y;

  CpaResult out;
  out.distance_now_m = std::hypot(rx, ry);
  double v2 = vx * vx + vy * vy;
  if (v2 < 1e-9) {
    // No relative motion: the distance never changes.
    out.tcpa_s = 0.0;
    out.dcpa_m = out.distance_now_m;
    return out;
  }
  double t_star = -(rx * vx + ry * vy) / v2;
  if (t_star < 0) t_star = 0.0;  // already past the closest approach
  out.tcpa_s = t_star;
  out.dcpa_m = std::hypot(rx + vx * t_star, ry + vy * t_star);
  return out;
}

std::vector<CollisionWarning> CpaScreen::Observe(const Position& p) {
  std::vector<CollisionWarning> warnings;
  // Range gate through the spatial index: visits exactly the entities
  // whose latest position is within max_range_m (inclusive).
  index_->VisitWithinRadius(
      p.lon, p.lat, options_.max_range_m, geom::kTimeMin,
      [&](const geom::IndexPoint& e) {
        if (e.id == p.entity_id) return;
        const Position& other = latest_.find(e.id)->second;
        ++pairs_evaluated_;
        CpaResult cpa = ComputeCpa(p, other);
        uint64_t key = (std::min(p.entity_id, e.id) << 32) |
                       (std::max(p.entity_id, e.id) & 0xFFFFFFFF);
        bool risky = cpa.dcpa_m < options_.dcpa_m && cpa.tcpa_s >= 0 &&
                     cpa.tcpa_s < options_.tcpa_s;
        if (risky) {
          if (active_.insert(key).second) {
            warnings.push_back({p.entity_id, e.id, p.t, cpa});
          }
        } else {
          active_.erase(key);
        }
      });
  auto [it, first_report] = latest_.try_emplace(p.entity_id, p);
  if (!first_report) {
    const Position& prev = it->second;
    index_->Remove({p.entity_id, prev.t, prev.lon, prev.lat});
    it->second = p;
  }
  index_->Insert({p.entity_id, p.t, p.lon, p.lat});
  return warnings;
}

}  // namespace tcmf::prediction
