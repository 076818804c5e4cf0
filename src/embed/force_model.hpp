// Fruchterman-Reingold force model with Hu's constants.
//
// Per the paper (Sec. 2): a vertex i is attracted along each edge with
// magnitude |c_i - c_j|^2 / K and repelled from every other vertex with
// magnitude C K^2 / |c_i - c_j|. K is the natural edge length (set from
// the embedding area and vertex count), C a dimensionless "twiddle factor"
// (Hu uses 0.2). Step length follows a simple multiplicative cooling
// schedule; each vertex moves `min(step, |F|)` in the direction of its net
// force, which keeps early high-energy configurations from exploding.
#pragma once

#include <algorithm>
#include <cmath>

#include "geometry/vec.hpp"

namespace sp::embed {

struct ForceModel {
  double K = 1.0;  // natural spring length
  double C = 0.2;  // repulsion strength factor

  /// Natural edge length for n unit-mass vertices in a box of given area.
  static double natural_length(double area, std::size_t n) {
    return n > 0 ? std::sqrt(area / static_cast<double>(n)) : 1.0;
  }

  /// Attractive force on a vertex at `p` from its edge-neighbour at `q`
  /// (toward q, magnitude d^2/K).
  geom::Vec2 attractive(const geom::Vec2& p, const geom::Vec2& q) const {
    geom::Vec2 delta = q - p;
    double d = delta.norm();
    if (d < 1e-12) return geom::Vec2{};
    return delta * (d / K);  // unit(delta) * d^2 / K
  }

  /// Repulsive force on a vertex from an aggregate `mass` at displacement
  /// `delta` = vertex - aggregate: along +delta, magnitude C K^2 mass / d.
  /// Written as delta * C K^2 mass / d^2, it needs no square root.
  geom::Vec2 repulsive(const geom::Vec2& delta, double mass) const {
    // Softening: coincident points would otherwise produce infinite force;
    // d is floored at 1e-4 K, well below any natural separation.
    const double soft = 1e-4 * K;
    const double d2 = std::max(delta.norm2(), soft * soft);
    return delta * (C * K * K * mass / d2);
  }
};

/// Multiplicative cooling: step(t) = initial * decay^t, floored so late
/// smoothing iterations still make progress.
struct CoolingSchedule {
  double initial_step = 1.0;
  double decay = 0.9;
  double min_step = 1e-3;

  double step_at(std::uint32_t iteration) const {
    double s = initial_step * std::pow(decay, static_cast<double>(iteration));
    return std::max(s, min_step);
  }
};

/// Displacement clipped to the current step length.
inline geom::Vec2 clipped_move(const geom::Vec2& force, double step) {
  double f = force.norm();
  if (f < 1e-300) return geom::Vec2{};
  return force * (std::min(step, f) / f);
}

}  // namespace sp::embed
