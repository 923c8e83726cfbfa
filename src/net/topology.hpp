// 3D torus topology mathematics (pure, no simulation state).
//
// The BlueGene/L interconnect is a 3D torus; the paper's Fig. 7
// placements depend on node ranks mapping to torus coordinates and on
// messages between non-adjacent nodes being "routed through the
// communication co-processors of the nodes in between". We use the
// standard X-then-Y-then-Z dimension-ordered routing with shortest wrap
// direction per dimension (ties broken toward decreasing coordinate, so
// rank 2 -> rank 0 passes through rank 1 as in the paper's Fig. 7A),
// matching BlueGene's deterministic routing mode.
#pragma once

#include <array>
#include <vector>

#include "util/logging.hpp"

namespace scsq::net {

struct TorusCoord {
  int x = 0;
  int y = 0;
  int z = 0;
  bool operator==(const TorusCoord&) const = default;
};

class Torus3D {
 public:
  Torus3D(int dim_x, int dim_y, int dim_z) : dims_{dim_x, dim_y, dim_z} {
    SCSQ_CHECK(dim_x >= 1 && dim_y >= 1 && dim_z >= 1) << "bad torus dims";
  }

  int node_count() const { return dims_[0] * dims_[1] * dims_[2]; }
  int dim(int axis) const { return dims_.at(axis); }

  /// Rank layout: x varies fastest (rank = x + dx*(y + dy*z)), so ranks
  /// 0,1,2 lie along a line in X (the paper's "sequential" placement) and
  /// rank dx is the Y-neighbor of rank 0 (the "balanced" placement).
  TorusCoord coord_of(int rank) const {
    SCSQ_CHECK(rank >= 0 && rank < node_count()) << "rank out of range: " << rank;
    TorusCoord c;
    c.x = rank % dims_[0];
    c.y = (rank / dims_[0]) % dims_[1];
    c.z = rank / (dims_[0] * dims_[1]);
    return c;
  }

  int rank_of(TorusCoord c) const {
    SCSQ_CHECK(c.x >= 0 && c.x < dims_[0] && c.y >= 0 && c.y < dims_[1] && c.z >= 0 &&
               c.z < dims_[2])
        << "coord out of range";
    return c.x + dims_[0] * (c.y + dims_[1] * c.z);
  }

  /// Signed shortest step (-1, 0 or +1 direction) and distance along one
  /// axis with wraparound.
  int axis_distance(int from, int to, int axis) const {
    int d = dims_[axis];
    int fwd = ((to - from) % d + d) % d;
    int bwd = d - fwd;
    return fwd <= bwd ? fwd : bwd;
  }

  /// Minimal hop count between two ranks.
  int hop_distance(int a, int b) const {
    TorusCoord ca = coord_of(a), cb = coord_of(b);
    return axis_distance(ca.x, cb.x, 0) + axis_distance(ca.y, cb.y, 1) +
           axis_distance(ca.z, cb.z, 2);
  }

  /// The neighbor after `a` on the dimension-ordered route to `b`: one
  /// step along the first axis (X, then Y, then Z) whose coordinates
  /// differ, in the shorter wrap direction, ties toward decreasing
  /// coordinate. next_hop(a, a) == a. Walking it from a reaches b in
  /// exactly hop_distance(a, b) steps.
  int next_hop(int a, int b) const {
    const TorusCoord ca = coord_of(a), cb = coord_of(b);
    std::array<int, 3> cur{ca.x, ca.y, ca.z};
    const std::array<int, 3> dst{cb.x, cb.y, cb.z};
    for (int axis = 0; axis < 3; ++axis) {
      const int d = dims_[axis];
      const int fwd = ((dst[axis] - cur[axis]) % d + d) % d;
      if (fwd == 0) continue;
      const int step = fwd < d - fwd ? 1 : -1;
      cur[axis] = (cur[axis] + step + d) % d;
      return rank_of({cur[0], cur[1], cur[2]});
    }
    return a;
  }

  /// Dimension-ordered route from a to b, inclusive of both endpoints:
  /// the next_hop walk. route(a, a) == {a}.
  std::vector<int> route(int a, int b) const {
    std::vector<int> path{a};
    const int hops = hop_distance(a, b);
    for (int i = 0; i < hops; ++i) path.push_back(next_hop(path.back(), b));
    SCSQ_CHECK(path.back() == b) << "routing error " << a << "->" << b;
    return path;
  }

 private:
  std::array<int, 3> dims_;
};

}  // namespace scsq::net
