#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace sfn::fluid {

/// NaN-safe clamp of a sampling coordinate into [lo, hi]. NaN maps to lo —
/// a corrupt position degrades to a border read instead of poisoning the
/// cast below — and ±inf clamp like any out-of-range value.
[[nodiscard]] inline double clamp_coord(double v, double lo, double hi) {
  if (std::isnan(v)) {
    return lo;
  }
  return std::clamp(v, lo, hi);
}

/// floor(v) as a cell index, clamped into [lo, hi] *before* the cast.
/// Casting a NaN or out-of-int-range double to int is undefined behaviour
/// (DESIGN.md §6 "Robustness" records a rollout that crashed exactly
/// here), so every float→int conversion in src/fluid must go through this
/// helper — enforced by the guarded-float-cast rule in tools/sfn_lint.py.
[[nodiscard]] inline int floor_cell(double v, int lo, int hi) {
  const double c = clamp_coord(std::floor(v), lo, hi);
  return static_cast<int>(c);  // sfn-lint: safe-cast (clamped above)
}

/// Dense 2-D scalar grid in row-major (j-major) layout.
///
/// Cell (i, j) has its centre at ((i + 0.5) * dx, (j + 0.5) * dx) in world
/// space where dx = 1 / nx keeps the domain width at 1 regardless of
/// resolution, so the same physical problem can be run at any grid size
/// (the paper sweeps 128^2 .. 1024^2).
template <typename T>
class Grid2 {
 public:
  Grid2() = default;
  Grid2(int nx, int ny, T value = T{})
      : nx_(nx), ny_(ny), data_(static_cast<std::size_t>(nx) * ny, value) {
    assert(nx > 0 && ny > 0);
  }

  [[nodiscard]] int nx() const { return nx_; }
  [[nodiscard]] int ny() const { return ny_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  [[nodiscard]] bool inside(int i, int j) const {
    return i >= 0 && i < nx_ && j >= 0 && j < ny_;
  }

  [[nodiscard]] std::size_t index(int i, int j) const {
    assert(inside(i, j));
    return static_cast<std::size_t>(j) * nx_ + i;
  }

  T& operator()(int i, int j) { return data_[index(i, j)]; }
  const T& operator()(int i, int j) const { return data_[index(i, j)]; }

  T& operator[](std::size_t k) { return data_[k]; }
  const T& operator[](std::size_t k) const { return data_[k]; }

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  [[nodiscard]] std::span<T> data() { return data_; }
  [[nodiscard]] std::span<const T> data() const { return data_; }

  /// Clamped read: out-of-range indices are clamped to the border cell.
  [[nodiscard]] T at_clamped(int i, int j) const {
    i = std::clamp(i, 0, nx_ - 1);
    j = std::clamp(j, 0, ny_ - 1);
    return (*this)(i, j);
  }

  /// Bilinear interpolation at grid-space position (x, y) where integer
  /// coordinates coincide with cell indices, i.e. the sample lattice of
  /// this grid. Callers convert world/staggered offsets before calling.
  ///
  /// This is the semi-Lagrangian hot loop (five samples per advected
  /// cell), so it reads two raw rows. After the NaN-safe clamp x and y
  /// are finite and non-negative, where truncation is floor; the upper
  /// clamp keeps a sample on the last node inside the last cell.
  [[nodiscard]] T interpolate(double x, double y) const {
    x = clamp_coord(x, 0.0, static_cast<double>(nx_ - 1));
    y = clamp_coord(y, 0.0, static_cast<double>(ny_ - 1));
    const int i0 = std::min(static_cast<int>(x), std::max(nx_ - 2, 0));  // sfn-lint: safe-cast (clamped above)
    const int j0 = std::min(static_cast<int>(y), std::max(ny_ - 2, 0));  // sfn-lint: safe-cast (clamped above)
    const int i1 = std::min(i0 + 1, nx_ - 1);
    const int j1 = std::min(j0 + 1, ny_ - 1);
    assert(inside(i0, j0) && inside(i1, j1));
    const T* const row0 = data_.data() + static_cast<std::size_t>(j0) * nx_;
    const T* const row1 = data_.data() + static_cast<std::size_t>(j1) * nx_;
    const double fx = x - i0;
    const double fy = y - j0;
    const double v00 = row0[i0];
    const double v10 = row0[i1];
    const double v01 = row1[i0];
    const double v11 = row1[i1];
    const double v0 = v00 + fx * (v10 - v00);
    const double v1 = v01 + fx * (v11 - v01);
    return static_cast<T>(v0 + fy * (v1 - v0));
  }

  /// Sum of all cells in double precision.
  [[nodiscard]] double sum() const {
    double acc = 0.0;
    for (const T& v : data_) acc += static_cast<double>(v);
    return acc;
  }

  /// Maximum absolute value.
  [[nodiscard]] double max_abs() const {
    double m = 0.0;
    for (const T& v : data_) m = std::max(m, std::abs(static_cast<double>(v)));
    return m;
  }

  bool operator==(const Grid2&) const = default;

 private:
  int nx_ = 0;
  int ny_ = 0;
  std::vector<T> data_;
};

using GridF = Grid2<float>;
using GridD = Grid2<double>;

}  // namespace sfn::fluid
