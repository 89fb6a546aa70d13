use crate::calib::{CAPACITY_DERATE, GCELL_ROWS, GCELL_WIDTH_CPP, PIN_ACCESS_DEMAND};
use ffet_geom::{Axis, Nm, Point, Rect};
use ffet_tech::{RoutingPattern, Side, Technology};

/// The global-routing congestion grid: GCells with per-side, per-direction
/// track capacities derived from the Table II layer stack, and the demand
/// accumulated by routed nets and pin access.
#[derive(Debug, Clone)]
pub struct RoutingGrid {
    /// Number of GCell columns.
    pub cols: usize,
    /// Number of GCell rows.
    pub rows: usize,
    /// GCell width, nm.
    pub gcell_w: Nm,
    /// GCell height, nm.
    pub gcell_h: Nm,
    /// Horizontal track capacity per GCell, per side `[front, back]`.
    pub cap_h: [f64; 2],
    /// Vertical track capacity per GCell, per side.
    pub cap_v: [f64; 2],
    /// Horizontal demand per GCell per side (`side * cols * rows` layout).
    demand_h: [Vec<f64>; 2],
    /// Vertical demand per GCell per side.
    demand_v: [Vec<f64>; 2],
    /// Congestion history (negotiated-congestion pricing), per side.
    history: [Vec<f64>; 2],
}

/// One overflowed GCell report: `(x, y, side, h_demand, v_demand)`.
pub type HotGcell = (u16, u16, Side, f64, f64);

/// A GCell coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GCell {
    /// Column.
    pub x: u16,
    /// Row.
    pub y: u16,
}

impl RoutingGrid {
    /// Builds the grid for a die under a routing pattern.
    #[must_use]
    pub fn new(tech: &Technology, die: Rect, pattern: RoutingPattern) -> RoutingGrid {
        let gcell_w = GCELL_WIDTH_CPP * tech.cpp();
        let gcell_h = GCELL_ROWS * tech.cell_height();
        let cols = ((die.width() + gcell_w - 1) / gcell_w).max(1) as usize;
        let rows = ((die.height() + gcell_h - 1) / gcell_h).max(1) as usize;

        let mut cap_h = [0.0f64; 2];
        let mut cap_v = [0.0f64; 2];
        for (si, side) in Side::BOTH.iter().enumerate() {
            let max_index = match side {
                Side::Front => pattern.front_layers(),
                Side::Back => pattern.back_layers(),
            };
            for layer in tech.stack().routing_layers(*side, max_index) {
                match layer.id.axis() {
                    Axis::Horizontal => {
                        cap_h[si] += (gcell_h / layer.pitch) as f64 * CAPACITY_DERATE;
                    }
                    Axis::Vertical => {
                        cap_v[si] += (gcell_w / layer.pitch) as f64 * CAPACITY_DERATE;
                    }
                }
            }
        }

        let len = cols * rows;
        RoutingGrid {
            cols,
            rows,
            gcell_w,
            gcell_h,
            cap_h,
            cap_v,
            demand_h: [vec![0.0; len], vec![0.0; len]],
            demand_v: [vec![0.0; len], vec![0.0; len]],
            history: [vec![0.0; len], vec![0.0; len]],
        }
    }

    /// GCell containing a point (clamped to the grid).
    #[must_use]
    pub fn gcell_at(&self, p: Point) -> GCell {
        GCell {
            x: ((p.x / self.gcell_w).clamp(0, self.cols as i64 - 1)) as u16,
            y: ((p.y / self.gcell_h).clamp(0, self.rows as i64 - 1)) as u16,
        }
    }

    /// Center point of a GCell, nm.
    #[must_use]
    pub fn center(&self, g: GCell) -> Point {
        Point::new(
            g.x as i64 * self.gcell_w + self.gcell_w / 2,
            g.y as i64 * self.gcell_h + self.gcell_h / 2,
        )
    }

    fn index(&self, g: GCell) -> usize {
        g.y as usize * self.cols + g.x as usize
    }

    fn side_index(side: Side) -> usize {
        match side {
            Side::Front => 0,
            Side::Back => 1,
        }
    }

    /// Adds pin-access demand at a pin location on a side.
    pub fn add_pin(&mut self, side: Side, at: Point) {
        let g = self.gcell_at(at);
        let i = self.index(g);
        let s = Self::side_index(side);
        self.demand_h[s][i] += PIN_ACCESS_DEMAND / 2.0;
        self.demand_v[s][i] += PIN_ACCESS_DEMAND / 2.0;
    }

    /// Adds a fixed blockage demand of `tracks` (split across both
    /// directions) at a location — intra-cell obstructions such as the
    /// CFET supervia stacks.
    pub fn add_blockage(&mut self, side: Side, at: Point, tracks: f64) {
        let g = self.gcell_at(at);
        let i = self.index(g);
        let s = Self::side_index(side);
        self.demand_h[s][i] += tracks / 2.0;
        self.demand_v[s][i] += tracks / 2.0;
    }

    /// Adds (or with `amount < 0` removes) routing demand for one step
    /// through GCell `g` in direction `axis`.
    pub fn add_demand(&mut self, side: Side, g: GCell, axis: Axis, amount: f64) {
        let i = self.index(g);
        let s = Self::side_index(side);
        match axis {
            Axis::Horizontal => self.demand_h[s][i] += amount,
            Axis::Vertical => self.demand_v[s][i] += amount,
        }
    }

    /// Present congestion cost of taking a step through `g` on `axis`:
    /// grows super-linearly once demand approaches capacity.
    #[must_use]
    pub fn step_cost(&self, side: Side, g: GCell, axis: Axis) -> f64 {
        let i = self.index(g);
        let s = Self::side_index(side);
        let (demand, cap) = match axis {
            Axis::Horizontal => (self.demand_h[s][i], self.cap_h[s]),
            Axis::Vertical => (self.demand_v[s][i], self.cap_v[s]),
        };
        if cap <= 0.0 {
            return 1.0e6; // side has no layers in this direction
        }
        let u = demand / cap;
        let penalty = if u < 0.6 {
            0.0
        } else {
            (u - 0.6) * (u - 0.6) * 25.0
        };
        1.0 + crate::calib::CONGESTION_WEIGHT * penalty + self.history[s][i]
    }

    /// Accumulated cost of a straight run of GCells from `from` to `to`
    /// (inclusive) stepping along `axis`, continued from `acc`.
    ///
    /// This is the incremental-candidate-costing kernel: it reproduces, term
    /// by term and in the same order, the sum the pattern router used to
    /// compute by materializing the run as a `Vec<GCell>` and folding
    /// `0.5 * (step_cost(a) + step_cost(b))` over adjacent pairs. Threading
    /// `acc` through consecutive runs of one candidate (instead of summing
    /// each run separately) keeps the floating-point rounding sequence —
    /// and therefore every candidate comparison — bit-identical to the
    /// materializing implementation.
    ///
    /// `from` and `to` must share a row (`axis == Horizontal`) or column
    /// (`axis == Vertical`); a degenerate run (`from == to`) contributes
    /// nothing.
    #[must_use]
    pub fn run_cost(&self, side: Side, from: GCell, to: GCell, axis: Axis, acc: f64) -> f64 {
        let mut acc = acc;
        let mut prev_cost = self.step_cost(side, from, axis);
        let (mut x, mut y) = (from.x, from.y);
        while (x, y) != (to.x, to.y) {
            match axis {
                Axis::Horizontal => x = if to.x > x { x + 1 } else { x - 1 },
                Axis::Vertical => y = if to.y > y { y + 1 } else { y - 1 },
            }
            let cost = self.step_cost(side, GCell { x, y }, axis);
            acc += 0.5 * (prev_cost + cost);
            prev_cost = cost;
        }
        acc
    }

    /// Overflow of a single GCell/direction (tracks over capacity).
    fn overflow_at(&self, s: usize, i: usize) -> f64 {
        let oh = (self.demand_h[s][i] - self.cap_h[s]).max(0.0);
        let ov = (self.demand_v[s][i] - self.cap_v[s]).max(0.0);
        oh + ov
    }

    /// Total overflow in tracks (the DRV proxy: every track over capacity
    /// somewhere is a short the detailed router could not fix).
    #[must_use]
    pub fn total_overflow(&self) -> f64 {
        let mut total = 0.0;
        for s in 0..2 {
            for i in 0..self.cols * self.rows {
                total += self.overflow_at(s, i);
            }
        }
        total
    }

    /// Overflow decomposed by wafer side and routing axis:
    /// `[side][axis]` with side 0 = front / 1 = back and axis 0 =
    /// horizontal / 1 = vertical, in tracks. Sums to
    /// [`Self::total_overflow`]. The per-side split is the paper's "which
    /// wafer side ran out of resource" diagnostic; the axis split
    /// distinguishes track exhaustion from via-access pressure.
    #[must_use]
    pub fn overflow_breakdown(&self) -> [[f64; 2]; 2] {
        let mut out = [[0.0; 2]; 2];
        for (s, side_out) in out.iter_mut().enumerate() {
            for i in 0..self.cols * self.rows {
                side_out[0] += (self.demand_h[s][i] - self.cap_h[s]).max(0.0);
                side_out[1] += (self.demand_v[s][i] - self.cap_v[s]).max(0.0);
            }
        }
        out
    }

    /// Whether GCell `g` is overflowed on `side` in any direction.
    #[must_use]
    pub fn is_overflowed(&self, side: Side, g: GCell) -> bool {
        let i = self.index(g);
        self.overflow_at(Self::side_index(side), i) > 0.0
    }

    /// Bumps congestion history on overflowed GCells (negotiated
    /// congestion: overuse gets progressively more expensive).
    pub fn update_history(&mut self) {
        for s in 0..2 {
            for i in 0..self.cols * self.rows {
                if self.overflow_at(s, i) > 0.0 {
                    self.history[s][i] += crate::calib::HISTORY_WEIGHT;
                }
            }
        }
    }

    /// [`update_history`](Self::update_history) fused with dirty-set
    /// collection: bumps the history cost of every overflowed GCell *and*
    /// appends each one to `out` as `(side_index, cell_index)` — side-major,
    /// ascending cell index, so the order is deterministic. One grid scan
    /// serves both the pricing update and the rip-up round's dirty set.
    /// `out` is not cleared.
    pub fn update_history_collect(&mut self, out: &mut Vec<(u8, u32)>) {
        for s in 0..2 {
            for i in 0..self.cols * self.rows {
                if self.overflow_at(s, i) > 0.0 {
                    self.history[s][i] += crate::calib::HISTORY_WEIGHT;
                    out.push((s as u8, i as u32));
                }
            }
        }
    }

    /// Top `k` overflowed GCells as `(x, y, side, h_demand, v_demand)`,
    /// worst first — congestion debugging/reporting.
    #[must_use]
    pub fn worst_gcells(&self, k: usize) -> Vec<HotGcell> {
        let mut all: Vec<(f64, HotGcell)> = Vec::new();
        for (s, side) in Side::BOTH.iter().enumerate() {
            for i in 0..self.cols * self.rows {
                let o = self.overflow_at(s, i);
                if o > 0.0 {
                    all.push((
                        o,
                        (
                            (i % self.cols) as u16,
                            (i / self.cols) as u16,
                            *side,
                            self.demand_h[s][i],
                            self.demand_v[s][i],
                        ),
                    ));
                }
            }
        }
        all.sort_by(|a, b| b.0.total_cmp(&a.0));
        all.into_iter().take(k).map(|(_, t)| t).collect()
    }

    /// Maximum demand/capacity ratio over the whole grid (reporting).
    #[must_use]
    pub fn peak_congestion(&self) -> f64 {
        let mut peak: f64 = 0.0;
        for s in 0..2 {
            for i in 0..self.cols * self.rows {
                if self.cap_h[s] > 0.0 {
                    peak = peak.max(self.demand_h[s][i] / self.cap_h[s]);
                }
                if self.cap_v[s] > 0.0 {
                    peak = peak.max(self.demand_v[s][i] / self.cap_v[s]);
                }
            }
        }
        peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffet_tech::Technology;

    fn grid(pattern: (u8, u8)) -> RoutingGrid {
        let tech = Technology::ffet_3p5t();
        RoutingGrid::new(
            &tech,
            Rect::new(0, 0, 40_000, 33_600),
            RoutingPattern::new(pattern.0, pattern.1).unwrap(),
        )
    }

    #[test]
    fn symmetric_pattern_gives_symmetric_capacity() {
        let g = grid((12, 12));
        assert_eq!(g.cap_h[0], g.cap_h[1]);
        assert_eq!(g.cap_v[0], g.cap_v[1]);
        assert!(g.cap_h[0] > 10.0);
    }

    #[test]
    fn fewer_layers_less_capacity() {
        let full = grid((12, 12));
        let half = grid((6, 6));
        let single = grid((12, 0));
        assert!(half.cap_h[0] < full.cap_h[0]);
        assert_eq!(single.cap_h[1], 0.0);
        assert_eq!(single.cap_v[1], 0.0);
        assert_eq!(single.cap_h[0], full.cap_h[0]);
    }

    #[test]
    fn demand_and_overflow_accounting() {
        let mut g = grid((12, 12));
        let cell = GCell { x: 0, y: 0 };
        assert_eq!(g.total_overflow(), 0.0);
        let cap = g.cap_h[0];
        g.add_demand(Side::Front, cell, Axis::Horizontal, cap + 3.0);
        assert!((g.total_overflow() - 3.0).abs() < 1e-9);
        assert!(g.is_overflowed(Side::Front, cell));
        assert!(!g.is_overflowed(Side::Back, cell));
        g.add_demand(Side::Front, cell, Axis::Horizontal, -(cap + 3.0));
        assert_eq!(g.total_overflow(), 0.0);
    }

    #[test]
    fn congested_steps_cost_more() {
        let mut g = grid((12, 12));
        let cell = GCell { x: 1, y: 1 };
        let before = g.step_cost(Side::Front, cell, Axis::Horizontal);
        g.add_demand(Side::Front, cell, Axis::Horizontal, g.cap_h[0] * 1.1);
        let after = g.step_cost(Side::Front, cell, Axis::Horizontal);
        assert!(after > before);
    }

    #[test]
    fn missing_direction_is_prohibitive() {
        let g = grid((12, 0));
        let cell = GCell { x: 0, y: 0 };
        assert!(g.step_cost(Side::Back, cell, Axis::Horizontal) > 1e5);
    }

    #[test]
    fn gcell_lookup_clamps() {
        let g = grid((12, 12));
        let far = g.gcell_at(Point::new(1_000_000, -50));
        assert_eq!(far.x as usize, g.cols - 1);
        assert_eq!(far.y, 0);
    }
}
