//! SimPL-style quadratic global placement: bound-to-bound (B2B) net model,
//! Jacobi-preconditioned conjugate-gradient solves, and upper-bound anchors
//! from the density-spreading projection.
//!
//! Each outer iteration solves the wirelength-minimal quadratic program
//! (lower bound), computes a spread, density-feasible version of that
//! solution (upper bound), and pulls the next solve toward it with
//! pseudo-net anchors of geometrically increasing weight — the standard
//! SimPL recipe, reduced to the essentials.

use ffet_geom::{Axis, Point};
use ffet_netlist::Netlist;
use std::cmp::Ordering::{Greater, Less};

/// One pin of a QP net: a movable cell or a fixed location (port).
#[derive(Debug, Clone, Copy)]
pub enum QpPin {
    /// Movable cell by instance index.
    Cell(u32),
    /// Fixed coordinate (die-boundary port).
    Fixed(Point),
}

/// The connectivity view the QP solver works on.
#[derive(Debug, Clone, Default)]
pub struct QpNets {
    nets: Vec<Vec<QpPin>>,
    /// Per net: three or more pins, each a distinct movable cell. Such a
    /// net is assembled as a [`Star`] whenever its extreme pins differ.
    star_shaped: Vec<bool>,
}

impl QpNets {
    /// Extracts QP nets from the netlist: every non-clock net with at
    /// least two pins, ports included as fixed pins. High-fanout nets are
    /// kept — the B2B model weights them by `1/(p-1)` so they do not
    /// dominate.
    #[must_use]
    pub fn build(netlist: &Netlist, port_positions: &[Point]) -> QpNets {
        let port_of_net: ffet_geom::FxHashMap<u32, Point> = netlist
            .ports()
            .iter()
            .enumerate()
            .map(|(pi, p)| (p.net.0, port_positions[pi]))
            .collect();
        let mut nets = Vec::new();
        for (ni, net) in netlist.nets().iter().enumerate() {
            if net.is_clock {
                continue;
            }
            let mut pins: Vec<QpPin> = Vec::with_capacity(net.degree() + 1);
            if let Some(d) = net.driver {
                pins.push(QpPin::Cell(d.inst.0));
            }
            for s in &net.sinks {
                pins.push(QpPin::Cell(s.inst.0));
            }
            if let Some(p) = port_of_net.get(&(ni as u32)) {
                pins.push(QpPin::Fixed(*p));
            }
            if pins.len() >= 2 {
                nets.push(pins);
            }
        }
        QpNets::new(nets)
    }

    fn new(nets: Vec<Vec<QpPin>>) -> QpNets {
        let mut cells = Vec::new();
        let star_shaped = nets
            .iter()
            .map(|pins| {
                cells.clear();
                cells.extend(pins.iter().map_while(|p| match p {
                    QpPin::Cell(i) => Some(*i),
                    QpPin::Fixed(_) => None,
                }));
                cells.sort_unstable();
                cells.len() == pins.len()
                    && pins.len() >= 3
                    && cells.windows(2).all(|w| w[0] != w[1])
            })
            .collect();
        QpNets { nets, star_shaped }
    }

    /// Number of QP nets.
    #[allow(dead_code)] // used by tests and diagnostics
    #[must_use]
    pub fn len(&self) -> usize {
        self.nets.len()
    }

    /// Whether there are no nets.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nets.is_empty()
    }
}

/// Jacobi-preconditioned CG iterations per axis solve.
const CG_ITERATIONS: usize = 48;

/// Why one axis' CG loop stopped, with the iterations it had completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CgExit {
    /// The preconditioned residual `r·z` fell below `1e-9`.
    Converged(usize),
    /// The curvature `p·Ap` of the search direction fell below `1e-12`.
    Degenerate(usize),
    /// All [`CG_ITERATIONS`] ran.
    Capped,
}

/// Reusable B2B quadratic-program solver for both placement axes: one
/// axis' system `A·x = rhs` and its CG vectors at a time.
///
/// The buffers serve both axes and live across the solves of one `place`
/// call, so a warmed-up solver assembles and solves without allocating.
/// Results are bit-identical to assembling an adjacency-list system per
/// axis and solving it (DESIGN §15): every row keeps its insertion order
/// and one accumulator chain, and every reduction is the same sequential
/// fold.
#[derive(Debug, Default)]
pub struct QpSolver {
    diag: Vec<f64>,
    rhs: Vec<f64>,
    /// The off-diagonal entries of `A`.
    program: Program,
    /// Assembly scratch: the current net's pin coordinates.
    pin_at: Vec<f64>,
    minv: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
}

impl QpSolver {
    /// One outer iteration's solves: assembles the x and then the y B2B
    /// system from the current coordinates, plus per-cell anchors of
    /// weight `anchor_w` (`fixed_mask` cells are pinned where they are
    /// instead), and solves each by CG, warm-started from and updating `x`
    /// and `y`. An axis' system reads only that axis' coordinates, so
    /// solving x first changes nothing in y's.
    #[allow(clippy::too_many_arguments)]
    pub fn solve(
        &mut self,
        nets: &QpNets,
        x: &mut [f64],
        y: &mut [f64],
        anchor_x: &[f64],
        anchor_y: &[f64],
        anchor_w: f64,
        fixed_mask: &[bool],
    ) -> [CgExit; 2] {
        [
            (Axis::Horizontal, x, anchor_x),
            (Axis::Vertical, y, anchor_y),
        ]
        .map(|(axis, coords, anchors)| {
            self.assemble(nets, axis, coords, anchors, anchor_w, fixed_mask);
            self.cg(coords)
        })
    }

    /// B2B weights derived from `coords` along `axis`, plus per-cell
    /// anchors. `diag` and `rhs` accumulate in net, pin-pair order, then
    /// the anchors in cell order.
    fn assemble(
        &mut self,
        nets: &QpNets,
        axis: Axis,
        coords: &[f64],
        anchors: &[f64],
        anchor_w: f64,
        fixed_mask: &[bool],
    ) {
        let n = coords.len();
        let QpSolver {
            diag,
            rhs,
            program,
            pin_at,
            ..
        } = self;
        diag.clear();
        diag.resize(n, 0.0);
        rhs.clear();
        rhs.resize(n, 0.0);
        program.clear();
        for (net, pins) in nets.nets.iter().enumerate() {
            pin_at.clear();
            pin_at.extend(pins.iter().map(|p| match (p, axis) {
                (QpPin::Cell(i), _) => coords[*i as usize],
                (QpPin::Fixed(pt), Axis::Horizontal) => pt.x as f64,
                (QpPin::Fixed(pt), Axis::Vertical) => pt.y as f64,
            }));
            let k = pins.len();
            let base = 2.0 / (k as f64 - 1.0);
            let shape = Shape::of(nets, net, pin_at);
            let mut connect = |a: usize, b: usize| {
                if a == b {
                    return;
                }
                let len = (pin_at[a] - pin_at[b]).abs().max(50.0);
                let w = base / len;
                match (pins[a], pins[b]) {
                    (QpPin::Cell(i), QpPin::Cell(j)) => {
                        if i != j {
                            diag[i as usize] += w;
                            diag[j as usize] += w;
                            program.edges.push((i, j, w));
                        }
                    }
                    (QpPin::Cell(i), QpPin::Fixed(_)) => {
                        diag[i as usize] += w;
                        rhs[i as usize] += w * pin_at[b];
                    }
                    (QpPin::Fixed(_), QpPin::Cell(i)) => {
                        diag[i as usize] += w;
                        rhs[i as usize] += w * pin_at[a];
                    }
                    (QpPin::Fixed(_), QpPin::Fixed(_)) => {}
                }
            };
            match shape {
                Shape::Star { lo, hi } => program.push_star(pins, pin_at, lo, hi, base, diag),
                // The general loop connects two pins once, or twice when
                // neither lies below the other (its lo == hi, NaN included).
                Shape::TwoPin => {
                    connect(0, 1);
                    if !matches!(pin_at[0].partial_cmp(&pin_at[1]), Some(Less | Greater)) {
                        connect(0, 1);
                    }
                }
                Shape::Plain { lo, hi } => {
                    for m in 0..k {
                        connect(lo, m);
                        if m != lo {
                            connect(hi, m);
                        }
                    }
                }
            }
        }
        for i in 0..n {
            let (pos, w) = if fixed_mask[i] {
                (coords[i], 1e6)
            } else {
                (anchors[i], anchor_w)
            };
            diag[i] += w;
            rhs[i] += w * pos;
        }
    }

    /// Jacobi-preconditioned CG on the assembled system, warm-started from
    /// and updating `x`. `p·Ap` and `r·z` (`z = M⁻¹r`) are sequential
    /// folds from `-0.0` in index order, as `f64: Sum` folds. `Ap` is
    /// primed with `diag∘p` in the pass that sets `p`, for the next
    /// [`Program::subtract`].
    fn cg(&mut self, x: &mut [f64]) -> CgExit {
        let n = x.len();
        let QpSolver {
            diag,
            rhs,
            program,
            minv,
            r,
            p,
            ap,
            ..
        } = self;
        for v in [&mut *minv, &mut *r, &mut *p, &mut *ap] {
            v.resize(n, 0.0);
        }
        let (diag, rhs, minv) = (&diag[..n], &rhs[..n], &mut minv[..n]);
        let (r, p, ap) = (&mut r[..n], &mut p[..n], &mut ap[..n]);
        // r = rhs − A·x, p = z = M⁻¹r.
        for i in 0..n {
            r[i] = diag[i] * x[i];
        }
        program.subtract(x, r);
        let mut rz = -0.0;
        for i in 0..n {
            r[i] = rhs[i] - r[i];
            minv[i] = 1.0 / diag[i].max(1e-12);
            p[i] = r[i] * minv[i];
            ap[i] = diag[i] * p[i];
            rz += r[i] * p[i];
        }
        for it in 0..CG_ITERATIONS {
            if rz.abs() < 1e-9 {
                return CgExit::Converged(it);
            }
            program.subtract(p, ap);
            let mut pap = -0.0;
            for i in 0..n {
                pap += p[i] * ap[i];
            }
            if pap.abs() < 1e-12 {
                return CgExit::Degenerate(it);
            }
            let alpha = rz / pap;
            // r −= α·Ap and the new r·z, with z recomputed from r.
            let mut rz_new = -0.0;
            for i in 0..n {
                let ri = r[i] - alpha * ap[i];
                r[i] = ri;
                rz_new += ri * (ri * minv[i]);
            }
            let beta = rz_new / rz;
            rz = rz_new;
            // x += α·p with the old direction, then p = z + β·p.
            for i in 0..n {
                x[i] += alpha * p[i];
                p[i] = r[i] * minv[i] + beta * p[i];
                ap[i] = diag[i] * p[i];
            }
        }
        CgExit::Capped
    }
}

/// How assembly records one net under the current coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Two pins: one plain edge, or the same edge twice where the pins
    /// coincide.
    TwoPin,
    /// A star-shaped net whose extreme pins `lo` and `hi` differ.
    Star { lo: usize, hi: usize },
    /// Any other net: the B2B edges of the general loop, as plain edges.
    Plain { lo: usize, hi: usize },
}

impl Shape {
    /// The shape of net `net` with pin coordinates `pin_at`. The extreme
    /// pins are the first lowest and the first highest.
    fn of(nets: &QpNets, net: usize, pin_at: &[f64]) -> Shape {
        if pin_at.len() == 2 {
            return Shape::TwoPin;
        }
        let (mut lo, mut hi) = (0usize, 0usize);
        let (mut lo_at, mut hi_at) = (pin_at[0], pin_at[0]);
        for (k, &at) in pin_at.iter().enumerate().skip(1) {
            if at < lo_at {
                (lo, lo_at) = (k, at);
            }
            if at > hi_at {
                (hi, hi_at) = (k, at);
            }
        }
        if nets.star_shaped[net] && lo != hi {
            Shape::Star { lo, hi }
        } else {
            Shape::Plain { lo, hi }
        }
    }
}

/// The off-diagonal part of one axis' system, `−W`, as a net-ordered
/// program for the matvec (DESIGN §15). Row `i` of `W·v` is the sum of
/// its entries in B2B insertion order, and every net's entries follow
/// the previous net's, so a matvec that walks the nets in order keeps
/// each row's accumulator chain.
#[derive(Debug, Default)]
struct Program {
    /// Plain B2B edges `(a, b, w)` in insertion order: entries `w` at
    /// `(a, b)` and `(b, a)`.
    edges: Vec<(u32, u32, f64)>,
    /// Star-shaped nets in net order.
    stars: Vec<Star>,
    /// The member cells of every star, star after star.
    members: Vec<u32>,
    /// Per member, its weights `[w_lo, w_hi]` to its star's `lo` and `hi`
    /// cells.
    member_w: Vec<[f64; 2]>,
}

/// A net of three or more distinct movable cells whose extreme pins
/// differ: the B2B model joins `lo` and `hi` and every other pin to both.
#[derive(Debug)]
struct Star {
    lo: u32,
    hi: u32,
    /// Weight of the `lo`–`hi` edge.
    w: f64,
    /// `edges[..edges_before]` precede the star in net order.
    edges_before: u32,
    /// Its members are `members[start..end]` in pin order, where `start`
    /// is the previous star's `end`; those before `split` precede `hi`'s
    /// pin.
    split: u32,
    end: u32,
}

impl Program {
    fn clear(&mut self) {
        self.edges.clear();
        self.stars.clear();
        self.members.clear();
        self.member_w.clear();
    }

    /// Records a star net and adds its weights to `diag` in the order of
    /// the general B2B loop: for each pin `m` in order, the `lo`–`m`
    /// weight, then the `hi`–`m` one (`hi` itself joins `lo` once).
    fn push_star(
        &mut self,
        pins: &[QpPin],
        pin_at: &[f64],
        lo: usize,
        hi: usize,
        base: f64,
        diag: &mut [f64],
    ) {
        let cell = |k: usize| match pins[k] {
            QpPin::Cell(i) => i,
            QpPin::Fixed(_) => unreachable!("star nets have no fixed pins"),
        };
        let (at_lo, at_hi) = (pin_at[lo], pin_at[hi]);
        let (c_lo, c_hi) = (cell(lo), cell(hi));
        let (mut d_lo, mut d_hi) = (diag[c_lo as usize], diag[c_hi as usize]);
        let (mut w, mut split) = (0.0, self.members.len());
        for (m, &at) in pin_at.iter().enumerate() {
            if m == lo {
                continue;
            }
            if m == hi {
                w = base / (at_lo - at_hi).abs().max(50.0);
                d_lo += w;
                d_hi += w;
                split = self.members.len();
                continue;
            }
            let c = cell(m);
            let w_lo = base / (at_lo - at).abs().max(50.0);
            d_lo += w_lo;
            diag[c as usize] += w_lo;
            let w_hi = base / (at_hi - at).abs().max(50.0);
            d_hi += w_hi;
            diag[c as usize] += w_hi;
            self.members.push(c);
            self.member_w.push([w_lo, w_hi]);
        }
        diag[c_lo as usize] = d_lo;
        diag[c_hi as usize] = d_hi;
        self.stars.push(Star {
            lo: c_lo,
            hi: c_hi,
            w,
            edges_before: self.edges.len() as u32,
            split: split as u32,
            end: self.members.len() as u32,
        });
    }

    /// `out −= W·v`, where `out` holds `diag∘v`: every row is one
    /// accumulator that starts at `diag[i]·v[i]` and subtracts its entries
    /// in insertion order, as the matvec `A·v` does. A star keeps its `lo`
    /// and `hi` rows in registers while it updates each member's row with
    /// its `lo` entry, then its `hi` entry.
    fn subtract(&self, v: &[f64], out: &mut [f64]) {
        // Equal lengths let one bounds check cover `v[c]` and `out[c]`.
        let v = &v[..out.len()];
        let (mut done, mut start) = (0, 0);
        for star in &self.stars {
            let (edges_before, split, end) = (
                star.edges_before as usize,
                star.split as usize,
                star.end as usize,
            );
            subtract_edges(&self.edges[done..edges_before], v, out);
            done = edges_before;
            let (lo, hi) = (star.lo as usize, star.hi as usize);
            let (v_lo, v_hi) = (v[lo], v[hi]);
            let acc = [out[lo], out[hi]];
            let run = |a: usize, b: usize| (&self.members[a..b], &self.member_w[a..b]);
            let acc = subtract_members(run(start, split), v, v_lo, v_hi, acc, out);
            let acc = [acc[0] - star.w * v_hi, acc[1] - star.w * v_lo];
            let [acc_lo, acc_hi] = subtract_members(run(split, end), v, v_lo, v_hi, acc, out);
            out[lo] = acc_lo;
            out[hi] = acc_hi;
            start = end;
        }
        subtract_edges(&self.edges[done..], v, out);
    }
}

/// Subtracts plain edges: each from both of its rows.
#[inline(always)]
fn subtract_edges(edges: &[(u32, u32, f64)], v: &[f64], out: &mut [f64]) {
    for &(a, b, w) in edges {
        let (a, b) = (a as usize, b as usize);
        out[a] -= w * v[b];
        out[b] -= w * v[a];
    }
}

/// Subtracts a run of star members from the star's accumulators
/// `acc = [lo row, hi row]` and from their own rows, `lo` entry first.
#[inline(always)]
fn subtract_members(
    (members, member_w): (&[u32], &[[f64; 2]]),
    v: &[f64],
    v_lo: f64,
    v_hi: f64,
    mut acc: [f64; 2],
    out: &mut [f64],
) -> [f64; 2] {
    for (&c, &[w_lo, w_hi]) in members.iter().zip(member_w) {
        let c = c as usize;
        acc = [acc[0] - w_lo * v[c], acc[1] - w_hi * v[c]];
        let by_hub = [w_lo * v_lo, w_hi * v_hi];
        out[c] = out[c] - by_hub[0] - by_hub[1];
    }
    acc
}

/// The adjacency-list system and per-axis solve that [`QpSolver`]
/// replaced, kept verbatim as the bit-exact oracle of the differential
/// tests.
#[cfg(test)]
mod reference {
    use super::{QpNets, QpPin};
    use ffet_geom::Point;

    /// Sparse symmetric system in adjacency form plus diagonal.
    struct System {
        diag: Vec<f64>,
        /// Off-diagonal entries: per row, (column, weight) with weight > 0
        /// meaning matrix entry `-weight`.
        off: Vec<Vec<(u32, f64)>>,
        rhs: Vec<f64>,
    }

    impl System {
        fn new(n: usize) -> System {
            System {
                diag: vec![0.0; n],
                off: vec![Vec::new(); n],
                rhs: vec![0.0; n],
            }
        }

        fn add_edge(&mut self, a: usize, b: usize, w: f64) {
            self.diag[a] += w;
            self.diag[b] += w;
            self.off[a].push((b as u32, w));
            self.off[b].push((a as u32, w));
        }

        fn add_fixed(&mut self, a: usize, pos: f64, w: f64) {
            self.diag[a] += w;
            self.rhs[a] += w * pos;
        }

        /// Jacobi-preconditioned CG solve, warm-started from `x`.
        fn solve(&self, x: &mut [f64], iterations: usize) {
            let n = x.len();
            let matvec = |v: &[f64], out: &mut [f64]| {
                for i in 0..n {
                    let mut acc = self.diag[i] * v[i];
                    for &(j, w) in &self.off[i] {
                        acc -= w * v[j as usize];
                    }
                    out[i] = acc;
                }
            };
            let mut r = vec![0.0; n];
            matvec(x, &mut r);
            for (ri, rhs) in r.iter_mut().zip(&self.rhs) {
                *ri = rhs - *ri;
            }
            let minv: Vec<f64> = self.diag.iter().map(|&d| 1.0 / d.max(1e-12)).collect();
            let mut z: Vec<f64> = r.iter().zip(&minv).map(|(ri, mi)| ri * mi).collect();
            let mut p = z.clone();
            let mut rz: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
            let mut ap = vec![0.0; n];
            for _ in 0..iterations {
                if rz.abs() < 1e-9 {
                    break;
                }
                matvec(&p, &mut ap);
                let pap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
                if pap.abs() < 1e-12 {
                    break;
                }
                let alpha = rz / pap;
                for i in 0..n {
                    x[i] += alpha * p[i];
                    r[i] -= alpha * ap[i];
                }
                for i in 0..n {
                    z[i] = r[i] * minv[i];
                }
                let rz_new: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
                let beta = rz_new / rz;
                rz = rz_new;
                for i in 0..n {
                    p[i] = z[i] + beta * p[i];
                }
            }
        }
    }

    /// One QP solve along a single axis with B2B weights derived from the
    /// current coordinates, plus per-cell anchors.
    ///
    /// `coords` is updated in place (warm start). `anchors`/`anchor_w` pull
    /// each movable cell toward its density-feasible position.
    pub fn solve_axis(
        nets: &QpNets,
        axis: ffet_geom::Axis,
        coords: &mut [f64],
        anchors: &[f64],
        anchor_w: f64,
        fixed_mask: &[bool],
    ) {
        let n = coords.len();
        let fixed_coord = |pt: &Point| -> f64 {
            match axis {
                ffet_geom::Axis::Horizontal => pt.x as f64,
                ffet_geom::Axis::Vertical => pt.y as f64,
            }
        };
        let mut sys = System::new(n);
        for pins in &nets.nets {
            // Locate extreme pins under the current coordinates.
            let value = |p: &QpPin| -> f64 {
                match p {
                    QpPin::Cell(i) => coords[*i as usize],
                    QpPin::Fixed(pt) => fixed_coord(pt),
                }
            };
            let (mut lo, mut hi) = (0usize, 0usize);
            for (k, p) in pins.iter().enumerate() {
                if value(p) < value(&pins[lo]) {
                    lo = k;
                }
                if value(p) > value(&pins[hi]) {
                    hi = k;
                }
            }
            let k = pins.len();
            let base = 2.0 / (k as f64 - 1.0);
            let mut connect = |a: usize, b: usize| {
                if a == b {
                    return;
                }
                let (pa, pb) = (&pins[a], &pins[b]);
                let len = (value(pa) - value(pb)).abs().max(50.0);
                let w = base / len;
                match (pa, pb) {
                    (QpPin::Cell(i), QpPin::Cell(j)) => {
                        if i != j {
                            sys.add_edge(*i as usize, *j as usize, w);
                        }
                    }
                    (QpPin::Cell(i), QpPin::Fixed(pt)) | (QpPin::Fixed(pt), QpPin::Cell(i)) => {
                        sys.add_fixed(*i as usize, fixed_coord(pt), w);
                    }
                    (QpPin::Fixed(_), QpPin::Fixed(_)) => {}
                }
            };
            for m in 0..k {
                connect(lo, m);
                if m != lo {
                    connect(hi, m);
                }
            }
        }
        for i in 0..n {
            if fixed_mask[i] {
                sys.add_fixed(i, coords[i], 1e6);
            } else {
                sys.add_fixed(i, anchors[i], anchor_w);
            }
        }
        sys.solve(coords, 48);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffet_cells::Library;
    use ffet_geom::Rng64;
    use ffet_netlist::NetlistBuilder;
    use ffet_tech::Technology;

    #[test]
    fn chain_collapses_between_fixed_ends() {
        // x_port(0) - c0 - c1 - c2 - y_port(3000): QP puts cells evenly.
        let lib = Library::new(Technology::ffet_3p5t());
        let mut b = NetlistBuilder::new(&lib, "chain");
        let x = b.input("x");
        let c0 = b.not(x);
        let c1 = b.not(c0);
        let c2 = b.not(c1);
        b.output("y", c2);
        let nl = b.finish();
        let ports = vec![Point::new(0, 0), Point::new(3000, 0)];
        let nets = QpNets::build(&nl, &ports);
        assert_eq!(nets.len(), 4);
        let mut coords = vec![1500.0; 3];
        let mut ys = vec![0.0; 3];
        let anchors = vec![1500.0; 3];
        let fixed = vec![false; 3];
        let mut solver = QpSolver::default();
        for _ in 0..10 {
            solver.solve(
                &nets,
                &mut coords,
                &mut ys,
                &anchors,
                &[0.0; 3],
                1e-9,
                &fixed,
            );
        }
        assert!(coords[0] < coords[1] && coords[1] < coords[2], "{coords:?}");
        assert!((coords[1] - 1500.0).abs() < 200.0, "{coords:?}");
    }

    #[test]
    fn anchors_dominate_when_heavy() {
        let lib = Library::new(Technology::ffet_3p5t());
        let mut b = NetlistBuilder::new(&lib, "pair");
        let x = b.input("x");
        let c0 = b.not(x);
        b.output("y", c0);
        let nl = b.finish();
        let ports = vec![Point::new(0, 0), Point::new(1000, 0)];
        let nets = QpNets::build(&nl, &ports);
        let mut coords = vec![500.0];
        let anchors = vec![9000.0];
        QpSolver::default().solve(
            &nets,
            &mut coords,
            &mut [0.0],
            &anchors,
            &[0.0],
            1e3,
            &[false],
        );
        assert!((coords[0] - 9000.0).abs() < 50.0, "{coords:?}");
    }

    /// Runs `outer` SimPL-style outer iterations through [`QpSolver`] and
    /// through the reference per-axis solves from the same start, with
    /// place's geometric anchor-weight ramp and rank-spread anchors, and
    /// requires every coordinate bit-identical after each iteration.
    /// Returns the solver's exits per iteration.
    fn assert_matches_reference(
        solver: &mut QpSolver,
        nets: &QpNets,
        start: (&[f64], &[f64]),
        anchors: (&[f64], &[f64]),
        anchor_w0: f64,
        fixed: &[bool],
        outer: usize,
    ) -> Vec<[CgExit; 2]> {
        let (mut x, mut y) = (start.0.to_vec(), start.1.to_vec());
        let (mut rx, mut ry) = (x.clone(), y.clone());
        let (mut ax, mut ay) = (anchors.0.to_vec(), anchors.1.to_vec());
        let mut exits = Vec::new();
        for it in 0..outer {
            let w = anchor_w0 * 1.55f64.powi(it as i32);
            exits.push(solver.solve(nets, &mut x, &mut y, &ax, &ay, w, fixed));
            reference::solve_axis(nets, Axis::Horizontal, &mut rx, &ax, w, fixed);
            reference::solve_axis(nets, Axis::Vertical, &mut ry, &ay, w, fixed);
            for (axis, got, want) in [("x", &x, &rx), ("y", &y, &ry)] {
                if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
                    panic!(
                        "outer {it}, {axis}[{i}]: {} vs reference {} (exits {:?})",
                        got[i], want[i], exits[it]
                    );
                }
            }
            // Next anchors: the solution spread evenly by rank per axis,
            // a stand-in for place's row projection.
            for (coords, anchor) in [(&x, &mut ax), (&y, &mut ay)] {
                let mut order: Vec<usize> = (0..coords.len()).collect();
                order.sort_by(|&a, &b| coords[a].total_cmp(&coords[b]));
                for (rank, &i) in order.iter().enumerate() {
                    anchor[i] = 20_000.0 * rank as f64 / coords.len() as f64;
                }
            }
        }
        exits
    }

    /// Rows of [`row_coords`].
    const ROWS: usize = 8;

    /// Seeded nets over `n` cells: mostly 2–5 pins, some up to 20 and a
    /// few high-fanout nets, with repeated cells and port pins mixed in.
    /// One net in ten draws its cells from one row of [`row_coords`].
    fn random_nets(rng: &mut Rng64, n: usize, count: usize) -> QpNets {
        let nets = (0..count)
            .map(|_| {
                let k = match rng.range_usize(0, 20) {
                    0 => rng.range_usize(30, 90),
                    1..=4 => rng.range_usize(6, 21),
                    _ => rng.range_usize(2, 6),
                };
                let row = (rng.range_usize(0, 10) == 0).then(|| rng.range_usize(0, ROWS));
                let mut pins: Vec<QpPin> = (0..k)
                    .map(|_| {
                        let cell = rng.range_usize(0, n);
                        let cell = row.map_or(cell, |r| (cell - cell % ROWS + r) % n);
                        QpPin::Cell(cell as u32)
                    })
                    .collect();
                if rng.range_usize(0, 8) == 0 {
                    pins.push(pins[0]);
                }
                if rng.range_usize(0, 6) == 0 {
                    let port = Point::new(rng.range_i64(0, 20_000), rng.range_i64(0, 15_000));
                    pins.insert(rng.range_usize(0, pins.len()), QpPin::Fixed(port));
                }
                pins
            })
            .collect();
        QpNets::new(nets)
    }

    fn random_coords(rng: &mut Rng64, n: usize, span: i64) -> Vec<f64> {
        (0..n).map(|_| rng.range_i64(0, span) as f64).collect()
    }

    /// Cell `i` on the center line of row `i % ROWS`, as place's initial
    /// fill puts cells on row centers.
    fn row_coords(n: usize) -> Vec<f64> {
        (0..n).map(|i| 135.0 + 270.0 * (i % ROWS) as f64).collect()
    }

    /// How assembly records `nets` along `axis` at `coords`: stars,
    /// two-pin nets, then the other plain nets with a port pin, with a
    /// repeated cell, and with all of three or more pins coincident.
    fn shape_counts(nets: &QpNets, axis: Axis, coords: &[f64]) -> [usize; 5] {
        let mut counts = [0; 5];
        for (net, pins) in nets.nets.iter().enumerate() {
            let pin_at: Vec<f64> = pins
                .iter()
                .map(|p| match (p, axis) {
                    (QpPin::Cell(i), _) => coords[*i as usize],
                    (QpPin::Fixed(pt), Axis::Horizontal) => pt.x as f64,
                    (QpPin::Fixed(pt), Axis::Vertical) => pt.y as f64,
                })
                .collect();
            let mut cells: Vec<u32> = pins
                .iter()
                .filter_map(|p| match p {
                    QpPin::Cell(i) => Some(*i),
                    QpPin::Fixed(_) => None,
                })
                .collect();
            cells.sort_unstable();
            match Shape::of(nets, net, &pin_at) {
                Shape::Star { .. } => counts[0] += 1,
                Shape::TwoPin => counts[1] += 1,
                Shape::Plain { lo, hi } => {
                    counts[2] += usize::from(cells.len() < pins.len());
                    counts[3] += usize::from(cells.windows(2).any(|w| w[0] == w[1]));
                    counts[4] += usize::from(lo == hi);
                }
            }
        }
        counts
    }

    #[test]
    fn solver_is_bit_identical_to_reference_on_random_nets() {
        let mut exits = Vec::new();
        let mut shapes = [0; 5];
        for seed in 1..=3u64 {
            let mut rng = Rng64::new(seed);
            let n = 400;
            let nets = random_nets(&mut rng, n, 520);
            let x = random_coords(&mut rng, n, 20_000);
            let y = row_coords(n);
            let ax = random_coords(&mut rng, n, 20_000);
            let ay = random_coords(&mut rng, n, 15_000);
            let fixed: Vec<bool> = (0..n).map(|_| rng.range_usize(0, 30) == 0).collect();
            exits.extend(assert_matches_reference(
                &mut QpSolver::default(),
                &nets,
                (&x, &y),
                (&ax, &ay),
                1e-5,
                &fixed,
                12,
            ));
            for (axis, start) in [(Axis::Horizontal, &x), (Axis::Vertical, &y)] {
                for (total, count) in shapes.iter_mut().zip(shape_counts(&nets, axis, start)) {
                    *total += count;
                }
            }
        }
        // The first assembly records stars, two-pin nets, and plain nets
        // of each other kind: with a port pin, with a repeated cell, and
        // with three or more pins all coincident (on one row in y).
        assert!(shapes.iter().all(|&c| c > 0), "{shapes:?}");
        // Each axis keeps its own exit: some solve must have stopped its
        // axes at different iterations, both after real work.
        assert!(
            exits.iter().any(|e| matches!(
                e,
                [CgExit::Converged(a), CgExit::Converged(b)] if a != b && *a > 0 && *b > 0
            )),
            "{exits:?}"
        );
    }

    #[test]
    fn coincident_two_pin_nets_connect_twice_while_their_axis_iterates() {
        // A 12-cell chain between ports at (0, 0) and (13000, 10000).
        // Every cell starts at y = 0, so at the first assembly both pins
        // of every net but the last coincide in y, and the B2B loop
        // connects them twice; the far port keeps y iterating.
        let n = 12;
        let mut nets = vec![vec![QpPin::Fixed(Point::new(0, 0)), QpPin::Cell(0)]];
        nets.extend((1..n).map(|i| vec![QpPin::Cell(i as u32 - 1), QpPin::Cell(i as u32)]));
        nets.push(vec![
            QpPin::Cell(n as u32 - 1),
            QpPin::Fixed(Point::new(13_000, 10_000)),
        ]);
        let nets = QpNets::new(nets);
        let x: Vec<f64> = (1..=n).map(|i| 1_000.0 * i as f64).collect();
        let y = vec![0.0; n];
        let exits = assert_matches_reference(
            &mut QpSolver::default(),
            &nets,
            (&x, &y),
            (&x, &y),
            1e-5,
            &vec![false; n],
            3,
        );
        assert!(
            matches!(exits[0][1], CgExit::Converged(it) if it > 0) || exits[0][1] == CgExit::Capped,
            "{exits:?}"
        );
    }

    #[test]
    fn converged_axis_idles_while_the_other_hits_the_cap() {
        // A 200-cell chain between ports at x = 0 and x = 1e6, every cell
        // starting at x = 0: CG moves information one link per iteration,
        // so x runs into the 48-iteration cap. Every y coordinate, anchor
        // and port sits at 500, so y has converged before it starts.
        let n = 200;
        let mut nets = vec![vec![QpPin::Fixed(Point::new(0, 500)), QpPin::Cell(0)]];
        nets.extend((1..n).map(|i| vec![QpPin::Cell(i as u32 - 1), QpPin::Cell(i as u32)]));
        nets.push(vec![
            QpPin::Cell(n as u32 - 1),
            QpPin::Fixed(Point::new(1_000_000, 500)),
        ]);
        let nets = QpNets::new(nets);
        let zeros = vec![0.0; n];
        let level = vec![500.0; n];
        let exits = assert_matches_reference(
            &mut QpSolver::default(),
            &nets,
            (&zeros, &level),
            (&zeros, &level),
            1e-9,
            &vec![false; n],
            1,
        );
        assert_eq!(exits, vec![[CgExit::Capped, CgExit::Converged(0)]]);
    }

    #[test]
    fn degenerate_curvature_exits_one_axis_while_the_other_iterates() {
        // Cell 0 hangs between ports 1e18 nm away on either side in x:
        // their pulls cancel exactly and their weights (2e-18) leave its
        // diagonal below the preconditioner's 1e-12 clamp. A faint anchor
        // 1e10 away gives r·z = 1e-8 but p·Ap = 4e-14, so x stops at the
        // curvature check. In y, cell 0 sits between close ports and a
        // 20-cell chain spans y = 0..10000 from a collapsed start, so y
        // keeps iterating.
        const FAR: i64 = 1_000_000_000_000_000_000;
        let chain = 20u32;
        let mut nets = vec![
            vec![QpPin::Cell(0), QpPin::Fixed(Point::new(-FAR, 4_700))],
            vec![QpPin::Cell(0), QpPin::Fixed(Point::new(FAR, 5_300))],
            vec![QpPin::Fixed(Point::new(0, 0)), QpPin::Cell(1)],
            vec![QpPin::Cell(chain), QpPin::Fixed(Point::new(0, 10_000))],
        ];
        nets.extend((2..=chain).map(|i| vec![QpPin::Cell(i - 1), QpPin::Cell(i)]));
        let nets = QpNets::new(nets);
        let n = chain as usize + 1;
        let x = vec![0.0; n];
        let mut ax = vec![0.0; n];
        ax[0] = 1e10;
        let mut y = vec![0.0; n];
        y[0] = 5_000.0;
        let exits = assert_matches_reference(
            &mut QpSolver::default(),
            &nets,
            (&x, &y),
            (&ax, &y),
            1e-20,
            &vec![false; n],
            1,
        );
        assert_eq!(exits, vec![[CgExit::Degenerate(0), CgExit::Converged(20)]]);
    }
}
