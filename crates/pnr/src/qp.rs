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
        QpNets { nets }
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

/// Reusable B2B quadratic-program solver for both placement axes.
///
/// Every buffer lives across the solves of one `place` call, so a
/// warmed-up solver assembles and solves without allocating. Results are
/// bit-identical to assembling an adjacency-list system per axis and
/// running one Jacobi-CG loop after the other (DESIGN §15): every row
/// keeps its insertion order and one accumulator chain, every reduction
/// is the same sequential fold, and the two axes' systems share no data,
/// so interleaving their passes reorders nothing within either.
#[derive(Debug, Default)]
pub struct QpSolver {
    axes: [AxisSystem; 2],
}

impl QpSolver {
    /// One outer iteration's solves: assembles each axis' B2B system from
    /// the current coordinates, plus per-cell anchors of weight
    /// `anchor_w` (`fixed_mask` cells are pinned where they are instead),
    /// and runs both CG loops in lockstep, warm-started from and updating
    /// `x` and `y`. Each axis keeps its own exits and iteration cap.
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
        let [sx, sy] = &mut self.axes;
        sx.assemble(nets, Axis::Horizontal, x, anchor_x, anchor_w, fixed_mask);
        sy.assemble(nets, Axis::Vertical, y, anchor_y, anchor_w, fixed_mask);
        let mut lanes = [Lane::start(sx, x), Lane::start(sy, y)];
        for it in 0..CG_ITERATIONS {
            for lane in &mut lanes {
                if lane.exit.is_none() && lane.rz.abs() < 1e-9 {
                    lane.exit = Some(CgExit::Converged(it));
                }
            }
            if lanes.iter().all(|l| l.exit.is_some()) {
                break;
            }
            for lane in lanes.iter_mut().filter(|l| l.exit.is_none()) {
                lane.matrix.matvec(lane.diag, lane.p, lane.ap);
            }
            fused(&mut lanes, dot_p_ap::<2>, dot_p_ap::<1>);
            for lane in &mut lanes {
                if lane.exit.is_none() && lane.pap.abs() < 1e-12 {
                    lane.exit = Some(CgExit::Degenerate(it));
                }
            }
            fused(&mut lanes, advance::<2>, advance::<1>);
            for lane in lanes.iter_mut().filter(|l| l.exit.is_none()) {
                for (p, z) in lane.p.iter_mut().zip(&*lane.z) {
                    *p = z + lane.beta * *p;
                }
            }
        }
        lanes.map(|l| l.exit.unwrap_or(CgExit::Capped))
    }
}

/// One axis' system `A·x = rhs` and its CG vectors.
#[derive(Debug, Default)]
struct AxisSystem {
    diag: Vec<f64>,
    rhs: Vec<f64>,
    /// B2B edges `(a, b, w)` in assembly order: entries `-w` at `(a, b)`
    /// and `(b, a)`.
    edges: Vec<(u32, u32, f64)>,
    /// Assembly scratch: the current net's pin coordinates.
    pin_at: Vec<f64>,
    matrix: GroupedCsr,
    minv: Vec<f64>,
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
}

impl AxisSystem {
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
        let AxisSystem {
            diag,
            rhs,
            edges,
            pin_at,
            matrix,
            ..
        } = self;
        diag.clear();
        diag.resize(n, 0.0);
        rhs.clear();
        rhs.resize(n, 0.0);
        edges.clear();
        for pins in &nets.nets {
            pin_at.clear();
            pin_at.extend(pins.iter().map(|p| match (p, axis) {
                (QpPin::Cell(i), _) => coords[*i as usize],
                (QpPin::Fixed(pt), Axis::Horizontal) => pt.x as f64,
                (QpPin::Fixed(pt), Axis::Vertical) => pt.y as f64,
            }));
            // Locate extreme pins under the current coordinates.
            let (mut lo, mut hi) = (0usize, 0usize);
            for (k, &at) in pin_at.iter().enumerate() {
                if at < pin_at[lo] {
                    lo = k;
                }
                if at > pin_at[hi] {
                    hi = k;
                }
            }
            let k = pins.len();
            let base = 2.0 / (k as f64 - 1.0);
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
                            edges.push((i, j, w));
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
            for m in 0..k {
                connect(lo, m);
                if m != lo {
                    connect(hi, m);
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
        matrix.build(n, edges);
    }
}

/// The off-diagonal half-edges of a symmetric system in CSR form, with
/// rows grouped by entry count so that equal-length rows can be walked
/// four at a time (90% of RV32 rows have 2–9 entries).
#[derive(Debug, Default)]
struct GroupedCsr {
    /// Row indices ordered by entry count, ascending within a count.
    rows: Vec<u32>,
    /// Runs of equal-length rows: (entries per row, end of the run in
    /// `rows`).
    groups: Vec<(usize, usize)>,
    /// Column and weight of each half-edge, row after row in `rows`
    /// order, each row's entries in insertion order. Weight `w` is the
    /// matrix entry `-w`.
    cols: Vec<u32>,
    vals: Vec<f64>,
    /// Build scratch: entries per row, then each row's next free slot.
    slot: Vec<usize>,
    /// Build scratch: rows per entry count, then each count's next row.
    bucket: Vec<usize>,
}

impl GroupedCsr {
    /// Stably buckets the half-edges of `edges` (both directions of each,
    /// in edge order) into rows grouped by length.
    fn build(&mut self, n: usize, edges: &[(u32, u32, f64)]) {
        let GroupedCsr {
            rows,
            groups,
            cols,
            vals,
            slot,
            bucket,
        } = self;
        slot.clear();
        slot.resize(n, 0);
        for &(a, b, _) in edges {
            slot[a as usize] += 1;
            slot[b as usize] += 1;
        }
        // Counting sort of the rows by length, stable in row index.
        bucket.clear();
        bucket.resize(slot.iter().copied().max().unwrap_or(0) + 1, 0);
        for &len in slot.iter() {
            bucket[len] += 1;
        }
        groups.clear();
        let mut end = 0;
        for (len, count) in bucket.iter_mut().enumerate() {
            let first = end;
            end += *count;
            if end > first {
                groups.push((len, end));
            }
            *count = first;
        }
        rows.clear();
        rows.resize(n, 0);
        for (r, &len) in slot.iter().enumerate() {
            rows[bucket[len]] = r as u32;
            bucket[len] += 1;
        }
        let mut next = 0;
        for &r in rows.iter() {
            let len = slot[r as usize];
            slot[r as usize] = next;
            next += len;
        }
        cols.clear();
        cols.resize(next, 0);
        vals.clear();
        vals.resize(next, 0.0);
        for &(a, b, w) in edges {
            for (row, col) in [(a, b), (b, a)] {
                let at = &mut slot[row as usize];
                cols[*at] = col;
                vals[*at] = w;
                *at += 1;
            }
        }
    }

    /// `out = diag∘v − W·v`. Each row is one accumulator that starts at
    /// `diag[i]·v[i]` and subtracts its entries in insertion order; four
    /// equal-length rows advance together so that their four dependency
    /// chains overlap.
    fn matvec(&self, diag: &[f64], v: &[f64], out: &mut [f64]) {
        let (mut first, mut e) = (0, 0);
        for &(len, end) in &self.groups {
            let rows = &self.rows[first..end];
            let (cols, vals) = (
                &self.cols[e..e + rows.len() * len],
                &self.vals[e..e + rows.len() * len],
            );
            (first, e) = (end, e + rows.len() * len);
            if len == 0 {
                for &i in rows {
                    out[i as usize] = diag[i as usize] * v[i as usize];
                }
                continue;
            }
            let mut quads = rows.chunks_exact(4);
            for ((quad, c), w) in (&mut quads)
                .zip(cols.chunks_exact(4 * len))
                .zip(vals.chunks_exact(4 * len))
            {
                let rows = [0, 1, 2, 3].map(|k| quad[k] as usize);
                let (c0, c) = c.split_at(len);
                let (c1, c) = c.split_at(len);
                let (c2, c3) = c.split_at(len);
                let (w0, w) = w.split_at(len);
                let (w1, w) = w.split_at(len);
                let (w2, w3) = w.split_at(len);
                let [mut a0, mut a1, mut a2, mut a3] = rows.map(|i| diag[i] * v[i]);
                for t in 0..len {
                    a0 -= w0[t] * v[c0[t] as usize];
                    a1 -= w1[t] * v[c1[t] as usize];
                    a2 -= w2[t] * v[c2[t] as usize];
                    a3 -= w3[t] * v[c3[t] as usize];
                }
                for (i, a) in rows.into_iter().zip([a0, a1, a2, a3]) {
                    out[i] = a;
                }
            }
            let rest = quads.remainder();
            let tail = cols.len() - rest.len() * len;
            for ((&i, c), w) in rest
                .iter()
                .zip(cols[tail..].chunks_exact(len))
                .zip(vals[tail..].chunks_exact(len))
            {
                let i = i as usize;
                let mut acc = diag[i] * v[i];
                for (&c, &w) in c.iter().zip(w) {
                    acc -= w * v[c as usize];
                }
                out[i] = acc;
            }
        }
    }
}

/// One axis' CG loop during [`QpSolver::solve`]: its system, its vectors
/// and its scalars.
struct Lane<'a> {
    matrix: &'a GroupedCsr,
    diag: &'a [f64],
    minv: &'a [f64],
    x: &'a mut [f64],
    r: &'a mut [f64],
    z: &'a mut [f64],
    p: &'a mut [f64],
    ap: &'a mut [f64],
    /// `r·z` of the current residual.
    rz: f64,
    /// `p·Ap` of the current direction.
    pap: f64,
    /// `β` of the next direction.
    beta: f64,
    exit: Option<CgExit>,
}

impl<'a> Lane<'a> {
    /// Residual `r = rhs − A·x`, Jacobi preconditioner, `z = p = M⁻¹r`.
    fn start(sys: &'a mut AxisSystem, x: &'a mut [f64]) -> Lane<'a> {
        let n = x.len();
        let AxisSystem {
            diag,
            rhs,
            matrix,
            minv,
            r,
            z,
            p,
            ap,
            ..
        } = sys;
        for v in [&mut *minv, &mut *r, &mut *z, &mut *p, &mut *ap] {
            v.resize(n, 0.0);
        }
        matrix.matvec(diag, x, r);
        let mut rz = -0.0;
        for i in 0..n {
            r[i] = rhs[i] - r[i];
            minv[i] = 1.0 / diag[i].max(1e-12);
            z[i] = r[i] * minv[i];
            p[i] = z[i];
            rz += r[i] * z[i];
        }
        Lane {
            matrix,
            diag,
            minv,
            x,
            r,
            z,
            p,
            ap,
            rz,
            pap: 0.0,
            beta: 0.0,
            exit: None,
        }
    }
}

/// Runs a fused pass over the lanes still iterating: both at once while
/// both are live, the survivor alone once the other has exited.
fn fused(lanes: &mut [Lane<'_>; 2], both: fn(&mut [Lane<'_>; 2]), one: fn(&mut [Lane<'_>; 1])) {
    match (lanes[0].exit.is_none(), lanes[1].exit.is_none()) {
        (true, true) => both(lanes),
        (true, false) => one(std::array::from_mut(&mut lanes[0])),
        (false, true) => one(std::array::from_mut(&mut lanes[1])),
        (false, false) => {}
    }
}

/// `p·Ap` of each lane, each a sequential fold from `-0.0` in index order
/// (as `f64: Sum` folds); the lanes' chains interleave in one pass.
fn dot_p_ap<const N: usize>(lanes: &mut [Lane<'_>; N]) {
    let n = lanes[0].x.len();
    let p = lanes.each_ref().map(|l| &l.p[..n]);
    let ap = lanes.each_ref().map(|l| &l.ap[..n]);
    let mut acc = [-0.0f64; N];
    for i in 0..n {
        for k in 0..N {
            acc[k] += p[k][i] * ap[k][i];
        }
    }
    for (l, a) in lanes.iter_mut().zip(acc) {
        l.pap = a;
    }
}

/// `x += α·p`, `r −= α·Ap`, `z = M⁻¹r` and the new `r·z` (a sequential
/// fold per lane, interleaved as in [`dot_p_ap`]), then `β`.
fn advance<const N: usize>(lanes: &mut [Lane<'_>; N]) {
    let n = lanes[0].x.len();
    let alpha = lanes.each_ref().map(|l| l.rz / l.pap);
    let mut v = lanes.each_mut().map(|l| {
        (
            &mut l.x[..n],
            &mut l.r[..n],
            &mut l.z[..n],
            &l.p[..n],
            &l.ap[..n],
            &l.minv[..n],
        )
    });
    let mut rz = [-0.0f64; N];
    for i in 0..n {
        for k in 0..N {
            let (x, r, z, p, ap, minv) = &mut v[k];
            x[i] += alpha[k] * p[i];
            let ri = r[i] - alpha[k] * ap[i];
            let zi = ri * minv[i];
            r[i] = ri;
            z[i] = zi;
            rz[k] += ri * zi;
        }
    }
    for (l, rz_new) in lanes.iter_mut().zip(rz) {
        l.beta = rz_new / l.rz;
        l.rz = rz_new;
    }
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

    /// Seeded nets over `n` cells: mostly 2–5 pins, some up to 20 and a
    /// few high-fanout nets (so row lengths span many groups), with
    /// repeated cells and port pins mixed in.
    fn random_nets(rng: &mut Rng64, n: usize, count: usize) -> QpNets {
        let nets = (0..count)
            .map(|_| {
                let k = match rng.range_usize(0, 20) {
                    0 => rng.range_usize(30, 90),
                    1..=4 => rng.range_usize(6, 21),
                    _ => rng.range_usize(2, 6),
                };
                let mut pins: Vec<QpPin> = (0..k)
                    .map(|_| QpPin::Cell(rng.range_usize(0, n) as u32))
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
        QpNets { nets }
    }

    fn random_coords(rng: &mut Rng64, n: usize, span: i64) -> Vec<f64> {
        (0..n).map(|_| rng.range_i64(0, span) as f64).collect()
    }

    #[test]
    fn solver_is_bit_identical_to_reference_on_random_nets() {
        let mut exits = Vec::new();
        for seed in 1..=3u64 {
            let mut rng = Rng64::new(seed);
            let n = 400;
            let nets = random_nets(&mut rng, n, 520);
            let x = random_coords(&mut rng, n, 20_000);
            let y = random_coords(&mut rng, n, 15_000);
            let ax = random_coords(&mut rng, n, 20_000);
            let ay = random_coords(&mut rng, n, 15_000);
            let fixed: Vec<bool> = (0..n).map(|_| rng.range_usize(0, 30) == 0).collect();
            let mut solver = QpSolver::default();
            exits.extend(assert_matches_reference(
                &mut solver,
                &nets,
                (&x, &y),
                (&ax, &ay),
                1e-5,
                &fixed,
                12,
            ));
            // Quads and single-row tails over many row lengths.
            let groups = &solver.axes[0].matrix.groups;
            assert!(groups.len() > 20 && groups.last().is_some_and(|&(len, _)| len > 30));
        }
        // The lockstep loop must have run with the axes stopping at
        // different iterations, both after real work.
        assert!(
            exits.iter().any(|e| matches!(
                e,
                [CgExit::Converged(a), CgExit::Converged(b)] if a != b && *a > 0 && *b > 0
            )),
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
        let nets = QpNets { nets };
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
        let nets = QpNets { nets };
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
