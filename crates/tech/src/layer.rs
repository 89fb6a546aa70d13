use ffet_geom::{Axis, Nm};

/// Which side of the wafer a layer or pin is on.
///
/// The FFET process flips the wafer, producing an (almost) symmetric BEOL on
/// both sides; the CFET baseline only has a thin backside stack for power.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Side {
    /// Frontside of the wafer (conventional BEOL).
    Front,
    /// Backside of the wafer.
    Back,
}

impl Side {
    /// The opposite wafer side.
    #[must_use]
    pub fn opposite(self) -> Side {
        match self {
            Side::Front => Side::Back,
            Side::Back => Side::Front,
        }
    }

    /// Metal-name prefix used in LEF/DEF output: `F` or `B`.
    #[must_use]
    pub fn prefix(self) -> &'static str {
        match self {
            Side::Front => "F",
            Side::Back => "B",
        }
    }

    /// Both sides, front first.
    pub const BOTH: [Side; 2] = [Side::Front, Side::Back];
}

impl std::fmt::Display for Side {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Side::Front => f.write_str("front"),
            Side::Back => f.write_str("back"),
        }
    }
}

/// Identifies a metal layer by wafer side and index (`FM3` = front, 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LayerId {
    /// Wafer side the layer is on.
    pub side: Side,
    /// Metal index: 0 is the cell-level M0, 12 the topmost metal.
    pub index: u8,
}

impl LayerId {
    /// Creates a layer id.
    #[must_use]
    pub const fn new(side: Side, index: u8) -> LayerId {
        LayerId { side, index }
    }

    /// Canonical name, e.g. `FM2` or `BM11`.
    #[must_use]
    pub fn name(&self) -> String {
        format!("{}M{}", self.side.prefix(), self.index)
    }

    /// Preferred routing direction: metal indices alternate, with M0
    /// horizontal (running along the cell), M1 vertical, M2 horizontal…
    /// The tight-pitch even layers (M2 = 30 nm) carry the horizontal
    /// traffic that row-based blocks are heavy in.
    ///
    /// Both wafer sides use the same parity so that the merged dual-sided
    /// stack remains consistent for extraction.
    #[must_use]
    pub fn axis(&self) -> Axis {
        if self.index.is_multiple_of(2) {
            Axis::Horizontal
        } else {
            Axis::Vertical
        }
    }
}

impl std::fmt::Display for LayerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}M{}", self.side.prefix(), self.index)
    }
}

/// What a layer may legally carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerPurpose {
    /// Intra-cell routing only (FM0/BM0); never used by the inter-cell
    /// router, matching the paper's definition of "routing layers".
    IntraCell,
    /// Inter-cell signal routing (and PDN on the topmost layers).
    Signal,
    /// Power delivery only — CFET's BM1/BM2 carry the backside PDN and are
    /// not available for signals.
    PowerOnly,
}

/// Per-unit-length RC coefficients of a metal layer.
///
/// Derived from the layer pitch with a conventional scaling model: wire
/// resistance grows quadratically as the pitch shrinks (width and thickness
/// both scale with pitch), while capacitance per length is mostly geometric
/// with a coupling term that grows at tight pitch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RcCoefficients {
    /// Resistance in ohm per nanometre of wire.
    pub r_ohm_per_nm: f64,
    /// Capacitance in femtofarad per nanometre of wire.
    pub c_ff_per_nm: f64,
}

impl RcCoefficients {
    /// Derives coefficients from a layer pitch in nanometres.
    ///
    /// Calibrated so a 30 nm-pitch layer (M2 class) is ≈1 Ω/nm and
    /// ≈0.2 fF/µm, in the range published for 5 nm-class BEOL.
    #[must_use]
    pub fn from_pitch(pitch: Nm) -> RcCoefficients {
        let p = pitch as f64;
        let half = p / 2.0; // drawn wire width ≈ half pitch
        RcCoefficients {
            r_ohm_per_nm: 225.0 / (half * half),
            c_ff_per_nm: 1.3e-4 + 2.1e-3 / p,
        }
    }
}

/// A single metal layer of the stack: identity, pitch, purpose and RC.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Layer identity (side + metal index).
    pub id: LayerId,
    /// Track pitch in nanometres (Table II).
    pub pitch: Nm,
    /// What the layer may carry.
    pub purpose: LayerPurpose,
    /// Per-length RC coefficients.
    pub rc: RcCoefficients,
}

impl Layer {
    /// Creates a layer, deriving RC coefficients from the pitch.
    #[must_use]
    pub fn new(id: LayerId, pitch: Nm, purpose: LayerPurpose) -> Layer {
        Layer {
            id,
            pitch,
            purpose,
            rc: RcCoefficients::from_pitch(pitch),
        }
    }

    /// Whether the inter-cell signal router may use this layer.
    #[must_use]
    pub fn is_signal_routable(&self) -> bool {
        self.purpose == LayerPurpose::Signal
    }
}

/// Resistance of a single inter-layer via cut, in ohms.
///
/// One value is used for all standard via cuts; the nTSV that connects the
/// CFET buried power rail to the backside PDN is modelled separately in the
/// power network.
pub const VIA_RESISTANCE_OHM: f64 = 18.0;

/// Capacitance contributed by one via cut, in femtofarads.
pub const VIA_CAPACITANCE_FF: f64 = 0.015;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_names() {
        assert_eq!(LayerId::new(Side::Front, 0).name(), "FM0");
        assert_eq!(LayerId::new(Side::Back, 11).name(), "BM11");
    }

    #[test]
    fn axes_alternate_with_index() {
        assert_eq!(LayerId::new(Side::Front, 0).axis(), Axis::Horizontal);
        assert_eq!(LayerId::new(Side::Front, 1).axis(), Axis::Vertical);
        assert_eq!(LayerId::new(Side::Back, 2).axis(), Axis::Horizontal);
    }

    #[test]
    fn tighter_pitch_means_higher_resistance() {
        let tight = RcCoefficients::from_pitch(30);
        let loose = RcCoefficients::from_pitch(720);
        assert!(tight.r_ohm_per_nm > loose.r_ohm_per_nm * 100.0);
        assert!(tight.c_ff_per_nm > loose.c_ff_per_nm);
    }

    #[test]
    fn m2_class_rc_in_expected_range() {
        let rc = RcCoefficients::from_pitch(30);
        assert!(
            (0.5..2.0).contains(&rc.r_ohm_per_nm),
            "r = {}",
            rc.r_ohm_per_nm
        );
        // 0.2 fF/µm ≈ 2e-4 fF/nm.
        assert!(
            (1.5e-4..3.0e-4).contains(&rc.c_ff_per_nm),
            "c = {}",
            rc.c_ff_per_nm
        );
    }

    #[test]
    fn side_opposite_roundtrip() {
        assert_eq!(Side::Front.opposite().opposite(), Side::Front);
    }
}
