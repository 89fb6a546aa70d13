//! Integer-nanometre geometry primitives for the FFET evaluation framework.
//!
//! All physical coordinates in the framework are expressed in integer
//! nanometres ([`Nm`]). Using integers everywhere keeps geometry exact:
//! placement legality, routing-track alignment and DEF round-trips never
//! accumulate floating-point error.
//!
//! # Example
//!
//! ```
//! use ffet_geom::{Point, Rect};
//!
//! let a = Rect::new(0, 0, 100, 50);
//! let b = Rect::new(60, 10, 160, 90);
//! assert!(a.overlaps(&b));
//! assert_eq!(a.intersection(&b), Some(Rect::new(60, 10, 100, 50)));
//! assert_eq!(Point::new(0, 0).manhattan(Point::new(3, 4)), 7);
//! ```

mod fxhash;
mod point;
mod rect;
mod rng;

pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use point::Point;
pub use rect::Rect;
pub use rng::Rng64;

/// Physical coordinate in nanometres.
pub type Nm = i64;

/// Axis of a wire segment or routing layer.
///
/// Routing layers alternate between horizontal and vertical preferred
/// directions; wire segments in the detailed-routing output are always
/// axis-aligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Axis {
    /// Preferred direction parallel to the x axis.
    Horizontal,
    /// Preferred direction parallel to the y axis.
    Vertical,
}

impl Axis {
    /// The other axis.
    ///
    /// ```
    /// use ffet_geom::Axis;
    /// assert_eq!(Axis::Horizontal.perpendicular(), Axis::Vertical);
    /// ```
    #[must_use]
    pub fn perpendicular(self) -> Axis {
        match self {
            Axis::Horizontal => Axis::Vertical,
            Axis::Vertical => Axis::Horizontal,
        }
    }
}

impl std::fmt::Display for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Axis::Horizontal => f.write_str("H"),
            Axis::Vertical => f.write_str("V"),
        }
    }
}

/// Standard-cell placement orientation (DEF subset).
///
/// Only the orientations produced by row-based legalization are modelled:
/// north and the x-flipped variant used on alternating rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Orientation {
    /// `N` — as drawn.
    #[default]
    North,
    /// `FS` — flipped around the x axis (used on alternating rows so that
    /// power rails of adjacent rows share a track).
    FlippedSouth,
}

impl std::fmt::Display for Orientation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Orientation::North => f.write_str("N"),
            Orientation::FlippedSouth => f.write_str("FS"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_perpendicular_is_involution() {
        for axis in [Axis::Horizontal, Axis::Vertical] {
            assert_eq!(axis.perpendicular().perpendicular(), axis);
        }
    }
}
