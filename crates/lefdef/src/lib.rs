//! Simplified LEF/DEF data model, writers and dual-sided DEF merge.
//!
//! The paper's flow communicates through industry formats: modified
//! standard-cell LEF (with pin wafer-sides), one DEF per wafer side from
//! the dual-sided router, and a merged DEF feeding RC extraction. This
//! crate provides that interchange layer. The flow passes it in memory;
//! the writers render it as text:
//!
//! * [`Def`] — placed components, routed nets (wires + vias), PDN shapes,
//! * [`write_def`] — DEF text serialization,
//! * [`merge_defs`] — the dual-sided merge (paper §III.C),
//! * [`write_lef`] — library export with per-side pin ports.

mod def;
mod lef;
mod merge;
mod writer;

pub use def::{Def, DefComponent, DefConnection, DefNet, DefSpecialNet, DefVia, DefWire};
pub use lef::write_lef;
pub use merge::{merge_defs, MergeError};
pub use writer::write_def;
