//! Flat gate-level netlist, builders, levelization and simulation.
//!
//! The netlist is the hand-off between logic design ([`ffet_rv32`]'s core
//! generator), the synthesis-lite sizing stage, and physical implementation
//! ([`ffet_pnr`]). It is deliberately flat (one level, arena-indexed ids):
//! placement and routing operate on instances and nets, not hierarchy.
//!
//! * [`NetlistBuilder`] — expression-style construction of gate logic,
//! * [`levelize`] — topological ordering + combinational-loop detection,
//! * [`Simulator`] — 2-value cycle simulation for functional verification,
//! * [`to_verilog`] — structural-Verilog export,
//! * [`stats`] — area/composition summaries used by the experiments.
//!
//! [`ffet_rv32`]: ../ffet_rv32/index.html
//! [`ffet_pnr`]: ../ffet_pnr/index.html

mod builder;
mod ids;
mod level;
mod netlist;
mod sim;
mod stats;
mod verilog;

pub use builder::NetlistBuilder;
pub use ids::{InstId, NetId, PinRef, PortId};
pub use level::{levelize, CombLoopError, Levelization};
pub use netlist::{Instance, Net, Netlist, Port, PortDirection};
pub use sim::Simulator;
pub use stats::{stats, NetlistStats};
pub use verilog::to_verilog;

#[cfg(test)]
mod tests {
    use super::*;
    use ffet_cells::Library;
    use ffet_geom::Rng64;
    use ffet_tech::Technology;

    #[test]
    fn random_adder_matches_reference() {
        let mut rng = Rng64::new(0xadd3);
        for _ in 0..16 {
            let width = rng.range_usize(1, 12);
            let lib = Library::new(Technology::ffet_3p5t());
            let mut b = NetlistBuilder::new(&lib, "prop_adder");
            let a = b.input_bus("a", width);
            let c = b.input_bus("b", width);
            let zero = b.zero();
            let (sum, cout) = b.adder(&a, &c, zero);
            b.output_bus("s", &sum);
            b.output("cout", cout);
            let nl = b.finish();
            nl.check_consistency(&lib).unwrap();
            let mut sim = Simulator::new(&nl, &lib).unwrap();
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1 << width) - 1
            };
            for _ in 0..4 {
                let (x, y) = (rng.next_u64() & mask, rng.next_u64() & mask);
                sim.set_bus(&a, x);
                sim.set_bus(&c, y);
                sim.settle();
                let got = sim.get_bus(&sum) | (u64::from(sim.get(cout)) << width);
                assert_eq!(got, x + y, "width {width}: {x} + {y}");
            }
        }
    }
}
