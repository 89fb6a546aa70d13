use crate::def::{Def, DefNet};
use ffet_geom::{FxHashMap, FxHashSet};

/// Error from [`merge_defs`]: the two sides disagree on something that must
/// be identical (they describe the same placed die).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// Different design names.
    DesignMismatch(String, String),
    /// Different die areas.
    DieMismatch,
    /// A component exists on one side only or is placed differently.
    ComponentMismatch(String),
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::DesignMismatch(a, b) => {
                write!(f, "cannot merge DEFs of different designs `{a}` and `{b}`")
            }
            MergeError::DieMismatch => f.write_str("cannot merge DEFs with different die areas"),
            MergeError::ComponentMismatch(name) => {
                write!(f, "component `{name}` differs between the two DEFs")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Merges the frontside and backside DEFs of a dual-sided P&R result into
/// one database — the paper's "DEF files merging" step that feeds the
/// dual-sided RC extraction.
///
/// Components (identical on both sides — the cells *are* dual-sided) are
/// taken once; per-net routing is concatenated so a net partitioned into
/// `n.front`/`n.back` ends up with its complete dual-sided RC geometry;
/// special nets (PDN) are concatenated.
///
/// # Errors
///
/// [`MergeError`] if the two DEFs do not describe the same placed design.
pub fn merge_defs(front: &Def, back: &Def) -> Result<Def, MergeError> {
    if front.design != back.design {
        return Err(MergeError::DesignMismatch(
            front.design.clone(),
            back.design.clone(),
        ));
    }
    if front.die != back.die || front.dbu_per_micron != back.dbu_per_micron {
        return Err(MergeError::DieMismatch);
    }
    if front.components.len() != back.components.len() {
        let front_names: FxHashSet<_> = front.components.iter().map(|c| &c.name).collect();
        let missing = back
            .components
            .iter()
            .find(|c| !front_names.contains(&c.name))
            .map_or_else(|| "<count mismatch>".to_owned(), |c| c.name.clone());
        return Err(MergeError::ComponentMismatch(missing));
    }
    let back_by_name: FxHashMap<&str, &crate::def::DefComponent> = back
        .components
        .iter()
        .map(|c| (c.name.as_str(), c))
        .collect();
    for c in &front.components {
        match back_by_name.get(c.name.as_str()) {
            Some(bc) if *bc == c => {}
            _ => return Err(MergeError::ComponentMismatch(c.name.clone())),
        }
    }

    let mut merged = Def::new(front.design.clone(), front.die);
    merged.dbu_per_micron = front.dbu_per_micron;
    merged.components = front.components.clone();
    merged.special_nets = front.special_nets.clone();
    merged
        .special_nets
        .extend(back.special_nets.iter().cloned());

    // Merge nets by name, in first-seen order: connections deduplicated,
    // routing concatenated.
    let mut index: FxHashMap<&str, usize> = FxHashMap::default();
    for net in front.nets.iter().chain(&back.nets) {
        let i = *index.entry(&net.name).or_insert_with(|| {
            merged.nets.push(DefNet {
                name: net.name.clone(),
                ..DefNet::default()
            });
            merged.nets.len() - 1
        });
        let entry = &mut merged.nets[i];
        for conn in &net.connections {
            if !entry.connections.contains(conn) {
                entry.connections.push(conn.clone());
            }
        }
        entry.wires.extend(net.wires.iter().copied());
        entry.vias.extend(net.vias.iter().copied());
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::def::{DefComponent, DefConnection, DefWire};
    use ffet_geom::{Orientation, Point, Rect};
    use ffet_tech::{LayerId, Side};

    fn base(design: &str) -> Def {
        let mut def = Def::new(design, Rect::new(0, 0, 1000, 1000));
        def.components.push(DefComponent {
            name: "u1".into(),
            macro_name: "ND2D1".into(),
            origin: Point::new(0, 0),
            orient: Orientation::North,
            fixed: false,
        });
        def
    }

    fn wire(side: Side) -> DefWire {
        DefWire {
            layer: LayerId::new(side, 2),
            from: Point::new(0, 0),
            to: Point::new(100, 0),
        }
    }

    #[test]
    fn merges_split_net_routing() {
        let mut front = base("core");
        let mut back = base("core");
        front.nets.push(DefNet {
            name: "n1".into(),
            connections: vec![DefConnection {
                instance: "u1".into(),
                pin: "Y".into(),
            }],
            wires: vec![wire(Side::Front)],
            vias: vec![],
        });
        back.nets.push(DefNet {
            name: "n1".into(),
            connections: vec![
                DefConnection {
                    instance: "u1".into(),
                    pin: "Y".into(),
                },
                DefConnection {
                    instance: "u1".into(),
                    pin: "A".into(),
                },
            ],
            wires: vec![wire(Side::Back)],
            vias: vec![],
        });
        let merged = merge_defs(&front, &back).expect("merge succeeds");
        assert_eq!(merged.nets.len(), 1);
        let n = &merged.nets[0];
        assert_eq!(n.wires.len(), 2);
        assert_eq!(n.connections.len(), 2, "connections deduplicated");
        assert_eq!(merged.total_wirelength(), 200);
    }

    #[test]
    fn rejects_mismatched_placement() {
        let front = base("core");
        let mut back = base("core");
        back.components[0].origin = Point::new(50, 0);
        assert_eq!(
            merge_defs(&front, &back),
            Err(MergeError::ComponentMismatch("u1".into()))
        );
    }

    #[test]
    fn rejects_different_designs() {
        let front = base("a");
        let back = base("b");
        assert!(matches!(
            merge_defs(&front, &back),
            Err(MergeError::DesignMismatch(..))
        ));
    }

    #[test]
    fn keeps_front_only_nets() {
        let mut front = base("core");
        front.nets.push(DefNet {
            name: "front_only".into(),
            connections: vec![],
            wires: vec![wire(Side::Front)],
            vias: vec![],
        });
        let back = base("core");
        let merged = merge_defs(&front, &back).unwrap();
        assert_eq!(merged.nets.len(), 1);
        assert_eq!(merged.nets[0].name, "front_only");
    }
}
