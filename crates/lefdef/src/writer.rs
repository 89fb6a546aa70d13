use crate::def::{Def, DefNet};
use std::fmt::Write as _;

/// Serializes a [`Def`] to DEF-style text.
///
/// The emitted subset follows the DEF 5.8 look and feel (sections, `- name`
/// records, `;` terminators) closely enough to be familiar. No program reads
/// it back: the flow hands DEFs on in memory, and the bytes this writes for
/// one counter flow are pinned by the end-to-end test
/// `interchange_writer_bytes_are_pinned`.
#[must_use]
pub fn write_def(def: &Def) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "VERSION 5.8 ;");
    let _ = writeln!(s, "DESIGN {} ;", def.design);
    let _ = writeln!(s, "UNITS DISTANCE MICRONS {} ;", def.dbu_per_micron);
    let _ = writeln!(
        s,
        "DIEAREA ( {} {} ) ( {} {} ) ;",
        def.die.lo.x, def.die.lo.y, def.die.hi.x, def.die.hi.y
    );

    let _ = writeln!(s, "COMPONENTS {} ;", def.components.len());
    for c in &def.components {
        let kind = if c.fixed { "FIXED" } else { "PLACED" };
        let _ = writeln!(
            s,
            "- {} {} + {} ( {} {} ) {} ;",
            c.name, c.macro_name, kind, c.origin.x, c.origin.y, c.orient
        );
    }
    let _ = writeln!(s, "END COMPONENTS");

    let _ = writeln!(s, "SPECIALNETS {} ;", def.special_nets.len());
    for sn in &def.special_nets {
        let _ = write!(s, "- {}", sn.name);
        for (layer, r) in &sn.shapes {
            let _ = write!(
                s,
                "\n  + RECT {} ( {} {} ) ( {} {} )",
                layer, r.lo.x, r.lo.y, r.hi.x, r.hi.y
            );
        }
        let _ = writeln!(s, " ;");
    }
    let _ = writeln!(s, "END SPECIALNETS");

    let _ = writeln!(s, "NETS {} ;", def.nets.len());
    for n in &def.nets {
        write_net(&mut s, n);
    }
    let _ = writeln!(s, "END NETS");
    let _ = writeln!(s, "END DESIGN");
    s
}

fn write_net(s: &mut String, n: &DefNet) {
    let _ = write!(s, "- {}", n.name);
    for c in &n.connections {
        let _ = write!(s, " ( {} {} )", c.instance, c.pin);
    }
    for w in &n.wires {
        let _ = write!(
            s,
            "\n  + ROUTED {} ( {} {} ) ( {} {} )",
            w.layer, w.from.x, w.from.y, w.to.x, w.to.y
        );
    }
    for v in &n.vias {
        let _ = write!(
            s,
            "\n  + VIA {} {} ( {} {} )",
            v.from_layer, v.to_layer, v.at.x, v.at.y
        );
    }
    let _ = writeln!(s, " ;");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::def::{DefComponent, DefConnection, DefSpecialNet, DefVia, DefWire};
    use ffet_geom::{Orientation, Point, Rect};
    use ffet_tech::{LayerId, Side};

    #[test]
    fn writes_all_sections() {
        let mut def = Def::new("core", Rect::new(0, 0, 5000, 4000));
        def.components.push(DefComponent {
            name: "u1".into(),
            macro_name: "INVD1".into(),
            origin: Point::new(100, 210),
            orient: Orientation::North,
            fixed: false,
        });
        def.components.push(DefComponent {
            name: "tap0".into(),
            macro_name: "PWRTAP".into(),
            origin: Point::new(0, 0),
            orient: Orientation::FlippedSouth,
            fixed: true,
        });
        def.special_nets.push(DefSpecialNet {
            name: "VDD".into(),
            shapes: vec![(LayerId::new(Side::Back, 2), Rect::new(0, 0, 100, 4000))],
        });
        def.nets.push(DefNet {
            name: "n1".into(),
            connections: vec![
                DefConnection {
                    instance: "u1".into(),
                    pin: "Y".into(),
                },
                DefConnection {
                    instance: "PIN".into(),
                    pin: "out".into(),
                },
            ],
            wires: vec![DefWire {
                layer: LayerId::new(Side::Front, 2),
                from: Point::new(100, 200),
                to: Point::new(400, 200),
            }],
            vias: vec![DefVia {
                at: Point::new(400, 200),
                from_layer: LayerId::new(Side::Front, 2),
                to_layer: LayerId::new(Side::Front, 3),
            }],
        });
        let text = write_def(&def);
        assert!(text.contains("DESIGN core ;"));
        assert!(text.contains("COMPONENTS 2 ;"));
        assert!(text.contains("- u1 INVD1 + PLACED ( 100 210 ) N ;"));
        assert!(text.contains("- tap0 PWRTAP + FIXED ( 0 0 ) FS ;"));
        assert!(text.contains("+ RECT BM2"));
        assert!(text.contains("+ ROUTED FM2 ( 100 200 ) ( 400 200 )"));
        assert!(text.contains("+ VIA FM2 FM3 ( 400 200 )"));
        assert!(text.trim_end().ends_with("END DESIGN"));
    }
}
