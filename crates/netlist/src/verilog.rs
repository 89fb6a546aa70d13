use crate::netlist::{Netlist, PortDirection};
use ffet_cells::Library;
use std::fmt::Write as _;

/// Writes the netlist as structural Verilog.
///
/// The output instantiates library cells by name with named port
/// connections, suitable for inspection or for feeding other tools. Bus
/// ports are emitted bit-blasted (`a[3]` becomes the escaped identifier
/// `\a[3] `), which keeps the writer exact without inferring bus ranges.
/// Nothing reads it back; its bytes for the RV32 core are pinned by the
/// end-to-end test `interchange_writer_bytes_are_pinned`.
#[must_use]
pub fn to_verilog(netlist: &Netlist, library: &Library) -> String {
    let mut out = String::new();
    let escape = |name: &str| -> String {
        if name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            name.to_owned()
        } else {
            format!("\\{name} ")
        }
    };

    let port_list: Vec<String> = netlist.ports().iter().map(|p| escape(&p.name)).collect();
    let _ = writeln!(
        out,
        "module {} ({});",
        escape(netlist.name()),
        port_list.join(", ")
    );
    for port in netlist.ports() {
        let dir = match port.direction {
            PortDirection::Input => "input",
            PortDirection::Output => "output",
        };
        let _ = writeln!(out, "  {} {};", dir, escape(&port.name));
    }
    for net in netlist.nets() {
        // Ports already declare their nets.
        if netlist.ports().iter().any(|p| p.name == net.name) {
            continue;
        }
        let _ = writeln!(out, "  wire {};", escape(&net.name));
    }
    // Ports whose bound net carries a different name (e.g. an output port
    // attached to an auto-named gate output) are tied with an assign so the
    // text stays a faithful, parseable description.
    for port in netlist.ports() {
        let net_name = &netlist.net(port.net).name;
        if *net_name != port.name {
            let _ = writeln!(
                out,
                "  assign {} = {} ;",
                escape(&port.name),
                escape(net_name)
            );
        }
    }
    for inst in netlist.instances() {
        let cell = library.cell(inst.cell);
        let conns: Vec<String> = cell
            .pins
            .iter()
            .zip(&inst.conns)
            .filter_map(|(pin, conn)| {
                conn.map(|net| format!(".{}({})", pin.name, escape(&netlist.net(net).name)))
            })
            .collect();
        let _ = writeln!(
            out,
            "  {} {} ({});",
            cell.name,
            escape(&inst.name),
            conns.join(", ")
        );
    }
    let _ = writeln!(out, "endmodule");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use ffet_tech::Technology;

    #[test]
    fn emits_module_with_instances() {
        let lib = Library::new(Technology::ffet_3p5t());
        let mut b = NetlistBuilder::new(&lib, "top");
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let nl = b.finish();
        let v = to_verilog(&nl, &lib);
        assert!(v.contains("module top (a, y);"));
        assert!(v.contains("input a;"));
        assert!(v.contains("output y;"));
        assert!(v.contains("INVD1"));
        assert!(v.trim_end().ends_with("endmodule"));
    }

    #[test]
    fn escapes_bus_bit_names() {
        let lib = Library::new(Technology::ffet_3p5t());
        let mut b = NetlistBuilder::new(&lib, "top");
        let bus = b.input_bus("data", 2);
        let y = b.and2(bus[0], bus[1]);
        b.output("y", y);
        let nl = b.finish();
        let v = to_verilog(&nl, &lib);
        assert!(v.contains("\\data[0] "), "{v}");
    }
}
