//! Plain-text serialization of netlists and routed results.
//!
//! A tiny line-oriented format, convenient for checking benchmarks into a
//! repository, diffing routing results, and writing regression fixtures by
//! hand:
//!
//! ```text
//! # comment
//! plane 3 64 64
//! blockage 0 10 10 14 12
//! net clk 0:2,3 0:40,9
//! net data 0:4,5|0:4,6 0:50,8
//! ```
//!
//! * `plane L W H` — layer count and track dimensions,
//! * `blockage L x0 y0 x1 y1` — blocked rectangle on layer `L`,
//! * `net NAME PIN PIN [PIN...]` — two or more pins as `layer:x,y` with
//!   `|`-separated candidate locations; pins beyond the first two are the
//!   branch terminals of a multi-terminal net.

use crate::net::Pin;
use crate::netlist::Netlist;
use crate::plane::RoutingPlane;
use sadp_geom::{DesignRules, GridPoint, Layer, TrackRect};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Error produced while parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLayoutError {
    line: usize,
    message: String,
}

impl fmt::Display for ParseLayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseLayoutError {}

fn err(line: usize, message: impl Into<String>) -> ParseLayoutError {
    ParseLayoutError {
        line,
        message: message.into(),
    }
}

/// Serializes a plane (dimensions and blockages) and netlist into the text
/// format.
#[must_use]
pub fn write_layout(plane: &RoutingPlane, netlist: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "plane {} {} {}",
        plane.layers(),
        plane.width(),
        plane.height()
    );
    // Blockages are recovered row-run by row-run (exact cell coverage,
    // not necessarily the original rectangles).
    for l in 0..plane.layers() {
        let layer = Layer(l);
        for y in 0..plane.height() {
            let mut x = 0;
            while x < plane.width() {
                let p = GridPoint::new(layer, x, y);
                if plane.cell(p) == crate::plane::CellState::Blocked {
                    let x0 = x;
                    while x < plane.width()
                        && plane.cell(GridPoint::new(layer, x, y))
                            == crate::plane::CellState::Blocked
                    {
                        x += 1;
                    }
                    let _ = writeln!(out, "blockage {} {} {} {} {}", l, x0, y, x - 1, y);
                } else {
                    x += 1;
                }
            }
        }
    }
    for net in netlist {
        let pins: Vec<String> = net.pins().map(format_pin).collect();
        let _ = writeln!(out, "net {} {}", net.name, pins.join(" "));
    }
    out
}

fn format_pin(pin: &Pin) -> String {
    pin.candidates()
        .iter()
        .map(|c| format!("{}:{},{}", c.layer.0, c.x, c.y))
        .collect::<Vec<_>>()
        .join("|")
}

/// Parses the text format back into a plane and netlist.
///
/// # Errors
///
/// Returns [`ParseLayoutError`] with the offending line on any syntax or
/// range problem, including a missing or repeated `plane` header.
pub fn read_layout(text: &str) -> Result<(RoutingPlane, Netlist), ParseLayoutError> {
    let mut plane: Option<RoutingPlane> = None;
    let mut netlist = Netlist::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("plane") => {
                if plane.is_some() {
                    return Err(err(lineno, "duplicate plane header"));
                }
                let dims: Vec<i32> = parts
                    .map(|p| p.parse().map_err(|_| err(lineno, "bad plane dimension")))
                    .collect::<Result<_, _>>()?;
                let [l, w, h] = dims[..] else {
                    return Err(err(lineno, "plane needs `plane L W H`"));
                };
                let l = u8::try_from(l).map_err(|_| err(lineno, "bad layer count"))?;
                plane = Some(
                    RoutingPlane::new(l, w, h, DesignRules::node_10nm())
                        .map_err(|e| err(lineno, e.to_string()))?,
                );
            }
            Some("blockage") => {
                let plane = plane
                    .as_mut()
                    .ok_or_else(|| err(lineno, "blockage before plane header"))?;
                let vals: Vec<i32> = parts
                    .map(|p| p.parse().map_err(|_| err(lineno, "bad blockage value")))
                    .collect::<Result<_, _>>()?;
                let [l, x0, y0, x1, y1] = vals[..] else {
                    return Err(err(lineno, "blockage needs `blockage L x0 y0 x1 y1`"));
                };
                let l = u8::try_from(l).map_err(|_| err(lineno, "bad layer"))?;
                if l >= plane.layers() {
                    return Err(err(
                        lineno,
                        format!(
                            "blockage layer {l} out of range (plane has {})",
                            plane.layers()
                        ),
                    ));
                }
                // Validate the corners before materialising the rectangle:
                // `add_blockage` walks every cell, so an absurd rect would
                // hang the parser instead of failing.
                for (what, v, limit) in [
                    ("x0", x0, plane.width()),
                    ("x1", x1, plane.width()),
                    ("y0", y0, plane.height()),
                    ("y1", y1, plane.height()),
                ] {
                    if !(0..limit).contains(&v) {
                        return Err(err(
                            lineno,
                            format!("blockage {what}={v} out of range 0..{limit}"),
                        ));
                    }
                }
                plane.add_blockage(Layer(l), TrackRect::new(x0, y0, x1, y1));
            }
            Some("net") => {
                let plane = plane
                    .as_ref()
                    .ok_or_else(|| err(lineno, "net before plane header"))?;
                let name = parts
                    .next()
                    .ok_or_else(|| err(lineno, "net needs a name"))?;
                let pins: Vec<Pin> = parts
                    .map(|tok| {
                        let pin = parse_pin(tok).map_err(|m| err(lineno, m))?;
                        // Out-of-bounds pins would only surface later as a
                        // panic when the router reserves them; reject them
                        // here with the line number.
                        let mut cands = tok.split('|').zip(pin.candidates());
                        if let Some((cand, _)) = cands.find(|(_, &p)| !plane.in_bounds(p)) {
                            return Err(err(lineno, format!("pin `{cand}` outside the plane")));
                        }
                        Ok(pin)
                    })
                    .collect::<Result<_, _>>()?;
                if pins.len() < 2 {
                    return Err(err(lineno, "net needs at least two pins"));
                }
                netlist.add_multi_pin(name, pins);
            }
            Some(other) => return Err(err(lineno, format!("unknown directive `{other}`"))),
            None => unreachable!("empty lines are skipped"),
        }
    }
    // Only blank and comment lines came before the end of the text: the
    // header was due on the line after the last one.
    let plane = plane.ok_or_else(|| err(text.lines().count() + 1, "missing plane header"))?;
    Ok((plane, netlist))
}

/// Parses one pin token: `layer:x,y` candidates separated by `|`. The
/// token is not checked against any plane: [`read_layout`] adds its
/// bounds check, and ECO edit scripts share this syntax.
///
/// # Errors
///
/// ``bad pin `CAND` (want layer:x,y)`` for the first malformed
/// candidate `CAND`.
pub fn parse_pin(text: &str) -> Result<Pin, String> {
    text.split('|')
        .map(|cand| {
            let bad = || format!("bad pin `{cand}` (want layer:x,y)");
            let (layer, xy) = cand.split_once(':').ok_or_else(bad)?;
            let (x, y) = xy.split_once(',').ok_or_else(bad)?;
            Ok(GridPoint::new(
                Layer(layer.parse().map_err(|_| bad())?),
                x.parse().map_err(|_| bad())?,
                y.parse().map_err(|_| bad())?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()
        .map(Pin::with_candidates)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a sample layout
plane 3 32 32
blockage 1 4 4 7 4
net clk 0:2,3 0:20,9
net data 0:4,5|0:4,6 2:28,8
";

    #[test]
    fn parse_sample() {
        let (plane, nl) = read_layout(SAMPLE).expect("parses");
        assert_eq!(plane.layers(), 3);
        assert_eq!(plane.width(), 32);
        assert!(!plane.is_free(GridPoint::new(Layer(1), 5, 4)));
        assert_eq!(nl.len(), 2);
        assert_eq!(nl.net(crate::NetId(1)).source.candidates().len(), 2);
        assert_eq!(
            nl.net(crate::NetId(1)).target.primary(),
            GridPoint::new(Layer(2), 28, 8)
        );
    }

    #[test]
    fn round_trip() {
        let (plane, nl) = read_layout(SAMPLE).expect("parses");
        let text = write_layout(&plane, &nl);
        let (plane2, nl2) = read_layout(&text).expect("round trips");
        assert_eq!(nl, nl2);
        assert_eq!(plane.usage(), plane2.usage());
        assert_eq!(plane.layers(), plane2.layers());
    }

    #[test]
    fn generated_benchmark_round_trips() {
        let spec = crate::BenchmarkSpec::new("t", 30, 48, 48).with_seed(11);
        let (plane, nl) = spec.generate();
        let text = write_layout(&plane, &nl);
        let (plane2, nl2) = read_layout(&text).expect("round trips");
        assert_eq!(nl, nl2);
        assert_eq!(plane.usage(), plane2.usage());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = read_layout("plane 3 32 32\nnet broken 0:2 0:3,4\n").unwrap_err();
        assert_eq!(e.to_string(), "line 2: bad pin `0:2` (want layer:x,y)");
        let e = read_layout("").unwrap_err();
        assert_eq!(e.to_string(), "line 1: missing plane header");
        let e = read_layout("# only a comment\n\n# and another\n").unwrap_err();
        assert_eq!(e.to_string(), "line 4: missing plane header");
        assert!(
            read_layout("net a 0:1,1 0:2,2\n").is_err(),
            "net before plane"
        );
        assert!(read_layout("plane 3 32 32\nplane 3 32 32\n").is_err());
        assert!(read_layout("plane 3 32 32\nfrobnicate\n").is_err());
        assert!(read_layout("plane 3 32\n").is_err());
        assert!(read_layout("plane 3 32 32\nblockage 0 1 2\n").is_err());
        assert!(
            read_layout("plane 3 32 32\nnet a 0:1,1\n").is_err(),
            "one pin"
        );
    }

    #[test]
    fn rejects_out_of_range_geometry() {
        // A huge blockage must fail fast, not walk 4e18 cells.
        let e = read_layout("plane 3 32 32\nblockage 0 0 0 2000000000 2000000000\n").unwrap_err();
        assert_eq!(
            e.to_string(),
            "line 2: blockage x1=2000000000 out of range 0..32"
        );
        let e = read_layout("plane 3 32 32\nblockage 0 -1 0 4 4\n").unwrap_err();
        assert!(e.to_string().contains("x0=-1 out of range"));
        let e = read_layout("plane 3 32 32\nblockage 7 0 0 4 4\n").unwrap_err();
        assert_eq!(
            e.to_string(),
            "line 2: blockage layer 7 out of range (plane has 3)"
        );
        // Out-of-bounds pins are parse errors, not later router panics.
        let e = read_layout("plane 3 32 32\nnet a 0:2,3 0:99,3\n").unwrap_err();
        assert_eq!(e.to_string(), "line 2: pin `0:99,3` outside the plane");
        let e = read_layout("plane 3 32 32\nnet a 0:2,3 5:4,3\n").unwrap_err();
        assert!(e.to_string().contains("outside the plane"));
        let e = read_layout("plane 3 32 32\nnet a 0:2,-1 0:4,3\n").unwrap_err();
        assert!(e.to_string().contains("outside the plane"));
    }

    #[test]
    fn rejects_malformed_numbers_without_panicking() {
        for bad in [
            "plane x 32 32\n",
            "plane 3 32 32 32\n",
            "plane 999 32 32\n",
            "plane 3 -5 32\n",
            "plane 3 32 32\nblockage 0 a 0 4 4\n",
            "plane 3 32 32\nblockage 0 0 0 4 4 4\n",
            "plane 3 32 32\nnet a 0:2,3 0:4,\n",
            "plane 3 32 32\nnet a 0:2,3 :4,5\n",
            "plane 3 32 32\nnet a 0:2,3 0:4,99999999999999999999\n",
            "plane 3 32 32\nnet\n",
            "plane 3 32 32\nnet a\n",
        ] {
            let e = read_layout(bad).unwrap_err();
            assert!(e.to_string().starts_with("line "), "{bad:?} -> {e}");
        }
    }

    #[test]
    fn multi_pin_round_trip() {
        let text = "plane 2 32 32\nnet tree 0:2,2 0:20,2 0:10,12 0:10,20\n";
        let (plane, nl) = read_layout(text).expect("parses");
        let net = nl.net(crate::NetId(0));
        assert_eq!(net.pin_count(), 4);
        assert_eq!(net.extra.len(), 2);
        let rt = write_layout(&plane, &nl);
        let (_, nl2) = read_layout(&rt).expect("round trips");
        assert_eq!(nl, nl2);
    }
}
