//! Reader and writer for the ISCAS `.bench` netlist format.
//!
//! This is the circuit input format the paper assumes ("The input to the
//! solver is assumed to be in a circuit format (such as the \".bench\"
//! format)"). Supported gate types: `AND`, `NAND`, `OR`, `NOR`, `XOR`,
//! `XNOR`, `NOT`, `BUF`/`BUFF`, and `DFF`. All multi-input gates accept any
//! arity ≥ 1 and are decomposed into the 2-input AND primitive on read.
//!
//! `DFF` gates are handled the way the paper handles its `sxxxxx.scan`
//! benchmarks: "all state holding elements are treated as primary inputs" —
//! the flip-flop output becomes a fresh primary input and the D pin becomes a
//! primary output.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), csat_netlist::ParseBenchError> {
//! let src = "\
//! INPUT(a)
//! INPUT(b)
//! OUTPUT(y)
//! y = AND(a, b)
//! ";
//! let aig = csat_netlist::bench::parse(src)?;
//! assert_eq!(aig.inputs().len(), 2);
//! assert_eq!(aig.outputs().len(), 1);
//! # Ok(())
//! # }
//! ```

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Write as _;

use crate::{Aig, Lit, ParseBenchError};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GateKind {
    And,
    Nand,
    Or,
    Nor,
    Xor,
    Xnor,
    Not,
    Buf,
    Dff,
}

impl GateKind {
    fn from_keyword(s: &str) -> Option<GateKind> {
        const KEYWORDS: [(&str, GateKind); 11] = [
            ("AND", GateKind::And),
            ("NAND", GateKind::Nand),
            ("OR", GateKind::Or),
            ("NOR", GateKind::Nor),
            ("XOR", GateKind::Xor),
            ("XNOR", GateKind::Xnor),
            ("NOT", GateKind::Not),
            ("INV", GateKind::Not),
            ("BUF", GateKind::Buf),
            ("BUFF", GateKind::Buf),
            ("DFF", GateKind::Dff),
        ];
        KEYWORDS
            .iter()
            .find(|(keyword, _)| s.eq_ignore_ascii_case(keyword))
            .map(|&(_, kind)| kind)
    }
}

/// One gate line: its kind, the interned id of the signal it defines,
/// and its fanins as a range of [`Netlist::fanins`].
#[derive(Clone, Copy, Debug)]
struct Gate {
    kind: GateKind,
    name: u32,
    fanins: (u32, u32),
    line: usize,
}

/// The parsed text, before any node is built: every name interned once
/// into a dense id that indexes `names` and `gate_of`.
struct Netlist<'a> {
    ids: HashMap<&'a str, u32>,
    names: Vec<&'a str>,
    /// Per name id: the index into `gates` of its defining line.
    gate_of: Vec<Option<u32>>,
    gates: Vec<Gate>,
    fanins: Vec<u32>,
    inputs: Vec<(u32, usize)>,
    outputs: Vec<(u32, usize)>,
}

impl<'a> Netlist<'a> {
    /// Pre-sizes the tables for about `names` names (one gate each).
    fn with_capacity(names: usize) -> Netlist<'a> {
        Netlist {
            ids: HashMap::with_capacity(names),
            names: Vec::with_capacity(names),
            gate_of: Vec::with_capacity(names),
            gates: Vec::with_capacity(names),
            fanins: Vec::with_capacity(2 * names),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    fn intern(&mut self, name: &'a str) -> u32 {
        match self.ids.entry(name) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = self.names.len() as u32;
                e.insert(id);
                self.names.push(name);
                self.gate_of.push(None);
                id
            }
        }
    }

    fn fanins(&self, gate: &Gate) -> &[u32] {
        &self.fanins[gate.fanins.0 as usize..gate.fanins.1 as usize]
    }

    /// Reads one non-empty, comment-stripped, trimmed line.
    fn read_line(&mut self, line: &'a str, lineno: usize) -> Result<(), ParseBenchError> {
        if let Some(rest) = directive(line, "INPUT") {
            let id = self.intern(rest);
            self.inputs.push((id, lineno));
            return Ok(());
        }
        if let Some(rest) = directive(line, "OUTPUT") {
            let id = self.intern(rest);
            self.outputs.push((id, lineno));
            return Ok(());
        }
        let Some(eq) = line.find('=') else {
            return Err(ParseBenchError::new(
                lineno,
                format!("unrecognized line '{line}'"),
            ));
        };
        let name = line[..eq].trim();
        if name.is_empty() {
            return Err(ParseBenchError::new(
                lineno,
                "missing signal name before '='",
            ));
        }
        let rhs = line[eq + 1..].trim();
        let open = rhs.find('(').ok_or_else(|| {
            ParseBenchError::new(lineno, format!("expected gate expression, found '{rhs}'"))
        })?;
        if !rhs.ends_with(')') {
            return Err(ParseBenchError::new(lineno, "missing closing parenthesis"));
        }
        let kind_str = rhs[..open].trim();
        let kind = GateKind::from_keyword(kind_str).ok_or_else(|| {
            ParseBenchError::new(lineno, format!("unknown gate type '{kind_str}'"))
        })?;
        let start = self.fanins.len();
        for arg in rhs[open + 1..rhs.len() - 1].split(',') {
            let arg = arg.trim();
            if !arg.is_empty() {
                let id = self.intern(arg);
                self.fanins.push(id);
            }
        }
        let arity = self.fanins.len() - start;
        if arity == 0 {
            return Err(ParseBenchError::new(lineno, "gate has no fanins"));
        }
        if matches!(kind, GateKind::Not | GateKind::Buf | GateKind::Dff) && arity != 1 {
            return Err(ParseBenchError::new(
                lineno,
                format!("{kind_str} takes exactly one fanin, got {arity}"),
            ));
        }
        let id = self.intern(name);
        let gate_of = &mut self.gate_of[id as usize];
        if gate_of.is_some() {
            return Err(ParseBenchError::new(
                lineno,
                format!("signal '{name}' defined more than once"),
            ));
        }
        *gate_of = Some(self.gates.len() as u32);
        self.gates.push(Gate {
            kind,
            name: id,
            fanins: (start as u32, self.fanins.len() as u32),
            line: lineno,
        });
        Ok(())
    }

    /// Builds the AIG. Node numbering is part of the contract (every
    /// pinned downstream count depends on it): inputs in `INPUT` order,
    /// then DFF pseudo-inputs in file order, then the gates in file order,
    /// each pulling in its undefined-so-far fanins depth-first.
    fn build(&self) -> Result<Aig, ParseBenchError> {
        let mut aig = Aig::new();
        let mut signals: Vec<Option<Lit>> = vec![None; self.names.len()];

        for &(id, line) in &self.inputs {
            if signals[id as usize].is_some() {
                return Err(ParseBenchError::new(
                    line,
                    format!(
                        "input '{}' declared more than once",
                        self.names[id as usize]
                    ),
                ));
            }
            signals[id as usize] = Some(aig.input());
        }

        // DFF outputs become fresh primary inputs (scan treatment).
        for gate in self.gates.iter().filter(|g| g.kind == GateKind::Dff) {
            if signals[gate.name as usize].is_some() {
                return Err(ParseBenchError::new(
                    gate.line,
                    format!(
                        "signal '{}' defined more than once",
                        self.names[gate.name as usize]
                    ),
                ));
            }
            signals[gate.name as usize] = Some(aig.input());
        }

        self.build_gates(&mut signals, &mut aig)?;

        for &(id, line) in &self.outputs {
            let name = self.names[id as usize];
            let lit = signals[id as usize].ok_or_else(|| {
                ParseBenchError::new(line, format!("output '{name}' is never defined"))
            })?;
            aig.set_output(name, lit);
        }
        for gate in self.gates.iter().filter(|g| g.kind == GateKind::Dff) {
            let ff = self.names[gate.name as usize];
            let d = self.fanins(gate)[0];
            let lit = signals[d as usize].ok_or_else(|| {
                ParseBenchError::new(
                    gate.line,
                    format!(
                        "dff '{ff}' input '{}' is never defined",
                        self.names[d as usize]
                    ),
                )
            })?;
            aig.set_output(format!("{ff}.next"), lit);
        }
        Ok(aig)
    }

    /// Builds the gates in file order. Each first pulls in its
    /// not-yet-built fanins depth-first, with an explicit stack (no
    /// recursion, so deep chains don't overflow), detecting cycles on the
    /// way.
    fn build_gates(
        &self,
        signals: &mut [Option<Lit>],
        aig: &mut Aig,
    ) -> Result<(), ParseBenchError> {
        // Set when a gate is first visited. A visited gate that is not yet
        // built is on the current path, so meeting it again is a cycle;
        // once built, its signal is set and the mark is never read again.
        let mut on_path = vec![false; self.names.len()];
        let mut stack = Vec::new();
        let mut lits = Vec::new();
        for root in &self.gates {
            stack.push(Frame::Visit(root.name, root.line));
            while let Some(frame) = stack.pop() {
                match frame {
                    Frame::Visit(id, referrer) => {
                        if signals[id as usize].is_some() {
                            continue;
                        }
                        let Some(g) = self.gate_of[id as usize] else {
                            return Err(ParseBenchError::new(
                                referrer,
                                format!("signal '{}' is never defined", self.names[id as usize]),
                            ));
                        };
                        let gate = &self.gates[g as usize];
                        if std::mem::replace(&mut on_path[id as usize], true) {
                            return Err(ParseBenchError::new(
                                gate.line,
                                format!(
                                    "combinational cycle through signal '{}'",
                                    self.names[id as usize]
                                ),
                            ));
                        }
                        stack.push(Frame::Build(g));
                        for &fin in self.fanins(gate) {
                            if signals[fin as usize].is_none() {
                                stack.push(Frame::Visit(fin, gate.line));
                            }
                        }
                    }
                    Frame::Build(g) => {
                        let gate = &self.gates[g as usize];
                        lits.clear();
                        for &fin in self.fanins(gate) {
                            let lit = signals[fin as usize].ok_or_else(|| {
                                ParseBenchError::new(
                                    gate.line,
                                    format!(
                                        "signal '{}' is never defined",
                                        self.names[fin as usize]
                                    ),
                                )
                            })?;
                            lits.push(lit);
                        }
                        let lit = match gate.kind {
                            GateKind::And => aig.and_many(&lits),
                            GateKind::Nand => !aig.and_many(&lits),
                            GateKind::Or => aig.or_many(&lits),
                            GateKind::Nor => !aig.or_many(&lits),
                            GateKind::Xor => aig.xor_many(&lits),
                            GateKind::Xnor => !aig.xor_many(&lits),
                            GateKind::Not => !lits[0],
                            GateKind::Buf => lits[0],
                            // Bound to a pseudo-input before any gate is
                            // built, so never reached; nothing to build.
                            GateKind::Dff => continue,
                        };
                        signals[gate.name as usize] = Some(lit);
                    }
                }
            }
        }
        Ok(())
    }
}

/// Strips a case-insensitive `KEYWORD( name )` directive down to `name`.
fn directive<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let head = line.as_bytes().get(..keyword.len())?;
    if !head.eq_ignore_ascii_case(keyword.as_bytes()) {
        return None;
    }
    let rest = line[keyword.len()..].trim();
    let rest = rest.strip_prefix('(')?;
    let rest = rest.strip_suffix(')')?;
    Some(rest.trim())
}

/// A step of the depth-first gate build: visit a name (referenced from
/// the given line), or build a gate whose fanins are all resolved.
#[derive(Clone, Copy)]
enum Frame {
    Visit(u32, usize),
    Build(u32),
}

/// Parses a `.bench` netlist into an [`Aig`].
///
/// Every name is interned once into a dense id, gate fanins live in one
/// shared id array, and no per-line string is allocated. Nodes are
/// numbered inputs first (in `INPUT` order), then DFF pseudo-inputs (in
/// file order), then gates in file order, each gate first building its
/// not-yet-defined fanins depth-first.
///
/// # Errors
///
/// Returns [`ParseBenchError`] on syntax errors, unknown gate types, wrong
/// arities, undefined signals, duplicate definitions, or combinational
/// cycles. The error's line is the offending line: for an undefined
/// signal, the gate or DFF line that references it.
pub fn parse(source: &str) -> Result<Aig, ParseBenchError> {
    // A gate line ("g12 = AND(i3, g7)") averages about 20 bytes and
    // defines one name. Sizing from the byte count, not the line count,
    // keeps a hostile run of blank lines from reserving memory.
    let mut netlist = Netlist::with_capacity(source.len() / 20);
    for (lineno, raw) in source.lines().enumerate() {
        let line = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        }
        .trim();
        if !line.is_empty() {
            netlist.read_line(line, lineno + 1)?;
        }
    }
    netlist.build()
}

/// Serializes an [`Aig`] to `.bench` text.
///
/// Inputs are named `i<k>`, AND gates `g<node>`, and an inverter wrapper
/// `g<node>_n` is emitted where a complemented edge feeds a gate or output.
/// The output parses back to a functionally equivalent netlist (see the
/// round-trip tests).
pub fn write(aig: &Aig) -> String {
    use crate::Node;
    let mut out = String::new();
    let _ = writeln!(out, "# generated by csat-netlist");
    for (k, _) in aig.inputs().iter().enumerate() {
        let _ = writeln!(out, "INPUT(i{k})");
    }
    for (name, _) in aig.outputs() {
        let _ = writeln!(out, "OUTPUT({name})");
    }
    // Name of the positive-polarity signal of each node.
    let mut pos_name = vec![String::new(); aig.len()];
    let mut next_input = 0usize;
    let mut const_needed = false;
    for (i, node) in aig.nodes().iter().enumerate() {
        match node {
            Node::False => pos_name[i] = "const0".to_string(),
            Node::Input => {
                pos_name[i] = format!("i{next_input}");
                next_input += 1;
            }
            Node::And(..) => pos_name[i] = format!("g{i}"),
        }
    }
    let mut inverted_emitted = vec![false; aig.len()];
    // Inverter wrappers are emitted inline, immediately before their first
    // use: the parser resolves definitions in file order, so keeping the
    // file in node order makes `parse(write(aig))` rebuild the exact same
    // node table (for constant-free, strash-built circuits).
    let mut lit_name = |l: Lit, body: &mut String, const_needed: &mut bool| -> String {
        let idx = l.node().index();
        if idx == 0 {
            *const_needed = true;
            return if l.is_complemented() {
                "const1".to_string()
            } else {
                "const0".to_string()
            };
        }
        if !l.is_complemented() {
            pos_name[idx].clone()
        } else {
            let n = format!("{}_n", pos_name[idx]);
            if !inverted_emitted[idx] {
                inverted_emitted[idx] = true;
                let _ = writeln!(body, "{n} = NOT({})", pos_name[idx]);
            }
            n
        }
    };
    let mut gate_lines = String::new();
    for (i, node) in aig.nodes().iter().enumerate() {
        if let Node::And(a, b) = node {
            let na = lit_name(*a, &mut gate_lines, &mut const_needed);
            let nb = lit_name(*b, &mut gate_lines, &mut const_needed);
            let _ = writeln!(gate_lines, "g{i} = AND({na}, {nb})");
        }
    }
    let mut output_lines = String::new();
    for (name, l) in aig.outputs() {
        let src = lit_name(*l, &mut output_lines, &mut const_needed);
        let _ = writeln!(output_lines, "{name} = BUF({src})");
    }
    if const_needed && !aig.inputs().is_empty() {
        // const0 = i0 AND NOT i0.
        let _ = writeln!(out, "i0_inv = NOT(i0)");
        let _ = writeln!(out, "const0 = AND(i0, i0_inv)");
        let _ = writeln!(out, "const1 = NOT(const0)");
    } else if const_needed {
        // No inputs at all: nothing to derive a constant from; declare one.
        let _ = writeln!(out, "INPUT(const0)");
        let _ = writeln!(out, "const1 = NOT(const0)");
    }
    out.push_str(&gate_lines);
    out.push_str(&output_lines);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_netlist() {
        let src = "\
# c17-style fragment
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
t1 = NAND(a, b)
t2 = NAND(b, c)
y = NAND(t1, t2)
";
        let aig = parse(src).expect("parse");
        assert_eq!(aig.inputs().len(), 3);
        assert_eq!(aig.outputs().len(), 1);
        // y = !( !(ab) & !(bc) ) = ab | bc
        let y = |a: bool, b: bool, c: bool| aig.evaluate_outputs(&[a, b, c])[0];
        for code in 0..8u32 {
            let (a, b, c) = (code & 1 != 0, code & 2 != 0, code & 4 != 0);
            assert_eq!(y(a, b, c), b && (a || c));
        }
    }

    #[test]
    fn parses_out_of_order_definitions() {
        let src = "\
INPUT(a)
INPUT(b)
OUTPUT(y)
y = XOR(t, b)
t = OR(a, b)
";
        let aig = parse(src).expect("parse");
        let y = |a: bool, b: bool| aig.evaluate_outputs(&[a, b])[0];
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(y(a, b), (a || b) ^ b);
        }
    }

    #[test]
    fn parses_multi_input_gates() {
        let src = "\
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
y = XOR(a, b, c, d)
";
        let aig = parse(src).expect("parse");
        for code in 0..16u32 {
            let bits: Vec<bool> = (0..4).map(|i| code >> i & 1 != 0).collect();
            let expect = bits.iter().filter(|&&v| v).count() % 2 == 1;
            assert_eq!(aig.evaluate_outputs(&bits)[0], expect);
        }
    }

    #[test]
    fn dff_becomes_input_and_next_state_output() {
        let src = "\
INPUT(a)
OUTPUT(y)
q = DFF(d)
d = AND(a, q)
y = BUF(q)
";
        let aig = parse(src).expect("parse");
        // a, plus q as pseudo-input.
        assert_eq!(aig.inputs().len(), 2);
        // y, plus q.next as pseudo-output.
        assert_eq!(aig.outputs().len(), 2);
        assert!(aig.outputs().iter().any(|(n, _)| n == "q.next"));
    }

    #[test]
    fn rejects_unknown_gate() {
        let err = parse("INPUT(a)\ny = FROB(a)\nOUTPUT(y)\n").unwrap_err();
        assert!(err.message.contains("unknown gate type"));
        assert_eq!(err.line, 2);
    }

    #[test]
    fn golden_node_tables() {
        // Pinned from the previous reader: node numbering feeds every
        // downstream work count, so the tables must not move. Covers
        // forward references, multi-input XOR/OR/NAND, a DFF, mixed-case
        // keywords, comments and CRLF line endings.
        let src = "# golden netlist: forward references, mixed case, CRLF\r\n\
INPUT(a)\r\n\
input(b)\r\n\
Input(c)  # trailing comment\r\n\
INPUT(d)\r\n\
OUTPUT(y)\r\n\
output(z)\r\n\
\r\n\
y = nand(t, u, c)\r\n\
t = XOR(a, b, q, d)\r\n\
q = dff(n)\r\n\
# a comment line\r\n\
u = Or(a, c, d)\r\n\
n = NOT(y)\r\n\
z = xnor(t, m)\r\n\
m = NOR(b, c)   # two-input nor\r\n\
w = BUFF(u)\r\n\
OUTPUT(w)\r\n";
        let aig = parse(src).expect("parse");
        let and = |a, b| crate::Node::And(Lit::from_code(a), Lit::from_code(b));
        let mut nodes = vec![crate::Node::False];
        nodes.extend([crate::Node::Input; 5]);
        nodes.extend([
            and(7, 9),
            and(3, 12),
            and(2, 5),
            and(3, 4),
            and(17, 19),
            and(9, 10),
            and(8, 11),
            and(23, 25),
            and(21, 26),
            and(20, 27),
            and(29, 31),
            and(6, 15),
            and(33, 34),
            and(5, 7),
            and(33, 39),
            and(32, 38),
            and(41, 43),
        ]);
        assert_eq!(aig.nodes(), &nodes[..]);
        let inputs: Vec<usize> = aig.inputs().iter().map(|i| i.index()).collect();
        assert_eq!(inputs, [1, 2, 3, 4, 5]);
        let outputs: Vec<(&str, usize)> = aig
            .outputs()
            .iter()
            .map(|(name, lit)| (name.as_str(), lit.code()))
            .collect();
        assert_eq!(outputs, [("y", 37), ("z", 44), ("w", 15), ("q.next", 36)]);
    }

    #[test]
    fn rejects_undefined_signal() {
        let err = parse("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n").unwrap_err();
        assert!(err.message.contains("never defined"));
        assert_eq!(err.line, 3);
        // Reached through a forward reference: the line is still the
        // referencing gate's, not the root's.
        let err = parse("INPUT(a)\nOUTPUT(y)\ny = AND(a, t)\nt = OR(a, ghost)\n").unwrap_err();
        assert_eq!((err.line, err.message.contains("'ghost'")), (4, true));
    }

    #[test]
    fn rejects_undefined_dff_input_at_its_line() {
        let err = parse("INPUT(a)\nOUTPUT(y)\ny = BUF(q)\nq = DFF(ghost)\n").unwrap_err();
        assert_eq!(err.line, 4);
        assert_eq!(err.message, "dff 'q' input 'ghost' is never defined");
    }

    #[test]
    fn rejects_duplicate_definition() {
        let err = parse("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\ny = NOT(a)\n").unwrap_err();
        assert!(err.message.contains("more than once"));
    }

    #[test]
    fn rejects_combinational_cycle() {
        let err = parse("INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = BUF(y)\n").unwrap_err();
        assert!(err.message.contains("cycle"));
    }

    #[test]
    fn rejects_wrong_arity_not() {
        let err = parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n").unwrap_err();
        assert!(err.message.contains("exactly one"));
    }

    #[test]
    fn rejects_garbage_line() {
        let err = parse("INPUT(a)\nwat is this\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn write_then_parse_roundtrips_structurally() {
        // For a strash-built AIG with no constant fanins, the writer emits
        // gates in node order and the parser rebuilds them through the same
        // structural hashing, so the node table must come back identical.
        for seed in 0..8u64 {
            let g = crate::generators::random_logic(seed, 10, 120, 4);
            let back = parse(&write(&g)).expect("reparse");
            assert_eq!(back.nodes(), g.nodes(), "seed {seed}");
            assert_eq!(back.inputs(), g.inputs(), "seed {seed}");
            assert_eq!(back.outputs().len(), g.outputs().len(), "seed {seed}");
            for (name, lit) in g.outputs() {
                let found = back.outputs().iter().find(|(n, _)| n == name);
                assert_eq!(found.map(|(_, l)| *l), Some(*lit), "seed {seed}");
            }
        }
    }

    #[test]
    fn write_then_parse_roundtrips_functionally_with_fresh_gates() {
        // and_fresh duplicates collapse under re-parse strashing, so the
        // round-trip is functional, not structural, for planted circuits.
        let options = crate::generators::LevelizedOptions::default();
        let g = crate::generators::levelized(3, &options);
        let back = parse(&write(&g)).expect("reparse");
        assert_eq!(back.inputs().len(), g.inputs().len());
        assert!(back.and_count() <= g.and_count());
        let n = g.inputs().len();
        for code in 0..1u32 << n.min(10) {
            let bits: Vec<bool> = (0..n).map(|i| code >> i & 1 != 0).collect();
            assert_eq!(g.evaluate_outputs(&bits), back.evaluate_outputs(&bits));
        }
    }

    #[test]
    fn write_then_parse_is_equivalent() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let c = g.input();
        let x = g.xor(a, b);
        let m = g.mux(c, x, a);
        let o = g.or(m, !b);
        g.set_output("y", o);
        g.set_output("z", !x);
        let text = write(&g);
        let back = parse(&text).expect("reparse");
        assert_eq!(back.inputs().len(), g.inputs().len());
        assert_eq!(back.outputs().len(), g.outputs().len());
        for code in 0..8u32 {
            let bits: Vec<bool> = (0..3).map(|i| code >> i & 1 != 0).collect();
            assert_eq!(g.evaluate_outputs(&bits), back.evaluate_outputs(&bits));
        }
    }

    #[test]
    fn write_handles_constant_outputs() {
        let mut g = Aig::new();
        let a = g.input();
        let never = g.and(a, !a); // folds to constant false
        g.set_output("zero", never);
        let text = write(&g);
        let back = parse(&text).expect("reparse");
        assert!(!back.evaluate_outputs(&[false])[0]);
        assert!(!back.evaluate_outputs(&[true])[0]);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "\n# header\n\nINPUT(a)  # trailing comment\nOUTPUT(y)\ny = BUF(a)\n";
        let aig = parse(src).expect("parse");
        assert_eq!(aig.inputs().len(), 1);
    }
}
