//! The one circuit loader behind every front door (`csat`, `cec`,
//! `csat-serve`): file extension → [`Format`] → parse → objective.
//!
//! # Example
//!
//! ```
//! use csat_netlist::load::{Circuit, Format};
//!
//! let circuit = Circuit::parse("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", Format::Bench)?;
//! let objective = circuit.objective(None, false)?;
//! assert_eq!(circuit.aig.output("y"), Some(objective));
//! # Ok::<(), csat_netlist::load::LoadError>(())
//! ```

use std::error::Error;
use std::fmt;

use crate::cnf::Cnf;
use crate::{aiger, bench, two_level, Aig, Lit};

/// An instance format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// ISCAS `.bench` netlist.
    Bench,
    /// ASCII AIGER (`.aag`).
    Aiger,
    /// DIMACS CNF, solved through the two-level circuit translation.
    Dimacs,
}

impl Format {
    /// The format a file name's extension names (case-insensitive):
    /// `.bench`, `.aag`/`.aig`, or `.cnf`/`.dimacs`.
    pub fn from_path(path: &str) -> Option<Format> {
        let lower = path.to_lowercase();
        if lower.ends_with(".bench") {
            Some(Format::Bench)
        } else if lower.ends_with(".aag") || lower.ends_with(".aig") {
            Some(Format::Aiger)
        } else if lower.ends_with(".cnf") || lower.ends_with(".dimacs") {
            Some(Format::Dimacs)
        } else {
            None
        }
    }

    /// The format with the given [`Format::name`].
    pub fn from_name(name: &str) -> Option<Format> {
        [Format::Bench, Format::Aiger, Format::Dimacs]
            .into_iter()
            .find(|f| f.name() == name)
    }

    /// Lower-case name: `bench`, `aiger` or `dimacs`.
    pub fn name(self) -> &'static str {
        match self {
            Format::Bench => "bench",
            Format::Aiger => "aiger",
            Format::Dimacs => "dimacs",
        }
    }
}

/// A loaded instance: the circuit and the objective it is solved for
/// unless an output is named.
#[derive(Clone, Debug)]
pub struct Circuit {
    /// The circuit (DIMACS input arrives via the two-level translation).
    pub aig: Aig,
    /// The first output, or the CNF objective; `None` for a circuit
    /// with no outputs.
    default_objective: Option<Lit>,
}

impl Circuit {
    /// Parses `text` in the given format.
    ///
    /// # Errors
    ///
    /// [`LoadError::Parse`] with the format's parser error.
    pub fn parse(text: &str, format: Format) -> Result<Circuit, LoadError> {
        let aig = match format {
            Format::Bench => bench::parse(text).map_err(|e| LoadError::Parse(e.into()))?,
            Format::Aiger => aiger::parse(text).map_err(|e| LoadError::Parse(e.into()))?,
            Format::Dimacs => {
                let cnf = Cnf::from_dimacs(text).map_err(|e| LoadError::Parse(e.into()))?;
                let tl = two_level::from_cnf(&cnf);
                return Ok(Circuit {
                    aig: tl.aig,
                    default_objective: Some(tl.objective),
                });
            }
        };
        let default_objective = aig.outputs().first().map(|&(_, l)| l);
        Ok(Circuit {
            aig,
            default_objective,
        })
    }

    /// Reads the file at `path` and parses it in the format its extension
    /// names.
    ///
    /// # Errors
    ///
    /// [`LoadError::Io`], [`LoadError::UnknownExtension`], or
    /// [`LoadError::Parse`].
    pub fn read(path: &str) -> Result<Circuit, LoadError> {
        let text = std::fs::read_to_string(path).map_err(LoadError::Io)?;
        let format = Format::from_path(path).ok_or(LoadError::UnknownExtension)?;
        Circuit::parse(&text, format)
    }

    /// The literal to solve: the named output, or else the default
    /// objective (first output, or the CNF objective), complemented when
    /// `negate` is set.
    ///
    /// # Errors
    ///
    /// [`LoadError::NoOutputs`] for a circuit without outputs (checked
    /// first, whether or not an output is named), and
    /// [`LoadError::NoOutputNamed`] for an unknown name.
    pub fn objective(&self, output: Option<&str>, negate: bool) -> Result<Lit, LoadError> {
        let default = self.default_objective.ok_or(LoadError::NoOutputs)?;
        let objective = match output {
            Some(name) => self
                .aig
                .output(name)
                .ok_or_else(|| LoadError::NoOutputNamed(name.to_string()))?,
            None => default,
        };
        Ok(objective.xor_complement(negate))
    }
}

/// Why an instance could not be loaded. The `Display` text is what the
/// `csat` CLI prints after `error: `.
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The file name has no known extension.
    UnknownExtension,
    /// Malformed text: the format parser's own error, which names the
    /// format and the line.
    Parse(Box<dyn Error + Send + Sync>),
    /// A circuit without outputs has no default objective.
    NoOutputs,
    /// The requested output does not exist.
    NoOutputNamed(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "{e}"),
            LoadError::UnknownExtension => {
                f.write_str("unrecognized file extension (use .bench, .aag or .cnf)")
            }
            LoadError::Parse(e) => write!(f, "{e}"),
            LoadError::NoOutputs => f.write_str("circuit has no outputs"),
            LoadError::NoOutputNamed(name) => write!(f, "no output named '{name}'"),
        }
    }
}

impl Error for LoadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_by_extension_and_name() {
        assert_eq!(Format::from_path("x/A.BENCH"), Some(Format::Bench));
        assert_eq!(Format::from_path("a.aig"), Some(Format::Aiger));
        assert_eq!(Format::from_path("a.dimacs"), Some(Format::Dimacs));
        assert_eq!(Format::from_path("a.txt"), None);
        for f in [Format::Bench, Format::Aiger, Format::Dimacs] {
            assert_eq!(Format::from_name(f.name()), Some(f));
        }
        assert_eq!(Format::from_name("vhdl"), None);
    }

    #[test]
    fn objective_defaults_names_and_negates() {
        let c = Circuit::parse(
            "INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\ny = NOT(a)\nz = BUF(a)\n",
            Format::Bench,
        )
        .unwrap();
        let y = c.aig.output("y").unwrap();
        let z = c.aig.output("z").unwrap();
        assert_eq!(c.objective(None, false).unwrap(), y);
        assert_eq!(c.objective(Some("z"), true).unwrap(), !z);
        let err = c.objective(Some("w"), false).unwrap_err();
        assert_eq!(err.to_string(), "no output named 'w'");
    }

    #[test]
    fn outputless_circuit_reports_no_outputs_first() {
        let c = Circuit::parse("INPUT(a)\n", Format::Bench).unwrap();
        for output in [None, Some("a")] {
            let err = c.objective(output, false).unwrap_err();
            assert_eq!(err.to_string(), "circuit has no outputs");
        }
    }

    #[test]
    fn dimacs_uses_the_two_level_objective() {
        let c = Circuit::parse("p cnf 2 1\n1 -2 0\n", Format::Dimacs).unwrap();
        assert_eq!(
            c.objective(None, false).unwrap(),
            c.aig.output("sat").unwrap()
        );
    }

    #[test]
    fn parse_errors_keep_the_parser_text() {
        let err = Circuit::parse("wat\n", Format::Bench).unwrap_err();
        assert!(matches!(err, LoadError::Parse(_)));
        assert_eq!(
            err.to_string(),
            "bench parse error at line 1: unrecognized line 'wat'"
        );
        let err = Circuit::read("no/such/file.bench").unwrap_err();
        assert!(matches!(err, LoadError::Io(_)));
    }
}
