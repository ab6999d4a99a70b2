//! Property-based tests for the netlist I/O formats: `.bench` and AIGER
//! round trips on random circuits, DIMACS round trips on random formulas,
//! and conversion consistency between the circuit and CNF worlds.

use csat::netlist::cnf::{Cnf, Lit as CLit, Var};
use csat::netlist::{aiger, bench, generators, two_level};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `.bench` write → parse preserves function on random circuits.
    #[test]
    fn bench_roundtrip_preserves_function(seed in 0u64..10_000) {
        let original = generators::random_logic(seed, 6, 30, 3);
        let text = bench::write(&original);
        let back = bench::parse(&text).expect("reparse");
        prop_assert_eq!(back.inputs().len(), original.inputs().len());
        prop_assert_eq!(back.outputs().len(), original.outputs().len());
        for code in 0..64u32 {
            let bits: Vec<bool> = (0..6).map(|i| code >> i & 1 != 0).collect();
            prop_assert_eq!(
                original.evaluate_outputs(&bits),
                back.evaluate_outputs(&bits)
            );
        }
    }

    /// Gate lines may come in any order: shuffling the gate lines of a
    /// written circuit still parses (forward references resolve) to a
    /// functionally equivalent circuit with the same interface.
    #[test]
    fn bench_shuffled_gate_lines_parse_equivalently(seed in 0u64..10_000, shuffle in any::<u64>()) {
        let original = generators::random_logic(seed, 6, 30, 3);
        let text = bench::write(&original);
        let (mut gates, header): (Vec<&str>, Vec<&str>) = text.lines().partition(|l| l.contains('='));
        let mut state = shuffle;
        for i in (1..gates.len()).rev() {
            gates.swap(i, (splitmix64(&mut state) % (i as u64 + 1)) as usize);
        }
        let shuffled = header.into_iter().chain(gates).collect::<Vec<_>>().join("\n");
        let back = bench::parse(&shuffled).expect("shuffled reparse");
        prop_assert_eq!(back.inputs().len(), original.inputs().len());
        let names = |aig: &csat::netlist::Aig| -> Vec<String> {
            aig.outputs().iter().map(|(n, _)| n.clone()).collect()
        };
        prop_assert_eq!(names(&back), names(&original));
        for code in 0..64u32 {
            let bits: Vec<bool> = (0..6).map(|i| code >> i & 1 != 0).collect();
            prop_assert_eq!(
                original.evaluate_outputs(&bits),
                back.evaluate_outputs(&bits)
            );
        }
    }

    /// The daemon parses client text: byte-mutated or truncated `.bench`
    /// text never panics the reader, and every error names a line that
    /// exists in the text.
    #[test]
    fn bench_mutated_text_never_panics(
        seed in 0u64..10_000,
        edits in prop::collection::vec((any::<u64>(), any::<u8>()), 0..8),
        cut in any::<u64>(),
    ) {
        const PALETTE: &[u8] = b"()=,# \r\n\tIiNnPpUuTtOoDdFfAaRrXxBb0_\x0b\xc3\xa9";
        let original = generators::random_logic(seed, 5, 20, 2);
        let mut bytes = bench::write(&original).into_bytes();
        for (at, byte) in edits {
            let at = (at % (bytes.len() as u64 + 1)) as usize;
            let byte = if byte & 1 == 0 { PALETTE[byte as usize % PALETTE.len()] } else { byte };
            match (byte >> 1) % 3 {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, byte),
            }
        }
        if cut & 1 == 1 {
            bytes.truncate((cut >> 1) as usize % (bytes.len() + 1));
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = bench::parse(&text) {
            prop_assert!(
                (1..=text.lines().count()).contains(&e.line),
                "line {} outside 1..={}: {}",
                e.line,
                text.lines().count(),
                e
            );
        }
    }

    /// AIGER write → parse preserves function and gate count.
    #[test]
    fn aiger_roundtrip_preserves_function(seed in 0u64..10_000) {
        let original = generators::random_logic(seed, 5, 25, 2);
        let text = aiger::write(&original);
        let back = aiger::parse(&text).expect("reparse");
        prop_assert_eq!(back.and_count(), original.and_count());
        for code in 0..32u32 {
            let bits: Vec<bool> = (0..5).map(|i| code >> i & 1 != 0).collect();
            prop_assert_eq!(
                original.evaluate_outputs(&bits),
                back.evaluate_outputs(&bits)
            );
        }
    }

    /// DIMACS text → Cnf → text → Cnf is a fixpoint.
    #[test]
    fn dimacs_roundtrip_is_fixpoint(
        clauses in prop::collection::vec(
            prop::collection::vec((0u32..6, any::<bool>()), 1..4),
            0..16,
        )
    ) {
        let mut cnf = Cnf::with_vars(6);
        for clause in clauses {
            cnf.add_clause(
                clause
                    .into_iter()
                    .map(|(v, neg)| CLit::new(Var(v), neg))
                    .collect(),
            );
        }
        let text = cnf.to_dimacs();
        let once = Cnf::from_dimacs(&text).expect("first parse");
        let text2 = once.to_dimacs();
        let twice = Cnf::from_dimacs(&text2).expect("second parse");
        prop_assert_eq!(&once, &twice);
        prop_assert_eq!(&once, &cnf);
    }

    /// CNF → 2-level circuit objective is exactly the formula's truth value.
    #[test]
    fn two_level_objective_equals_formula(
        clauses in prop::collection::vec(
            prop::collection::vec((0u32..5, any::<bool>()), 1..4),
            1..12,
        )
    ) {
        let mut cnf = Cnf::with_vars(5);
        for clause in clauses {
            cnf.add_clause(
                clause
                    .into_iter()
                    .map(|(v, neg)| CLit::new(Var(v), neg))
                    .collect(),
            );
        }
        let tl = two_level::from_cnf(&cnf);
        for code in 0..32u32 {
            let assignment: Vec<bool> = (0..5).map(|i| code >> i & 1 != 0).collect();
            let values = tl.aig.evaluate(&assignment);
            prop_assert_eq!(
                tl.aig.lit_value(&values, tl.objective),
                cnf.evaluate(&assignment)
            );
        }
    }

    /// bench → aiger → bench chains preserve function.
    #[test]
    fn cross_format_chain_preserves_function(seed in 0u64..5_000) {
        let original = generators::random_logic(seed, 5, 20, 2);
        let via_bench = bench::parse(&bench::write(&original)).expect("bench");
        let via_aiger = aiger::parse(&aiger::write(&via_bench)).expect("aiger");
        for code in 0..32u32 {
            let bits: Vec<bool> = (0..5).map(|i| code >> i & 1 != 0).collect();
            prop_assert_eq!(
                original.evaluate_outputs(&bits),
                via_aiger.evaluate_outputs(&bits)
            );
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
