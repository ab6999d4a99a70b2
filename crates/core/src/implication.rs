//! Lookup-table implication rules for the 2-input AND primitive.
//!
//! The paper's solver uses "lookup tables ... for fast implications on the
//! AND primitive" (Section IV-A, following Ganai et al., DAC 2002). This
//! module builds that table: for every combination of ternary values on
//! (output, fanin a, fanin b) it records which implications fire.
//!
//! Values are encoded 0 = false, 1 = true, 2 = unassigned. The table has
//! 27 entries; each entry is a bitmask of [`Action`]s. Conflicting
//! combinations (e.g. output 1 with a fanin 0) fire an implication onto an
//! already-assigned pin, which the solver's `imply` turns into a conflict —
//! the table itself never needs a conflict marker.

/// Ternary value: false.
pub const FALSE: u8 = 0;
/// Ternary value: true.
pub const TRUE: u8 = 1;
/// Ternary value: unassigned.
pub const UNDEF: u8 = 2;

/// One implication fired by the AND-gate rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Output must be 0.
    OutputFalse,
    /// Output must be 1.
    OutputTrue,
    /// Fanin `a` must be 0.
    AFalse,
    /// Fanin `a` must be 1.
    ATrue,
    /// Fanin `b` must be 0.
    BFalse,
    /// Fanin `b` must be 1.
    BTrue,
}

impl Action {
    const ALL: [Action; 6] = [
        Action::OutputFalse,
        Action::OutputTrue,
        Action::AFalse,
        Action::ATrue,
        Action::BFalse,
        Action::BTrue,
    ];

    const fn bit(self) -> u8 {
        match self {
            Action::OutputFalse => 1 << 0,
            Action::OutputTrue => 1 << 1,
            Action::AFalse => 1 << 2,
            Action::ATrue => 1 << 3,
            Action::BFalse => 1 << 4,
            Action::BTrue => 1 << 5,
        }
    }
}

/// A set of fired implications, as returned by [`lookup`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Actions(u8);

impl Actions {
    /// The empty action set.
    pub const NONE: Actions = Actions(0);

    /// True if no implication fires.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True if `action` is in the set.
    pub fn contains(self, action: Action) -> bool {
        self.0 & action.bit() != 0
    }

    /// Iterates over the contained actions, in [`Action`] declaration
    /// order. Walks the set bits (lowest first), so a gate firing one
    /// implication costs one step rather than six membership tests.
    pub fn iter(self) -> impl Iterator<Item = Action> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let action = Action::ALL[bits.trailing_zeros() as usize];
            bits &= bits - 1;
            Some(action)
        })
    }

    const fn with(self, action: Action) -> Actions {
        Actions(self.0 | action.bit())
    }
}

/// The 27-entry implication table, indexed by `index(vo, va, vb)`.
static TABLE: [Actions; 27] = build_table();

/// Table index for a value triple.
#[inline]
pub const fn index(vo: u8, va: u8, vb: u8) -> usize {
    (vo as usize) * 9 + (va as usize) * 3 + (vb as usize)
}

/// Looks up the implications fired by the given (output, a, b) values.
///
/// Only implications onto currently *unassigned* pins are reported, except
/// that rules whose premises are fully assigned also fire onto assigned
/// pins — the solver detects conflicts by attempting those.
#[inline]
pub fn lookup(vo: u8, va: u8, vb: u8) -> Actions {
    TABLE[index(vo, va, vb)]
}

const fn rules(vo: u8, va: u8, vb: u8) -> Actions {
    let mut acts = Actions::NONE;
    // Forward: a=0 or b=0 forces o=0 (fires even if o is assigned, so that
    // an inconsistent o=1 is caught as a conflict by the solver's imply).
    if va == FALSE && vo != FALSE {
        acts = acts.with(Action::OutputFalse);
    }
    if vb == FALSE && vo != FALSE {
        acts = acts.with(Action::OutputFalse);
    }
    // Forward: a=1 and b=1 forces o=1.
    if va == TRUE && vb == TRUE && vo != TRUE {
        acts = acts.with(Action::OutputTrue);
    }
    // Backward: o=1 forces both fanins to 1.
    if vo == TRUE {
        if va != TRUE {
            acts = acts.with(Action::ATrue);
        }
        if vb != TRUE {
            acts = acts.with(Action::BTrue);
        }
    }
    // Backward: o=0 with one fanin 1 forces the other to 0.
    if vo == FALSE && va == TRUE && vb != FALSE {
        acts = acts.with(Action::BFalse);
    }
    if vo == FALSE && vb == TRUE && va != FALSE {
        acts = acts.with(Action::AFalse);
    }
    acts
}

const fn build_table() -> [Actions; 27] {
    let mut table = [Actions::NONE; 27];
    let mut vo = 0u8;
    while vo < 3 {
        let mut va = 0u8;
        while va < 3 {
            let mut vb = 0u8;
            while vb < 3 {
                table[index(vo, va, vb)] = rules(vo, va, vb);
                vb += 1;
            }
            va += 1;
        }
        vo += 1;
    }
    table
}

/// True if the gate is a J-node (justification frontier) under the given
/// values: the output is 0 but no fanin justifies it yet.
///
/// After BCP has reached a fixpoint this means both fanins are unassigned
/// (a single assigned fanin would either justify or propagate).
#[inline]
pub fn is_unjustified(vo: u8, va: u8, vb: u8) -> bool {
    vo == FALSE && va != FALSE && vb != FALSE && (va == UNDEF || vb == UNDEF)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_zero_dominates() {
        let acts = lookup(UNDEF, FALSE, UNDEF);
        assert!(acts.contains(Action::OutputFalse));
        let acts = lookup(UNDEF, UNDEF, FALSE);
        assert!(acts.contains(Action::OutputFalse));
        // Conflict combination still requests the implication.
        let acts = lookup(TRUE, FALSE, TRUE);
        assert!(acts.contains(Action::OutputFalse));
    }

    #[test]
    fn forward_both_true() {
        let acts = lookup(UNDEF, TRUE, TRUE);
        assert!(acts.contains(Action::OutputTrue));
        assert!(!acts.contains(Action::OutputFalse));
    }

    #[test]
    fn backward_output_true() {
        let acts = lookup(TRUE, UNDEF, UNDEF);
        assert!(acts.contains(Action::ATrue));
        assert!(acts.contains(Action::BTrue));
        // Partially assigned: only the missing fanin is implied.
        let acts = lookup(TRUE, TRUE, UNDEF);
        assert!(!acts.contains(Action::ATrue));
        assert!(acts.contains(Action::BTrue));
    }

    #[test]
    fn backward_output_false_with_one_true_fanin() {
        let acts = lookup(FALSE, TRUE, UNDEF);
        assert!(acts.contains(Action::BFalse));
        let acts = lookup(FALSE, UNDEF, TRUE);
        assert!(acts.contains(Action::AFalse));
    }

    #[test]
    fn quiescent_states_fire_nothing() {
        assert!(lookup(UNDEF, UNDEF, UNDEF).is_empty());
        assert!(lookup(UNDEF, TRUE, UNDEF).is_empty());
        assert!(lookup(FALSE, UNDEF, UNDEF).is_empty()); // J-node: a decision, not an implication
        assert!(lookup(FALSE, FALSE, UNDEF).is_empty()); // justified
        assert!(lookup(TRUE, TRUE, TRUE).is_empty());
        assert!(lookup(FALSE, FALSE, FALSE).is_empty());
    }

    #[test]
    fn table_is_sound_and_complete() {
        // For every partial assignment, an action must fire exactly when the
        // implied value holds in all consistent completions.
        for vo in 0..3u8 {
            for va in 0..3u8 {
                for vb in 0..3u8 {
                    let acts = lookup(vo, va, vb);
                    // Enumerate consistent completions.
                    let mut possible = [[false; 2]; 3]; // per pin, value seen
                    let mut any = false;
                    for o in 0..2u8 {
                        for a in 0..2u8 {
                            for b in 0..2u8 {
                                if o != (a & b) {
                                    continue;
                                }
                                if vo != UNDEF && vo != o {
                                    continue;
                                }
                                if va != UNDEF && va != a {
                                    continue;
                                }
                                if vb != UNDEF && vb != b {
                                    continue;
                                }
                                any = true;
                                possible[0][o as usize] = true;
                                possible[1][a as usize] = true;
                                possible[2][b as usize] = true;
                            }
                        }
                    }
                    if !any {
                        // Inconsistent state: at least one action must fire so
                        // the solver notices the conflict.
                        assert!(
                            !acts.is_empty(),
                            "inconsistent ({vo},{va},{vb}) fires nothing"
                        );
                        continue;
                    }
                    // Soundness: a fired action's value must hold in all
                    // completions (i.e. the opposite value is impossible).
                    let check = |pin: usize, value: u8, fired: bool, assigned: u8| {
                        if fired {
                            assert!(
                                !possible[pin][1 - value as usize],
                                "unsound action pin{pin}={value} at ({vo},{va},{vb})"
                            );
                        } else if assigned == UNDEF {
                            // Completeness: if only one value is possible and
                            // the pin is unassigned, the action must fire.
                            if possible[pin][value as usize] && !possible[pin][1 - value as usize] {
                                panic!("missed implication pin{pin}={value} at ({vo},{va},{vb})");
                            }
                        }
                    };
                    check(0, 0, acts.contains(Action::OutputFalse), vo);
                    check(0, 1, acts.contains(Action::OutputTrue), vo);
                    check(1, 0, acts.contains(Action::AFalse), va);
                    check(1, 1, acts.contains(Action::ATrue), va);
                    check(2, 0, acts.contains(Action::BFalse), vb);
                    check(2, 1, acts.contains(Action::BTrue), vb);
                }
            }
        }
    }

    #[test]
    fn unjustified_detection() {
        assert!(is_unjustified(FALSE, UNDEF, UNDEF));
        assert!(is_unjustified(FALSE, TRUE, UNDEF));
        assert!(!is_unjustified(FALSE, FALSE, UNDEF));
        assert!(!is_unjustified(TRUE, UNDEF, UNDEF));
        assert!(!is_unjustified(UNDEF, UNDEF, UNDEF));
        assert!(!is_unjustified(FALSE, TRUE, TRUE)); // conflict, not J-node
    }

    #[test]
    fn actions_iter_matches_contains() {
        let acts = lookup(TRUE, UNDEF, UNDEF);
        let collected: Vec<Action> = acts.iter().collect();
        assert_eq!(collected, vec![Action::ATrue, Action::BTrue]);
        // Every table entry: the bit walk yields exactly the contained
        // actions, in declaration order.
        for acts in TABLE {
            let walked: Vec<Action> = acts.iter().collect();
            let filtered: Vec<Action> = Action::ALL
                .into_iter()
                .filter(|a| acts.contains(*a))
                .collect();
            assert_eq!(walked, filtered, "{acts:?}");
        }
    }
}
