//! The circuit CDCL solver (the paper's C-SAT / C-SAT-Jnode).
//!
//! Since the `csat-search` extraction the CDCL machinery itself — trail,
//! first-UIP analysis, learned-clause arena, restarts, budgets, proof
//! logging — is the shared kernel; this module contributes the circuit
//! half as a [`Propagator`]:
//!
//! * Boolean constraint propagation directly on the AIG through the lookup
//!   table of [`crate::implication`],
//! * J-node (justification frontier) decisions, with learned gates as
//!   J-nodes via their free literals (paper Section IV-A),
//! * implicit learning — correlation-driven decision grouping and value
//!   selection (Algorithm IV.1).
//!
//! Learned clauses ("learned gates" in the paper's terminology: OR gates
//! whose output is known to be 1) live in the kernel arena with two
//! watched literals, mirroring the implementation note in Section IV-A.
//!
//! The circuit-specific search state is split in two: [`CircuitState`]
//! owns the J-frontier queue, fanout CSR and implicit-learning tables,
//! while [`CircuitPropagator`] is the short-lived view pairing that state
//! with a borrow of the circuit for the duration of one engine call. The
//! borrow-only view is what lets [`Solver`] reference a caller-owned
//! [`Aig`] while the incremental [`crate::Session`] owns a growing one —
//! both drive the identical propagation code.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;

use csat_netlist::topo::FanoutCsr;
use csat_netlist::{Aig, Lit, Node, NodeId};
use csat_search::{
    ingest_clause, prefetch_read, solve_under, Conflict, Propagator, Reason, SearchContext,
    SearchResult,
};
use csat_sim::{CorrelationResult, Relation};
use csat_telemetry::{NoOpObserver, Observer};

use crate::implication::{self, FALSE, TRUE, UNDEF};
use crate::options::{Budget, SolverOptions, Stats, SubVerdict, Verdict};

/// Error from [`Solver::add_learned_clause`]: a literal refers to a node
/// outside the solver's circuit.
pub type LitOutOfRange = csat_search::LitOutOfRange<Lit>;

/// A free literal of an unsatisfied learned clause, queued as a decision
/// candidate (learned gates are J-nodes, paper Section IV-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ClauseCandidate {
    /// Activity snapshot encoded as ordered bits (valid for non-negative
    /// floats).
    priority: u64,
    lit: Lit,
    cref: u32,
}

impl Ord for ClauseCandidate {
    fn cmp(&self, other: &ClauseCandidate) -> CmpOrdering {
        self.priority.cmp(&other.priority)
    }
}

impl PartialOrd for ClauseCandidate {
    fn partial_cmp(&self, other: &ClauseCandidate) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

/// The owned half of the circuit backend: AND-gate fanout CSR, the
/// J-frontier queue and the implicit-learning queues. Holds no reference
/// to the circuit itself, so a [`crate::Session`] can own both a growing
/// [`Aig`] and this state side by side.
#[derive(Clone, Debug)]
pub(crate) struct CircuitState {
    jnode_decisions: bool,
    implicit_learning: bool,
    /// AND gates fed by each node, in flat CSR form (the BCP hot loop
    /// streams through this; see `csat_netlist::topo::FanoutCsr`).
    fanouts: FanoutCsr,
    /// The J-frontier (C-SAT-Jnode mode): AND gates whose output was
    /// assigned 0, in trail order. A gate is pushed when propagation
    /// processes its output's 0 literal, so every entry's output is 0 and
    /// backtracking pops exactly a suffix. A superset of the unjustified
    /// gates: the decision scan skips justified entries and drops those
    /// justified for as long as they stay queued.
    jqueue: Vec<u32>,
    /// Free literals of unsatisfied learned clauses, as lazy candidates.
    clause_cands: BinaryHeap<ClauseCandidate>,
    clause_queued: Vec<bool>,
    /// Implicit learning: correlated partner of each node.
    partner: Vec<Option<(NodeId, Relation)>>,
    /// Implicit learning: correlation against constant 0.
    const_rel: Vec<Option<Relation>>,
    /// Pending grouped decisions: (level at push, trigger node, trigger
    /// value, partner, value to assign). Entries are only honored at the
    /// decision immediately following their creation, while the trigger
    /// still holds its value — the paper groups the partner with a signal
    /// "just being assigned", not with long-undone history.
    group_queue: Vec<(u32, NodeId, bool, NodeId, bool)>,
}

impl CircuitState {
    /// Builds the backend state for `aig` under `options`.
    pub(crate) fn new(aig: &Aig, options: &SolverOptions) -> CircuitState {
        let n = aig.len();
        CircuitState {
            jnode_decisions: options.jnode_decisions,
            implicit_learning: options.implicit_learning,
            fanouts: FanoutCsr::build(aig),
            jqueue: Vec::new(),
            clause_cands: BinaryHeap::new(),
            clause_queued: Vec::new(),
            partner: vec![None; n],
            const_rel: vec![None; n],
            group_queue: Vec::new(),
        }
    }

    /// Grows every per-node table to `n` nodes. New nodes start with no
    /// correlations. The fanout CSR is *not* extended here — that is
    /// deferred to [`CircuitState::extend_fanouts`] so a burst of
    /// `Session` additions pays for one rebuild, not many.
    pub(crate) fn grow_to(&mut self, n: usize) {
        if n <= self.partner.len() {
            return;
        }
        self.partner.resize(n, None);
        self.const_rel.resize(n, None);
    }

    /// Extends the fanout CSR with the gates of `aig` from node index
    /// `first_new` on (see [`FanoutCsr::extend`]), and empties the
    /// J-frontier: the caller rewinds propagation to replay the root
    /// trail through the new gates, which queues its 0-output gates again.
    pub(crate) fn extend_fanouts(&mut self, aig: &Aig, first_new: usize) {
        self.fanouts.extend(aig, first_new);
        self.jqueue.clear();
    }

    /// Installs pair correlations as decision-grouping partners and
    /// constant correlations as value-selection overrides (Algorithm
    /// IV.1). Shared by [`Solver::set_correlations`] and
    /// [`crate::Session::set_correlations`].
    pub(crate) fn install_correlations(&mut self, correlations: &CorrelationResult) {
        for c in &correlations.correlations {
            if c.is_constant() {
                self.const_rel[c.a.index()] = Some(c.relation);
            } else {
                // Symmetric grouping: first registration wins.
                if self.partner[c.a.index()].is_none() {
                    self.partner[c.a.index()] = Some((c.b, c.relation));
                }
                if self.partner[c.b.index()].is_none() {
                    self.partner[c.b.index()] = Some((c.a, c.relation));
                }
            }
        }
    }
}

/// Builds the kernel context that matches [`CircuitState::new`]: one
/// variable per node, the constant node asserted as a level-0 fact, and —
/// in plain-VSIDS mode — every signal seeded into the decision heap.
pub(crate) fn new_context(aig: &Aig, options: &SolverOptions) -> SearchContext<Lit> {
    let n = aig.len();
    let mut ctx = SearchContext::new(
        n,
        options.search,
        !options.jnode_decisions,
        (aig.and_count() / 2).max(2000),
    );
    // The constant node is a level-0 fact.
    let constant = ctx.enqueue(!NodeId::FALSE.lit(), Reason::Axiom);
    debug_assert!(constant.is_ok());
    if !options.jnode_decisions {
        for node in 1..n {
            ctx.heap_insert(node);
        }
    }
    ctx
}

/// The circuit-specific backend: a borrow of the circuit paired with a
/// borrow of the [`CircuitState`], implementing [`Propagator`] for the
/// duration of one engine call. Constructed on the fly by [`Solver`] and
/// [`crate::Session`].
#[derive(Debug)]
pub(crate) struct CircuitPropagator<'a> {
    pub(crate) aig: &'a Aig,
    pub(crate) state: &'a mut CircuitState,
}

impl CircuitPropagator<'_> {
    /// Applies the implication table to one gate, implying through
    /// [`Reason::External`] with the gate index as the explain token.
    fn propagate_gate(
        &mut self,
        ctx: &mut SearchContext<Lit>,
        g: NodeId,
    ) -> Result<(), Conflict<Lit>> {
        let (a, b) = match self.aig.node(g) {
            Node::And(a, b) => (a, b),
            _ => return Ok(()),
        };
        let acts = implication::lookup(ctx.value(g.index()), ctx.lit_value(a), ctx.lit_value(b));
        use crate::implication::Action;
        for action in acts.iter() {
            let lit = match action {
                Action::OutputFalse => !g.lit(),
                Action::OutputTrue => g.lit(),
                Action::AFalse => !a,
                Action::ATrue => a,
                Action::BFalse => !b,
                Action::BTrue => b,
            };
            ctx.enqueue(lit, Reason::External(g.index() as u32))?;
        }
        Ok(())
    }

    /// Premise literals (negated, i.e. false) of a gate implication.
    fn gate_false_lits(&self, ctx: &SearchContext<Lit>, of: Lit, g: NodeId, out: &mut Vec<Lit>) {
        let (a, b) = match self.aig.node(g) {
            Node::And(a, b) => (a, b),
            _ => unreachable!("gate reason on a non-AND node"),
        };
        if of.node() == g {
            if of.is_complemented() {
                // Output implied 0 by a 0-fanin. Prefer one assigned before
                // the output (a genuine implication premise); fall back to
                // any 0-fanin when materializing a conflict clause.
                let out_pos = ctx.position(g.index());
                let pick = |l: Lit| -> bool { ctx.lit_value(l) == FALSE };
                let earlier =
                    |l: Lit| -> bool { pick(l) && ctx.position(l.node().index()) < out_pos };
                let chosen = if earlier(a) && earlier(b) {
                    if ctx.position(a.node().index()) <= ctx.position(b.node().index()) {
                        a
                    } else {
                        b
                    }
                } else if earlier(a) {
                    a
                } else if earlier(b) {
                    b
                } else if pick(a) {
                    a
                } else {
                    debug_assert!(pick(b), "no justifying fanin for output-0 implication");
                    b
                };
                out.push(chosen);
            } else {
                // Output implied 1 by both fanins being 1.
                out.push(!a);
                out.push(!b);
            }
        } else {
            // A fanin was implied. Identify which edge.
            let fl = if a.node() == of.node() { a } else { b };
            let other = if a.node() == of.node() { b } else { a };
            debug_assert_eq!(fl.node(), of.node());
            if fl == of {
                // Fanin implied 1 because the output is 1.
                out.push(!g.lit());
            } else {
                // Fanin implied 0 because the output is 0 and the sibling 1.
                out.push(g.lit());
                out.push(!other);
            }
        }
    }

    fn lit_priority(&self, ctx: &SearchContext<Lit>, lit: Lit) -> u64 {
        ctx.activity()[lit.node().index()].to_bits()
    }

    fn push_clause_candidates(&mut self, ctx: &SearchContext<Lit>, cref: u32, lits: &[Lit]) {
        self.state.clause_queued[cref as usize] = true;
        let priority = self
            .lit_priority(ctx, lits[0])
            .max(self.lit_priority(ctx, lits[1]));
        self.state.clause_cands.push(ClauseCandidate {
            priority,
            lit: lits[0],
            cref,
        });
    }

    /// VSIDS among J-node inputs and learned-gate literals.
    fn pick_jnode_decision(&mut self, ctx: &SearchContext<Lit>) -> Option<Lit> {
        // Highest-activity unassigned fanin edge of an unjustified gate.
        let edge = self.scan_frontier(ctx);
        let node_priority = edge.map_or(0, |fl| self.lit_priority(ctx, fl));
        // Learned-gate candidates compete under the same VSIDS order.
        while let Some(&top) = self.state.clause_cands.peek() {
            if edge.is_some() && top.priority <= node_priority {
                break;
            }
            self.state.clause_cands.pop();
            let ClauseCandidate { lit, cref, .. } = top;
            self.state.clause_queued[cref as usize] = false;
            if ctx.clause_is_deleted(cref) {
                continue;
            }
            let lits = ctx.clause_lits(cref);
            let (w0, w1) = (lits[0], lits[1]);
            if ctx.lit_value(w0) == TRUE || ctx.lit_value(w1) == TRUE {
                continue; // satisfied (at least through its watches)
            }
            let free = if ctx.lit_value(lit) == UNDEF {
                lit
            } else if ctx.lit_value(w0) == UNDEF {
                w0
            } else if ctx.lit_value(w1) == UNDEF {
                w1
            } else {
                continue;
            };
            return Some(self.apply_value_heuristic(free));
        }
        // Justify the gate: set the fanin edge to 0 (ATPG justification),
        // unless a constant correlation overrides the value. No edge and
        // no learned-gate candidate means every gate is justified: SAT.
        edge.map(|fl| self.apply_value_heuristic(!fl))
    }

    /// One pass over the J-frontier queue at a decision (BCP is at a
    /// fixpoint, so an unjustified gate has both fanins unassigned).
    /// Returns the unassigned fanin edge of an unjustified gate with the
    /// highest VSIDS activity; ties go to the latest-queued gate and,
    /// within a gate, to fanin `b`.
    ///
    /// The same pass compacts the queue: a gate with a 0-fanin assigned at
    /// or below its output's level stays justified until a backtrack
    /// unassigns that fanin — which unassigns the output too and pops the
    /// gate anyway — so it is dropped. Gates justified only from a higher
    /// level are kept, since a backjump can un-justify them.
    fn scan_frontier(&mut self, ctx: &SearchContext<Lit>) -> Option<Lit> {
        let activity = ctx.activity();
        let mut best: Option<(f64, Lit)> = None;
        let queue = &mut self.state.jqueue;
        let mut kept = 0;
        for i in 0..queue.len() {
            let g = queue[i];
            let Node::And(a, b) = self.aig.node(NodeId::from_index(g as usize)) else {
                unreachable!("J-frontier entry is not an AND gate")
            };
            let (va, vb) = (ctx.lit_value(a), ctx.lit_value(b));
            if va == FALSE || vb == FALSE {
                let level = ctx.level(g as usize);
                let settled = |l: Lit, v: u8| v == FALSE && ctx.level(l.node().index()) <= level;
                if settled(a, va) || settled(b, vb) {
                    continue;
                }
            } else {
                for (fl, v) in [(a, va), (b, vb)] {
                    let act = activity[fl.node().index()];
                    if v == UNDEF && best.is_none_or(|(top, _)| act >= top) {
                        best = Some((act, fl));
                    }
                }
            }
            queue[kept] = g;
            kept += 1;
        }
        queue.truncate(kept);
        best.map(|(_, fl)| fl)
    }

    /// Algorithm IV.1's constant-correlation value override: a signal
    /// correlated with 0 is assigned 1 (and vice versa) so the decision is
    /// the one most likely to cause a conflict.
    fn apply_value_heuristic(&self, lit: Lit) -> Lit {
        if !self.state.implicit_learning {
            return lit;
        }
        match self.state.const_rel[lit.node().index()] {
            // s ≈ 0: decide s = 1.
            Some(Relation::Equal) => Lit::new(lit.node(), false),
            // s ≈ 1: decide s = 0.
            Some(Relation::Opposite) => Lit::new(lit.node(), true),
            None => lit,
        }
    }
}

impl Propagator for CircuitPropagator<'_> {
    type Lit = Lit;

    fn propagate_literal(
        &mut self,
        ctx: &mut SearchContext<Lit>,
        p: Lit,
    ) -> Result<(), Conflict<Lit>> {
        let node = p.node();
        // The node itself, if it is an AND gate whose output changed. An
        // output of 0 joins the J-frontier, in trail order.
        if self.aig.node(node).is_and() {
            if p.is_complemented() && self.state.jnode_decisions {
                self.state.jqueue.push(node.index() as u32);
            }
            self.propagate_gate(ctx, node)?;
        }
        // Gates this node feeds: one contiguous CSR stream. Warm the next
        // gate's node-table line while the current one propagates — the
        // gates of a fanout list are scattered across the node table.
        let range = self.state.fanouts.bounds(node.index());
        let end = range.end;
        for i in range {
            let g = self.state.fanouts.at(i);
            if i + 1 < end {
                let next = self.state.fanouts.at(i + 1);
                prefetch_read(&self.aig.nodes()[next.index()]);
            }
            self.propagate_gate(ctx, g)?;
        }
        Ok(())
    }

    fn explain(&self, ctx: &SearchContext<Lit>, of: Lit, token: u32, out: &mut Vec<Lit>) {
        self.gate_false_lits(ctx, of, NodeId::from_index(token as usize), out);
    }

    /// Chooses the next decision literal. Grouped implicit-learning
    /// decisions (Algorithm IV.1's first branch) take precedence; an entry
    /// is stale — and skipped — once its trigger lost the value that
    /// created it or the partner got assigned some other way.
    fn pick_decision(&mut self, ctx: &mut SearchContext<Lit>) -> Option<(Lit, bool)> {
        if self.state.implicit_learning {
            let now = ctx.decision_level();
            // FIFO: honor the grouping requests in the order BCP created
            // them (implication order), dropping entries from other levels.
            let queue = std::mem::take(&mut self.state.group_queue);
            let mut iter = queue.into_iter();
            for (level, trigger, tv, partner, target) in iter.by_ref() {
                if level != now {
                    continue;
                }
                let trigger_live = ctx.value(trigger.index()) == tv as u8;
                if trigger_live && ctx.value(partner.index()) == UNDEF {
                    // Keep the remaining same-level entries for the next
                    // decision.
                    self.state.group_queue = iter.filter(|&(l, ..)| l == now).collect();
                    return Some((Lit::new(partner, !target), true));
                }
            }
        }
        if self.state.jnode_decisions {
            self.pick_jnode_decision(ctx).map(|l| (l, false))
        } else {
            // Plain VSIDS over all signals (the paper's initial C-SAT).
            ctx.pop_heap_candidate()
                .map(|var| (self.apply_value_heuristic(ctx.decision_lit(var)), false))
        }
    }

    fn extract_model(&self, ctx: &SearchContext<Lit>) -> Vec<bool> {
        self.aig
            .inputs()
            .iter()
            .map(|&id| ctx.value(id.index()) == TRUE)
            .collect()
    }

    fn on_solve_start(&mut self, _ctx: &mut SearchContext<Lit>) {
        self.state.group_queue.clear();
    }

    /// Implicit learning: when a signal is assigned by *implication*
    /// (Algorithm IV.1: "just being assigned a value v by implication
    /// (BCP)"), queue its correlated partner as the next decision, with
    /// the conflict-prone value.
    fn on_implications(&mut self, ctx: &SearchContext<Lit>, from: usize) {
        if !self.state.implicit_learning {
            return;
        }
        let level = ctx.decision_level();
        for &lit in &ctx.trail()[from..] {
            let node = lit.node();
            if let Some((p, rel)) = self.state.partner[node.index()] {
                if ctx.value(p.index()) == UNDEF {
                    let value = !lit.is_complemented();
                    let target = match rel {
                        Relation::Equal => !value,
                        Relation::Opposite => value,
                    };
                    self.state.group_queue.push((level, node, value, p, target));
                }
            }
        }
    }

    /// Pops the J-frontier entries whose output lost its value. Entries
    /// are in trail order and a backtrack unassigns a trail suffix, so
    /// they form a suffix of the queue. (Trail literals a conflict left
    /// unprocessed were never queued; they sit at the conflict level,
    /// which the backjump undoes.)
    fn on_backtrack(&mut self, ctx: &SearchContext<Lit>) {
        let queue = &mut self.state.jqueue;
        while queue
            .last()
            .is_some_and(|&g| ctx.value(g as usize) == UNDEF)
        {
            queue.pop();
        }
        debug_assert!(
            queue.iter().all(|&g| ctx.value(g as usize) == FALSE),
            "J-frontier entries below the popped suffix keep output 0"
        );
    }

    fn on_learned(&mut self, ctx: &SearchContext<Lit>, cref: u32) {
        debug_assert_eq!(self.state.clause_queued.len(), cref as usize);
        self.state.clause_queued.push(false);
        if self.state.jnode_decisions {
            // Learned gates are J-nodes (paper Section IV-A): make their
            // free literals decision candidates.
            let lits: [Lit; 2] = [ctx.clause_lits(cref)[0], ctx.clause_lits(cref)[1]];
            self.push_clause_candidates(ctx, cref, &lits);
        }
    }
}

/// The circuit SAT solver.
///
/// A solver is constructed over one circuit and can be queried repeatedly;
/// learned clauses persist across calls (this is what makes the paper's
/// incremental learn-from-conflict strategy work). The circuit itself is
/// borrowed and fixed — to *grow* the circuit between solves, use the
/// incremental [`crate::Session`], which owns its netlist and exposes the
/// same solving entry point.
///
/// # Example
///
/// ```
/// use csat_core::{Solver, SolverOptions, Verdict};
/// use csat_netlist::Aig;
///
/// let mut aig = Aig::new();
/// let a = aig.input();
/// let b = aig.input();
/// let y = aig.and(a, !b);
/// aig.set_output("y", y);
/// let mut solver = Solver::new(&aig, SolverOptions::default());
/// assert_eq!(solver.solve(y), Verdict::Sat(vec![true, false]));
/// ```
#[derive(Clone, Debug)]
pub struct Solver<'a> {
    options: SolverOptions,
    aig: &'a Aig,
    ctx: SearchContext<Lit>,
    state: CircuitState,
}

impl<'a> Solver<'a> {
    /// Builds a solver over the given circuit.
    pub fn new(aig: &'a Aig, options: SolverOptions) -> Solver<'a> {
        Solver {
            options,
            aig,
            ctx: new_context(aig, &options),
            state: CircuitState::new(aig, &options),
        }
    }

    /// Installs signal correlations for implicit learning.
    ///
    /// Pair correlations become decision-grouping partners; correlations
    /// against the constant drive the value selection of Algorithm IV.1.
    /// Has no observable effect unless
    /// [`SolverOptions::implicit_learning`] is set.
    pub fn set_correlations(&mut self, correlations: &CorrelationResult) {
        self.state.install_correlations(correlations);
    }

    /// The solver's statistics so far (cumulative across calls).
    pub fn stats(&self) -> &Stats {
        self.ctx.stats()
    }

    /// The circuit this solver operates on (with the full borrow lifetime,
    /// so a caller can rebuild a solver over the same circuit — which is
    /// how the explicit-learning pass recovers from an isolated panic).
    pub fn aig(&self) -> &'a Aig {
        self.aig
    }

    /// The options this solver was built with.
    pub fn options(&self) -> SolverOptions {
        self.options
    }

    /// Number of learned clauses currently alive.
    pub fn learned_count(&self) -> u64 {
        self.ctx.learned_count()
    }

    /// Estimated bytes held by the learned-clause arena — the quantity
    /// bounded by [`Budget::max_memory_bytes`].
    pub fn learned_memory_bytes(&self) -> u64 {
        self.ctx.learned_memory_bytes()
    }

    /// `(glue, deleted)` for every learned clause ever attached, in
    /// allocation order (ingested clauses carry `u32::MAX` glue). A
    /// diagnostic surface for auditing DB-reduction policy.
    pub fn learned_clause_glues(&self) -> Vec<(u32, bool)> {
        (0..self.ctx.num_clause_refs())
            .map(|c| (self.ctx.clause_glue(c), self.ctx.clause_is_deleted(c)))
            .collect()
    }

    /// Enables clause export for parallel clause sharing (see
    /// [`csat_search::SearchContext::set_clause_export`]): learned clauses
    /// with glue ≤ `glue_cap` and ≤ `len_cap` literals are buffered (up to
    /// `max_buffered`) until drained with [`Solver::take_exported`].
    pub fn set_clause_export(&mut self, glue_cap: u32, len_cap: usize, max_buffered: usize) {
        self.ctx.set_clause_export(glue_cap, len_cap, max_buffered);
    }

    /// Drains the exported-clause buffer: `(literals, glue)` in learn
    /// order.
    pub fn take_exported(&mut self) -> Vec<(Vec<Lit>, u32)> {
        self.ctx.take_exported()
    }

    /// Up to `k` of the hottest currently-unassigned variables (node
    /// indices) by VSIDS activity, hottest first — cube-and-conquer split
    /// candidates.
    pub fn top_active_vars(&self, k: usize) -> Vec<usize> {
        self.ctx.top_active_vars(k)
    }

    /// True while learned clauses are being recorded for proof checking.
    pub fn proof_active(&self) -> bool {
        self.ctx.proof_active()
    }

    /// Starts recording learned clauses for later checking with
    /// [`crate::proof::verify_unsat`]. Clears any previous log.
    pub fn start_proof(&mut self) {
        self.ctx.start_proof()
    }

    /// Takes the recorded proof log and stops logging.
    pub fn take_proof(&mut self) -> Vec<Vec<Lit>> {
        self.ctx.take_proof()
    }

    /// Adds a clause known to be implied by the circuit (used by explicit
    /// learning to record refuted sub-problems). The clause is *pinned*:
    /// database reduction never drops it, even under memory pressure.
    ///
    /// # Errors
    ///
    /// [`LitOutOfRange`] if any literal refers to a node outside the
    /// circuit; the solver is left unchanged.
    pub fn add_learned_clause(&mut self, lits: Vec<Lit>) -> Result<(), LitOutOfRange> {
        let mut prop = CircuitPropagator {
            aig: self.aig,
            state: &mut self.state,
        };
        ingest_clause(&mut self.ctx, &mut prop, lits)
    }

    /// Decides satisfiability of "`objective` can evaluate to 1".
    ///
    /// Thin wrapper over [`Solver::solve_under`] with an unlimited budget
    /// and no observer.
    pub fn solve(&mut self, objective: Lit) -> Verdict {
        self.solve_with_budget(objective, &Budget::UNLIMITED)
    }

    /// Like [`Solver::solve`] with a resource budget. Thin wrapper over
    /// [`Solver::solve_under`] with no observer.
    pub fn solve_with_budget(&mut self, objective: Lit, budget: &Budget) -> Verdict {
        self.solve_observed(objective, budget, &mut NoOpObserver)
    }

    /// Like [`Solver::solve_with_budget`], reporting search events to the
    /// given [`Observer`]. Thin wrapper over [`Solver::solve_under`] with
    /// the objective as the single assumption, collapsing the
    /// assumption-aware [`SubVerdict`] into a plain [`Verdict`].
    ///
    /// With the default [`NoOpObserver`] this monomorphizes to exactly the
    /// unobserved solve — no event is materialized, no allocation happens.
    pub fn solve_observed<O>(&mut self, objective: Lit, budget: &Budget, obs: &mut O) -> Verdict
    where
        O: Observer + ?Sized,
    {
        match self.solve_under(&[objective], budget, obs) {
            SubVerdict::Sat(model) => Verdict::Sat(model),
            SubVerdict::Unsat | SubVerdict::UnsatUnderAssumptions(_) => Verdict::Unsat,
            SubVerdict::Aborted(reason) => Verdict::Unknown(reason),
        }
    }

    /// Solves under a set of assumption literals with a budget, reporting
    /// search events to the given [`Observer`].
    ///
    /// **This is the canonical entry point** — every other `solve*` method
    /// on this type is a documented thin wrapper around it. It is the
    /// engine behind the top-level query (the objective is just an
    /// assumption), the explicit-learning sub-problems (paper Section V)
    /// and SAT sweeping: learned clauses survive the call, and a refuted
    /// assumption set is reported as
    /// [`SubVerdict::UnsatUnderAssumptions`] carrying a failed-assumption
    /// core (IPASIR `failed()`) so the caller can record its negation.
    ///
    /// Pass [`NoOpObserver`] when no telemetry is wanted; the observer
    /// hooks monomorphize away entirely.
    pub fn solve_under<O>(
        &mut self,
        assumptions: &[Lit],
        budget: &Budget,
        obs: &mut O,
    ) -> SubVerdict
    where
        O: Observer + ?Sized,
    {
        let mut prop = CircuitPropagator {
            aig: self.aig,
            state: &mut self.state,
        };
        match solve_under(&mut self.ctx, &mut prop, assumptions, budget, obs) {
            SearchResult::Sat(model) => SubVerdict::Sat(model),
            SearchResult::Unsat => SubVerdict::Unsat,
            SearchResult::UnsatUnderAssumptions(core) => SubVerdict::UnsatUnderAssumptions(core),
            SearchResult::Aborted(reason) => SubVerdict::Aborted(reason),
        }
    }
}

#[cfg(test)]
mod frontier_tests;
