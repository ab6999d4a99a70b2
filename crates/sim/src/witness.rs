//! A pool of full-circuit witnesses: node-value vectors of satisfying
//! input assignments that a SAT search has already found.
//!
//! A stored witness that satisfies every literal of an assumption set
//! proves that set satisfiable without another search. SAT sweeping uses
//! the pool to refute candidate equivalences that an earlier
//! counterexample already distinguishes, and explicit learning uses it to
//! skip sub-problem orientations an earlier model already satisfies.

use csat_netlist::Lit;

/// Witnesses stored bit-sliced: block `k` holds witnesses `64k..64k+63`,
/// one `u64` per node with bit `j` the node's value under witness
/// `64k + j`. A query is then one word-wide AND per literal per block.
///
/// # Example
///
/// ```
/// use csat_netlist::Aig;
/// use csat_sim::Witnesses;
///
/// let mut aig = Aig::new();
/// let a = aig.input();
/// let b = aig.input();
/// let x = aig.and(a, b);
/// let mut pool = Witnesses::new(aig.len());
/// pool.push(&aig.evaluate(&[true, true]));
/// assert!(pool.satisfies(&[x, a]));
/// assert!(!pool.satisfies(&[!x]));
/// ```
#[derive(Debug)]
pub struct Witnesses {
    nodes: usize,
    blocks: Vec<Vec<u64>>,
    len: usize,
}

impl Witnesses {
    /// An empty pool for a circuit of `nodes` nodes.
    pub fn new(nodes: usize) -> Witnesses {
        Witnesses {
            nodes,
            blocks: Vec::new(),
            len: 0,
        }
    }

    /// Stores one witness: a node-value vector as returned by
    /// [`Aig::evaluate`](csat_netlist::Aig::evaluate).
    pub fn push(&mut self, values: &[bool]) {
        assert_eq!(values.len(), self.nodes, "one value per node");
        let bit = self.len % 64;
        if bit == 0 {
            self.blocks.push(vec![0; self.nodes]);
        }
        let block = self.blocks.last_mut().expect("a block was just ensured");
        for (word, &v) in block.iter_mut().zip(values) {
            *word |= u64::from(v) << bit;
        }
        self.len += 1;
    }

    /// Whether some stored witness makes every literal in `lits` true.
    pub fn satisfies(&self, lits: &[Lit]) -> bool {
        self.blocks.iter().enumerate().any(|(k, block)| {
            let filled = (self.len - 64 * k).min(64);
            let mut mask = if filled == 64 {
                !0
            } else {
                (1u64 << filled) - 1
            };
            for &l in lits {
                let flip = if l.is_complemented() { !0 } else { 0 };
                mask &= block[l.node().index()] ^ flip;
            }
            mask != 0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csat_netlist::{generators, Aig};
    use rand::{Rng, SeedableRng};

    /// The bit-sliced query agrees with a plain scan over the stored
    /// vectors, across block boundaries.
    #[test]
    fn agrees_with_a_linear_scan() {
        let aig: Aig = generators::ripple_carry_adder(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut pool = Witnesses::new(aig.len());
        let mut plain: Vec<Vec<bool>> = Vec::new();
        for _ in 0..150 {
            let inputs: Vec<bool> = (0..aig.inputs().len()).map(|_| rng.gen()).collect();
            let values = aig.evaluate(&inputs);
            pool.push(&values);
            plain.push(values);
            for _ in 0..20 {
                let lits: Vec<Lit> = (0..rng.gen_range(1..4))
                    .map(|_| {
                        let node = csat_netlist::NodeId::from_index(rng.gen_range(0..aig.len()));
                        Lit::new(node, rng.gen())
                    })
                    .collect();
                let expected = plain
                    .iter()
                    .any(|v| lits.iter().all(|&l| aig.lit_value(v, l)));
                assert_eq!(pool.satisfies(&lits), expected, "{lits:?}");
            }
        }
    }

    #[test]
    fn empty_pool_satisfies_nothing() {
        assert!(!Witnesses::new(3).satisfies(&[]));
    }
}
