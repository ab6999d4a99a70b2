//! Indexed max-heap over variable activities (the VSIDS order).
//!
//! This is the single heap implementation of the workspace: the kernel's
//! decision heap (plain-VSIDS mode and the CNF backend). The circuit
//! solver's J-node decisions scan its J-frontier queue instead.

/// A binary max-heap of variable indices keyed by an external activity
/// array, with an index table for O(log n) `update` when an activity is
/// bumped.
#[derive(Clone, Debug, Default)]
pub struct ActivityHeap {
    heap: Vec<u32>,
    /// position[v] = index in `heap`, or `NOT_IN_HEAP`.
    position: Vec<u32>,
}

const NOT_IN_HEAP: u32 = u32::MAX;

impl ActivityHeap {
    /// Creates a heap able to hold variables `0..n`.
    pub fn with_capacity(n: usize) -> ActivityHeap {
        ActivityHeap {
            heap: Vec::with_capacity(n),
            position: vec![NOT_IN_HEAP; n],
        }
    }

    /// Extends the variable range to `0..n`; new variables start outside
    /// the heap. Existing entries and positions are untouched, so this is
    /// safe to call between solves of an incremental session.
    pub fn grow_to(&mut self, n: usize) {
        if n > self.position.len() {
            self.position.resize(n, NOT_IN_HEAP);
        }
    }

    /// Number of variables currently in the heap.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no variable is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// True if `var` is queued.
    pub fn contains(&self, var: u32) -> bool {
        self.position[var as usize] != NOT_IN_HEAP
    }

    /// Inserts `var` (no-op when already present).
    pub fn insert(&mut self, var: u32, activity: &[f64]) {
        if self.contains(var) {
            return;
        }
        self.position[var as usize] = self.heap.len() as u32;
        self.heap.push(var);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restores heap order after `var`'s activity increased.
    pub fn update(&mut self, var: u32, activity: &[f64]) {
        let pos = self.position[var as usize];
        if pos != NOT_IN_HEAP {
            self.sift_up(pos as usize, activity);
        }
    }

    /// Removes and returns the variable with the largest activity.
    pub fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        self.position[top as usize] = NOT_IN_HEAP;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.position[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if activity[self.heap[i] as usize] <= activity[self.heap[parent] as usize] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len()
                && activity[self.heap[l] as usize] > activity[self.heap[best] as usize]
            {
                best = l;
            }
            if r < self.heap.len()
                && activity[self.heap[r] as usize] > activity[self.heap[best] as usize]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.position[self.heap[i] as usize] = i as u32;
        self.position[self.heap[j] as usize] = j as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_order() {
        let activity = vec![0.5, 3.0, 1.0, 2.0];
        let mut h = ActivityHeap::with_capacity(4);
        for v in 0..4 {
            h.insert(v, &activity);
        }
        assert_eq!(h.pop(&activity), Some(1));
        assert_eq!(h.pop(&activity), Some(3));
        assert_eq!(h.pop(&activity), Some(2));
        assert_eq!(h.pop(&activity), Some(0));
        assert_eq!(h.pop(&activity), None);
    }

    #[test]
    fn update_reorders() {
        let mut activity = vec![1.0, 2.0, 3.0];
        let mut h = ActivityHeap::with_capacity(3);
        for v in 0..3 {
            h.insert(v, &activity);
        }
        activity[0] = 10.0;
        h.update(0, &activity);
        assert_eq!(h.pop(&activity), Some(0));
    }

    #[test]
    fn insert_is_idempotent() {
        let activity = vec![1.0];
        let mut h = ActivityHeap::with_capacity(1);
        h.insert(0, &activity);
        h.insert(0, &activity);
        assert_eq!(h.len(), 1);
        assert!(h.contains(0));
        h.pop(&activity);
        assert!(!h.contains(0));
        assert!(h.is_empty());
    }

    #[test]
    fn random_operations_keep_max_property() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let n = 64;
        let mut activity: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let mut h = ActivityHeap::with_capacity(n);
        for v in 0..n as u32 {
            h.insert(v, &activity);
        }
        for _ in 0..200 {
            let v = rng.gen_range(0..n as u32);
            activity[v as usize] += rng.gen::<f64>();
            h.update(v, &activity);
            if rng.gen_bool(0.3) {
                if let Some(top) = h.pop(&activity) {
                    // Everything still queued must have <= activity.
                    for u in 0..n as u32 {
                        if h.contains(u) {
                            assert!(activity[u as usize] <= activity[top as usize] + 1e-12);
                        }
                    }
                    h.insert(top, &activity);
                }
            }
        }
    }
}
