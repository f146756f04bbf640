//! Incremental SINO evaluation: [`DeltaEval`] re-scores single-track edits
//! by patching only the affected track neighbourhood.
//!
//! The seed solvers ([`crate::reference`]) clone the whole [`Layout`] per
//! candidate move and rescan every track pair from scratch, making one
//! greedy placement O(instance²) and Phase II the last clone-and-reevaluate
//! hot path in the pipeline. Under the block Keff model, though, a
//! single-slot edit only disturbs the blocks touching it:
//!
//! * inserting/removing a **signal** changes the couplings of its enclosing
//!   block only;
//! * inserting/removing a **shield** splits/merges the two blocks beside
//!   it;
//! * a **swap** touches the blocks around both positions;
//! * capacitive violations change only at the edited track adjacencies.
//!
//! `DeltaEval` therefore keeps the slot sequence plus per-segment `Kᵢ`,
//! per-segment overflow, the capacitive-violation count and the shield
//! count, and patches them in O(affected block²) per edit instead of
//! O(instance²).
//!
//! # Bitwise-equality contract
//!
//! Every cached value is **bit-identical** to a from-scratch
//! [`crate::keff::evaluate`] of the current slots, not merely close:
//! affected blocks are recomputed with the exact pair order of
//! [`crate::keff::coupling`] (each segment's `Kᵢ` accumulates only within
//! its own block, so a per-block recompute reproduces the global f64
//! rounding exactly), and [`DeltaEval::total_overflow`] sums the overflow
//! vector in the same index order as
//! [`Evaluation::total_overflow`](crate::keff::Evaluation::total_overflow).
//! This is what lets the rewritten [`crate::greedy`] and [`crate::anneal`]
//! solvers reproduce the seed solvers' decisions — and layouts — bit for
//! bit. In debug builds every mutation checks itself against a full
//! `evaluate` oracle; the `proptests` module drives random edit sequences
//! against the same oracle in any build.
//!
//! # Scans
//!
//! The greedy solver's scans use a crate-internal mode on top of this.
//! Placement slides a segment through the gaps with slot-only
//! transpositions (the coupling caches are stale until
//! `end_placement`), and a repair split scan sweeps a virtual shield over
//! a block without editing the slots. Both keep integer fixed-point
//! couplings from which `crate::bracket` derives certified f64 brackets,
//! and both compute exact values from the slots on demand. The buffers live
//! here, so a reused `DeltaEval` reuses them too.

use crate::bracket::{extend_terms, Bracket, CouplingBounds};
use crate::instance::SinoInstance;
use crate::keff::Evaluation;
use crate::layout::{Layout, Slot};

/// Incremental evaluation state for one layout under one instance.
///
/// The structure is a reusable scratch: [`DeltaEval::reset`] and
/// [`DeltaEval::load`] retarget it to a new instance/layout while keeping
/// the allocations, which is how Phase II's worklist reuses one `DeltaEval`
/// per worker thread across all its regions.
///
/// # Example
///
/// ```
/// use gsino_sino::delta::DeltaEval;
/// use gsino_sino::instance::{SegmentSpec, SinoInstance};
/// use gsino_sino::layout::{Layout, Slot};
/// use gsino_sino::keff::evaluate;
///
/// # fn main() -> Result<(), gsino_sino::SinoError> {
/// let inst = SinoInstance::new(
///     vec![SegmentSpec { net: 0, kth: 0.5 }, SegmentSpec { net: 1, kth: 0.5 }],
///     vec![false, true, true, false],
/// )?;
/// let mut delta = DeltaEval::new();
/// delta.load(&inst, &Layout::from_order(&[0, 1]));
/// assert_eq!(delta.cap_violations(), 1);
///
/// // Trial move: a shield between them fixes both violations...
/// delta.insert_shield(&inst, 1);
/// assert!(delta.feasible());
/// // ...and the cached state always equals a from-scratch evaluate.
/// assert_eq!(delta.evaluation(), evaluate(&inst, &delta.to_layout()));
///
/// // Undo restores the previous state exactly.
/// delta.remove_shield_at(&inst, 1);
/// assert_eq!(delta.cap_violations(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct DeltaEval {
    /// The current track contents (mirrors a [`Layout`]).
    slots: Vec<Slot>,
    /// Per-segment coupling `Kᵢ`, bit-identical to [`crate::keff::coupling`].
    k: Vec<f64>,
    /// Per-segment overflow `max(0, Kᵢ − Kth(i))`.
    overflow: Vec<f64>,
    /// Adjacent sensitive pairs.
    cap: usize,
    /// Shield slots.
    shields: usize,
    /// Segments with positive overflow (feasibility counter).
    overflowing: usize,
    /// Scan state: per-segment coupling in fixed point (see
    /// [`crate::bracket`]), kept exact by integer updates. During placement
    /// it follows the slots from [`DeltaEval::reset`] on; during a split
    /// scan, segments outside the scanned block hold [`OUTSIDE`].
    fixed: Vec<u64>,
    /// Placement only: `fixed` as of the scan's best gap so far.
    fixed_best: Vec<u64>,
    /// `inv[d]` is the fixed-point image of the f64 term `1.0 / d`
    /// (`inv[0]` is unused); grown on demand and kept across solves.
    inv: Vec<u64>,
    /// Placement: the sliding segment's track. Split scan: the first track
    /// right of the virtual shield.
    scan_pos: usize,
    /// First track of the scanned block.
    scan_start: usize,
    /// Signals in the scanned block (the bound on coupling summands).
    scan_len: usize,
}

/// `fixed` entry of a segment outside a split scan's block: its coupling
/// does not change, so the cached (exact) overflow stands in for a bracket.
const OUTSIDE: u64 = u64::MAX;

/// The segment on a scanned track (scanned blocks hold signals only).
fn signal(slot: Slot) -> usize {
    match slot {
        Slot::Signal(s) => s,
        Slot::Shield => unreachable!("placement scans hold signals only"),
    }
}

impl DeltaEval {
    /// An empty evaluator; call [`DeltaEval::reset`] or [`DeltaEval::load`]
    /// before editing.
    pub fn new() -> Self {
        DeltaEval::default()
    }

    /// Retargets the evaluator to `instance` with an empty layout, keeping
    /// allocations.
    pub fn reset(&mut self, instance: &SinoInstance) {
        self.slots.clear();
        self.k.clear();
        self.k.resize(instance.n(), 0.0);
        self.overflow.clear();
        self.overflow.resize(instance.n(), 0.0);
        self.cap = 0;
        self.shields = 0;
        self.overflowing = 0;
        self.fixed.clear();
        self.fixed.resize(instance.n(), 0);
    }

    /// Retargets the evaluator to `instance` holding `layout`, rebuilding
    /// every cached aggregate from scratch (the only O(instance) entry
    /// point — everything after is incremental).
    ///
    /// # Panics
    ///
    /// Panics if the layout references segments outside the instance.
    pub fn load(&mut self, instance: &SinoInstance, layout: &Layout) {
        self.reset(instance);
        self.slots.extend_from_slice(layout.slots());
        self.shields = layout.num_shields();
        let len = self.slots.len();
        let mut pos = 0;
        while pos < len {
            if matches!(self.slots[pos], Slot::Signal(_)) {
                let start = pos;
                while pos < len && matches!(self.slots[pos], Slot::Signal(_)) {
                    pos += 1;
                }
                self.recompute_block(instance, start);
            } else {
                pos += 1;
            }
        }
        self.cap = self.count_sens_pairs(instance);
        self.oracle_check(instance);
    }

    /// Occupied tracks.
    pub fn area(&self) -> usize {
        self.slots.len()
    }

    /// Shield count.
    pub fn num_shields(&self) -> usize {
        self.shields
    }

    /// The slots in track order.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Adjacent sensitive pairs.
    pub fn cap_violations(&self) -> usize {
        self.cap
    }

    /// Coupling `Kᵢ` of one segment.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn k(&self, i: usize) -> f64 {
        self.k[i]
    }

    /// All per-segment couplings (indexed by segment).
    pub fn k_values(&self) -> &[f64] {
        &self.k
    }

    /// Sum of inductive overflows, bit-identical to
    /// [`Evaluation::total_overflow`] on the same layout (same summation
    /// order over identical per-segment values; summing all-zero entries
    /// yields exactly `0.0`, so the feasible case short-circuits).
    pub fn total_overflow(&self) -> f64 {
        if self.overflowing == 0 {
            return 0.0;
        }
        self.overflow.iter().sum()
    }

    /// Index and magnitude of the worst inductive overflow, if any —
    /// identical tie-breaking to [`Evaluation::worst_overflow`].
    pub fn worst_overflow(&self) -> Option<(usize, f64)> {
        self.overflow
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > 0.0)
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite overflow"))
            .map(|(i, &v)| (i, v))
    }

    /// Whether the layout satisfies all RLC constraints (O(1)).
    pub fn feasible(&self) -> bool {
        self.cap == 0 && self.overflowing == 0
    }

    /// Track position of a segment, if present.
    pub fn position_of(&self, segment: usize) -> Option<usize> {
        self.slots.iter().position(|s| *s == Slot::Signal(segment))
    }

    /// A full [`Evaluation`], bit-identical to
    /// [`crate::keff::evaluate`] on [`DeltaEval::to_layout`].
    pub fn evaluation(&self) -> Evaluation {
        Evaluation {
            k: self.k.clone(),
            cap_violations: self.cap,
            overflow: self.overflow.clone(),
            area: self.slots.len(),
            shields: self.shields,
            feasible: self.feasible(),
        }
    }

    /// Materializes the current slots as a [`Layout`]. The editing API
    /// preserves the exactly-once segment invariant, so no re-validation
    /// is needed (debug builds re-check it).
    pub fn to_layout(&self) -> Layout {
        Layout::from_slots_trusted(self.slots.clone())
    }

    /// Inserts `slot` before track `pos` (`pos == area()` appends),
    /// patching couplings of the touched blocks only.
    ///
    /// # Panics
    ///
    /// Panics if `pos > area()` or (debug) if a duplicate segment is
    /// inserted.
    pub fn insert(&mut self, instance: &SinoInstance, pos: usize, slot: Slot) {
        assert!(
            pos <= self.slots.len(),
            "insert position {pos} out of range"
        );
        debug_assert!(
            match slot {
                Slot::Signal(s) => self.position_of(s).is_none(),
                Slot::Shield => true,
            },
            "segment inserted twice"
        );
        // The adjacency across the gap is broken by the insertion.
        if pos > 0 && self.sens_pair(instance, pos - 1) {
            self.cap -= 1;
        }
        self.slots.insert(pos, slot);
        if slot == Slot::Shield {
            self.shields += 1;
        }
        if pos > 0 && self.sens_pair(instance, pos - 1) {
            self.cap += 1;
        }
        if self.sens_pair(instance, pos) {
            self.cap += 1;
        }
        match slot {
            // The (possibly extended) block containing `pos` covers every
            // segment whose coupling changed.
            Slot::Signal(_) => self.recompute_around(instance, &[pos]),
            // A shield splits its enclosing block: both sides change.
            Slot::Shield => self.recompute_around(instance, &[pos.wrapping_sub(1), pos + 1]),
        }
        self.oracle_check(instance);
    }

    /// Removes and returns the slot at `pos`, patching the touched blocks.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= area()`.
    pub fn remove(&mut self, instance: &SinoInstance, pos: usize) -> Slot {
        assert!(pos < self.slots.len(), "remove position {pos} out of range");
        if pos > 0 && self.sens_pair(instance, pos - 1) {
            self.cap -= 1;
        }
        if self.sens_pair(instance, pos) {
            self.cap -= 1;
        }
        let slot = self.slots.remove(pos);
        if pos > 0 && self.sens_pair(instance, pos - 1) {
            self.cap += 1;
        }
        match slot {
            Slot::Signal(s) => {
                // The removed segment no longer couples at all; its former
                // block (still contiguous around `pos`) is recomputed.
                if self.overflow[s] > 0.0 {
                    self.overflowing -= 1;
                }
                self.k[s] = 0.0;
                self.overflow[s] = 0.0;
            }
            Slot::Shield => self.shields -= 1,
        }
        self.recompute_around(instance, &[pos.wrapping_sub(1), pos]);
        self.oracle_check(instance);
        slot
    }

    /// Swaps the contents of two tracks.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn swap(&mut self, instance: &SinoInstance, a: usize, b: usize) {
        if a == b {
            assert!(a < self.slots.len(), "swap index {a} out of range");
            return;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        // Pair indices whose adjacency can change: around both positions,
        // deduplicated (they overlap when the tracks are adjacent).
        let mut pairs = [usize::MAX; 4];
        let mut np = 0;
        for p in [lo.wrapping_sub(1), lo, hi.wrapping_sub(1), hi] {
            if p.checked_add(1).is_some_and(|q| q < self.slots.len()) && !pairs[..np].contains(&p) {
                pairs[np] = p;
                np += 1;
            }
        }
        for &p in &pairs[..np] {
            if self.sens_pair(instance, p) {
                self.cap -= 1;
            }
        }
        self.slots.swap(a, b);
        for &p in &pairs[..np] {
            if self.sens_pair(instance, p) {
                self.cap += 1;
            }
        }
        self.recompute_around(
            instance,
            &[
                lo.wrapping_sub(1),
                lo,
                lo + 1,
                hi.wrapping_sub(1),
                hi,
                hi + 1,
            ],
        );
        self.oracle_check(instance);
    }

    /// Moves the slot at `from` so it ends up at position `to` — identical
    /// semantics to [`Layout::relocate`] (remove, then insert at
    /// `to.min(len)`).
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    pub fn relocate(&mut self, instance: &SinoInstance, from: usize, to: usize) {
        let slot = self.remove(instance, from);
        let pos = to.min(self.slots.len());
        self.insert(instance, pos, slot);
    }

    /// Inserts a shield before track `gap` (`gap == area()` appends).
    ///
    /// # Panics
    ///
    /// Panics if `gap > area()`.
    pub fn insert_shield(&mut self, instance: &SinoInstance, gap: usize) {
        self.insert(instance, gap, Slot::Shield);
    }

    /// Removes the shield at track `pos`, returning whether one was there.
    pub fn remove_shield_at(&mut self, instance: &SinoInstance, pos: usize) -> bool {
        if pos < self.slots.len() && self.slots[pos] == Slot::Shield {
            self.remove(instance, pos);
            true
        } else {
            false
        }
    }

    /// Starts a placement scan: inserts `seg` at track 0 of the shield-free
    /// layout that the placements since [`DeltaEval::reset`] built.
    ///
    /// From the first placement until [`DeltaEval::end_placement`], only
    /// the slots, the capacitive count and the fixed-point couplings follow
    /// the edits; the cached `Kᵢ`/overflow values are stale. The overflow of
    /// a scanned state is read either as a certified bracket
    /// ([`DeltaEval::overflow_bracket`]) or exactly
    /// ([`DeltaEval::slide_exact_key`]). Exact values are derived from
    /// the slots alone, so the states a scan skips cannot change the numbers
    /// of the states it evaluates.
    pub(crate) fn begin_slide(&mut self, instance: &SinoInstance, seg: usize) {
        debug_assert_eq!(self.shields, 0, "placement scans a shield-free layout");
        self.slots.insert(0, Slot::Signal(seg));
        if self.sens_pair(instance, 0) {
            self.cap += 1;
        }
        self.scan_pos = 0;
        self.scan_start = 0;
        self.scan_len = self.slots.len();
        extend_terms(&mut self.inv, self.scan_len);
        // The placed segments all moved one track right, so their mutual
        // distances, and their couplings to each other, are unchanged; only
        // the terms with `seg` are new.
        let row = instance.sensitivity_row(seg);
        let mut f_seg = 0;
        for (t, slot) in self.slots.iter().enumerate().skip(1) {
            let y = signal(*slot);
            if row[y] {
                f_seg += self.inv[t];
                self.fixed[y] += self.inv[t];
            }
        }
        self.fixed[seg] = f_seg;
        self.mark_best();
        #[cfg(debug_assertions)]
        self.check_fixed(instance, 0);
    }

    /// Records the current placement-scan state as the best gap so far, the
    /// one [`DeltaEval::end_slide`] returns to.
    pub(crate) fn mark_best(&mut self) {
        self.fixed_best.clone_from(&self.fixed);
    }

    /// Moves the sliding segment one track right (a transposition with its
    /// right neighbour): O(1) on the slots and capacitive count, and O(block)
    /// integer updates for the fixed-point couplings of the partners of the
    /// two moved segments.
    ///
    /// # Panics
    ///
    /// Panics if the sliding segment is already on the last track.
    pub(crate) fn slide(&mut self, instance: &SinoInstance) {
        let p = self.scan_pos;
        let len = self.slots.len();
        assert!(p + 1 < len, "slide past the last track");
        for pair in [p.wrapping_sub(1), p, p + 1] {
            if self.sens_pair(instance, pair) {
                self.cap -= 1;
            }
        }
        self.slots.swap(p, p + 1);
        for pair in [p.wrapping_sub(1), p, p + 1] {
            if self.sens_pair(instance, pair) {
                self.cap += 1;
            }
        }
        self.scan_pos = p + 1;
        // `seg` went p → p+1 and `x` went p+1 → p; their mutual distance
        // stays 1. Every other member `y` sees one of them one track nearer
        // and the other one track farther: left of the pair `seg` moved
        // away and `x` closer, right of it the other way round. Differences
        // are wrapping; the true sums stay in range, so the results are
        // exact.
        let DeltaEval {
            slots, fixed, inv, ..
        } = self;
        let (seg, x) = (signal(slots[p + 1]), signal(slots[p]));
        let (row_seg, row_x) = (instance.sensitivity_row(seg), instance.sensitivity_row(x));
        let (mut d_seg, mut d_x) = (0u64, 0u64);
        let mut shift = |y: usize, seg_delta: u64| {
            // Masks keep the partner tests branch-free.
            let ds = seg_delta & (row_seg[y] as u64).wrapping_neg();
            let dx = seg_delta.wrapping_neg() & (row_x[y] as u64).wrapping_neg();
            fixed[y] = fixed[y].wrapping_add(ds).wrapping_add(dx);
            d_seg = d_seg.wrapping_add(ds);
            d_x = d_x.wrapping_add(dx);
        };
        for (t, slot) in slots[..p].iter().enumerate() {
            shift(signal(*slot), inv[p + 1 - t].wrapping_sub(inv[p - t]));
        }
        for (d, slot) in slots[p + 2..].iter().enumerate() {
            shift(signal(*slot), inv[d + 1].wrapping_sub(inv[d + 2]));
        }
        fixed[seg] = fixed[seg].wrapping_add(d_seg);
        fixed[x] = fixed[x].wrapping_add(d_x);
        #[cfg(debug_assertions)]
        self.check_fixed(instance, 0);
    }

    /// The exact placement key `(capacitive violations, total overflow)` of
    /// the placement-scan state with the sliding segment at track `gap` —
    /// bit-identical to a from-scratch evaluate of those slots — in
    /// O(block²). The slots are restored afterwards.
    pub(crate) fn slide_exact_key(&mut self, instance: &SinoInstance, gap: usize) -> (usize, f64) {
        let from = self.scan_pos;
        self.move_slot_raw(from, gap);
        let cap = self.count_sens_pairs(instance);
        self.recompute_block(instance, 0);
        let total = self.total_overflow();
        self.move_slot_raw(gap, from);
        (cap, total)
    }

    /// Ends a placement scan with the sliding segment at track `gap`, which
    /// must be the gap of the last [`DeltaEval::mark_best`].
    pub(crate) fn end_slide(&mut self, instance: &SinoInstance, gap: usize) {
        let from = self.scan_pos;
        self.move_slot_raw(from, gap);
        self.cap = self.count_sens_pairs(instance);
        std::mem::swap(&mut self.fixed, &mut self.fixed_best);
        #[cfg(debug_assertions)]
        self.check_fixed(instance, 0);
    }

    /// Ends placement: brings every cached aggregate back in sync with the
    /// slots, after which all edits are exact again.
    pub(crate) fn end_placement(&mut self, instance: &SinoInstance) {
        if !self.slots.is_empty() {
            self.recompute_block(instance, 0);
        }
        self.oracle_check(instance);
    }

    /// Starts a split scan of the block `start..start + len`: a virtual
    /// shield sweeps the block's gaps left to right
    /// ([`DeltaEval::split_step`]) while the slots stay untouched and exact,
    /// and the fixed-point couplings follow the virtual split. It starts in
    /// front of the block, where the couplings are the block's own.
    pub(crate) fn begin_split_scan(&mut self, instance: &SinoInstance, start: usize, len: usize) {
        self.scan_pos = start;
        self.scan_start = start;
        self.scan_len = len;
        extend_terms(&mut self.inv, len);
        self.fixed.clear();
        self.fixed.resize(instance.n(), OUTSIDE);
        let block = &self.slots[start..start + len];
        for slot in block {
            self.fixed[signal(*slot)] = 0;
        }
        for (i, a) in block.iter().map(|s| signal(*s)).enumerate() {
            let row = instance.sensitivity_row(a);
            let mut fa = 0u64;
            for (d, slot) in block[i + 1..].iter().enumerate() {
                let b = signal(*slot);
                if row[b] {
                    fa += self.inv[d + 1];
                    self.fixed[b] += self.inv[d + 1];
                }
            }
            self.fixed[a] += fa;
        }
        #[cfg(debug_assertions)]
        self.check_fixed(instance, 0);
    }

    /// Moves the split scan's virtual shield one gap right: the segment
    /// just right of it joins the left part, gaining its couplings there and
    /// losing those to the right part. O(block).
    ///
    /// # Panics
    ///
    /// Panics if the shield is already behind the block.
    pub(crate) fn split_step(&mut self, instance: &SinoInstance) {
        let (p, block_start) = (self.scan_pos, self.scan_start);
        let block_end = block_start + self.scan_len;
        assert!(p < block_end, "split scan past the block");
        let DeltaEval {
            slots, fixed, inv, ..
        } = self;
        let m = signal(slots[p]);
        let row = instance.sensitivity_row(m);
        let mut f_m = fixed[m];
        for (t, slot) in slots[block_start..p].iter().enumerate() {
            let y = signal(*slot);
            if row[y] {
                let term = inv[p - block_start - t];
                fixed[y] += term;
                f_m += term;
            }
        }
        for (d, slot) in slots[p + 1..block_end].iter().enumerate() {
            let y = signal(*slot);
            if row[y] {
                fixed[y] -= inv[d + 1];
                f_m -= inv[d + 1];
            }
        }
        fixed[m] = f_m;
        self.scan_pos = p + 1;
        #[cfg(debug_assertions)]
        self.check_fixed(instance, self.scan_pos - block_start);
    }

    /// Certified bracket of [`DeltaEval::total_overflow`] for the scanned
    /// state (the placement slide's current slots, or the block split at
    /// the split scan's virtual shield), in O(n): index-order sums of the
    /// per-segment overflow bounds ([`crate::bracket`]).
    pub(crate) fn overflow_bracket(&self, instance: &SinoInstance) -> Bracket {
        let bounds = CouplingBounds::new(self.scan_len.saturating_sub(1));
        let mut total = Bracket::exact(0.0);
        for ((&f, spec), &exact) in self
            .fixed
            .iter()
            .zip(instance.segments())
            .zip(&self.overflow)
        {
            if f == OUTSIDE {
                total.lo += exact;
                total.hi += exact;
            } else if f != 0 {
                let k = bounds.coupling(f);
                total.lo += (k.lo - spec.kth).max(0.0);
                total.hi += (k.hi - spec.kth).max(0.0);
            }
        }
        total
    }

    /// Certified bracket of one scanned segment's coupling `Kᵢ`.
    pub(crate) fn coupling_bracket(&self, segment: usize) -> Bracket {
        let f = self.fixed[segment];
        debug_assert_ne!(f, OUTSIDE, "segment outside the scanned block");
        CouplingBounds::new(self.scan_len.saturating_sub(1)).coupling(f)
    }

    /// Debug-build oracle: the fixed-point couplings of the scanned block
    /// equal a from-scratch sum over its slots, with no pair coupling
    /// across a virtual shield in front of the block's `split`-th member.
    #[cfg(debug_assertions)]
    fn check_fixed(&self, instance: &SinoInstance, split: usize) {
        let block = &self.slots[self.scan_start..self.scan_start + self.scan_len];
        let mut scratch: Vec<u64> = self
            .fixed
            .iter()
            .map(|&f| if f == OUTSIDE { OUTSIDE } else { 0 })
            .collect();
        for (i, a) in block.iter().map(|s| signal(*s)).enumerate() {
            for (j, b) in block.iter().map(|s| signal(*s)).enumerate().skip(i + 1) {
                let same_part = (i < split) == (j < split);
                if same_part && instance.is_sensitive(a, b) {
                    scratch[a] += self.inv[j - i];
                    scratch[b] += self.inv[j - i];
                }
            }
        }
        assert_eq!(scratch, self.fixed, "fixed-point couplings diverged");
    }

    /// Moves the slot at `from` to `to` (remove, then insert), touching the
    /// slots only.
    fn move_slot_raw(&mut self, from: usize, to: usize) {
        if from < to {
            self.slots[from..=to].rotate_left(1);
        } else {
            self.slots[to..=from].rotate_right(1);
        }
    }

    /// Adjacent sensitive pairs of the current slots, counted from scratch.
    fn count_sens_pairs(&self, instance: &SinoInstance) -> usize {
        (0..self.slots.len())
            .filter(|&p| self.sens_pair(instance, p))
            .count()
    }

    /// Whether the adjacency `(p, p+1)` is a sensitive signal pair.
    fn sens_pair(&self, instance: &SinoInstance, p: usize) -> bool {
        match p.checked_add(1) {
            Some(q) if q < self.slots.len() => {
                if let (Slot::Signal(a), Slot::Signal(b)) = (self.slots[p], self.slots[q]) {
                    instance.is_sensitive(a, b)
                } else {
                    false
                }
            }
            _ => false,
        }
    }

    /// Recomputes every block containing one of `positions` (post-edit
    /// indices; out-of-range and shield positions are skipped, blocks are
    /// deduplicated by start).
    fn recompute_around(&mut self, instance: &SinoInstance, positions: &[usize]) {
        let mut starts = [usize::MAX; 6];
        let mut ns = 0;
        for &p in positions {
            if p >= self.slots.len() || !matches!(self.slots[p], Slot::Signal(_)) {
                continue;
            }
            let mut start = p;
            while start > 0 && matches!(self.slots[start - 1], Slot::Signal(_)) {
                start -= 1;
            }
            if !starts[..ns].contains(&start) {
                starts[ns] = start;
                ns += 1;
            }
        }
        for &start in &starts[..ns] {
            self.recompute_block(instance, start);
        }
    }

    /// Recomputes the couplings of the block starting at `start` with the
    /// exact pair order of [`crate::keff::coupling`], then refreshes the
    /// members' overflow bookkeeping.
    fn recompute_block(&mut self, instance: &SinoInstance, start: usize) {
        debug_assert!(matches!(self.slots[start], Slot::Signal(_)));
        let mut end = start;
        while end + 1 < self.slots.len() && matches!(self.slots[end + 1], Slot::Signal(_)) {
            end += 1;
        }
        for p in start..=end {
            if let Slot::Signal(s) = self.slots[p] {
                if self.overflow[s] > 0.0 {
                    self.overflowing -= 1;
                }
                self.k[s] = 0.0;
            }
        }
        // Contiguous signal run: pair distance is the position difference,
        // and the i<j accumulation order matches `coupling` bit for bit.
        for i in start..=end {
            let Slot::Signal(a) = self.slots[i] else {
                unreachable!("block members are signals")
            };
            for j in (i + 1)..=end {
                let Slot::Signal(b) = self.slots[j] else {
                    unreachable!("block members are signals")
                };
                if instance.is_sensitive(a, b) {
                    let d = (j - i) as f64;
                    let kij = 1.0 / d;
                    self.k[a] += kij;
                    self.k[b] += kij;
                }
            }
        }
        for p in start..=end {
            if let Slot::Signal(s) = self.slots[p] {
                let of = (self.k[s] - instance.segment(s).kth).max(0.0);
                self.overflow[s] = of;
                if of > 0.0 {
                    self.overflowing += 1;
                }
            }
        }
    }

    /// Debug-build oracle: every mutation must leave the cached state
    /// bit-identical to a from-scratch [`crate::keff::evaluate`].
    #[cfg(debug_assertions)]
    fn oracle_check(&self, instance: &SinoInstance) {
        let eval = crate::keff::evaluate(instance, &self.to_layout());
        debug_assert_eq!(self.evaluation(), eval, "DeltaEval diverged from evaluate");
    }

    #[cfg(not(debug_assertions))]
    #[inline]
    fn oracle_check(&self, _instance: &SinoInstance) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::SegmentSpec;
    use crate::keff::evaluate;
    use gsino_grid::SensitivityModel;

    fn instance(n: usize, rate: f64, kth: f64, seed: u64) -> SinoInstance {
        let segs = (0..n).map(|i| SegmentSpec { net: i as u32, kth }).collect();
        SinoInstance::from_model(segs, &SensitivityModel::new(rate, seed)).unwrap()
    }

    #[test]
    fn load_matches_full_evaluate() {
        let inst = instance(6, 0.7, 0.4, 9);
        let mut layout = Layout::from_order(&[3, 1, 5, 0, 4, 2]);
        layout.insert_shield(2);
        layout.insert_shield(5);
        let mut delta = DeltaEval::new();
        delta.load(&inst, &layout);
        assert_eq!(delta.evaluation(), evaluate(&inst, &layout));
        assert_eq!(delta.to_layout(), layout);
    }

    #[test]
    fn insert_remove_roundtrip_restores_state() {
        let inst = instance(5, 1.0, 0.3, 4);
        let mut delta = DeltaEval::new();
        delta.load(&inst, &Layout::from_order(&[0, 1, 2, 3, 4]));
        let before = delta.evaluation();
        for gap in 0..=delta.area() {
            delta.insert_shield(&inst, gap);
            delta.remove_shield_at(&inst, gap);
            assert_eq!(delta.evaluation(), before, "gap {gap}");
        }
    }

    #[test]
    fn partial_layouts_supported() {
        let inst = instance(4, 1.0, 10.0, 2);
        let mut delta = DeltaEval::new();
        delta.reset(&inst);
        delta.insert(&inst, 0, Slot::Signal(2));
        delta.insert(&inst, 1, Slot::Signal(0));
        assert_eq!(delta.area(), 2);
        assert!(delta.k(2) > 0.0, "adjacent sensitive pair couples");
        let removed = delta.remove(&inst, 0);
        assert_eq!(removed, Slot::Signal(2));
        assert_eq!(delta.k(2), 0.0);
    }

    #[test]
    fn relocate_matches_layout_semantics() {
        let inst = instance(4, 0.6, 0.5, 7);
        let mut layout = Layout::from_order(&[0, 1, 2, 3]);
        layout.insert_shield(2);
        let mut delta = DeltaEval::new();
        delta.load(&inst, &layout);
        for (from, to) in [(0, 3), (4, 0), (2, 99), (1, 1)] {
            let mut expect = delta.to_layout();
            expect.relocate(from, to);
            delta.relocate(&inst, from, to);
            assert_eq!(delta.to_layout(), expect, "relocate {from}->{to}");
            assert_eq!(delta.evaluation(), evaluate(&inst, &expect));
        }
    }

    #[test]
    fn reset_reuses_across_instances() {
        let mut delta = DeltaEval::new();
        let big = instance(9, 0.5, 0.4, 1);
        delta.load(&big, &Layout::from_order(&(0..9).collect::<Vec<_>>()));
        let small = instance(3, 1.0, 0.2, 2);
        delta.load(&small, &Layout::from_order(&[2, 1, 0]));
        assert_eq!(delta.k_values().len(), 3);
        assert_eq!(
            delta.evaluation(),
            evaluate(&small, &Layout::from_order(&[2, 1, 0]))
        );
    }

    #[test]
    fn feasibility_counter_tracks_transitions() {
        let inst = instance(2, 1.0, 0.4, 3);
        let mut delta = DeltaEval::new();
        delta.load(&inst, &Layout::from_order(&[0, 1]));
        assert!(!delta.feasible());
        delta.insert_shield(&inst, 1);
        assert!(delta.feasible());
        assert!(delta.worst_overflow().is_none());
        delta.remove_shield_at(&inst, 1);
        assert!(!delta.feasible());
        let (_, worst) = delta.worst_overflow().unwrap();
        assert!((worst - 0.6).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::instance::SegmentSpec;
    use crate::keff::evaluate;
    use gsino_grid::SensitivityModel;
    use proptest::prelude::*;

    fn instance(n: usize, rate: f64, kth: f64, seed: u64) -> SinoInstance {
        let segs = (0..n).map(|i| SegmentSpec { net: i as u32, kth }).collect();
        SinoInstance::from_model(segs, &SensitivityModel::new(rate, seed)).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random move/swap/shield sequences keep every `DeltaEval`
        /// aggregate bitwise-equal to a from-scratch `evaluate` — the
        /// contract the rewritten Phase II solvers rely on.
        #[test]
        fn random_edit_sequences_match_scratch_evaluate(
            n in 1usize..9,
            rate_pct in 0u32..=100,
            kth_exp in -3i32..2,
            seed in 0u64..1000,
            ops in prop::collection::vec((0u8..4, 0usize..64, 0usize..64), 1..40),
        ) {
            let inst = instance(n, rate_pct as f64 / 100.0, 10f64.powi(kth_exp), seed);
            let mut delta = DeltaEval::new();
            delta.load(&inst, &Layout::from_order(&(0..n).collect::<Vec<_>>()));
            for (op, x, y) in ops {
                let area = delta.area();
                match op {
                    0 => delta.swap(&inst, x % area, y % area),
                    1 => delta.relocate(&inst, x % area, y % (area + 1)),
                    2 => delta.insert_shield(&inst, x % (area + 1)),
                    _ => {
                        delta.remove_shield_at(&inst, x % area);
                    }
                }
                let layout = delta.to_layout();
                prop_assert_eq!(delta.evaluation(), evaluate(&inst, &layout));
            }
        }
    }
}
