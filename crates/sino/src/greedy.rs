//! Greedy constructive SINO solver, driven by the incremental
//! [`DeltaEval`] engine.
//!
//! Three stages, mirroring how the min-area SINO heuristics of the paper's
//! reference \[4\] are organized:
//!
//! 1. **Ordering/placement** — segments are placed one at a time (hardest
//!    first: highest sensitivity, tightest budget) into the gap that
//!    minimizes capacitive violations, then inductive overflow.
//! 2. **Repair** — while constraints are violated, insert the shield that
//!    best reduces the violation (between the offending adjacent pair for
//!    capacitive problems; at the best split point of the worst-overflow
//!    segment's block for inductive ones). Full isolation is always
//!    feasible, so this terminates.
//! 3. **Compaction** — drop every shield whose removal keeps feasibility,
//!    right to left, minimizing area.
//!
//! The decisions are the seed solver's (preserved in [`crate::reference`]),
//! bit for bit, but most candidates are never scored the way the seed
//! scores them (clone, insert, full re-evaluate). A candidate is evaluated
//! exactly only when that can change a decision:
//!
//! * placement slides the new segment through the gaps with a slot-only
//!   transposition, skips the gaps that lose on capacitive violations, and
//!   settles overflow comparisons from certified brackets (see
//!   `place_best`);
//! * an inductive repair sweeps a virtual shield through the worst
//!   segment's block and settles its `(overflow, K)` comparisons the same
//!   way; an exact key costs a trial insert and its undo;
//! * compaction tries each removal as an edit and undoes it.
//!
//! The brackets come from integer fixed-point couplings that the scans
//! update per step, turned into f64 intervals that provably contain the
//! seed's value. A comparison that every value in the brackets answers the
//! same way needs no exact value; an ambiguous one computes the exact value
//! from [`DeltaEval`], whose state is a function of the slots alone. So the
//! compared numbers, where they matter, equal the seed's, and so do the
//! layouts (`sino_equivalence` property suite). Debug builds re-run every
//! scan in full and assert the same choice and every bracket.

use crate::bracket::Bracket;
use crate::delta::DeltaEval;
use crate::instance::SinoInstance;
use crate::layout::{Layout, Slot};

/// Runs the greedy constructive solver; the result is always feasible.
pub fn solve_greedy(instance: &SinoInstance) -> Layout {
    solve_greedy_with(instance, &mut DeltaEval::new())
}

/// The hardest-first placement order the constructive solver uses: high
/// sensitivity first, then tight budget, then index. Exposed so the
/// warm-start check ([`crate::warm`]) can prove that a budget change
/// leaves the visiting order — and therefore the construction — intact.
pub fn placement_order(instance: &SinoInstance) -> Vec<usize> {
    let kth: Vec<f64> = (0..instance.n()).map(|i| instance.segment(i).kth).collect();
    placement_order_kth(instance, &kth)
}

/// [`placement_order`] under a hypothetical budget vector (`kth[i]`
/// replaces segment `i`'s stored budget in the comparator).
pub fn placement_order_kth(instance: &SinoInstance, kth: &[f64]) -> Vec<usize> {
    let n = instance.n();
    // The O(n) `local_sensitivity` is cached per segment instead of being
    // recomputed inside the comparator; the compared values are the same
    // f64s, so the order is identical to the seed solver's.
    let sens: Vec<f64> = (0..n).map(|i| instance.local_sensitivity(i)).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        sens[b]
            .partial_cmp(&sens[a])
            .expect("finite sensitivity")
            .then(kth[a].partial_cmp(&kth[b]).expect("finite budgets"))
            .then(a.cmp(&b))
    });
    order
}

/// [`solve_greedy`] against caller-provided scratch, so batch drivers
/// (Phase II's per-region worklist) reuse one allocation across instances.
pub fn solve_greedy_with(instance: &SinoInstance, delta: &mut DeltaEval) -> Layout {
    let n = instance.n();
    if n == 0 {
        return Layout::from_slots(Vec::new()).expect("empty layout is well-formed");
    }
    // Hardest-first ordering: high sensitivity, then tight budget.
    let order = placement_order(instance);

    delta.reset(instance);
    for &seg in &order {
        place_best(instance, delta, seg);
    }
    delta.end_placement(instance);
    repair(instance, delta);
    compact(instance, delta);
    delta.to_layout()
}

/// Net ordering only — the "NO" of the paper's ID+NO baseline (§4):
/// greedily orders segments "to eliminate as much capacitive coupling as
/// possible" but inserts **no shields**, so inductive (and possibly
/// residual capacitive) violations remain. Used to measure how many nets
/// violate when routing ignores RLC crosstalk (Table 1).
pub fn order_only(instance: &SinoInstance) -> Layout {
    order_only_with(instance, &mut DeltaEval::new())
}

/// [`order_only`] against caller-provided scratch.
pub fn order_only_with(instance: &SinoInstance, delta: &mut DeltaEval) -> Layout {
    let n = instance.n();
    let sens: Vec<f64> = (0..n).map(|i| instance.local_sensitivity(i)).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        sens[b]
            .partial_cmp(&sens[a])
            .expect("finite sensitivity")
            .then(a.cmp(&b))
    });
    delta.reset(instance);
    for &seg in &order {
        // The paper's net-ordering stage knows nothing about inductive
        // coupling; it only avoids sensitive adjacency. Placing at the
        // first (not the globally K-best) cap-clean gap mirrors that.
        place_first_cap_clean(instance, delta, seg);
    }
    delta.end_placement(instance);
    delta.to_layout()
}

/// Inserts `seg` at the first gap that adds no capacitive violation (or
/// the first gap adding the fewest, if none is clean).
///
/// Only the capacitive count decides, so the segment slides right with
/// [`DeltaEval::slide`], which keeps that count exact in O(1) per gap,
/// and no coupling is evaluated.
fn place_first_cap_clean(instance: &SinoInstance, delta: &mut DeltaEval, seg: usize) {
    let last = delta.area();
    delta.begin_slide(instance, seg);
    let (mut best_gap, mut best_cap) = (0, delta.cap_violations());
    for gap in 1..=last {
        if best_cap == 0 {
            break;
        }
        delta.slide(instance);
        let cap = delta.cap_violations();
        if cap < best_cap {
            (best_gap, best_cap) = (gap, cap);
            delta.mark_best();
        }
    }
    delta.end_slide(instance, best_gap);
}

/// Inserts `seg` at the gap the seed solver picks: the first gap of least
/// capacitive violations, then, scanning the remaining least-cap gaps in
/// order, any gap whose total overflow beats the best so far by more than
/// `1e-12`.
///
/// Only the states that can decide something are evaluated exactly. The
/// segment slides right one transposition per gap with
/// [`DeltaEval::slide`], which keeps the slots and the capacitive count
/// exact in O(1), so gaps with more capacitive violations than the best so
/// far are skipped outright: they can never be picked. Every other gap gets
/// a certified overflow bracket, and the seed's comparison
/// `overflow < best − 1e-12` is decided from the brackets when they settle
/// it. Only an ambiguous comparison computes exact overflows, for the best
/// gap and then for the current one. The exact values are what the seed
/// computes, since `DeltaEval` derives every coupling from the slots alone,
/// so the chosen gap is the seed's. Debug builds re-run the full exact scan
/// and assert both that and every bracket.
fn place_best(instance: &SinoInstance, delta: &mut DeltaEval, seg: usize) {
    let last = delta.area();
    delta.begin_slide(instance, seg);
    let (mut best_gap, mut best_cap) = (0, delta.cap_violations());
    let mut best_overflow = delta.overflow_bracket(instance);
    #[cfg(debug_assertions)]
    let mut seen = vec![Some(best_overflow)];
    for gap in 1..=last {
        // Every overflow bracket is ≥ 0, so once the best's threshold
        // `overflow − 1e-12` is ≤ 0 only fewer capacitive violations can
        // win, and with none left nothing can.
        let unbeatable_overflow = best_overflow.hi - 1e-12 <= 0.0;
        if unbeatable_overflow && best_cap == 0 {
            break;
        }
        delta.slide(instance);
        let cap = delta.cap_violations();
        #[cfg(debug_assertions)]
        seen.push(None);
        if cap > best_cap || (cap == best_cap && unbeatable_overflow) {
            continue;
        }
        let mut overflow = delta.overflow_bracket(instance);
        #[cfg(debug_assertions)]
        {
            seen[gap] = Some(overflow);
        }
        let better = cap < best_cap || {
            let mut exact = |gap| delta.slide_exact_key(instance, gap).1;
            tolerant_less(&mut overflow, gap, &mut best_overflow, best_gap, &mut exact)
        };
        if better {
            (best_gap, best_cap, best_overflow) = (gap, cap, overflow);
            delta.mark_best();
        }
    }
    #[cfg(debug_assertions)]
    check_placement(instance, delta, last, &seen, best_gap);
    delta.end_slide(instance, best_gap);
}

/// The seed's `current < best − 1e-12` on two bracketed values, decided
/// from the brackets when they settle it and otherwise from exact values
/// (`exact(gap)`), the best's first. A bracket that had to be resolved is
/// narrowed to its exact value in place.
fn tolerant_less(
    current: &mut Bracket,
    current_gap: usize,
    best: &mut Bracket,
    best_gap: usize,
    exact: &mut impl FnMut(usize) -> f64,
) -> bool {
    if let Some(less) = current.below_by_tolerance(*best) {
        return less;
    }
    resolve(best, best_gap, exact);
    if let Some(less) = current.below_by_tolerance(*best) {
        return less;
    }
    resolve(current, current_gap, exact);
    current.lo < best.lo - 1e-12
}

/// Narrows `bracket` to the exact value of `gap`, if it is not exact yet.
fn resolve(bracket: &mut Bracket, gap: usize, exact: &mut impl FnMut(usize) -> f64) {
    if !bracket.is_exact() {
        let v = exact(gap);
        debug_assert!(bracket.contains(v), "bracket misses gap {gap}");
        *bracket = Bracket::exact(v);
    }
}

/// Debug-build oracle for [`place_best`]: the seed's full exact scan over
/// the gaps `0..=last` must pick `chosen`, and every bracket the scan
/// computed (`seen[gap]`) must hold its gap's exact overflow.
#[cfg(debug_assertions)]
fn check_placement(
    instance: &SinoInstance,
    delta: &mut DeltaEval,
    last: usize,
    seen: &[Option<Bracket>],
    chosen: usize,
) {
    let mut best: Option<(usize, f64, usize)> = None;
    for gap in 0..=last {
        let (cap, exact) = delta.slide_exact_key(instance, gap);
        assert!(
            seen.get(gap)
                .copied()
                .flatten()
                .is_none_or(|b| b.contains(exact)),
            "bracket misses gap {gap}"
        );
        let better = match best {
            None => true,
            Some((bc, bo, _)) => cap < bc || (cap == bc && exact < bo - 1e-12),
        };
        if better {
            best = Some((cap, exact, gap));
        }
    }
    assert_eq!(
        best.map(|b| b.2),
        Some(chosen),
        "pruned placement left the full scan"
    );
}

/// Inserts shields until the layout is feasible.
pub(crate) fn repair(instance: &SinoInstance, delta: &mut DeltaEval) {
    // Bounded by the number of insertable gaps (full isolation).
    let max_iters = 4 * instance.n() + 4;
    for _ in 0..max_iters {
        if delta.feasible() {
            return;
        }
        if delta.cap_violations() > 0 {
            // Split the first adjacent sensitive pair.
            let mut split = None;
            for (i, w) in delta.slots().windows(2).enumerate() {
                if let (Slot::Signal(a), Slot::Signal(b)) = (w[0], w[1]) {
                    if instance.is_sensitive(a, b) {
                        split = Some(i + 1);
                        break;
                    }
                }
            }
            match split {
                Some(gap) => delta.insert_shield(instance, gap),
                None => debug_assert!(false, "cap violation implies an adjacent pair"),
            }
            continue;
        }
        // Inductive overflow: split the worst segment's block.
        let (worst, _) = delta
            .worst_overflow()
            .expect("infeasible without cap violations");
        match best_split(instance, delta, worst) {
            Some(gap) => delta.insert_shield(instance, gap),
            // Single-segment block cannot overflow; defensive fallback.
            None => return,
        }
    }
    debug_assert!(
        delta.feasible(),
        "repair must reach feasibility within its iteration bound"
    );
}

/// The gap of `worst`'s block where the seed's repair inserts a shield:
/// scanning left to right, a gap replaces the best so far when its total
/// overflow is lower by more than `1e-12`, or equal within `1e-12` with
/// `worst`'s coupling lower by more than `1e-12`. `None` for a
/// single-segment block.
///
/// A virtual shield sweeps the block ([`DeltaEval::split_step`]) and each
/// gap's key is bracketed from fixed-point couplings; the layout itself is
/// never edited during the scan. As in [`place_best`], exact keys (a trial
/// insert and removal) are computed only when the brackets cannot decide a
/// comparison, so the chosen gap is the seed's. Debug builds re-run the
/// full exact scan and assert that and every bracket.
fn best_split(instance: &SinoInstance, delta: &mut DeltaEval, worst: usize) -> Option<usize> {
    let pos = delta.position_of(worst).expect("segment is placed");
    let (block_start, block_len) = enclosing_block(delta.slots(), pos);
    delta.begin_split_scan(instance, block_start, block_len);
    let mut best: Option<(usize, SplitKey)> = None;
    #[cfg(debug_assertions)]
    let mut seen = Vec::new();
    for gap in (block_start + 1)..(block_start + block_len) {
        delta.split_step(instance);
        let mut key = SplitKey {
            overflow: delta.overflow_bracket(instance),
            k_worst: delta.coupling_bracket(worst),
        };
        #[cfg(debug_assertions)]
        seen.push((gap, key));
        let better = match &mut best {
            None => true,
            Some((best_gap, best_key)) => {
                let mut exact = |gap| split_key(instance, delta, gap, worst);
                key.beats(gap, best_key, *best_gap, &mut exact)
            }
        };
        if better {
            best = Some((gap, key));
        }
    }
    let chosen = best.map(|(gap, _)| gap);
    #[cfg(debug_assertions)]
    check_split(instance, delta, worst, &seen, chosen);
    chosen
}

/// The exact repair key `(total overflow, K of worst)` with a shield at
/// `gap`, by a trial insert and its undo.
fn split_key(
    instance: &SinoInstance,
    delta: &mut DeltaEval,
    gap: usize,
    worst: usize,
) -> (f64, f64) {
    delta.insert_shield(instance, gap);
    let key = (delta.total_overflow(), delta.k(worst));
    delta.remove_shield_at(instance, gap);
    key
}

/// A bracketed repair key.
#[derive(Debug, Clone, Copy)]
struct SplitKey {
    overflow: Bracket,
    k_worst: Bracket,
}

impl SplitKey {
    /// The seed's `overflow < best − 1e-12 || (|overflow − best| <= 1e-12
    /// && k < best_k − 1e-12)`, in three-valued logic over the brackets.
    fn decide(&self, best: &SplitKey) -> Option<bool> {
        let lower = self.overflow.below_by_tolerance(best.overflow);
        let tied = self.overflow.within_tolerance(best.overflow);
        let k_lower = self.k_worst.below_by_tolerance(best.k_worst);
        let tie_break = match (tied, k_lower) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        };
        match (lower, tie_break) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        }
    }

    /// [`SplitKey::decide`], resolving exact keys (`exact(gap)`, the best's
    /// first) when the brackets cannot.
    fn beats(
        &mut self,
        gap: usize,
        best: &mut SplitKey,
        best_gap: usize,
        exact: &mut impl FnMut(usize) -> (f64, f64),
    ) -> bool {
        if let Some(better) = self.decide(best) {
            return better;
        }
        best.resolve(best_gap, exact);
        if let Some(better) = self.decide(best) {
            return better;
        }
        self.resolve(gap, exact);
        self.decide(best).expect("exact keys always compare")
    }

    /// Narrows both brackets to the exact key of `gap`, if not exact yet.
    fn resolve(&mut self, gap: usize, exact: &mut impl FnMut(usize) -> (f64, f64)) {
        if !(self.overflow.is_exact() && self.k_worst.is_exact()) {
            let (overflow, k) = exact(gap);
            debug_assert!(
                self.overflow.contains(overflow) && self.k_worst.contains(k),
                "bracket misses gap {gap}"
            );
            self.overflow = Bracket::exact(overflow);
            self.k_worst = Bracket::exact(k);
        }
    }
}

/// Debug-build oracle for [`best_split`]: the seed's full exact scan must
/// pick `chosen`, and every bracket in `seen` must hold its gap's key.
#[cfg(debug_assertions)]
fn check_split(
    instance: &SinoInstance,
    delta: &mut DeltaEval,
    worst: usize,
    seen: &[(usize, SplitKey)],
    chosen: Option<usize>,
) {
    let mut best: Option<(f64, f64, usize)> = None;
    for &(gap, bracket) in seen {
        let key = split_key(instance, delta, gap, worst);
        assert!(
            bracket.overflow.contains(key.0) && bracket.k_worst.contains(key.1),
            "bracket misses gap {gap}"
        );
        let better = match &best {
            None => true,
            Some((bo, bk, _)) => {
                key.0 < *bo - 1e-12 || ((key.0 - *bo).abs() <= 1e-12 && key.1 < *bk - 1e-12)
            }
        };
        if better {
            best = Some((key.0, key.1, gap));
        }
    }
    assert_eq!(
        best.map(|b| b.2),
        chosen,
        "pruned repair left the full scan"
    );
}

/// `(start, len)` of the maximal signal run containing track `pos`.
fn enclosing_block(slots: &[Slot], pos: usize) -> (usize, usize) {
    let mut start = pos;
    while start > 0 && matches!(slots[start - 1], Slot::Signal(_)) {
        start -= 1;
    }
    let mut end = pos;
    while end + 1 < slots.len() && matches!(slots[end + 1], Slot::Signal(_)) {
        end += 1;
    }
    (start, end - start + 1)
}

/// Removes every shield whose removal keeps the layout feasible.
pub(crate) fn compact(instance: &SinoInstance, delta: &mut DeltaEval) {
    let mut pos = delta.area();
    while pos > 0 {
        pos -= 1;
        if matches!(delta.slots().get(pos), Some(Slot::Shield)) {
            delta.remove_shield_at(instance, pos);
            if !delta.feasible() {
                delta.insert_shield(instance, pos);
            }
        }
    }
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
    fn empty_instance() {
        let inst = SinoInstance::new(vec![], vec![]).unwrap();
        let l = solve_greedy(&inst);
        assert_eq!(l.area(), 0);
    }

    #[test]
    fn singleton_needs_no_shields() {
        let inst = instance(1, 1.0, 0.01, 1);
        let l = solve_greedy(&inst);
        assert_eq!(l.area(), 1);
        assert_eq!(l.num_shields(), 0);
        assert!(evaluate(&inst, &l).feasible);
    }

    #[test]
    fn always_feasible_across_rates_and_budgets() {
        for &rate in &[0.0, 0.3, 0.5, 1.0] {
            for &kth in &[0.05, 0.5, 2.0] {
                for n in [2, 5, 9, 16] {
                    let inst = instance(n, rate, kth, 42 + n as u64);
                    let l = solve_greedy(&inst);
                    let eval = evaluate(&inst, &l);
                    assert!(
                        eval.feasible,
                        "rate {rate} kth {kth} n {n}: cap {}, overflow {}",
                        eval.cap_violations,
                        eval.total_overflow()
                    );
                    assert!(l.validate(n).is_ok());
                }
            }
        }
    }

    #[test]
    fn insensitive_nets_need_no_shields() {
        let inst = instance(10, 0.0, 0.01, 5);
        let l = solve_greedy(&inst);
        assert_eq!(l.num_shields(), 0);
        assert_eq!(l.area(), 10);
    }

    #[test]
    fn tight_budget_needs_more_shields_than_loose() {
        let tight = instance(12, 0.6, 0.1, 9);
        let loose = instance(12, 0.6, 3.0, 9);
        let st = solve_greedy(&tight).num_shields();
        let sl = solve_greedy(&loose).num_shields();
        assert!(st >= sl, "tight {st} >= loose {sl}");
        assert!(st > 0, "rate 0.6 with kth 0.1 must need shields");
    }

    #[test]
    fn fully_sensitive_tiny_budget_isolates_everyone() {
        let inst = instance(5, 1.0, 1e-6, 2);
        let l = solve_greedy(&inst);
        assert!(evaluate(&inst, &l).feasible);
        // Every neighbouring pair must be separated: n−1 shields.
        assert_eq!(l.num_shields(), 4);
    }

    #[test]
    fn compaction_leaves_no_removable_shield() {
        let inst = instance(10, 0.5, 0.4, 77);
        let l = solve_greedy(&inst);
        for pos in l.shield_positions() {
            let mut candidate = l.clone();
            candidate.remove_shield_at(pos);
            assert!(
                !evaluate(&inst, &candidate).feasible,
                "shield at {pos} is removable — compaction missed it"
            );
        }
    }

    #[test]
    fn reused_scratch_is_deterministic() {
        let inst_a = instance(11, 0.5, 0.3, 13);
        let inst_b = instance(4, 1.0, 0.2, 14);
        let mut scratch = DeltaEval::new();
        let first = solve_greedy_with(&inst_a, &mut scratch);
        let _ = solve_greedy_with(&inst_b, &mut scratch);
        let again = solve_greedy_with(&inst_a, &mut scratch);
        assert_eq!(first, again);
        assert_eq!(first, solve_greedy(&inst_a));
    }

    #[test]
    fn order_only_places_everyone_without_shields() {
        let inst = instance(12, 0.5, 0.1, 3);
        let l = order_only(&inst);
        assert_eq!(l.area(), 12);
        assert_eq!(l.num_shields(), 0);
        assert!(l.validate(12).is_ok());
    }

    #[test]
    fn order_only_beats_identity_order_on_cap_violations() {
        // With a moderate sensitivity rate, greedy ordering should leave no
        // more adjacent sensitive pairs than the identity order.
        let inst = instance(14, 0.4, 1e9, 8);
        let ordered = order_only(&inst);
        let identity = Layout::from_order(&(0..14).collect::<Vec<_>>());
        let co = evaluate(&inst, &ordered).cap_violations;
        let ci = evaluate(&inst, &identity).cap_violations;
        assert!(co <= ci, "ordered {co} > identity {ci}");
    }

    #[test]
    fn enclosing_block_bounds() {
        let l = Layout::from_slots(vec![
            Slot::Signal(0),
            Slot::Shield,
            Slot::Signal(1),
            Slot::Signal(2),
            Slot::Shield,
        ])
        .unwrap();
        assert_eq!(enclosing_block(l.slots(), 0), (0, 1));
        assert_eq!(enclosing_block(l.slots(), 2), (2, 2));
        assert_eq!(enclosing_block(l.slots(), 3), (2, 2));
    }
}
