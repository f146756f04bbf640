//! Certified f64 brackets for the greedy solver's scans.
//!
//! The greedy placement and repair scans ([`crate::greedy`]) compare f64
//! couplings and overflow sums with the seed's `1e-12` tolerances. Most
//! comparisons are far from the tolerance, so they can be settled without
//! the exact f64 value, from an interval known to contain it:
//!
//! * a coupling `Kᵢ` is an f64 sum of terms `1.0 / d` in track order. The
//!   scans keep the same terms as exact integer sums `F` in [`FIXED_BITS`]
//!   fixed point (integer updates do not drift);
//! * [`CouplingBounds`] turns `F` into `lo ≤ Kᵢ ≤ hi`: `F` is within
//!   `m·2^-(FIXED_BITS+1)` of the real sum `R` of the `m` f64 terms, and an
//!   f64 sequential sum of `m` non-negative terms is within `γ(m−1)·R` of
//!   `R` (`γ(k) = k·u / (1 − k·u)`, `u = 2^-53`). The margins also cover the
//!   rounding of the bound arithmetic itself;
//! * `max(0, Kᵢ − Kth)` and f64 addition are monotone, so per-segment
//!   bounds summed in the seed's index order bracket the seed's overflow
//!   sum, and `v − 1e-12` of a bracket brackets the seed's threshold.
//!
//! A [`Bracket`] comparison answers `Some(bool)` when every value in the
//! brackets gives the same answer, and `None` when only the exact values
//! can tell.

/// Fractional bits of the fixed-point couplings. A coupling is at most
/// `2·H(n) < 128` for any realistic block, so every sum fits a `u64`, and
/// each term is within `2^-(FIXED_BITS+1)` of its f64 value `1.0 / d`.
pub(crate) const FIXED_BITS: i32 = 56;

/// Grows `inv` so that `inv[d]` is the fixed-point image of the f64 term
/// `1.0 / d` for every `d < len` (`inv[0]` is unused and 0).
pub(crate) fn extend_terms(inv: &mut Vec<u64>, len: usize) {
    for d in inv.len()..len {
        let term = if d == 0 { 0.0 } else { 1.0 / d as f64 };
        // `term · 2^FIXED_BITS` is exact in f64; only `round` errs.
        inv.push((term * (FIXED_BITS as f64).exp2()).round() as u64);
    }
}

/// Bounds on the f64 coupling of any segment of a block whose couplings
/// have at most `terms` summands each.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CouplingBounds {
    scale: f64,
    abs: f64,
    up: f64,
    down: f64,
}

impl CouplingBounds {
    /// Bounds for segments with at most `terms` coupling summands (a block
    /// of `terms + 1` segments).
    pub(crate) fn new(terms: usize) -> Self {
        let terms = terms as f64;
        let scale = (-FIXED_BITS as f64).exp2();
        // `2·m·2^-(FIXED_BITS+1)` covers the fixed-point rounding of the
        // terms with margin; `(m + 8)·u` covers `γ(m−1)` plus the roundings
        // of `F as f64` and of the bound arithmetic.
        let rel = (terms + 8.0) * (f64::EPSILON / 2.0);
        CouplingBounds {
            scale,
            abs: (terms + 1.0) * scale,
            up: 1.0 + rel,
            down: 1.0 - rel,
        }
    }

    /// The bracket of the f64 coupling whose fixed-point image is `f`.
    pub(crate) fn coupling(&self, f: u64) -> Bracket {
        if f == 0 {
            // No sensitive partner: the f64 sum is exactly 0.
            return Bracket::exact(0.0);
        }
        let x = f as f64 * self.scale;
        Bracket {
            lo: (x - self.abs) * self.down,
            hi: (x + self.abs) * self.up,
        }
    }
}

/// A certified interval `lo ≤ v ≤ hi` around an f64 value `v` that the seed
/// solver computes; `lo == hi` once `v` is known exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Bracket {
    pub(crate) lo: f64,
    pub(crate) hi: f64,
}

impl Bracket {
    /// The bracket of a known value.
    pub(crate) fn exact(v: f64) -> Self {
        Bracket { lo: v, hi: v }
    }

    /// Whether the value is known exactly.
    pub(crate) fn is_exact(self) -> bool {
        self.lo == self.hi
    }

    /// Whether `v` lies inside the bracket.
    pub(crate) fn contains(self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// The seed's `self < other − 1e-12`, if the brackets decide it.
    pub(crate) fn below_by_tolerance(self, other: Bracket) -> Option<bool> {
        if self.hi < other.lo - 1e-12 {
            Some(true)
        } else if self.lo >= other.hi - 1e-12 {
            Some(false)
        } else {
            None
        }
    }

    /// The seed's `(self − other).abs() <= 1e-12`, if the brackets decide
    /// it. f64 subtraction is monotone in each operand, so the difference
    /// lies in `[lo − other.hi, hi − other.lo]`.
    pub(crate) fn within_tolerance(self, other: Bracket) -> Option<bool> {
        let (d_lo, d_hi) = (self.lo - other.hi, self.hi - other.lo);
        let (abs_lo, abs_hi) = if d_lo >= 0.0 {
            (d_lo, d_hi)
        } else if d_hi <= 0.0 {
            (-d_hi, -d_lo)
        } else {
            (0.0, d_hi.max(-d_lo))
        };
        if abs_hi <= 1e-12 {
            Some(true)
        } else if abs_lo > 1e-12 {
            Some(false)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The f64 coupling a block computes: terms summed in track order.
    fn f64_sum(distances: &[usize]) -> f64 {
        distances.iter().fold(0.0, |k, &d| k + 1.0 / d as f64)
    }

    #[test]
    fn coupling_brackets_hold_the_f64_sum() {
        let mut inv = Vec::new();
        extend_terms(&mut inv, 200);
        // Every left/right split of a segment's partners in a 200-track
        // block, in the track order `keff::coupling` sums them.
        let bounds = CouplingBounds::new(199);
        for p in 0..200usize {
            let distances: Vec<usize> = (0..200)
                .filter(|&t| t != p)
                .map(|t| t.abs_diff(p))
                .collect();
            let fixed: u64 = distances.iter().map(|&d| inv[d]).sum();
            let b = bounds.coupling(fixed);
            assert!(b.contains(f64_sum(&distances)), "position {p}: {b:?}");
            assert!(b.hi - b.lo < 1e-12, "bracket too loose: {b:?}");
        }
        assert_eq!(bounds.coupling(0), Bracket::exact(0.0));
    }

    #[test]
    fn comparisons_decide_only_when_every_value_agrees() {
        let x = Bracket {
            lo: 1.0,
            hi: 1.0 + 1e-14,
        };
        assert_eq!(Bracket::exact(0.5).below_by_tolerance(x), Some(true));
        assert_eq!(x.below_by_tolerance(x), Some(false));
        let near = Bracket {
            lo: 1.0 - 1e-12,
            hi: 1.0 - 1e-12 + 1e-14,
        };
        assert_eq!(near.below_by_tolerance(x), None);

        assert_eq!(x.within_tolerance(Bracket::exact(1.0)), Some(true));
        assert_eq!(x.within_tolerance(Bracket::exact(1.1)), Some(false));
        assert_eq!(Bracket::exact(1.1).within_tolerance(x), Some(false));
        assert_eq!(x.within_tolerance(Bracket::exact(1.0 + 1e-12)), None);
    }
}
