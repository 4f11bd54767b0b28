//! Exact rational arithmetic over `i128`, used by the simplex core.
//!
//! Coefficients in PINS constraints are tiny (±1, ±2, small constants), so an
//! `i128` numerator/denominator pair with eager GCD normalisation has ample
//! headroom. Every operation has a checked (`Option`-returning) form; the
//! simplex layer uses those and degrades an overflow to a recoverable
//! `Unknown(Overflow)` verdict instead of panicking. The operator impls
//! (`+`, `-`, `*`, `/`) remain panicking conveniences for contexts where
//! overflow would indicate a bug rather than a data-dependent condition.
//! Comparison (`Ord`) is total and overflow-free.
//!
//! Simplex values are almost always integers, so construction, addition,
//! multiplication and comparison take an integer fast path when every
//! denominator involved is 1: plain checked `i128` arithmetic, with no GCD
//! and no `u128` division. The fast path returns exactly what the general
//! path would, `None` on overflow included.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128, // always > 0
}

/// Greatest common divisor over unsigned magnitudes. Using `unsigned_abs`
/// instead of `abs` keeps `i128::MIN` (magnitude `2^127`) in range.
fn gcd_mag(a: u128, b: u128) -> u128 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Reassembles a signed integer from magnitude + sign, `None` if out of
/// range for `i128`.
fn to_signed(mag: u128, negative: bool) -> Option<i128> {
    if negative {
        if mag > i128::MIN.unsigned_abs() {
            None
        } else {
            Some((mag as i128).wrapping_neg())
        }
    } else {
        i128::try_from(mag).ok()
    }
}

impl Rat {
    /// Zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// One.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Constructs `num / den`, normalised.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0` or if the normalised numerator is out of range
    /// (only possible for `i128::MIN` inputs). Use [`Rat::checked_new`]
    /// where overflow must be recoverable.
    pub fn new(num: i128, den: i128) -> Rat {
        Rat::checked_new(num, den).expect("rational overflow in new")
    }

    /// Constructs `num / den`, normalised; `None` on a zero denominator or
    /// when the normalised representation is out of `i128` range (e.g.
    /// `i128::MIN / -1` territory).
    pub fn checked_new(num: i128, den: i128) -> Option<Rat> {
        if den == 1 {
            return Some(Rat { num, den });
        }
        if den == 0 {
            return None;
        }
        if num == 0 {
            return Some(Rat::ZERO);
        }
        let negative = (num < 0) != (den < 0);
        let (nm, dm) = (num.unsigned_abs(), den.unsigned_abs());
        let g = gcd_mag(nm, dm);
        let num = to_signed(nm / g, negative)?;
        let den = to_signed(dm / g, false)?;
        Some(Rat { num, den })
    }

    /// The integer `v` as a rational.
    pub fn from_int(v: i64) -> Rat {
        Rat {
            num: v as i128,
            den: 1,
        }
    }

    /// The integer `v` as a rational (full `i128` range, including
    /// `i128::MIN`).
    pub fn from_int128(v: i128) -> Rat {
        Rat { num: v, den: 1 }
    }

    /// Numerator (after normalisation; sign lives here).
    pub fn num(self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub fn den(self) -> i128 {
        self.den
    }

    /// Whether this is an integer.
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Whether this is zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Rounds toward negative infinity (largest integer `<= self`).
    pub fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Rounds toward positive infinity (smallest integer `>= self`).
    ///
    /// Exact for every normalised value except `i128::MIN` itself (whose
    /// negation is out of range); that case cannot arise from checked
    /// constructors with `den > 1`.
    pub fn ceil(self) -> i128 {
        if self.den == 1 {
            self.num
        } else {
            // den > 1 implies |num| < i128::MAX after normalisation headroom;
            // compute as floor + 1 for non-integers to avoid negating MIN.
            self.num.div_euclid(self.den) + 1
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if zero or unrepresentable. Use [`Rat::checked_recip`] where
    /// overflow must be recoverable.
    pub fn recip(self) -> Rat {
        self.checked_recip().expect("rational overflow in recip")
    }

    /// Multiplicative inverse; `None` if zero or out of range.
    pub fn checked_recip(self) -> Option<Rat> {
        Rat::checked_new(self.den, self.num)
    }

    /// Checked negation; `None` only for `num == i128::MIN`.
    pub fn checked_neg(self) -> Option<Rat> {
        Some(Rat {
            num: self.num.checked_neg()?,
            den: self.den,
        })
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: Rat) -> Option<Rat> {
        if self.den == 1 && rhs.den == 1 {
            return self.num.checked_add(rhs.num).map(Rat::from_int128);
        }
        let a = self.num.checked_mul(rhs.den)?;
        let b = rhs.num.checked_mul(self.den)?;
        let num = a.checked_add(b)?;
        let den = self.den.checked_mul(rhs.den)?;
        Rat::checked_new(num, den)
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: Rat) -> Option<Rat> {
        self.checked_add(rhs.checked_neg()?)
    }

    /// Checked multiplication (cross-reduced to keep magnitudes small).
    pub fn checked_mul(self, rhs: Rat) -> Option<Rat> {
        if self.den == 1 && rhs.den == 1 {
            return self.num.checked_mul(rhs.num).map(Rat::from_int128);
        }
        let g1 = gcd_mag(self.num.unsigned_abs(), rhs.den.unsigned_abs()).max(1) as i128;
        let g2 = gcd_mag(rhs.num.unsigned_abs(), self.den.unsigned_abs()).max(1) as i128;
        let num = (self.num / g1).checked_mul(rhs.num / g2)?;
        let den = (self.den / g2).checked_mul(rhs.den / g1)?;
        Rat::checked_new(num, den)
    }

    /// Checked division; `None` on division by zero or overflow.
    pub fn checked_div(self, rhs: Rat) -> Option<Rat> {
        self.checked_mul(rhs.checked_recip()?)
    }

    /// Converts to `i64` when integral and in range.
    pub fn to_i64(self) -> Option<i64> {
        if self.den == 1 {
            i64::try_from(self.num).ok()
        } else {
            None
        }
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        self.checked_add(rhs).expect("rational overflow in add")
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self.checked_sub(rhs).expect("rational overflow in sub")
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        self.checked_neg().expect("rational overflow in neg")
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        self.checked_mul(rhs).expect("rational overflow in mul")
    }
}

impl Div for Rat {
    type Output = Rat;
    fn div(self, rhs: Rat) -> Rat {
        self.checked_div(rhs).expect("rational overflow in div")
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Compares `a/b` with `c/d` for positive `b`, `d` and non-negative `a`,
/// `c`, without overflow, by comparing continued-fraction expansions.
fn cmp_frac_mag(a: u128, b: u128, c: u128, d: u128) -> Ordering {
    // invariant: b, d > 0
    let (q1, r1) = (a / b, a % b);
    let (q2, r2) = (c / d, c % d);
    match q1.cmp(&q2) {
        Ordering::Equal => match (r1, r2) {
            (0, 0) => Ordering::Equal,
            (0, _) => Ordering::Less,
            (_, 0) => Ordering::Greater,
            // a/b <=> c/d  iff  d/r2 <=> b/r1 (reciprocal flips)
            _ => cmp_frac_mag(d, r2, b, r1),
        },
        ord => ord,
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        if self.den == 1 && other.den == 1 {
            return self.num.cmp(&other.num);
        }
        match (self.num >= 0, other.num >= 0) {
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (true, true) => cmp_frac_mag(
                self.num.unsigned_abs(),
                self.den.unsigned_abs(),
                other.num.unsigned_abs(),
                other.den.unsigned_abs(),
            ),
            (false, false) => cmp_frac_mag(
                other.num.unsigned_abs(),
                other.den.unsigned_abs(),
                self.num.unsigned_abs(),
                self.den.unsigned_abs(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, 5), Rat::ZERO);
    }

    #[test]
    fn arithmetic() {
        let half = Rat::new(1, 2);
        let third = Rat::new(1, 3);
        assert_eq!(half + third, Rat::new(5, 6));
        assert_eq!(half - third, Rat::new(1, 6));
        assert_eq!(half * third, Rat::new(1, 6));
        assert_eq!(half / third, Rat::new(3, 2));
        assert_eq!(-half, Rat::new(-1, 2));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::from_int(5).floor(), 5);
        assert_eq!(Rat::from_int(5).ceil(), 5);
    }

    #[test]
    fn floor_ceil_negative_non_integral_boundaries() {
        // floor rounds toward -inf, ceil toward +inf — NOT truncation
        assert_eq!(Rat::new(-1, 2).floor(), -1);
        assert_eq!(Rat::new(-1, 2).ceil(), 0);
        assert_eq!(Rat::new(-1, 1_000_000).floor(), -1);
        assert_eq!(Rat::new(-1, 1_000_000).ceil(), 0);
        assert_eq!(Rat::new(-999_999, 1_000_000).floor(), -1);
        assert_eq!(Rat::new(-999_999, 1_000_000).ceil(), 0);
        assert_eq!(Rat::new(-1_000_001, 1_000_000).floor(), -2);
        assert_eq!(Rat::new(-1_000_001, 1_000_000).ceil(), -1);
        assert_eq!(Rat::from_int(-5).floor(), -5);
        assert_eq!(Rat::from_int(-5).ceil(), -5);
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::ZERO);
        assert!(Rat::from_int(2) > Rat::new(3, 2));
    }

    #[test]
    fn gcd_handles_i128_min_magnitudes() {
        // regression: gcd via .abs() panicked on i128::MIN
        assert_eq!(
            Rat::checked_new(i128::MIN, 2),
            Some(Rat::new(i128::MIN / 2, 1))
        );
        assert_eq!(Rat::checked_new(2, i128::MIN), Some(Rat::new(-1, 1 << 126)));
        assert_eq!(
            Rat::checked_new(i128::MIN, i128::MIN),
            Some(Rat::ONE),
            "MIN/MIN normalises to 1"
        );
        // MIN / -1 has magnitude 2^127 with positive sign: unrepresentable
        assert_eq!(Rat::checked_new(i128::MIN, -1), None);
        assert_eq!(
            Rat::checked_new(i128::MIN, 1),
            Some(Rat::from_int128(i128::MIN))
        );
        assert_eq!(Rat::checked_new(i128::MAX, i128::MAX), Some(Rat::ONE));
        assert_eq!(Rat::checked_new(5, 0), None);
    }

    #[test]
    fn extreme_value_ordering_is_overflow_free() {
        let min = Rat::from_int128(i128::MIN);
        let max = Rat::from_int128(i128::MAX);
        assert!(min < max);
        assert!(min < Rat::ZERO);
        assert!(max > Rat::ZERO);
        // cross-multiplication here would overflow i128
        let a = Rat::new(i128::MAX, 3);
        let b = Rat::new(i128::MAX - 2, 3);
        assert!(a > b);
        let c = Rat::new(-(i128::MAX / 2), 5);
        let d = Rat::new(-(i128::MAX / 2) + 1, 5);
        assert!(c < d);
        // distinct huge fractions with equal integer parts
        let e = Rat::new(i128::MAX, i128::MAX - 1);
        let f = Rat::new(i128::MAX - 1, i128::MAX - 2);
        assert_eq!(e.cmp(&e), Ordering::Equal);
        assert_ne!(
            e.cmp(&f),
            std::cmp::Ordering::Equal,
            "total order on distinct values"
        );
    }

    #[test]
    fn checked_ops_surface_overflow_as_none() {
        let max = Rat::from_int128(i128::MAX);
        assert_eq!(max.checked_add(Rat::ONE), None);
        assert_eq!(max.checked_mul(Rat::from_int(2)), None);
        assert_eq!(Rat::from_int128(i128::MIN).checked_neg(), None);
        assert_eq!(Rat::ONE.checked_div(Rat::ZERO), None);
        assert_eq!(Rat::ZERO.checked_recip(), None);
        // non-overflowing cases still work
        assert_eq!(
            Rat::new(1, 2).checked_add(Rat::new(1, 3)),
            Some(Rat::new(5, 6))
        );
        assert_eq!(max.checked_sub(max), Some(Rat::ZERO));
    }

    /// The general path — GCD normalisation and cross-multiplication, as
    /// `Rat` computes whenever a denominator is not 1 — over raw parts.
    mod general {
        use super::super::{gcd_mag, to_signed};

        pub fn new(num: i128, den: i128) -> Option<(i128, i128)> {
            if den == 0 {
                return None;
            }
            if num == 0 {
                return Some((0, 1));
            }
            let negative = (num < 0) != (den < 0);
            let (nm, dm) = (num.unsigned_abs(), den.unsigned_abs());
            let g = gcd_mag(nm, dm);
            Some((to_signed(nm / g, negative)?, to_signed(dm / g, false)?))
        }

        pub fn add((a, b): (i128, i128), (c, d): (i128, i128)) -> Option<(i128, i128)> {
            new(
                a.checked_mul(d)?.checked_add(c.checked_mul(b)?)?,
                b.checked_mul(d)?,
            )
        }

        pub fn mul((a, b): (i128, i128), (c, d): (i128, i128)) -> Option<(i128, i128)> {
            let g1 = gcd_mag(a.unsigned_abs(), d.unsigned_abs()).max(1) as i128;
            let g2 = gcd_mag(c.unsigned_abs(), b.unsigned_abs()).max(1) as i128;
            new((a / g1).checked_mul(c / g2)?, (b / g2).checked_mul(d / g1)?)
        }
    }

    /// `|a| * |b|` as a 256-bit `(high, low)` pair.
    fn mul_wide(a: u128, b: u128) -> (u128, u128) {
        const LO: u128 = u64::MAX as u128;
        let (a1, a0, b1, b0) = (a >> 64, a & LO, b >> 64, b & LO);
        let (p00, p01, p10, p11) = (a0 * b0, a0 * b1, a1 * b0, a1 * b1);
        let mid = (p00 >> 64) + (p01 & LO) + (p10 & LO);
        (
            p11 + (p01 >> 64) + (p10 >> 64) + (mid >> 64),
            (p00 & LO) | (mid << 64),
        )
    }

    /// `a * b` as a signed 256-bit value, for exact comparison.
    fn wide(a: i128, b: i128) -> (bool, u128, u128) {
        let (hi, lo) = mul_wide(a.unsigned_abs(), b.unsigned_abs());
        ((a < 0) != (b < 0) && (hi, lo) != (0, 0), hi, lo)
    }

    /// Exact order of `x` and `y` by 256-bit cross-multiplication.
    fn wide_cmp(x: Rat, y: Rat) -> Ordering {
        let (xn, xh, xl) = wide(x.num(), y.den());
        let (yn, yh, yl) = wide(y.num(), x.den());
        match (xn, yn) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => (xh, xl).cmp(&(yh, yl)),
            (true, true) => (yh, yl).cmp(&(xh, xl)),
        }
    }

    /// `a + b` as a sign and 256-bit magnitude.
    fn wide_add(a: i128, b: i128) -> (bool, u128, u128) {
        let (ma, mb) = (a.unsigned_abs(), b.unsigned_abs());
        if (a < 0) == (b < 0) {
            let (lo, carry) = ma.overflowing_add(mb);
            (a < 0, carry as u128, lo)
        } else if ma >= mb {
            (a < 0 && ma != mb, 0, ma - mb)
        } else {
            (b < 0, 0, mb - ma)
        }
    }

    /// Whether a sign and 256-bit magnitude fit in `i128`.
    fn fits(negative: bool, hi: u128, lo: u128) -> bool {
        hi == 0 && (lo <= i128::MAX as u128 || (negative && lo == i128::MIN.unsigned_abs()))
    }

    const EDGES: [i128; 16] = [
        0,
        1,
        -1,
        2,
        -3,
        7,
        1 << 64,
        -(1 << 64),
        i128::MAX,
        i128::MAX - 1,
        i128::MAX / 2,
        i128::MIN,
        i128::MIN + 1,
        i128::MIN / 2,
        (i128::MAX / 2) + 1,
        i128::MIN / 2 - 1,
    ];

    /// Every edge numerator over denominators 1 (the fast path) and not 1.
    fn grid() -> Vec<Rat> {
        let mut out = Vec::new();
        for &n in &EDGES {
            for d in [1, 2, 3, 6, i128::MAX] {
                out.extend(Rat::checked_new(n, d));
            }
        }
        out
    }

    #[test]
    fn integer_fast_path_agrees_with_the_general_path_and_exact_arithmetic() {
        for &n in &EDGES {
            for d in [1, -1, 2, -2, 3, 0, i128::MAX, i128::MIN] {
                let got = Rat::checked_new(n, d).map(|r| (r.num(), r.den()));
                assert_eq!(got, general::new(n, d), "new({n}, {d})");
            }
        }
        let rats = grid();
        for &x in &rats {
            for &y in &rats {
                let (xp, yp) = ((x.num(), x.den()), (y.num(), y.den()));
                let parts = |r: Option<Rat>| r.map(|r| (r.num(), r.den()));
                assert_eq!(parts(x.checked_add(y)), general::add(xp, yp), "{x} + {y}");
                assert_eq!(parts(x.checked_mul(y)), general::mul(xp, yp), "{x} * {y}");
                assert_eq!(x.cmp(&y), wide_cmp(x, y), "{x} <=> {y}");
                if x.is_integer() && y.is_integer() {
                    // the exact product is representable iff the fast
                    // path returns it
                    let (neg, hi, lo) = wide(x.num(), y.num());
                    assert_eq!(x.checked_mul(y).is_some(), fits(neg, hi, lo), "{x} * {y}");
                    let (neg, hi, lo) = wide_add(x.num(), y.num());
                    assert_eq!(x.checked_add(y).is_some(), fits(neg, hi, lo), "{x} + {y}");
                }
            }
        }
        // the ±1 overflow edges at the i128 bounds
        let (max, min) = (Rat::from_int128(i128::MAX), Rat::from_int128(i128::MIN));
        assert_eq!(max.checked_add(Rat::ONE), None);
        assert_eq!(
            max.checked_add(-Rat::ONE),
            Some(Rat::from_int128(i128::MAX - 1))
        );
        assert_eq!(min.checked_add(-Rat::ONE), None);
        assert_eq!(
            min.checked_add(Rat::ONE),
            Some(Rat::from_int128(i128::MIN + 1))
        );
        assert_eq!(min.checked_add(max), Some(-Rat::ONE));
        assert_eq!(min.checked_mul(-Rat::ONE), None);
        assert_eq!(
            max.checked_mul(-Rat::ONE),
            Some(Rat::from_int128(-i128::MAX))
        );
        assert_eq!(min.checked_mul(Rat::ONE), Some(min));
        assert_eq!(min.checked_sub(Rat::ONE), None);
        assert_eq!(max.checked_sub(-Rat::ONE), None);
        assert!(min < Rat::from_int128(i128::MIN + 1));
        assert!(max > Rat::from_int128(i128::MAX - 1));
    }

    #[test]
    fn ceil_of_extreme_negative_fraction() {
        let r = Rat::checked_new(i128::MIN, 3).unwrap();
        assert_eq!(r.ceil(), r.floor() + 1);
        assert_eq!(Rat::from_int128(i128::MIN).ceil(), i128::MIN);
        assert_eq!(Rat::from_int128(i128::MIN).floor(), i128::MIN);
    }
}
