//! Physical length quantities in nanometres.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A physical length in nanometres.
///
/// Lengths are exact integers: every dimension in the 10 nm-node rule set
/// (20 nm lines, 20 nm spacers, 30 nm cut/core spacing) is an integer number
/// of nanometres, so all distance comparisons in the scenario analysis can
/// be carried out without floating point by comparing squared lengths.
///
/// # Example
///
/// ```
/// use sadp_geom::Nm;
/// let pitch = Nm(20) + Nm(20);
/// assert_eq!(pitch, Nm(40));
/// assert!(pitch.squared() < Nm(60).squared() * 2);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Nm(pub i64);

impl Nm {
    /// The zero length.
    pub const ZERO: Nm = Nm(0);

    /// Returns the squared length, for exact Euclidean comparisons.
    ///
    /// ```
    /// # use sadp_geom::Nm;
    /// assert_eq!(Nm(3).squared(), 9);
    /// ```
    #[must_use]
    pub fn squared(self) -> i64 {
        self.0 * self.0
    }

    /// Returns the absolute value of the length.
    #[must_use]
    pub fn abs(self) -> Nm {
        Nm(self.0.abs())
    }

    /// Returns the larger of two lengths.
    #[must_use]
    pub fn max(self, other: Nm) -> Nm {
        Nm(self.0.max(other.0))
    }

    /// Returns the smaller of two lengths.
    #[must_use]
    pub fn min(self, other: Nm) -> Nm {
        Nm(self.0.min(other.0))
    }
}

impl fmt::Display for Nm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}nm", self.0)
    }
}

impl Add for Nm {
    type Output = Nm;
    fn add(self, rhs: Nm) -> Nm {
        Nm(self.0 + rhs.0)
    }
}

impl AddAssign for Nm {
    fn add_assign(&mut self, rhs: Nm) {
        self.0 += rhs.0;
    }
}

impl Sub for Nm {
    type Output = Nm;
    fn sub(self, rhs: Nm) -> Nm {
        Nm(self.0 - rhs.0)
    }
}

impl SubAssign for Nm {
    fn sub_assign(&mut self, rhs: Nm) {
        self.0 -= rhs.0;
    }
}

impl Neg for Nm {
    type Output = Nm;
    fn neg(self) -> Nm {
        Nm(-self.0)
    }
}

impl Mul<i64> for Nm {
    type Output = Nm;
    fn mul(self, rhs: i64) -> Nm {
        Nm(self.0 * rhs)
    }
}

impl Div<i64> for Nm {
    type Output = Nm;
    fn div(self, rhs: i64) -> Nm {
        Nm(self.0 / rhs)
    }
}

impl Sum for Nm {
    fn sum<I: Iterator<Item = Nm>>(iter: I) -> Nm {
        Nm(iter.map(|n| n.0).sum())
    }
}

impl From<i64> for Nm {
    fn from(v: i64) -> Nm {
        Nm(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_is_exact() {
        assert_eq!(Nm(40) - Nm(20), Nm(20));
        assert_eq!(Nm(20) * 3, Nm(60));
        assert_eq!(Nm(60) / 2, Nm(30));
        assert_eq!(-Nm(5), Nm(-5));
        assert_eq!(Nm(-5).abs(), Nm(5));
    }

    #[test]
    fn squared_comparison_matches_euclid() {
        // sqrt(20^2 + 60^2) < sqrt(2)*60  <=>  4000 < 7200
        let d2 = Nm(20).squared() + Nm(60).squared();
        assert!(d2 < Nm(60).squared() * 2);
        // sqrt(20^2 + 100^2) > sqrt(2)*60  <=>  10400 > 7200
        let d2 = Nm(20).squared() + Nm(100).squared();
        assert!(d2 > Nm(60).squared() * 2);
    }

    #[test]
    fn sum_and_minmax() {
        let total: Nm = [Nm(1), Nm(2), Nm(3)].into_iter().sum();
        assert_eq!(total, Nm(6));
        assert_eq!(Nm(1).max(Nm(2)), Nm(2));
        assert_eq!(Nm(1).min(Nm(2)), Nm(1));
    }

    #[test]
    fn display() {
        assert_eq!(Nm(1500).to_string(), "1500nm");
    }
}
