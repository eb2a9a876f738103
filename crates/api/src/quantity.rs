//! Resource quantities (`100m` CPU, `1Gi` memory).
//!
//! A [`Quantity`] is a fixed-point amount in the resource's base unit scaled
//! by 1000 (milli-units), matching how Kubernetes normalizes CPU requests.
//! For memory the base unit is the byte; for CPU it is one core.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};
use std::str::FromStr;

/// A resource amount stored as milli-units of the base unit.
///
/// # Examples
///
/// ```
/// use vc_api::quantity::Quantity;
///
/// let cpu: Quantity = "250m".parse()?;
/// assert_eq!(cpu.millis(), 250);
/// let mem: Quantity = "2Gi".parse()?;
/// assert_eq!(mem.as_whole(), 2 * 1024 * 1024 * 1024);
/// # Ok::<(), vc_api::quantity::ParseQuantityError>(())
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Quantity(i64);

impl Quantity {
    /// The zero quantity.
    pub const ZERO: Quantity = Quantity(0);

    /// Creates a quantity from milli-units (e.g. `500` = half a core).
    pub fn from_millis(millis: i64) -> Self {
        Quantity(millis)
    }

    /// Creates a quantity from whole base units (cores, bytes).
    pub fn from_whole(units: i64) -> Self {
        Quantity(units * 1000)
    }

    /// Returns the amount in milli-units.
    pub fn millis(self) -> i64 {
        self.0
    }

    /// Returns the amount in whole base units, truncating fractional
    /// milli-units.
    pub fn as_whole(self) -> i64 {
        self.0 / 1000
    }

    /// Returns `true` if the amount is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction that never goes below zero.
    pub fn saturating_sub(self, rhs: Quantity) -> Quantity {
        Quantity((self.0 - rhs.0).max(0))
    }

    /// Returns this quantity scaled by an integer factor.
    pub fn scale(self, factor: i64) -> Quantity {
        Quantity(self.0 * factor)
    }
}

impl Add for Quantity {
    type Output = Quantity;
    fn add(self, rhs: Quantity) -> Quantity {
        Quantity(self.0 + rhs.0)
    }
}

impl AddAssign for Quantity {
    fn add_assign(&mut self, rhs: Quantity) {
        self.0 += rhs.0;
    }
}

impl Sub for Quantity {
    type Output = Quantity;
    fn sub(self, rhs: Quantity) -> Quantity {
        Quantity(self.0 - rhs.0)
    }
}

impl SubAssign for Quantity {
    fn sub_assign(&mut self, rhs: Quantity) {
        self.0 -= rhs.0;
    }
}

impl Sum for Quantity {
    fn sum<I: Iterator<Item = Quantity>>(iter: I) -> Quantity {
        iter.fold(Quantity::ZERO, Add::add)
    }
}

/// Error parsing a [`Quantity`] string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQuantityError {
    input: String,
}

impl fmt::Display for ParseQuantityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid quantity syntax: {:?}", self.input)
    }
}

impl std::error::Error for ParseQuantityError {}

impl FromStr for Quantity {
    type Err = ParseQuantityError;

    /// Parses `100m`, `2`, `1.5`, `512Mi`, `1Gi`, `4Ki`, `2Ti`, `1k`, `1M`,
    /// `1G`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseQuantityError { input: s.to_string() };
        let s = s.trim();
        if s.is_empty() {
            return Err(err());
        }
        let split =
            s.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-')).unwrap_or(s.len());
        let (num, suffix) = s.split_at(split);
        let value: f64 = num.parse().map_err(|_| err())?;
        let multiplier_millis: f64 = match suffix {
            "" => 1000.0,
            "m" => 1.0,
            "Ki" => 1000.0 * 1024.0,
            "Mi" => 1000.0 * 1024.0 * 1024.0,
            "Gi" => 1000.0 * 1024.0 * 1024.0 * 1024.0,
            "Ti" => 1000.0 * 1024.0 * 1024.0 * 1024.0 * 1024.0,
            "k" => 1000.0 * 1e3,
            "M" => 1000.0 * 1e6,
            "G" => 1000.0 * 1e9,
            "T" => 1000.0 * 1e12,
            _ => return Err(err()),
        };
        Ok(Quantity((value * multiplier_millis).round() as i64))
    }
}

impl fmt::Display for Quantity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 % 1000 == 0 {
            write!(f, "{}", self.0 / 1000)
        } else {
            write!(f, "{}m", self.0)
        }
    }
}

/// Canonical resource names used in requests/limits/capacity maps.
pub mod resource_names {
    /// CPU cores.
    pub const CPU: &str = "cpu";
    /// Memory bytes.
    pub const MEMORY: &str = "memory";
    /// Maximum number of pods on a node.
    pub const PODS: &str = "pods";
    /// Ephemeral storage bytes.
    pub const EPHEMERAL_STORAGE: &str = "ephemeral-storage";
}

/// A map from resource name to quantity (requests, limits, node capacity).
pub type ResourceList = BTreeMap<String, Quantity>;

/// Builds a [`ResourceList`] from `(name, quantity-string)` pairs.
///
/// # Panics
///
/// Panics if a quantity string is malformed; intended for literals in tests
/// and examples.
pub fn resource_list(pairs: &[(&str, &str)]) -> ResourceList {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.parse::<Quantity>().expect("valid quantity literal")))
        .collect()
}

/// Adds `rhs` into `lhs` entry-wise.
pub fn add_resources(lhs: &mut ResourceList, rhs: &ResourceList) {
    for (k, v) in rhs {
        // Look up first: the key is cloned only when it is new to `lhs`.
        match lhs.get_mut(k) {
            Some(q) => *q += *v,
            None => {
                lhs.insert(k.clone(), *v);
            }
        }
    }
}

/// Subtracts `rhs` from `lhs` entry-wise, saturating at zero.
pub fn sub_resources(lhs: &mut ResourceList, rhs: &ResourceList) {
    for (k, v) in rhs {
        match lhs.get_mut(k) {
            Some(q) => *q = q.saturating_sub(*v),
            None => {
                lhs.insert(k.clone(), Quantity::ZERO.saturating_sub(*v));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_plain_and_milli() {
        assert_eq!("2".parse::<Quantity>().unwrap(), Quantity::from_whole(2));
        assert_eq!("250m".parse::<Quantity>().unwrap(), Quantity::from_millis(250));
        assert_eq!("1.5".parse::<Quantity>().unwrap(), Quantity::from_millis(1500));
    }

    #[test]
    fn parse_binary_suffixes() {
        assert_eq!("1Ki".parse::<Quantity>().unwrap().as_whole(), 1024);
        assert_eq!("1Mi".parse::<Quantity>().unwrap().as_whole(), 1024 * 1024);
        assert_eq!("2Gi".parse::<Quantity>().unwrap().as_whole(), 2 * 1024 * 1024 * 1024);
    }

    #[test]
    fn parse_decimal_suffixes() {
        assert_eq!("1k".parse::<Quantity>().unwrap().as_whole(), 1000);
        assert_eq!("3M".parse::<Quantity>().unwrap().as_whole(), 3_000_000);
    }

    #[test]
    fn parse_errors() {
        assert!("".parse::<Quantity>().is_err());
        assert!("abc".parse::<Quantity>().is_err());
        assert!("1Xi".parse::<Quantity>().is_err());
        let e = "1Xi".parse::<Quantity>().unwrap_err();
        assert!(e.to_string().contains("1Xi"));
    }

    #[test]
    fn display_roundtrip() {
        assert_eq!(Quantity::from_whole(4).to_string(), "4");
        assert_eq!(Quantity::from_millis(1500).to_string(), "1500m");
        let q: Quantity = Quantity::from_millis(1500).to_string().parse().unwrap();
        assert_eq!(q, Quantity::from_millis(1500));
    }

    #[test]
    fn arithmetic() {
        let a = Quantity::from_millis(500);
        let b = Quantity::from_millis(700);
        assert_eq!((a + b).millis(), 1200);
        assert_eq!((b - a).millis(), 200);
        assert_eq!(a.saturating_sub(b), Quantity::ZERO);
        assert_eq!(a.scale(3).millis(), 1500);
        let total: Quantity = [a, b, a].into_iter().sum();
        assert_eq!(total.millis(), 1700);
    }

    #[test]
    fn resource_list_add_sub() {
        let mut acc = ResourceList::new();
        let r = resource_list(&[("cpu", "1"), ("memory", "1Gi")]);
        add_resources(&mut acc, &r);
        add_resources(&mut acc, &r);
        assert_eq!(acc["cpu"], Quantity::from_whole(2));
        sub_resources(&mut acc, &r);
        assert_eq!(acc["cpu"], Quantity::from_whole(1));
        // Saturates rather than going negative, for a new key too.
        sub_resources(&mut acc, &resource_list(&[("cpu", "100"), ("gpu", "1")]));
        assert_eq!(acc["cpu"], Quantity::ZERO);
        assert_eq!(acc["gpu"], Quantity::ZERO);
    }
}
