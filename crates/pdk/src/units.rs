//! Unit-safe physical quantities.
//!
//! Every physical quantity in the PDK and downstream analyses is a newtype
//! over `f64` holding the value in SI base units (m², J, s, W, Hz, V, A, C).
//! Constructors and accessors are provided in the units the paper reports
//! (mm², nJ, µs, mW, …) so that tables can be transcribed verbatim without
//! conversion mistakes.
//!
//! ```
//! use printed_pdk::units::{Area, Energy, Frequency, Power};
//!
//! let cell = Area::from_mm2(1.41);
//! let core = cell * 20.0;
//! assert!((core.as_cm2() - 0.282).abs() < 1e-12);
//!
//! // P = E × f
//! let p: Power = Energy::from_nanojoules(2360.0) * Frequency::from_hertz(20.0);
//! assert!((p.as_milliwatts() - 0.0472).abs() < 1e-9);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: $name = $name(0.0);

            /// Creates a quantity from a raw value in SI base units.
            pub const fn from_si(value: f64) -> Self {
                $name(value)
            }

            /// Returns the raw value in SI base units.
            pub const fn as_si(self) -> f64 {
                self.0
            }

            /// Returns the larger of two quantities.
            pub fn max(self, other: Self) -> Self {
                if self.0 >= other.0 { self } else { other }
            }

            /// Returns the smaller of two quantities.
            pub fn min(self, other: Self) -> Self {
                if self.0 <= other.0 { self } else { other }
            }

            /// Returns `true` if the value is finite (not NaN or infinite).
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                $name(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                $name(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                $name(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold($name::ZERO, Add::add)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(precision) = f.precision() {
                    write!(f, "{:.*} {}", precision, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }
    };
}

quantity!(
    /// Silicon (well, plastic) real estate, stored in m².
    Area,
    "m^2"
);
quantity!(
    /// Energy, stored in joules.
    Energy,
    "J"
);
quantity!(
    /// Elapsed or propagation time, stored in seconds.
    Time,
    "s"
);
quantity!(
    /// Power, stored in watts.
    Power,
    "W"
);
quantity!(
    /// Frequency, stored in hertz.
    Frequency,
    "Hz"
);
quantity!(
    /// Electric potential, stored in volts.
    Voltage,
    "V"
);
quantity!(
    /// Electric current, stored in amperes.
    Current,
    "A"
);
quantity!(
    /// Electric charge, stored in coulombs.
    Charge,
    "C"
);

impl Area {
    /// Creates an area from square millimetres (the unit of Table 2/6).
    pub const fn from_mm2(mm2: f64) -> Self {
        Area(mm2 * 1e-6)
    }

    /// Creates an area from square centimetres (the unit of Table 4/5).
    pub const fn from_cm2(cm2: f64) -> Self {
        Area(cm2 * 1e-4)
    }

    /// Returns the area in square millimetres.
    pub const fn as_mm2(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the area in square centimetres.
    pub const fn as_cm2(self) -> f64 {
        self.0 * 1e4
    }
}

impl Energy {
    /// Creates an energy from nanojoules (the unit of Table 2).
    pub const fn from_nanojoules(nj: f64) -> Self {
        Energy(nj * 1e-9)
    }

    /// Creates an energy from millijoules (the unit of Figure 8).
    pub const fn from_millijoules(mj: f64) -> Self {
        Energy(mj * 1e-3)
    }

    /// Creates an energy from joules.
    pub const fn from_joules(j: f64) -> Self {
        Energy(j)
    }

    /// Returns the energy in nanojoules.
    pub const fn as_nanojoules(self) -> f64 {
        self.0 * 1e9
    }

    /// Returns the energy in millijoules.
    pub const fn as_millijoules(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the energy in joules.
    pub const fn as_joules(self) -> f64 {
        self.0
    }
}

impl Time {
    /// Creates a time from microseconds (the unit of Table 2 delays).
    pub const fn from_micros(us: f64) -> Self {
        Time(us * 1e-6)
    }

    /// Creates a time from milliseconds (the unit of Table 6 delays).
    pub const fn from_millis(ms: f64) -> Self {
        Time(ms * 1e-3)
    }

    /// Creates a time from seconds.
    pub const fn from_secs(s: f64) -> Self {
        Time(s)
    }

    /// Creates a time from hours (the unit of Figures 4/5 lifetimes).
    pub const fn from_hours(h: f64) -> Self {
        Time(h * 3600.0)
    }

    /// Returns the time in microseconds.
    pub const fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the time in milliseconds.
    pub const fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the time in seconds.
    pub const fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the time in hours.
    pub const fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }
}

impl Power {
    /// Creates a power from microwatts (the unit of Table 6).
    pub const fn from_microwatts(uw: f64) -> Self {
        Power(uw * 1e-6)
    }

    /// Creates a power from milliwatts (the unit of Table 4/5).
    pub const fn from_milliwatts(mw: f64) -> Self {
        Power(mw * 1e-3)
    }

    /// Creates a power from watts.
    pub const fn from_watts(w: f64) -> Self {
        Power(w)
    }

    /// Returns the power in microwatts.
    pub const fn as_microwatts(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the power in milliwatts.
    pub const fn as_milliwatts(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the power in watts.
    pub const fn as_watts(self) -> f64 {
        self.0
    }
}

impl Frequency {
    /// Creates a frequency from hertz.
    pub const fn from_hertz(hz: f64) -> Self {
        Frequency(hz)
    }

    /// Creates a frequency from kilohertz.
    pub const fn from_kilohertz(khz: f64) -> Self {
        Frequency(khz * 1e3)
    }

    /// Returns the frequency in hertz.
    pub const fn as_hertz(self) -> f64 {
        self.0
    }

    /// Returns the frequency in kilohertz.
    pub const fn as_kilohertz(self) -> f64 {
        self.0 * 1e-3
    }

    /// Returns the corresponding clock period.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero.
    pub fn period(self) -> Time {
        assert!(self.0 > 0.0, "period of a zero frequency is undefined");
        Time(1.0 / self.0)
    }
}

impl Voltage {
    /// Creates a voltage from volts.
    pub const fn from_volts(v: f64) -> Self {
        Voltage(v)
    }

    /// Returns the voltage in volts.
    pub const fn as_volts(self) -> f64 {
        self.0
    }
}

impl Current {
    /// Creates a current from milliamperes.
    pub const fn from_milliamps(ma: f64) -> Self {
        Current(ma * 1e-3)
    }

    /// Returns the current in milliamperes.
    pub const fn as_milliamps(self) -> f64 {
        self.0 * 1e3
    }
}

impl Charge {
    /// Creates a charge from milliampere-hours (the unit printed-battery
    /// datasheets quote).
    pub const fn from_milliamp_hours(mah: f64) -> Self {
        Charge(mah * 1e-3 * 3600.0)
    }

    /// Returns the charge in milliampere-hours.
    pub const fn as_milliamp_hours(self) -> f64 {
        self.0 / 3.6
    }
}

impl Time {
    /// Inverse of a clock period.
    ///
    /// # Panics
    ///
    /// Panics if the time is zero.
    pub fn frequency(self) -> Frequency {
        assert!(self.0 > 0.0, "frequency of a zero period is undefined");
        Frequency(1.0 / self.0)
    }
}

// Cross-quantity arithmetic. Only the physically meaningful products are
// provided; anything else is a type error.

impl Mul<Frequency> for Energy {
    type Output = Power;
    /// `P = E × f`: switching energy times toggle rate.
    fn mul(self, rhs: Frequency) -> Power {
        Power(self.0 * rhs.0)
    }
}

impl Mul<Energy> for Frequency {
    type Output = Power;
    fn mul(self, rhs: Energy) -> Power {
        rhs * self
    }
}

impl Mul<Time> for Power {
    type Output = Energy;
    /// `E = P × t`.
    fn mul(self, rhs: Time) -> Energy {
        Energy(self.0 * rhs.0)
    }
}

impl Mul<Power> for Time {
    type Output = Energy;
    fn mul(self, rhs: Power) -> Energy {
        rhs * self
    }
}

impl Div<Power> for Energy {
    type Output = Time;
    /// `t = E / P`: how long a budget lasts at a draw.
    fn div(self, rhs: Power) -> Time {
        Time(self.0 / rhs.0)
    }
}

impl Div<Time> for Energy {
    type Output = Power;
    fn div(self, rhs: Time) -> Power {
        Power(self.0 / rhs.0)
    }
}

impl Mul<Voltage> for Charge {
    type Output = Energy;
    /// `E = Q × V`: energy stored in a battery.
    fn mul(self, rhs: Voltage) -> Energy {
        Energy(self.0 * rhs.0)
    }
}

impl Mul<Charge> for Voltage {
    type Output = Energy;
    fn mul(self, rhs: Charge) -> Energy {
        rhs * self
    }
}

impl Mul<Voltage> for Current {
    type Output = Power;
    /// `P = I × V`.
    fn mul(self, rhs: Voltage) -> Power {
        Power(self.0 * rhs.0)
    }
}

impl Mul<Time> for Current {
    type Output = Charge;
    /// `Q = I × t`.
    fn mul(self, rhs: Time) -> Charge {
        Charge(self.0 * rhs.0)
    }
}

impl Div<Frequency> for f64 {
    type Output = Time;
    /// `t = cycles / f`.
    fn div(self, rhs: Frequency) -> Time {
        Time(self / rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_conversions_round_trip() {
        let a = Area::from_mm2(0.224);
        assert!((a.as_mm2() - 0.224).abs() < 1e-12);
        assert!((a.as_cm2() - 0.00224).abs() < 1e-12);
        assert!((Area::from_cm2(56.38).as_mm2() - 5638.0).abs() < 1e-9);
    }

    #[test]
    fn energy_times_frequency_is_power() {
        let e = Energy::from_nanojoules(1000.0);
        let p = e * Frequency::from_hertz(1000.0);
        assert!((p.as_milliwatts() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn battery_energy_budget() {
        // The paper's §4 example: 30 mA·h × 1 V = 108 J.
        let e = Charge::from_milliamp_hours(30.0) * Voltage::from_volts(1.0);
        assert!((e.as_joules() - 108.0).abs() < 1e-9);
    }

    #[test]
    fn lifetime_is_energy_over_power() {
        let e = Energy::from_joules(108.0);
        let t = e / Power::from_milliwatts(30.0);
        assert!((t.as_hours() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn period_and_frequency_invert() {
        let f = Frequency::from_hertz(17.39);
        assert!((f.period().frequency().as_hertz() - 17.39).abs() < 1e-9);
    }

    #[test]
    fn quantities_sum_and_scale() {
        let cells = [Area::from_mm2(1.0), Area::from_mm2(2.0), Area::from_mm2(3.0)];
        let total: Area = cells.iter().copied().sum();
        assert!((total.as_mm2() - 6.0).abs() < 1e-12);
        assert!(((total * 2.0).as_mm2() - 12.0).abs() < 1e-12);
        assert!((total / Area::from_mm2(3.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ordering_and_minmax() {
        let small = Time::from_micros(1.0);
        let big = Time::from_millis(1.0);
        assert!(small < big);
        assert_eq!(small.max(big), big);
        assert_eq!(small.min(big), small);
    }

    #[test]
    #[should_panic(expected = "period of a zero frequency")]
    fn zero_frequency_period_panics() {
        let _ = Frequency::ZERO.period();
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(format!("{:.2}", Power::from_watts(0.5)), "0.50 W");
        assert_eq!(format!("{}", Area::from_si(1.0)), "1 m^2");
    }
}
