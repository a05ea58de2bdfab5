//! Sensor units and automatic conversion.
//!
//! "The units of the underlying physical sensors are converted
//! automatically" when evaluating virtual sensors (paper §3.2).  Units carry
//! a *dimension* and a scale to the dimension's base unit; conversion is
//! legal only within a dimension (temperatures additionally carry an
//! offset).

/// Physical dimension of a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dimension {
    /// Dimensionless counts/ratios.
    None,
    /// Power (base: W).
    Power,
    /// Energy (base: J).
    Energy,
    /// Temperature (base: °C).
    Temperature,
    /// Data size (base: byte).
    Data,
    /// Time (base: s).
    Time,
    /// Volume flow (base: m³/h).
    Flow,
    /// Event rate (base: Hz = 1/s).
    Frequency,
    /// Data rate (base: B/s).
    Bandwidth,
}

/// A sensor unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unit {
    /// Canonical name.
    pub name: &'static str,
    /// Dimension.
    pub dimension: Dimension,
    /// Multiply by this to reach the base unit.
    pub to_base: f64,
    /// Additive offset applied *after* scaling (temperatures).
    pub offset: f64,
}

macro_rules! unit {
    ($ident:ident, $name:expr, $dim:expr, $scale:expr) => {
        /// The unit constant.
        pub const $ident: Unit =
            Unit { name: $name, dimension: $dim, to_base: $scale, offset: 0.0 };
    };
}

impl Unit {
    unit!(NONE, "", Dimension::None, 1.0);
    unit!(WATT, "W", Dimension::Power, 1.0);
    unit!(MILLIWATT, "mW", Dimension::Power, 1e-3);
    unit!(KILOWATT, "kW", Dimension::Power, 1e3);
    unit!(MEGAWATT, "MW", Dimension::Power, 1e6);
    unit!(JOULE, "J", Dimension::Energy, 1.0);
    unit!(KILOJOULE, "kJ", Dimension::Energy, 1e3);
    unit!(WATTHOUR, "Wh", Dimension::Energy, 3600.0);
    unit!(KILOWATTHOUR, "kWh", Dimension::Energy, 3.6e6);
    unit!(CELSIUS, "C", Dimension::Temperature, 1.0);
    unit!(MILLICELSIUS, "mC", Dimension::Temperature, 1e-3);
    unit!(BYTE, "B", Dimension::Data, 1.0);
    unit!(KILOBYTE, "KB", Dimension::Data, 1e3);
    unit!(MEGABYTE, "MB", Dimension::Data, 1e6);
    unit!(GIGABYTE, "GB", Dimension::Data, 1e9);
    unit!(SECOND, "s", Dimension::Time, 1.0);
    unit!(MILLISECOND, "ms", Dimension::Time, 1e-3);
    unit!(MICROSECOND, "us", Dimension::Time, 1e-6);
    unit!(NANOSECOND, "ns", Dimension::Time, 1e-9);
    unit!(M3_PER_H, "m3/h", Dimension::Flow, 1.0);
    unit!(HERTZ, "Hz", Dimension::Frequency, 1.0);
    unit!(BYTES_PER_S, "B/s", Dimension::Bandwidth, 1.0);

    /// Fahrenheit needs an offset: °C = (°F − 32) · 5/9.
    pub const FAHRENHEIT: Unit = Unit {
        name: "F",
        dimension: Dimension::Temperature,
        to_base: 5.0 / 9.0,
        offset: -32.0 * 5.0 / 9.0,
    };

    /// Look up a unit by its configuration-file name.
    pub fn parse(s: &str) -> Option<Unit> {
        Some(match s {
            "" | "none" => Unit::NONE,
            "W" => Unit::WATT,
            "mW" => Unit::MILLIWATT,
            "kW" => Unit::KILOWATT,
            "MW" => Unit::MEGAWATT,
            "J" => Unit::JOULE,
            "kJ" => Unit::KILOJOULE,
            "Wh" => Unit::WATTHOUR,
            "kWh" => Unit::KILOWATTHOUR,
            "C" | "degC" | "celsius" => Unit::CELSIUS,
            "mC" => Unit::MILLICELSIUS,
            "F" | "degF" => Unit::FAHRENHEIT,
            "B" => Unit::BYTE,
            "KB" => Unit::KILOBYTE,
            "MB" => Unit::MEGABYTE,
            "GB" => Unit::GIGABYTE,
            "s" => Unit::SECOND,
            "ms" => Unit::MILLISECOND,
            "us" => Unit::MICROSECOND,
            "ns" => Unit::NANOSECOND,
            "m3/h" => Unit::M3_PER_H,
            "Hz" => Unit::HERTZ,
            "B/s" => Unit::BYTES_PER_S,
            _ => return None,
        })
    }

    /// The unit of this unit's per-second rate of change, with the factor
    /// that converts raw `value/s` rates into it — what makes
    /// the windowed `rate` aggregation of `SensorDb::execute` unit-aware:
    ///
    /// * energy counters (J, kWh, …) rate into **W** (power),
    /// * data counters (B, GB, …) rate into **B/s**,
    /// * time counters (s of CPU time, …) rate into a dimensionless
    ///   utilisation ratio,
    /// * dimensionless counters (instructions, packets) rate into **Hz**,
    /// * anything else keeps its raw per-second value with no unit.
    pub fn rate_unit(&self) -> (f64, Unit) {
        match self.dimension {
            Dimension::Energy => (self.to_base, Unit::WATT),
            Dimension::Data => (self.to_base, Unit::BYTES_PER_S),
            Dimension::Time => (self.to_base, Unit::NONE),
            Dimension::None => (1.0, Unit::HERTZ),
            _ => (1.0, Unit::NONE),
        }
    }

    /// Convert `value` from `self` to `to`.
    ///
    /// Returns `None` when dimensions differ.  Dimensionless units convert
    /// to anything unchanged (raw counters get their meaning from config).
    pub fn convert(&self, value: f64, to: &Unit) -> Option<f64> {
        if self.dimension == Dimension::None || to.dimension == Dimension::None {
            return Some(value);
        }
        if self.dimension != to.dimension {
            return None;
        }
        let base = value * self.to_base + self.offset;
        Some((base - to.offset) / to.to_base)
    }
}

impl Default for Unit {
    fn default() -> Self {
        Unit::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_conversions() {
        assert_eq!(Unit::KILOWATT.convert(1.5, &Unit::WATT), Some(1500.0));
        assert_eq!(Unit::WATT.convert(2500.0, &Unit::KILOWATT), Some(2.5));
        assert_eq!(Unit::MILLIWATT.convert(1e6, &Unit::KILOWATT), Some(1e-3 * 1e6 / 1e3));
    }

    #[test]
    fn energy_conversions() {
        assert_eq!(Unit::KILOWATTHOUR.convert(1.0, &Unit::JOULE), Some(3.6e6));
        let wh = Unit::JOULE.convert(7200.0, &Unit::WATTHOUR).unwrap();
        assert!((wh - 2.0).abs() < 1e-12);
    }

    #[test]
    fn temperature_with_offset() {
        let c = Unit::FAHRENHEIT.convert(212.0, &Unit::CELSIUS).unwrap();
        assert!((c - 100.0).abs() < 1e-9);
        let f = Unit::CELSIUS.convert(0.0, &Unit::FAHRENHEIT).unwrap();
        assert!((f - 32.0).abs() < 1e-9);
        let mc = Unit::MILLICELSIUS.convert(35_500.0, &Unit::CELSIUS).unwrap();
        assert!((mc - 35.5).abs() < 1e-9);
    }

    #[test]
    fn cross_dimension_rejected() {
        assert_eq!(Unit::WATT.convert(1.0, &Unit::JOULE), None);
        assert_eq!(Unit::CELSIUS.convert(1.0, &Unit::BYTE), None);
    }

    #[test]
    fn dimensionless_passthrough() {
        assert_eq!(Unit::NONE.convert(5.0, &Unit::WATT), Some(5.0));
        assert_eq!(Unit::WATT.convert(5.0, &Unit::NONE), Some(5.0));
    }

    #[test]
    fn rate_units() {
        // a joule counter rates into watts 1:1
        assert_eq!(Unit::JOULE.rate_unit(), (1.0, Unit::WATT));
        // a kWh counter rates into watts via its base scale
        let (k, u) = Unit::KILOWATTHOUR.rate_unit();
        assert_eq!(u, Unit::WATT);
        assert!((k - 3.6e6).abs() < 1e-6);
        // data counters rate into B/s, dimensionless ones into Hz
        assert_eq!(Unit::GIGABYTE.rate_unit(), (1e9, Unit::BYTES_PER_S));
        assert_eq!(Unit::NONE.rate_unit(), (1.0, Unit::HERTZ));
        // cpu-seconds rate into a unitless utilisation ratio
        assert_eq!(Unit::SECOND.rate_unit(), (1.0, Unit::NONE));
        // no meaningful rate unit for e.g. power: raw value, no unit
        assert_eq!(Unit::WATT.rate_unit(), (1.0, Unit::NONE));
    }

    #[test]
    fn parse_roundtrip() {
        for name in ["W", "kW", "J", "kWh", "C", "F", "B", "GB", "ms", "m3/h", "Hz", "B/s"] {
            let u = Unit::parse(name).unwrap();
            // F/degF and C aliases normalise; check dimension survives
            assert!(Unit::parse(u.name).is_some());
        }
        assert!(Unit::parse("furlongs").is_none());
        assert_eq!(Unit::parse("").unwrap(), Unit::NONE);
    }
}
