//! Experiment scaling: the same experiment definitions run at three
//! fidelities so tests stay fast while the `repro` CLI can regenerate
//! full-fidelity series.

/// How much simulated time and how many sweep points to spend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long wall time: tiny windows, few points. For unit tests.
    Smoke,
    /// The default for `repro`: enough samples for stable p99s.
    Standard,
    /// Full-fidelity: the EXPERIMENTS.md numbers.
    Full,
}

/// Error for an unrecognised scale name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseScaleError(pub String);

impl std::fmt::Display for ParseScaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown scale {:?} (expected smoke, standard, or full)",
            self.0
        )
    }
}

impl std::error::Error for ParseScaleError {}

impl std::str::FromStr for Scale {
    type Err = ParseScaleError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "smoke" => Ok(Scale::Smoke),
            "standard" => Ok(Scale::Standard),
            "full" => Ok(Scale::Full),
            other => Err(ParseScaleError(other.to_string())),
        }
    }
}

impl Scale {
    /// Warm-up duration, ns.
    pub fn warmup_ns(self) -> u64 {
        match self {
            Scale::Smoke => 4_000_000,
            Scale::Standard => 20_000_000,
            Scale::Full => 50_000_000,
        }
    }

    /// Measurement window, ns.
    pub fn measure_ns(self) -> u64 {
        match self {
            Scale::Smoke => 20_000_000,
            Scale::Standard => 120_000_000,
            Scale::Full => 400_000_000,
        }
    }

    /// Number of points per load sweep.
    pub fn sweep_points(self) -> usize {
        match self {
            Scale::Smoke => 3,
            Scale::Standard => 8,
            Scale::Full => 12,
        }
    }

    /// Repetitions for mean±σ experiments (Fig. 13b: the paper uses 10).
    pub fn repeats(self) -> usize {
        match self {
            Scale::Smoke => 3,
            Scale::Standard => 6,
            Scale::Full => 10,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Smoke.measure_ns() < Scale::Standard.measure_ns());
        assert!(Scale::Standard.measure_ns() < Scale::Full.measure_ns());
        assert!(Scale::Smoke.sweep_points() < Scale::Full.sweep_points());
        assert_eq!(Scale::Full.repeats(), 10);
    }

    #[test]
    fn parsing_accepts_names_and_rejects_junk() {
        assert_eq!("smoke".parse(), Ok(Scale::Smoke));
        assert_eq!("standard".parse(), Ok(Scale::Standard));
        assert_eq!("full".parse(), Ok(Scale::Full));
        let err = "Full".parse::<Scale>().unwrap_err();
        assert_eq!(err, ParseScaleError("Full".into()));
        assert!(err.to_string().contains("smoke, standard, or full"));
        assert!("".parse::<Scale>().is_err());
    }
}
