//! Experiment sizing profiles.

/// How big the experiment instances are.
#[derive(Clone, Copy, Debug)]
pub struct Profile {
    /// Cap on generated graph node counts (`None` = DESIGN.md sizes).
    pub node_cap: Option<usize>,
    /// Queries averaged per measurement (the paper averages 1000; the
    /// quick profile uses fewer).
    pub queries: usize,
    /// Machine counts swept in the machines experiments.
    pub machine_sweep: &'static [usize],
    /// Label printed in headers.
    pub name: &'static str,
}

impl Profile {
    /// Fast profile `repro` runs by default (minutes, not hours).
    pub fn quick() -> Self {
        Self {
            node_cap: Some(2_500),
            queries: 8,
            machine_sweep: &[2, 4, 6, 8, 10],
            name: "quick",
        }
    }

    /// Full profile: DESIGN.md dataset sizes, more queries.
    pub fn full() -> Self {
        Self {
            node_cap: None,
            queries: 50,
            machine_sweep: &[2, 4, 6, 8, 10],
            name: "full",
        }
    }

    /// Select from the environment: `PPR_BENCH_FULL=1` upgrades quick runs.
    pub fn from_env() -> Self {
        if std::env::var("PPR_BENCH_FULL").map(|v| v == "1").unwrap_or(false) {
            Self::full()
        } else {
            Self::quick()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_full() {
        let q = Profile::quick();
        let f = Profile::full();
        assert!(q.node_cap.is_some());
        assert!(f.node_cap.is_none());
        assert!(q.queries < f.queries);
    }
}
