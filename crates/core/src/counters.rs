//! Data-plane counters (the switch equivalents of P4 counters), used by
//! tests, examples, and the experiment harness to observe cloning and
//! filtering behaviour.

/// Event counters maintained by the NetClone program.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwitchCounters {
    /// Fresh (non-recirculated) NetClone requests processed.
    pub requests: u64,
    /// Requests that were cloned (both candidates tracked idle).
    pub cloned: u64,
    /// Requests not cloned because at least one candidate was tracked busy.
    pub clone_skipped_busy: u64,
    /// Requests not cloned because the client marked them non-cloneable
    /// (writes, §5.5).
    pub clone_skipped_uncloneable: u64,
    /// Requests forced to clone by the multi-packet affinity table (§3.7).
    pub clone_forced_multipacket: u64,
    /// Recirculated clone passes completed.
    pub recirculated: u64,
    /// Responses processed.
    pub responses: u64,
    /// Redundant (slower) responses dropped by the filter.
    pub responses_filtered: u64,
    /// Filter-slot overwrites of a *different* live request ID (hash
    /// collision or lost-response reclamation, §3.5/§3.6).
    pub filter_overwrites: u64,
    /// Packets forwarded by the plain L2/L3 path (non-NetClone traffic and
    /// multi-rack pass-through).
    pub routed_plain: u64,
    /// Packets dropped for lack of a route/group/address entry.
    pub dropped_unroutable: u64,
    /// RackSched-mode requests steered to the shorter queue (fallback
    /// path, §3.7).
    pub jsq_fallbacks: u64,
}

impl SwitchCounters {
    /// Fraction of fresh requests that were cloned (0 when none seen).
    pub fn clone_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.cloned as f64 / self.requests as f64
        }
    }

    /// The counter deltas accumulated since `base` was snapshotted —
    /// every field, so windowed results never mix window-only and
    /// since-boot counts. Saturating: a reset between the snapshots
    /// yields zeros rather than wrap-around garbage.
    pub fn since(&self, base: &SwitchCounters) -> SwitchCounters {
        self.zip_with(base, u64::saturating_sub)
    }

    /// Fraction of responses that were filtered.
    pub fn filter_rate(&self) -> f64 {
        if self.responses == 0 {
            0.0
        } else {
            self.responses_filtered as f64 / self.responses as f64
        }
    }

    /// Adds `other` into `self`, field by field — fabric-wide totals are
    /// the merge of every per-switch counter snapshot (multi-rack
    /// deployments run one engine per switch, §3.7).
    pub fn merge(&mut self, other: &SwitchCounters) {
        *self = self.zip_with(other, |a, b| a + b);
    }

    /// `f` applied to each pair of fields.
    fn zip_with(&self, o: &SwitchCounters, f: impl Fn(u64, u64) -> u64) -> SwitchCounters {
        SwitchCounters {
            requests: f(self.requests, o.requests),
            cloned: f(self.cloned, o.cloned),
            clone_skipped_busy: f(self.clone_skipped_busy, o.clone_skipped_busy),
            clone_skipped_uncloneable: f(
                self.clone_skipped_uncloneable,
                o.clone_skipped_uncloneable,
            ),
            clone_forced_multipacket: f(self.clone_forced_multipacket, o.clone_forced_multipacket),
            recirculated: f(self.recirculated, o.recirculated),
            responses: f(self.responses, o.responses),
            responses_filtered: f(self.responses_filtered, o.responses_filtered),
            filter_overwrites: f(self.filter_overwrites, o.filter_overwrites),
            routed_plain: f(self.routed_plain, o.routed_plain),
            dropped_unroutable: f(self.dropped_unroutable, o.dropped_unroutable),
            jsq_fallbacks: f(self.jsq_fallbacks, o.jsq_fallbacks),
        }
    }
}

/// Summing per-switch snapshots yields the fabric-wide totals.
impl<'a> std::iter::Sum<&'a SwitchCounters> for SwitchCounters {
    fn sum<I: Iterator<Item = &'a SwitchCounters>>(iter: I) -> Self {
        iter.fold(SwitchCounters::default(), |t, c| {
            t.zip_with(c, |a, b| a + b)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let c = SwitchCounters::default();
        assert_eq!(c.clone_rate(), 0.0);
        assert_eq!(c.filter_rate(), 0.0);
    }

    #[test]
    fn rates_compute() {
        let c = SwitchCounters {
            requests: 10,
            cloned: 4,
            responses: 14,
            responses_filtered: 4,
            ..Default::default()
        };
        assert!((c.clone_rate() - 0.4).abs() < 1e-12);
        assert!((c.filter_rate() - 4.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn merge_and_sum_accumulate_every_field() {
        let a = SwitchCounters {
            requests: 1,
            cloned: 2,
            clone_skipped_busy: 3,
            clone_skipped_uncloneable: 4,
            clone_forced_multipacket: 5,
            recirculated: 6,
            responses: 7,
            responses_filtered: 8,
            filter_overwrites: 9,
            routed_plain: 10,
            dropped_unroutable: 11,
            jsq_fallbacks: 12,
        };
        let mut m = a;
        m.merge(&a);
        let total: SwitchCounters = [a, a, a].iter().sum();
        assert_eq!(total.requests, 3);
        assert_eq!(total.jsq_fallbacks, 36);
        assert_eq!(m.requests, 2);
        assert_eq!(m.cloned, 4);
        assert_eq!(m.routed_plain, 20);
        assert_eq!(m.jsq_fallbacks, 24);
    }
}
