//! Load sweeps: the one grid every schemes-over-load experiment runs
//! through. A [`SweepSpec`] is one scheme's scenario template swept over
//! offered rates; [`run_sweeps`] fans every (spec, rate) cell out on the
//! context's worker pool and reassembles the finished runs into
//! [`Panel`]s of [`Series`]; [`sweep_table`] renders panels as one table
//! (Figs. 7–12, 14, 15 through [`Figure`], and the `multirack`,
//! `fattree`, `adversarial` and `chaos` suites with their own columns).

use netclone_stats::{Report, Table};

use crate::harness::RunCtx;
use crate::metrics::RunResult;
use crate::scenario::Scenario;
use crate::scheme::Scheme;

/// One scheme's load sweep within one panel, ready to fan out.
pub struct SweepSpec {
    /// Panel caption the resulting series belongs to.
    pub panel: String,
    /// Scheme label (legend entry).
    pub scheme: &'static str,
    /// The scenario template; `offered_rps` is overwritten per rate.
    pub template: Scenario,
    /// Offered rates to run, requests/second.
    pub rates: Vec<f64>,
}

/// One scheme's series within a panel.
pub struct Series {
    /// Scheme label (legend entry).
    pub scheme: &'static str,
    /// One finished run per offered rate, in rate order.
    pub points: Vec<RunResult>,
}

/// One subfigure: a workload/configuration with several schemes.
pub struct Panel {
    /// Panel caption (e.g. `Exp(25)`).
    pub name: String,
    /// The plotted series.
    pub series: Vec<Series>,
}

impl Panel {
    /// The runs of the series named `scheme` (empty if there is none).
    pub fn points(&self, scheme: &str) -> &[RunResult] {
        self.series
            .iter()
            .find(|s| s.scheme == scheme)
            .map_or(&[], |s| &s.points)
    }

    /// The run of the series named `scheme` at the highest offered load.
    pub fn peak(&self, scheme: &str) -> Option<&RunResult> {
        self.points(scheme)
            .iter()
            .max_by(|a, b| a.offered_rps.total_cmp(&b.offered_rps))
    }

    /// Every run of the panel, series by series.
    pub fn runs(&self) -> impl Iterator<Item = &RunResult> {
        self.series.iter().flat_map(|s| &s.points)
    }

    /// p99 of the series named `scheme` at the run closest to the given
    /// offered load, for shape assertions.
    pub fn p99_at(&self, scheme: &str, offered_mrps: f64) -> Option<f64> {
        let dist = |r: &RunResult| (r.offered_rps / 1e6 - offered_mrps).abs();
        self.points(scheme)
            .iter()
            .min_by(|a, b| dist(a).total_cmp(&dist(b)))
            .map(RunResult::p99_us)
    }

    /// Maximum achieved throughput of the series named `scheme`, MRPS.
    pub fn max_achieved(&self, scheme: &str) -> Option<f64> {
        self.points(scheme)
            .iter()
            .map(RunResult::achieved_mrps)
            .max_by(f64::total_cmp)
    }
}

/// A complete sweep figure.
pub struct Figure {
    /// Figure identifier (e.g. `fig07`).
    pub id: &'static str,
    /// Figure title (the paper caption).
    pub title: &'static str,
    /// The subfigures.
    pub panels: Vec<Panel>,
}

impl Figure {
    /// Renders the paper-style rows: one per (panel, scheme, load point).
    pub fn to_table(&self) -> Table {
        sweep_table(
            &self.panels,
            "panel",
            &[
                ("p99.9 (us)", |r| format!("{:.1}", r.percentiles_us().2)),
                ("clone rate", |r| format!("{:.3}", r.switch.clone_rate())),
            ],
        )
    }

    /// Converts the figure into the unified report artifact (one
    /// section; CSV stem = figure id).
    pub fn into_report(self) -> Report {
        let table = self.to_table();
        Report::new(self.id, self.title).with_table(table)
    }
}

/// One extra column of a [`sweep_table`]: a header and a cell renderer.
pub type Column = (&'static str, fn(&RunResult) -> String);

/// Renders `panels` as one table, one row per run: the panel name under
/// `first_header`, then scheme, offered and achieved MRPS, p50 and p99,
/// then each of `extra`.
pub fn sweep_table(panels: &[Panel], first_header: &str, extra: &[Column]) -> Table {
    let common = [
        first_header,
        "scheme",
        "offered (MRPS)",
        "achieved (MRPS)",
        "p50 (us)",
        "p99 (us)",
    ];
    let mut t = Table::new(common.into_iter().chain(extra.iter().map(|c| c.0)));
    for panel in panels {
        for series in &panel.series {
            for r in &series.points {
                let (p50, p99, _) = r.percentiles_us();
                let mut row = vec![
                    panel.name.clone(),
                    series.scheme.to_string(),
                    format!("{:.3}", r.offered_rps / 1e6),
                    format!("{:.3}", r.achieved_mrps()),
                    format!("{p50:.1}"),
                    format!("{p99:.1}"),
                ];
                row.extend(extra.iter().map(|c| (c.1)(r)));
                t.row(row);
            }
        }
    }
    t
}

/// One spec per scheme of `schemes`, in order: `template` with its
/// scheme replaced, swept over `rates` in panel `panel`.
pub fn per_scheme(
    panel: &str,
    template: &Scenario,
    schemes: &[Scheme],
    rates: &[f64],
) -> Vec<SweepSpec> {
    schemes
        .iter()
        .map(|&scheme| SweepSpec {
            panel: panel.to_string(),
            scheme: scheme.label(),
            template: Scenario {
                scheme,
                ..template.clone()
            },
            rates: rates.to_vec(),
        })
        .collect()
}

/// Runs every (spec, rate) cell of `specs` on the context's worker pool
/// and reassembles the results into panels, preserving spec and rate
/// order. Specs naming the same panel share it.
pub fn run_sweeps(ctx: &RunCtx, label: &str, specs: Vec<SweepSpec>) -> Vec<Panel> {
    let mut cells: Vec<(usize, Scenario)> = Vec::new();
    for (si, spec) in specs.iter().enumerate() {
        for &rate in &spec.rates {
            let mut s = spec.template.clone();
            s.offered_rps = rate;
            cells.push((si, s));
        }
    }
    let runs = ctx.map(label, cells, |(si, s)| (si, ctx.run_sim(s)));
    let mut per_spec: Vec<Vec<RunResult>> = specs.iter().map(|_| Vec::new()).collect();
    for (si, r) in runs {
        per_spec[si].push(r);
    }
    let mut panels: Vec<Panel> = Vec::new();
    for (spec, points) in specs.into_iter().zip(per_spec) {
        let series = Series {
            scheme: spec.scheme,
            points,
        };
        match panels.iter_mut().find(|p| p.name == spec.panel) {
            Some(p) => p.series.push(series),
            None => panels.push(Panel {
                name: spec.panel,
                series: vec![series],
            }),
        }
    }
    panels
}

/// Evenly spaced rates from `lo_frac` to `hi_frac` of a scenario's
/// capacity.
pub fn capacity_fractions(template: &Scenario, lo_frac: f64, hi_frac: f64, n: usize) -> Vec<f64> {
    let cap = template.capacity_rps();
    assert!(n >= 2, "a sweep needs at least two points");
    (0..n)
        .map(|i| {
            let f = lo_frac + (hi_frac - lo_frac) * i as f64 / (n - 1) as f64;
            cap * f
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Sim;
    use netclone_stats::LatencyHistogram;
    use netclone_workloads::exp25;

    #[test]
    fn capacity_fractions_are_monotone() {
        let t = Scenario::synthetic_default(Scheme::Baseline, exp25(), 1e6);
        let rates = capacity_fractions(&t, 0.1, 0.9, 5);
        assert_eq!(rates.len(), 5);
        for w in rates.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!((rates[0] - t.capacity_rps() * 0.1).abs() < 1.0);
    }

    #[test]
    fn per_scheme_changes_only_the_scheme() {
        let t = Scenario::synthetic_default(Scheme::Baseline, exp25(), 1e6);
        let schemes = [Scheme::CClone, Scheme::NETCLONE];
        let specs = per_scheme("P", &t, &schemes, &[1.0, 2.0]);
        assert_eq!(specs.len(), 2);
        for (spec, scheme) in specs.iter().zip(schemes) {
            assert_eq!((spec.panel.as_str(), spec.scheme), ("P", scheme.label()));
            assert_eq!(spec.rates, vec![1.0, 2.0]);
            let expect = Scenario::synthetic_default(scheme, exp25(), 1e6);
            assert_eq!(format!("{:?}", spec.template), format!("{expect:?}"));
        }
    }

    /// A short real run with its loads (MRPS) and its one latency sample
    /// (µs) replaced.
    fn dummy_run(offered: f64, p99_us: f64, achieved: f64) -> RunResult {
        let mut s = Scenario::synthetic_default(Scheme::Baseline, exp25(), 1e5);
        (s.warmup_ns, s.measure_ns) = (0, 100_000);
        let mut latency = LatencyHistogram::new();
        latency.record((p99_us * 1_000.0) as u64);
        RunResult {
            offered_rps: offered * 1e6,
            achieved_rps: achieved * 1e6,
            latency,
            ..Sim::run(s)
        }
    }

    fn panel(name: &str, scheme: &'static str, points: Vec<RunResult>) -> Panel {
        let series = vec![Series { scheme, points }];
        Panel {
            name: name.into(),
            series,
        }
    }

    #[test]
    fn panel_lookups() {
        let points = vec![dummy_run(0.5, 100.0, 0.5), dummy_run(1.0, 200.0, 0.99)];
        let panel = panel("Exp(25)", "NetClone", points);
        let p100 = panel.p99_at("NetClone", 0.6).expect("series");
        let p200 = panel.p99_at("NetClone", 0.9).expect("series");
        assert!(p100 < p200, "{p100} vs {p200}");
        assert_eq!(p100, panel.points("NetClone")[0].p99_us());
        assert_eq!(p200, panel.points("NetClone")[1].p99_us());
        assert_eq!(panel.max_achieved("NetClone"), Some(0.99));
        assert_eq!(panel.p99_at("Nope", 0.5), None);
        assert!(panel.points("Nope").is_empty() && panel.peak("Nope").is_none());
        assert_eq!(panel.peak("NetClone").map(|r| r.offered_rps), Some(1e6));
        assert_eq!(panel.runs().count(), 2);
    }

    #[test]
    fn figure_converts_to_report() {
        let fig = Figure {
            id: "figXX",
            title: "test",
            panels: vec![panel("P", "Baseline", vec![dummy_run(1.0, 50.0, 1.0)])],
        };
        let table = fig.to_table();
        assert_eq!(table.len(), 1);
        assert_eq!(
            (table.headers()[0].as_str(), table.headers()[7].as_str()),
            ("panel", "clone rate")
        );
        assert_eq!(table.rows()[0][..3], ["P", "Baseline", "1.000"]);
        let report = fig.into_report();
        let md = report.to_markdown();
        assert!(md.contains("figXX"));
        assert!(md.contains("Baseline"));
        assert_eq!(report.sections.len(), 1);
        assert_eq!(report.sections[0].csv_stem, "figXX");
    }
}
