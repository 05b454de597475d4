//! Plain-text rendering of tables and figure series, used by the
//! regeneration binaries in `sfi-bench` and by EXPERIMENTS.md.

use std::fmt::Write as _;

/// A simple left/right-aligned text table.
///
/// # Example
///
/// ```
/// use sfi_core::report::TextTable;
///
/// let mut t = TextTable::new(vec!["Layer".into(), "n".into()]);
/// t.add_row(vec!["0".into(), "10389".into()]);
/// let rendered = t.render();
/// assert!(rendered.contains("Layer"));
/// assert!(rendered.contains("10389"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        Self { header, rows: Vec::new() }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics when the row length differs from the header length.
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table: header, separator, rows — first column
    /// left-aligned, the rest right-aligned.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let emit = |cells: &[String], out: &mut String| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                if i == 0 {
                    let _ = write!(out, "{cell:<w$}");
                } else {
                    let _ = write!(out, "{cell:>w$}");
                }
            }
            out.push('\n');
        };
        emit(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            emit(row, &mut out);
        }
        out
    }
}

/// Formats a count with thousands separators (`17174144` → `17,174,144`),
/// matching the paper's table style.
pub fn group_digits(value: u64) -> String {
    let digits = value.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Formats a proportion as a percentage with `decimals` digits.
///
/// Non-finite proportions (a NaN from a 0/0 rate, an infinity from a
/// degenerate denominator) render as `"n/a"` instead of leaking `NaN%`
/// into tables.
pub fn percent(value: f64, decimals: usize) -> String {
    if !value.is_finite() {
        return "n/a".to_string();
    }
    format!("{:.decimals$}%", value * 100.0)
}

/// One named phase of a run, as consumed by [`phase_report`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseLine {
    /// Phase name (`model`, `golden`, `plan`, `campaign`, `report`, …).
    pub name: String,
    /// Wall-clock time spent in the phase, in milliseconds.
    pub wall_ms: f64,
    /// Busy (CPU) time across workers in milliseconds, when measured —
    /// only the campaign phase has a meaningful multi-worker busy time.
    pub busy_ms: Option<f64>,
}

/// Renders a per-phase wall/CPU breakdown table: one row per phase with
/// its wall time, share of the total wall time, and busy (worker CPU)
/// time where measured, plus a totals row. Degenerate timings (zero or
/// non-finite totals) render shares as `n/a` rather than `NaN%`.
pub fn phase_report(phases: &[PhaseLine]) -> String {
    let mut t = TextTable::new(vec![
        "phase".to_string(),
        "wall [ms]".into(),
        "share".into(),
        "busy [ms]".into(),
    ]);
    let total: f64 = phases.iter().map(|p| p.wall_ms.max(0.0)).sum();
    let share = |wall_ms: f64| {
        if total > 0.0 {
            percent(wall_ms / total, 1)
        } else {
            "n/a".to_string()
        }
    };
    let busy_cell = |busy: Option<f64>| busy.map_or_else(|| "-".to_string(), |b| format!("{b:.1}"));
    for phase in phases {
        t.add_row(vec![
            phase.name.clone(),
            format!("{:.1}", phase.wall_ms),
            share(phase.wall_ms),
            busy_cell(phase.busy_ms),
        ]);
    }
    let busies: Vec<f64> = phases.iter().filter_map(|p| p.busy_ms).collect();
    let total_busy = (!busies.is_empty()).then(|| busies.iter().sum::<f64>());
    t.add_row(vec![
        "total".to_string(),
        format!("{total:.1}"),
        share(total),
        busy_cell(total_busy),
    ]);
    t.render()
}

/// Escapes one CSV field per RFC 4180: fields containing commas, quotes,
/// or newlines are quoted, embedded quotes doubled.
pub fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Serialises rows (the first being the header) as an RFC 4180 CSV string —
/// the export format of campaign outcomes for spreadsheet/pandas analysis.
///
/// # Example
///
/// ```
/// use sfi_core::report::to_csv;
///
/// let csv = to_csv(&[
///     vec!["layer".into(), "critical %".into()],
///     vec!["L0".into(), "4.2".into()],
/// ]);
/// assert_eq!(csv, "layer,critical %\nL0,4.2\n");
/// ```
pub fn to_csv(rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    for row in rows {
        let line: Vec<String> = row.iter().map(|f| csv_escape(f)).collect();
        out.push_str(&line.join(","));
        out.push('\n');
    }
    out
}

/// Serialises an executed outcome's per-layer estimates as CSV
/// (`layer,population,sample,successes,critical,margin`).
pub fn outcome_to_csv(
    outcome: &crate::execute::SfiOutcome,
    layers: usize,
    confidence: sfi_stats::confidence::Confidence,
) -> String {
    let mut rows = vec![vec![
        "layer".to_string(),
        "population".to_string(),
        "sample".to_string(),
        "successes".to_string(),
        "critical_rate".to_string(),
        "error_margin".to_string(),
    ]];
    for layer in 0..layers {
        if let Some(est) = outcome.layer_estimate(layer, confidence) {
            rows.push(vec![
                layer.to_string(),
                est.population.to_string(),
                est.sample.to_string(),
                est.successes.to_string(),
                format!("{:.6}", est.proportion),
                format!("{:.6}", est.error_margin),
            ]);
        }
    }
    to_csv(&rows)
}

/// Renders an executed outcome's per-stratum telemetry as a text table:
/// one row per stratum (layer/bit labels, injections, inferences, class
/// tallies, execution failures, lowering-cache hits/misses,
/// golden-convergence early-exit rate and skipped-node count, scratch-arena
/// high-water mark, wall time, throughput) plus a totals row.
pub fn telemetry_report(outcome: &crate::execute::SfiOutcome) -> String {
    telemetry_report_resumed(outcome, None)
}

/// [`telemetry_report`] with an optional per-stratum `resumed` column —
/// how many of each stratum's classifications were replayed from a
/// checkpoint journal instead of executed this session (plan order, as in
/// [`ResumeStats::per_stratum_resumed`](crate::checkpoint::ResumeStats)).
pub fn telemetry_report_resumed(
    outcome: &crate::execute::SfiOutcome,
    per_stratum_resumed: Option<&[u64]>,
) -> String {
    let mut header = vec![
        "stratum".to_string(),
        "injections".into(),
        "masked".into(),
        "critical".into(),
        "failures".into(),
        "inferences".into(),
        "low-hits".into(),
        "low-miss".into(),
        "exit%".into(),
        "nodes-skipped".into(),
        "delta-blocks".into(),
        "fallbacks".into(),
        "engines d/s/b".into(),
        "arena [KiB]".into(),
        "wall [ms]".into(),
        "inf/s".into(),
    ];
    if per_stratum_resumed.is_some() {
        header.insert(1, "resumed".into());
    }
    let mut t = TextTable::new(header);
    for (idx, (s, tel)) in outcome.strata().iter().zip(outcome.stratum_telemetry()).enumerate() {
        let label = match (s.stratum.layer, s.stratum.bit) {
            (None, _) => "network".to_string(),
            (Some(l), None) => format!("L{l}"),
            (Some(l), Some(b)) => format!("L{l}/b{b}"),
        };
        let mut row = vec![
            label,
            group_digits(tel.injections),
            group_digits(tel.masked),
            group_digits(tel.critical),
            group_digits(tel.exec_failures),
            group_digits(tel.inferences),
            group_digits(tel.lowering_hits),
            group_digits(tel.lowering_misses),
            percent(tel.converged as f64 / tel.injections as f64, 1),
            group_digits(tel.nodes_skipped),
            group_digits(tel.delta_dirty_blocks),
            group_digits(tel.delta_fallbacks),
            format!("{}/{}/{}", tel.engine_dense, tel.engine_delta, tel.engine_batched),
            group_digits(tel.arena_peak_bytes / 1024),
            format!("{:.1}", tel.wall.as_secs_f64() * 1e3),
            format!("{:.0}", tel.inferences_per_second()),
        ];
        if let Some(resumed) = per_stratum_resumed {
            row.insert(1, group_digits(resumed.get(idx).copied().unwrap_or(0)));
        }
        t.add_row(row);
    }
    let total_wall: f64 = outcome.stratum_telemetry().iter().map(|t| t.wall.as_secs_f64()).sum();
    let rate = if total_wall > 0.0 { outcome.inferences() as f64 / total_wall } else { 0.0 };
    // Arena peaks are session high-water marks, so the total is the max,
    // not the sum.
    let arena_peak = outcome.stratum_telemetry().iter().map(|t| t.arena_peak_bytes).max();
    let mut row = vec![
        "total".to_string(),
        group_digits(outcome.injections()),
        group_digits(outcome.stratum_telemetry().iter().map(|t| t.masked).sum()),
        group_digits(outcome.stratum_telemetry().iter().map(|t| t.critical).sum()),
        group_digits(outcome.stratum_telemetry().iter().map(|t| t.exec_failures).sum()),
        group_digits(outcome.inferences()),
        group_digits(outcome.stratum_telemetry().iter().map(|t| t.lowering_hits).sum()),
        group_digits(outcome.stratum_telemetry().iter().map(|t| t.lowering_misses).sum()),
        percent(
            outcome.stratum_telemetry().iter().map(|t| t.converged).sum::<u64>() as f64
                / outcome.injections() as f64,
            1,
        ),
        group_digits(outcome.stratum_telemetry().iter().map(|t| t.nodes_skipped).sum()),
        group_digits(outcome.stratum_telemetry().iter().map(|t| t.delta_dirty_blocks).sum()),
        group_digits(outcome.stratum_telemetry().iter().map(|t| t.delta_fallbacks).sum()),
        format!(
            "{}/{}/{}",
            outcome.stratum_telemetry().iter().map(|t| t.engine_dense).sum::<u64>(),
            outcome.stratum_telemetry().iter().map(|t| t.engine_delta).sum::<u64>(),
            outcome.stratum_telemetry().iter().map(|t| t.engine_batched).sum::<u64>(),
        ),
        group_digits(arena_peak.unwrap_or(0) / 1024),
        format!("{:.1}", total_wall * 1e3),
        format!("{rate:.0}"),
    ];
    if let Some(resumed) = per_stratum_resumed {
        row.insert(1, group_digits(resumed.iter().sum()));
    }
    t.add_row(row);
    t.render()
}

/// Renders an ASCII bar of `width` cells for `value` in `[0, max]` —
/// used by the figure-regeneration binaries to sketch the paper's charts in
/// a terminal.
pub fn ascii_bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || !max.is_finite() || !value.is_finite() || value <= 0.0 {
        return String::new();
    }
    let filled = ((value / max) * width as f64).round() as usize;
    "#".repeat(filled.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = TextTable::new(vec!["name".into(), "value".into()]);
        t.add_row(vec!["a".into(), "1".into()]);
        t.add_row(vec!["long-name".into(), "123456".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines have equal width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[3].starts_with("long-name"));
        assert!(lines[3].ends_with("123456"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new(vec!["a".into(), "b".into()]);
        t.add_row(vec!["only-one".into()]);
    }

    #[test]
    fn group_digits_inserts_commas() {
        assert_eq!(group_digits(0), "0");
        assert_eq!(group_digits(999), "999");
        assert_eq!(group_digits(1_000), "1,000");
        assert_eq!(group_digits(17_174_144), "17,174,144");
        assert_eq!(group_digits(141_029_376), "141,029,376");
    }

    #[test]
    fn percent_formats() {
        assert_eq!(percent(0.0156, 2), "1.56%");
        assert_eq!(percent(1.0, 0), "100%");
    }

    #[test]
    fn percent_never_leaks_nan_or_infinity() {
        assert_eq!(percent(f64::NAN, 2), "n/a");
        assert_eq!(percent(f64::INFINITY, 2), "n/a");
        assert_eq!(percent(f64::NEG_INFINITY, 0), "n/a");
        assert_eq!(percent(0.0, 1), "0.0%");
    }

    #[test]
    fn phase_report_breaks_down_wall_and_busy_time() {
        let phases = vec![
            PhaseLine { name: "model".into(), wall_ms: 10.0, busy_ms: None },
            PhaseLine { name: "campaign".into(), wall_ms: 30.0, busy_ms: Some(90.0) },
        ];
        let report = phase_report(&phases);
        let lines: Vec<&str> = report.lines().collect();
        assert_eq!(lines.len(), 2 + 2 + 1, "header, separator, two phases, totals");
        assert!(lines[2].starts_with("model"));
        assert!(lines[2].contains("25.0%"));
        assert!(lines[2].ends_with('-'), "no busy time measured for the model phase");
        assert!(lines[3].contains("75.0%"));
        assert!(lines[3].contains("90.0"));
        assert!(lines[4].starts_with("total"));
        assert!(lines[4].contains("40.0"));
        assert!(lines[4].contains("100.0%"));
    }

    #[test]
    fn phase_report_with_zero_total_renders_na_shares() {
        let phases = vec![PhaseLine { name: "noop".into(), wall_ms: 0.0, busy_ms: None }];
        let report = phase_report(&phases);
        assert!(report.contains("n/a"));
        assert!(!report.contains("NaN"));
    }

    #[test]
    fn ascii_bar_scales() {
        assert_eq!(ascii_bar(1.0, 1.0, 10).len(), 10);
        assert_eq!(ascii_bar(0.5, 1.0, 10).len(), 5);
        assert_eq!(ascii_bar(0.0, 1.0, 10), "");
        assert_eq!(ascii_bar(2.0, 1.0, 10).len(), 10); // clamped
        assert_eq!(ascii_bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn csv_escaping_rules() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_escape("line\nbreak"), "\"line\nbreak\"");
    }

    #[test]
    fn to_csv_round_trips_simple_rows() {
        let rows =
            vec![vec!["a".to_string(), "b".to_string()], vec!["1,5".to_string(), "2".to_string()]];
        assert_eq!(to_csv(&rows), "a,b\n\"1,5\",2\n");
    }

    #[test]
    fn outcome_csv_has_header_and_rows() {
        use crate::execute::Campaign;
        use crate::plan::plan_layer_wise;
        use sfi_dataset::SynthCifarConfig;
        use sfi_faultsim::campaign::CampaignConfig;
        use sfi_faultsim::golden::GoldenReference;
        use sfi_faultsim::population::FaultSpace;
        use sfi_nn::resnet::ResNetConfig;
        use sfi_stats::confidence::Confidence;
        use sfi_stats::sample_size::SampleSpec;

        let model = ResNetConfig { base_width: 2, blocks_per_stage: 1, classes: 10, input_size: 8 }
            .build_seeded(2)
            .unwrap();
        let data = SynthCifarConfig::new().with_size(8).with_samples(2).generate();
        let golden = GoldenReference::build(&model, &data).unwrap();
        let space = FaultSpace::stuck_at(&model);
        let spec = SampleSpec { error_margin: 0.25, ..SampleSpec::paper_default() };
        let plan = plan_layer_wise(&space, &spec);
        let outcome = Campaign::new(&model, &data, &golden, &plan, 1, &CampaignConfig::default())
            .run()
            .unwrap()
            .into_outcome()
            .unwrap();
        let csv = outcome_to_csv(&outcome, space.layers(), Confidence::C99);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "layer,population,sample,successes,critical_rate,error_margin");
        assert_eq!(lines.len(), 1 + space.layers());
    }

    #[test]
    fn telemetry_report_has_stratum_and_total_rows() {
        use crate::execute::Campaign;
        use crate::plan::plan_layer_wise;
        use sfi_dataset::SynthCifarConfig;
        use sfi_faultsim::campaign::CampaignConfig;
        use sfi_faultsim::golden::GoldenReference;
        use sfi_faultsim::population::FaultSpace;
        use sfi_nn::resnet::ResNetConfig;
        use sfi_stats::sample_size::SampleSpec;

        let model = ResNetConfig { base_width: 2, blocks_per_stage: 1, classes: 10, input_size: 8 }
            .build_seeded(2)
            .unwrap();
        let data = SynthCifarConfig::new().with_size(8).with_samples(2).generate();
        let golden = GoldenReference::build(&model, &data).unwrap();
        let space = FaultSpace::stuck_at(&model);
        let spec = SampleSpec { error_margin: 0.25, ..SampleSpec::paper_default() };
        let plan = plan_layer_wise(&space, &spec);
        let outcome = Campaign::new(&model, &data, &golden, &plan, 1, &CampaignConfig::default())
            .run()
            .unwrap()
            .into_outcome()
            .unwrap();
        let report = telemetry_report(&outcome);
        let lines: Vec<&str> = report.lines().collect();
        // Header + separator + one row per stratum + totals.
        assert_eq!(lines.len(), 2 + space.layers() + 1);
        assert!(lines[0].contains("failures"));
        assert!(lines[0].contains("low-hits"));
        assert!(lines[0].contains("exit%"));
        assert!(lines[0].contains("nodes-skipped"));
        assert!(lines[0].contains("arena [KiB]"));
        assert!(!lines[0].contains("resumed"));
        assert!(lines[2].starts_with("L0"));
        assert!(lines.last().unwrap().starts_with("total"));

        // The resumed variant adds a column fed from per-stratum counts.
        let resumed: Vec<u64> = (0..outcome.strata().len() as u64).collect();
        let report = telemetry_report_resumed(&outcome, Some(&resumed));
        let lines: Vec<&str> = report.lines().collect();
        assert!(lines[0].contains("resumed"));
        let total: u64 = resumed.iter().sum();
        assert!(lines.last().unwrap().contains(&group_digits(total)));
    }

    #[test]
    fn empty_and_len() {
        let t = TextTable::new(vec!["x".into()]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
