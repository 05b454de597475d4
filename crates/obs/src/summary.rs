//! Offline summarisation of a captured JSONL trace stream.
//!
//! `sfi trace report <path>` reads a stream written by
//! [`Probe`](crate::Probe), validates it line by line (strict JSON
//! objects, strictly increasing `seq`, known event kinds), and folds it
//! into a [`TraceSummary`]: per-stratum fault counts and telemetry,
//! per-phase wall time, lowering-panel hit rate, and the final merged
//! metrics. The parser is hand-rolled — the workspace is hermetic and the
//! vendored `serde` is a no-op stand-in — and only needs to cover the
//! flat objects the emitter produces.

use std::collections::BTreeMap;

/// A JSON scalar as it appears in a trace line.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A JSON number (always parsed as `f64`).
    Number(f64),
    /// A JSON string.
    Text(String),
    /// A JSON boolean.
    Bool(bool),
    /// JSON `null`.
    Null,
}

impl Value {
    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses one flat JSON object (`{"key": scalar, ...}`) into its fields,
/// in source order.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn parse_object(line: &str) -> Result<Vec<(String, Value)>, String> {
    let mut p = Parser { bytes: line.as_bytes(), pos: 0 };
    p.skip_ws();
    p.expect(b'{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.value()?;
            fields.push((key, value));
            p.skip_ws();
            match p.peek() {
                Some(b',') => p.pos += 1,
                Some(b'}') => {
                    p.pos += 1;
                    break;
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(fields)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Strings are UTF-8; consume one whole character.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Text(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
                    self.pos += 1;
                }
                let text =
                    std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
                text.parse::<f64>().map(Value::Number).map_err(|e| e.to_string())
            }
            other => Err(format!("unexpected value start {other:?}")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected '{word}' at offset {}", self.pos))
        }
    }
}

/// One stratum's view of the stream: the `stratum_start` span, the fault
/// events attributed to it, and the closing `stratum_end` telemetry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StratumTrace {
    /// Stratum index within the plan.
    pub stratum: u64,
    /// Label from `stratum_start` (empty if the span was not captured).
    pub label: String,
    /// Faults announced by `stratum_start`.
    pub planned: u64,
    /// `fault` events attributed to this stratum.
    pub fault_events: u64,
    /// Injections reported by `stratum_end`.
    pub injections: u64,
    /// Masked faults reported by `stratum_end`.
    pub masked: u64,
    /// Critical faults reported by `stratum_end`.
    pub critical: u64,
    /// Non-critical faults reported by `stratum_end`.
    pub non_critical: u64,
    /// Execution failures reported by `stratum_end`.
    pub failures: u64,
    /// Lowering-panel reuses reported by `stratum_end`.
    pub lowering_hits: u64,
    /// Lowering-panel builds reported by `stratum_end`.
    pub lowering_misses: u64,
    /// Faults with a golden-convergence early exit (0 for streams written
    /// before the field existed).
    pub converged: u64,
    /// Graph nodes skipped by golden-convergence early exits (0 for older
    /// streams).
    pub nodes_skipped: u64,
    /// Stratum wall time in milliseconds.
    pub wall_ms: f64,
}

/// One `phase` event.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTrace {
    /// Phase name.
    pub name: String,
    /// Phase wall time in milliseconds.
    pub wall_ms: f64,
    /// Summed worker-busy time in milliseconds, when reported.
    pub busy_ms: Option<f64>,
}

/// The final `metrics` event.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsLine {
    /// Inferences timed by workers.
    pub inferences: u64,
    /// Mean inference latency in microseconds.
    pub mean_inference_us: f64,
    /// p99 inference latency (histogram bucket upper bound) in
    /// microseconds.
    pub p99_inference_us: f64,
    /// Faults re-queued after worker panics.
    pub requeues: u64,
    /// Workers retired after catching a panic.
    pub worker_retirements: u64,
    /// Journal `fsync` calls.
    pub fsyncs: u64,
    /// Mean journal `fsync` latency in microseconds.
    pub mean_fsync_us: f64,
    /// Scratch-arena buffer requests.
    pub arena_takes: u64,
    /// Arena requests served without allocating.
    pub arena_reuses: u64,
    /// Inferences that golden-converged early (0 for older streams).
    pub converged: u64,
    /// Graph nodes skipped by early exits (0 for older streams).
    pub nodes_skipped: u64,
    /// Weight faults classified (0 for older streams).
    pub weight_faults: u64,
    /// Transient activation/input faults classified (0 for older streams).
    pub transient_faults: u64,
    /// Accumulated multi-fault instances classified (0 for older streams).
    pub accumulated_faults: u64,
    /// Output rows the delta passes' dense convs computed (0 for older
    /// streams).
    pub delta_conv_rows: u64,
    /// Output rows of those dense convs at full height (0 for older
    /// streams).
    pub delta_conv_rows_full: u64,
}

/// The `plan_compiled` event: the compiled execution plan in effect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanTrace {
    /// Graph nodes covered by the plan.
    pub nodes: u64,
    /// Conv+BN(+ReLU) chains fused into single epilogue GEMMs.
    pub fused_groups: u64,
    /// Convolutions eligible for im2col lowering.
    pub lowerable_convs: u64,
    /// Whether the batched eval-image engine was enabled.
    pub batched: bool,
}

/// Campaign-level totals from `campaign_end`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignTotals {
    /// Faults injected.
    pub injections: u64,
    /// Inferences executed.
    pub inferences: u64,
    /// Campaign wall time in milliseconds.
    pub wall_ms: f64,
}

/// Everything `sfi trace report` extracts from one stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSummary {
    /// Lines (events) in the stream.
    pub events: u64,
    /// Worker count from `campaign_start`.
    pub workers: Option<u64>,
    /// Strata announced by `campaign_start`.
    pub planned_strata: Option<u64>,
    /// Faults announced by `campaign_start`.
    pub planned_faults: Option<u64>,
    /// Fault model announced by `campaign_start` (`None` for streams
    /// written before the field existed).
    pub fault_model: Option<String>,
    /// Compiled-plan summary from `plan_compiled` (`None` for streams
    /// written before the plan compiler existed).
    pub plan: Option<PlanTrace>,
    /// Total `fault` events.
    pub fault_events: u64,
    /// `fault` events per class, sorted by class name.
    pub class_counts: Vec<(String, u64)>,
    /// Per-stratum merge of spans and fault events, by stratum index.
    pub strata: Vec<StratumTrace>,
    /// `phase` events in stream order.
    pub phases: Vec<PhaseTrace>,
    /// `(resumed, dropped)` from a `resume` event.
    pub resumed: Option<(u64, u64)>,
    /// Completed count from an `interrupted` event.
    pub interrupted: Option<u64>,
    /// Totals from `campaign_end`.
    pub campaign: Option<CampaignTotals>,
    /// The final merged metrics event.
    pub metrics: Option<MetricsLine>,
}

impl TraceSummary {
    /// Lowering-panel hit rate across every `stratum_end` event; `None`
    /// when the stream recorded no panel lookups.
    pub fn lowering_hit_rate(&self) -> Option<f64> {
        let hits: u64 = self.strata.iter().map(|s| s.lowering_hits).sum();
        let misses: u64 = self.strata.iter().map(|s| s.lowering_misses).sum();
        let total = hits + misses;
        (total > 0).then(|| hits as f64 / total as f64)
    }
}

fn field<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn need_u64(fields: &[(String, Value)], key: &str) -> Result<u64, String> {
    field(fields, key).and_then(Value::as_u64).ok_or_else(|| format!("missing integer `{key}`"))
}

fn need_f64(fields: &[(String, Value)], key: &str) -> Result<f64, String> {
    field(fields, key).and_then(Value::as_f64).ok_or_else(|| format!("missing number `{key}`"))
}

fn need_str<'a>(fields: &'a [(String, Value)], key: &str) -> Result<&'a str, String> {
    field(fields, key).and_then(Value::as_str).ok_or_else(|| format!("missing string `{key}`"))
}

/// Parses and folds a whole JSONL stream.
///
/// # Errors
///
/// Returns `"line N: <reason>"` for the first malformed line, unknown
/// event kind, missing field, or `seq` discontinuity.
pub fn summarize(text: &str) -> Result<TraceSummary, String> {
    let mut summary = TraceSummary::default();
    let mut strata: BTreeMap<u64, StratumTrace> = BTreeMap::new();
    let mut classes: BTreeMap<String, u64> = BTreeMap::new();
    let mut next_seq = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        let at = |e: String| format!("line {}: {e}", lineno + 1);
        if line.trim().is_empty() {
            continue;
        }
        let fields = parse_object(line).map_err(at)?;
        let seq = need_u64(&fields, "seq").map_err(at)?;
        if seq != next_seq {
            return Err(at(format!("seq {seq} out of order (expected {next_seq})")));
        }
        next_seq += 1;
        need_u64(&fields, "t_ns").map_err(at)?;
        summary.events += 1;
        let ev = need_str(&fields, "ev").map_err(at)?;
        match ev {
            "campaign_start" => {
                summary.planned_strata = Some(need_u64(&fields, "strata").map_err(at)?);
                summary.planned_faults = Some(need_u64(&fields, "faults").map_err(at)?);
                summary.workers = Some(need_u64(&fields, "workers").map_err(at)?);
                summary.fault_model =
                    field(&fields, "fault_model").and_then(Value::as_str).map(str::to_string);
            }
            "plan_compiled" => {
                summary.plan = Some(PlanTrace {
                    nodes: need_u64(&fields, "nodes").map_err(at)?,
                    fused_groups: need_u64(&fields, "fused_groups").map_err(at)?,
                    lowerable_convs: need_u64(&fields, "lowerable_convs").map_err(at)?,
                    batched: field(&fields, "batched").and_then(Value::as_bool).unwrap_or(false),
                });
            }
            "stratum_start" => {
                let id = need_u64(&fields, "stratum").map_err(at)?;
                let entry = strata.entry(id).or_default();
                entry.stratum = id;
                entry.label = need_str(&fields, "label").map_err(at)?.to_string();
                entry.planned = need_u64(&fields, "faults").map_err(at)?;
            }
            "fault" => {
                let id = need_u64(&fields, "stratum").map_err(at)?;
                need_u64(&fields, "index").map_err(at)?;
                need_u64(&fields, "inferences").map_err(at)?;
                let class = need_str(&fields, "class").map_err(at)?;
                summary.fault_events += 1;
                *classes.entry(class.to_string()).or_insert(0) += 1;
                let entry = strata.entry(id).or_default();
                entry.stratum = id;
                entry.fault_events += 1;
            }
            "stratum_end" => {
                let id = need_u64(&fields, "stratum").map_err(at)?;
                let entry = strata.entry(id).or_default();
                entry.stratum = id;
                entry.injections = need_u64(&fields, "injections").map_err(at)?;
                entry.masked = need_u64(&fields, "masked").map_err(at)?;
                entry.critical = need_u64(&fields, "critical").map_err(at)?;
                entry.non_critical = need_u64(&fields, "non_critical").map_err(at)?;
                entry.failures = need_u64(&fields, "failures").map_err(at)?;
                entry.lowering_hits = need_u64(&fields, "lowering_hits").map_err(at)?;
                entry.lowering_misses = need_u64(&fields, "lowering_misses").map_err(at)?;
                // Convergence fields are optional: streams written before
                // the early-exit engine existed lack them.
                entry.converged = field(&fields, "converged").and_then(Value::as_u64).unwrap_or(0);
                entry.nodes_skipped =
                    field(&fields, "nodes_skipped").and_then(Value::as_u64).unwrap_or(0);
                entry.wall_ms = need_f64(&fields, "wall_ms").map_err(at)?;
            }
            "resume" => {
                summary.resumed = Some((
                    need_u64(&fields, "resumed").map_err(at)?,
                    need_u64(&fields, "dropped").map_err(at)?,
                ));
            }
            "phase" => {
                summary.phases.push(PhaseTrace {
                    name: need_str(&fields, "name").map_err(at)?.to_string(),
                    wall_ms: need_f64(&fields, "wall_ms").map_err(at)?,
                    busy_ms: field(&fields, "busy_ms").and_then(Value::as_f64),
                });
            }
            "interrupted" => {
                summary.interrupted = Some(need_u64(&fields, "completed").map_err(at)?);
            }
            "campaign_end" => {
                summary.campaign = Some(CampaignTotals {
                    injections: need_u64(&fields, "injections").map_err(at)?,
                    inferences: need_u64(&fields, "inferences").map_err(at)?,
                    wall_ms: need_f64(&fields, "wall_ms").map_err(at)?,
                });
            }
            "metrics" => {
                summary.metrics = Some(MetricsLine {
                    inferences: need_u64(&fields, "inferences").map_err(at)?,
                    mean_inference_us: need_f64(&fields, "mean_inference_us").map_err(at)?,
                    p99_inference_us: need_f64(&fields, "p99_inference_us").map_err(at)?,
                    requeues: need_u64(&fields, "requeues").map_err(at)?,
                    worker_retirements: need_u64(&fields, "worker_retirements").map_err(at)?,
                    fsyncs: need_u64(&fields, "fsyncs").map_err(at)?,
                    mean_fsync_us: need_f64(&fields, "mean_fsync_us").map_err(at)?,
                    arena_takes: need_u64(&fields, "arena_takes").map_err(at)?,
                    arena_reuses: need_u64(&fields, "arena_reuses").map_err(at)?,
                    converged: field(&fields, "converged").and_then(Value::as_u64).unwrap_or(0),
                    nodes_skipped: field(&fields, "nodes_skipped")
                        .and_then(Value::as_u64)
                        .unwrap_or(0),
                    weight_faults: field(&fields, "weight_faults")
                        .and_then(Value::as_u64)
                        .unwrap_or(0),
                    transient_faults: field(&fields, "transient_faults")
                        .and_then(Value::as_u64)
                        .unwrap_or(0),
                    accumulated_faults: field(&fields, "accumulated_faults")
                        .and_then(Value::as_u64)
                        .unwrap_or(0),
                    delta_conv_rows: field(&fields, "delta_conv_rows")
                        .and_then(Value::as_u64)
                        .unwrap_or(0),
                    delta_conv_rows_full: field(&fields, "delta_conv_rows_full")
                        .and_then(Value::as_u64)
                        .unwrap_or(0),
                });
            }
            other => return Err(at(format!("unknown event kind `{other}`"))),
        }
    }
    summary.strata = strata.into_values().collect();
    summary.class_counts = classes.into_iter().collect();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_escapes() {
        let fields =
            parse_object(r#"{"a": 1.5, "b": "x\"y", "c": true, "d": null, "e": -3}"#).unwrap();
        assert_eq!(field(&fields, "a"), Some(&Value::Number(1.5)));
        assert_eq!(field(&fields, "b"), Some(&Value::Text("x\"y".into())));
        assert_eq!(field(&fields, "c"), Some(&Value::Bool(true)));
        assert_eq!(field(&fields, "d"), Some(&Value::Null));
        assert_eq!(field(&fields, "e").unwrap().as_f64(), Some(-3.0));
        assert_eq!(field(&fields, "e").unwrap().as_u64(), None, "negative is not u64");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_object("{\"a\":}").is_err());
        assert!(parse_object("{\"a\":1").is_err());
        assert!(parse_object("{\"a\":1} extra").is_err());
        assert!(parse_object("not json").is_err());
    }

    #[test]
    fn summarize_rejects_seq_gaps_and_unknown_events() {
        let gap = "{\"seq\":0,\"t_ns\":0,\"ev\":\"resume\",\"resumed\":1,\"dropped\":0}\n\
                   {\"seq\":2,\"t_ns\":0,\"ev\":\"resume\",\"resumed\":1,\"dropped\":0}\n";
        assert!(summarize(gap).unwrap_err().contains("seq 2 out of order"));
        let unknown = "{\"seq\":0,\"t_ns\":0,\"ev\":\"mystery\"}\n";
        assert!(summarize(unknown).unwrap_err().contains("unknown event kind"));
    }

    #[test]
    fn summarize_folds_a_stream() {
        let text = "\
{\"seq\":0,\"t_ns\":10,\"ev\":\"campaign_start\",\"strata\":2,\"faults\":5,\"workers\":4}\n\
{\"seq\":1,\"t_ns\":20,\"ev\":\"stratum_start\",\"stratum\":0,\"label\":\"L0\",\"faults\":3}\n\
{\"seq\":2,\"t_ns\":30,\"ev\":\"fault\",\"stratum\":0,\"index\":0,\"class\":\"critical\",\"inferences\":1}\n\
{\"seq\":3,\"t_ns\":40,\"ev\":\"fault\",\"stratum\":0,\"index\":1,\"class\":\"masked\",\"inferences\":0}\n\
{\"seq\":4,\"t_ns\":50,\"ev\":\"stratum_end\",\"stratum\":0,\"injections\":3,\"masked\":1,\"critical\":1,\"non_critical\":1,\"failures\":0,\"lowering_hits\":8,\"lowering_misses\":2,\"wall_ms\":1.250}\n\
{\"seq\":5,\"t_ns\":60,\"ev\":\"phase\",\"name\":\"campaign\",\"wall_ms\":2.000,\"busy_ms\":1.500}\n\
{\"seq\":6,\"t_ns\":70,\"ev\":\"campaign_end\",\"injections\":5,\"inferences\":9,\"wall_ms\":2.100}\n";
        let s = summarize(text).unwrap();
        assert_eq!(s.events, 7);
        assert_eq!(s.workers, Some(4));
        assert_eq!(s.fault_model, None, "pre-fault-model stream still parses");
        assert_eq!(s.fault_events, 2);
        assert_eq!(s.class_counts, vec![("critical".to_string(), 1), ("masked".to_string(), 1)]);
        assert_eq!(s.strata.len(), 1);
        assert_eq!(s.strata[0].label, "L0");
        assert_eq!(s.strata[0].fault_events, 2);
        assert_eq!(s.strata[0].injections, 3);
        // Old-format stratum_end lines (no convergence fields) parse as 0.
        assert_eq!(s.strata[0].converged, 0);
        assert_eq!(s.strata[0].nodes_skipped, 0);
        assert_eq!(s.lowering_hit_rate(), Some(0.8));
        assert_eq!(s.phases.len(), 1);
        assert_eq!(s.phases[0].busy_ms, Some(1.5));
        assert_eq!(s.campaign.unwrap().inferences, 9);
    }

    #[test]
    fn summarize_reads_fault_model_and_kind_counters() {
        let text = "\
{\"seq\":0,\"t_ns\":10,\"ev\":\"campaign_start\",\"strata\":1,\"faults\":2,\"workers\":1,\"fault_model\":\"activation\"}\n\
{\"seq\":1,\"t_ns\":20,\"ev\":\"metrics\",\"inferences\":2,\"mean_inference_us\":1.0,\"p99_inference_us\":1.0,\"requeues\":0,\"worker_retirements\":0,\"fsyncs\":0,\"mean_fsync_us\":0.0,\"arena_takes\":0,\"arena_reuses\":0,\"converged\":0,\"nodes_skipped\":0,\"weight_faults\":0,\"transient_faults\":2,\"accumulated_faults\":0}\n";
        let s = summarize(text).unwrap();
        assert_eq!(s.fault_model.as_deref(), Some("activation"));
        let m = s.metrics.unwrap();
        assert_eq!(m.transient_faults, 2);
        assert_eq!(m.weight_faults, 0);
        assert_eq!(m.accumulated_faults, 0);
        assert_eq!((m.delta_conv_rows, m.delta_conv_rows_full), (0, 0), "older stream");
        let banded = text.replace(
            "\"accumulated_faults\":0}",
            "\"accumulated_faults\":0,\"delta_conv_rows\":5,\"delta_conv_rows_full\":32}",
        );
        let m = summarize(&banded).unwrap().metrics.unwrap();
        assert_eq!((m.delta_conv_rows, m.delta_conv_rows_full), (5, 32));
        // Streams written while the delta engine had a sparse phase carry a
        // `delta_sparse_nodes` counter, which the summary ignores.
        let sparse =
            banded.replace("\"nodes_skipped\":0,", "\"nodes_skipped\":0,\"delta_sparse_nodes\":3,");
        assert_ne!(sparse, banded);
        let m = summarize(&sparse).unwrap().metrics.unwrap();
        assert_eq!((m.transient_faults, m.delta_conv_rows), (2, 5));
    }
}
