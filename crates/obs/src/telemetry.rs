//! The exported telemetry snapshot and its JSONL sink.
//!
//! # Event schema (JSONL, version 1)
//!
//! One JSON object per line; the first line is a `meta` record. All other
//! record types may appear in any order after it, but the writer emits
//! spans (in open order), then counters / gauges / histograms (sorted by
//! name), then series points (in record order) so that identical runs
//! produce byte-identical files modulo timing values.
//!
//! ```text
//! {"t":"meta","version":1}
//! {"t":"span","id":0,"parent":null,"name":"fit","start_ns":0,"dur_ns":12345}
//! {"t":"counter","name":"sampler.draws","value":4096}
//! {"t":"gauge","name":"train.grad_norm","last":0.52,"min":0.1,"max":0.9,"n":128}
//! {"t":"hist","name":"fwd.spmm","count":64,"sum":1.2e7,"min":1e5,"max":3e5,
//!  "p50":2e5,"p95":2.9e5,"p99":3e5}
//! {"t":"series","name":"train.epoch_loss","idx":0,"value":0.6931}
//! {"t":"tspan","trace":42,"id":3,"parent":null,"name":"request","start_ns":100,"dur_ns":900}
//! {"t":"slo","seq":512,"monitor":"availability","level":"page","fast_burn":14.2,"slow_burn":6.1}
//! {"t":"exemplar","hist":"serve.latency.total_ns","le":50000.0,"value":49313.0,"trace":42}
//! ```
//!
//! The `tspan` / `slo` / `exemplar` records are additive extensions for
//! cross-thread request tracing, live SLO events, and histogram tail
//! exemplars; the schema version stays 1 because v1 readers skip record
//! tags they do not know.
//!
//! Durations and timestamps are integer nanoseconds relative to the start
//! of collection. Histogram lines carry the summary (count/sum/min/max and
//! p50/p95/p99), not raw buckets. The file is written atomically with the
//! same tmp + fsync + rename discipline as the pup-ckpt store (pup-obs
//! cannot depend on pup-ckpt — the dependency points the other way — so
//! the protocol is small enough to restate here).

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::Path;

use crate::json::Value;
use crate::metrics::{GaugeStat, HistSummary};
use crate::slo::{SloEvent, SloLevel, SloMonitor};
use crate::trace::TraceSpanRecord;

/// Schema version written to / expected from the `meta` line.
pub const SCHEMA_VERSION: u64 = 1;

/// One completed span: a named, timed region of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Open-order index, unique within one collection.
    pub id: u32,
    /// Id of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Static name the span was opened with (e.g. `"epoch"`).
    pub name: String,
    /// Nanoseconds from the start of collection to span open.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

/// A monotonically increasing named count.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterRecord {
    /// Counter name (e.g. `"sampler.rejections"`).
    pub name: String,
    /// Final value at the end of collection.
    pub value: u64,
}

/// A set-valued metric with last/min/max/n statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeRecord {
    /// Gauge name (e.g. `"train.grad_norm"`).
    pub name: String,
    /// Exported statistics.
    pub stat: GaugeStat,
}

/// A histogram summary (timers export as `<kind>.<name>` in nanoseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct HistRecord {
    /// Histogram name (e.g. `"fwd.spmm"` or `"metric.train.score_gap"`).
    pub name: String,
    /// Count/sum/min/max and p50/p95/p99.
    pub summary: HistSummary,
}

/// A histogram tail exemplar: the slowest traced observation of one
/// bucket, pointing back at its stitched trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ExemplarRecord {
    /// Histogram the exemplar belongs to (e.g. `"serve.latency.total_ns"`).
    pub hist: String,
    /// Bucket upper bound; `None` for the overflow bucket.
    pub le: Option<f64>,
    /// The observed value.
    pub value: f64,
    /// Trace id of the request that produced it.
    pub trace: u64,
}

/// One point of an append-only named series (e.g. per-epoch loss).
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesRecord {
    /// Series name (e.g. `"train.epoch_loss"`).
    pub name: String,
    /// Zero-based index of this point within its series.
    pub idx: u64,
    /// Recorded value.
    pub value: f64,
}

/// Everything one collection captured; the in-memory registry handed back
/// by [`crate::finish`] and the parse result of [`Telemetry::read_jsonl`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    /// Completed spans in open order.
    pub spans: Vec<SpanRecord>,
    /// Counters sorted by name.
    pub counters: Vec<CounterRecord>,
    /// Gauges sorted by name.
    pub gauges: Vec<GaugeRecord>,
    /// Histogram summaries sorted by name.
    pub hists: Vec<HistRecord>,
    /// Series points in record order.
    pub series: Vec<SeriesRecord>,
    /// Cross-thread trace spans in completion order.
    pub traces: Vec<TraceSpanRecord>,
    /// SLO events in emission order.
    pub slo_events: Vec<SloEvent>,
    /// Histogram tail exemplars.
    pub exemplars: Vec<ExemplarRecord>,
}

/// Errors from the JSONL sink and parser.
#[derive(Debug)]
pub enum ObsError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// A line failed to parse or was missing required fields.
    Parse {
        /// 1-based line number in the file.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// The file's `meta` line declared an unsupported schema version.
    Version(u64),
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsError::Io(e) => write!(f, "telemetry io error: {e}"),
            ObsError::Parse { line, msg } => {
                write!(f, "telemetry parse error at line {line}: {msg}")
            }
            ObsError::Version(v) => {
                write!(f, "unsupported telemetry schema version {v} (expected {SCHEMA_VERSION})")
            }
        }
    }
}

impl std::error::Error for ObsError {}

impl From<io::Error> for ObsError {
    fn from(e: io::Error) -> Self {
        ObsError::Io(e)
    }
}

impl Telemetry {
    /// Total number of exported records (spans + metrics + series +
    /// traces + SLO events + exemplars).
    pub fn record_count(&self) -> usize {
        self.spans.len()
            + self.counters.len()
            + self.gauges.len()
            + self.hists.len()
            + self.series.len()
            + self.traces.len()
            + self.slo_events.len()
            + self.exemplars.len()
    }

    /// Distinct trace ids present, ascending.
    pub fn trace_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.traces.iter().map(|t| t.trace).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Look up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<&GaugeStat> {
        self.gauges.iter().find(|g| g.name == name).map(|g| &g.stat)
    }

    /// Look up a histogram summary by name.
    pub fn hist(&self, name: &str) -> Option<&HistSummary> {
        self.hists.iter().find(|h| h.name == name).map(|h| &h.summary)
    }

    /// Values of a series, in index order.
    pub fn series_values(&self, name: &str) -> Vec<f64> {
        let mut points: Vec<&SeriesRecord> =
            self.series.iter().filter(|s| s.name == name).collect();
        points.sort_by_key(|s| s.idx);
        points.iter().map(|s| s.value).collect()
    }

    /// Serialize to the JSONL text described in the module docs.
    pub fn to_jsonl_string(&self) -> String {
        let mut out = String::new();
        let meta = Value::Obj(vec![
            ("t".to_string(), Value::str("meta")),
            ("version".to_string(), Value::num(SCHEMA_VERSION as f64)),
        ]);
        out.push_str(&meta.render());
        out.push('\n');
        for s in &self.spans {
            let parent = match s.parent {
                Some(p) => Value::num(f64::from(p)),
                None => Value::Null,
            };
            let line = Value::Obj(vec![
                ("t".to_string(), Value::str("span")),
                ("id".to_string(), Value::num(f64::from(s.id))),
                ("parent".to_string(), parent),
                ("name".to_string(), Value::str(&s.name)),
                ("start_ns".to_string(), Value::num(s.start_ns as f64)),
                ("dur_ns".to_string(), Value::num(s.dur_ns as f64)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        for c in &self.counters {
            let line = Value::Obj(vec![
                ("t".to_string(), Value::str("counter")),
                ("name".to_string(), Value::str(&c.name)),
                ("value".to_string(), Value::num(c.value as f64)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        for g in &self.gauges {
            let line = Value::Obj(vec![
                ("t".to_string(), Value::str("gauge")),
                ("name".to_string(), Value::str(&g.name)),
                ("last".to_string(), Value::num(g.stat.last)),
                ("min".to_string(), Value::num(g.stat.min)),
                ("max".to_string(), Value::num(g.stat.max)),
                ("n".to_string(), Value::num(g.stat.n as f64)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        for h in &self.hists {
            let s = &h.summary;
            let line = Value::Obj(vec![
                ("t".to_string(), Value::str("hist")),
                ("name".to_string(), Value::str(&h.name)),
                ("count".to_string(), Value::num(s.count as f64)),
                ("sum".to_string(), Value::num(s.sum)),
                ("min".to_string(), Value::num(s.min)),
                ("max".to_string(), Value::num(s.max)),
                ("p50".to_string(), Value::num(s.p50)),
                ("p95".to_string(), Value::num(s.p95)),
                ("p99".to_string(), Value::num(s.p99)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        for s in &self.series {
            let line = Value::Obj(vec![
                ("t".to_string(), Value::str("series")),
                ("name".to_string(), Value::str(&s.name)),
                ("idx".to_string(), Value::num(s.idx as f64)),
                ("value".to_string(), Value::num(s.value)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        for t in &self.traces {
            let parent = match t.parent {
                Some(p) => Value::num(f64::from(p)),
                None => Value::Null,
            };
            let line = Value::Obj(vec![
                ("t".to_string(), Value::str("tspan")),
                ("trace".to_string(), Value::num(t.trace as f64)),
                ("id".to_string(), Value::num(f64::from(t.id))),
                ("parent".to_string(), parent),
                ("name".to_string(), Value::str(&t.name)),
                ("start_ns".to_string(), Value::num(t.start_ns as f64)),
                ("dur_ns".to_string(), Value::num(t.dur_ns as f64)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        for e in &self.slo_events {
            let line = Value::Obj(vec![
                ("t".to_string(), Value::str("slo")),
                ("seq".to_string(), Value::num(e.seq as f64)),
                ("monitor".to_string(), Value::str(e.monitor.label())),
                ("level".to_string(), Value::str(e.level.label())),
                ("fast_burn".to_string(), Value::num(e.fast_burn)),
                ("slow_burn".to_string(), Value::num(e.slow_burn)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        for e in &self.exemplars {
            let le = match e.le {
                Some(le) => Value::num(le),
                None => Value::Null,
            };
            let line = Value::Obj(vec![
                ("t".to_string(), Value::str("exemplar")),
                ("hist".to_string(), Value::str(&e.hist)),
                ("le".to_string(), le),
                ("value".to_string(), Value::num(e.value)),
                ("trace".to_string(), Value::num(e.trace as f64)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }

    /// Write atomically to `path`: serialize, write to a sibling tmp file,
    /// fsync, rename over the destination, best-effort fsync the directory.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), ObsError> {
        let text = self.to_jsonl_string();
        let file_name = path.file_name().ok_or_else(|| {
            ObsError::Io(io::Error::new(io::ErrorKind::InvalidInput, "no file name"))
        })?;
        let mut tmp_name = file_name.to_os_string();
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Parse telemetry back from JSONL text (inverse of
    /// [`Telemetry::to_jsonl_string`]). Unknown record types are skipped so
    /// v1 readers tolerate additive schema growth.
    pub fn from_jsonl_str(text: &str) -> Result<Telemetry, ObsError> {
        let mut out = Telemetry::default();
        let mut saw_meta = false;
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            let v = Value::parse(line).map_err(|msg| ObsError::Parse { line: line_no, msg })?;
            let tag = v.get("t").and_then(Value::as_str).ok_or_else(|| ObsError::Parse {
                line: line_no,
                msg: "missing \"t\" field".to_string(),
            })?;
            if !saw_meta {
                if tag != "meta" {
                    return Err(ObsError::Parse {
                        line: line_no,
                        msg: "first record must be meta".to_string(),
                    });
                }
                let version = v.get("version").and_then(Value::as_u64).ok_or_else(|| {
                    ObsError::Parse { line: line_no, msg: "meta missing version".to_string() }
                })?;
                if version != SCHEMA_VERSION {
                    return Err(ObsError::Version(version));
                }
                saw_meta = true;
                continue;
            }
            let field_u64 = |key: &str| {
                v.get(key).and_then(Value::as_u64).ok_or_else(|| ObsError::Parse {
                    line: line_no,
                    msg: format!("missing integer field \"{key}\""),
                })
            };
            let field_f64 = |key: &str| {
                v.get(key).and_then(Value::as_f64).ok_or_else(|| ObsError::Parse {
                    line: line_no,
                    msg: format!("missing numeric field \"{key}\""),
                })
            };
            let field_str = |key: &str| {
                v.get(key).and_then(Value::as_str).map(str::to_string).ok_or_else(|| {
                    ObsError::Parse {
                        line: line_no,
                        msg: format!("missing string field \"{key}\""),
                    }
                })
            };
            match tag {
                "span" => {
                    let parent = match v.get("parent") {
                        Some(Value::Null) | None => None,
                        Some(p) => Some(p.as_u64().ok_or_else(|| ObsError::Parse {
                            line: line_no,
                            msg: "bad parent id".to_string(),
                            // pup-lint: allow(as-cast-truncation) — trace ids round-trip from u32 writes
                        })? as u32),
                    };
                    out.spans.push(SpanRecord {
                        // pup-lint: allow(as-cast-truncation) — trace ids round-trip from u32 writes
                        id: field_u64("id")? as u32,
                        parent,
                        name: field_str("name")?,
                        start_ns: field_u64("start_ns")?,
                        dur_ns: field_u64("dur_ns")?,
                    });
                }
                "counter" => out
                    .counters
                    .push(CounterRecord { name: field_str("name")?, value: field_u64("value")? }),
                "gauge" => out.gauges.push(GaugeRecord {
                    name: field_str("name")?,
                    stat: GaugeStat {
                        last: field_f64("last")?,
                        min: field_f64("min")?,
                        max: field_f64("max")?,
                        n: field_u64("n")?,
                    },
                }),
                "hist" => out.hists.push(HistRecord {
                    name: field_str("name")?,
                    summary: HistSummary {
                        count: field_u64("count")?,
                        sum: field_f64("sum")?,
                        min: field_f64("min")?,
                        max: field_f64("max")?,
                        p50: field_f64("p50")?,
                        p95: field_f64("p95")?,
                        p99: field_f64("p99")?,
                    },
                }),
                "series" => out.series.push(SeriesRecord {
                    name: field_str("name")?,
                    idx: field_u64("idx")?,
                    value: field_f64("value")?,
                }),
                "tspan" => {
                    let parent = match v.get("parent") {
                        Some(Value::Null) | None => None,
                        Some(p) => Some(p.as_u64().ok_or_else(|| ObsError::Parse {
                            line: line_no,
                            msg: "bad parent id".to_string(),
                            // pup-lint: allow(as-cast-truncation) — trace span ids round-trip from u32 writes
                        })? as u32),
                    };
                    out.traces.push(TraceSpanRecord {
                        trace: field_u64("trace")?,
                        // pup-lint: allow(as-cast-truncation) — trace span ids round-trip from u32 writes
                        id: field_u64("id")? as u32,
                        parent,
                        name: field_str("name")?,
                        start_ns: field_u64("start_ns")?,
                        dur_ns: field_u64("dur_ns")?,
                    });
                }
                "slo" => {
                    let monitor = field_str("monitor")?;
                    let monitor = SloMonitor::parse(&monitor).ok_or_else(|| ObsError::Parse {
                        line: line_no,
                        msg: format!("unknown slo monitor \"{monitor}\""),
                    })?;
                    let level = field_str("level")?;
                    let level = SloLevel::parse(&level).ok_or_else(|| ObsError::Parse {
                        line: line_no,
                        msg: format!("unknown slo level \"{level}\""),
                    })?;
                    out.slo_events.push(SloEvent {
                        seq: field_u64("seq")?,
                        monitor,
                        level,
                        fast_burn: field_f64("fast_burn")?,
                        slow_burn: field_f64("slow_burn")?,
                    });
                }
                "exemplar" => {
                    let le = match v.get("le") {
                        Some(Value::Null) | None => None,
                        Some(le) => Some(le.as_f64().ok_or_else(|| ObsError::Parse {
                            line: line_no,
                            msg: "bad exemplar bound".to_string(),
                        })?),
                    };
                    out.exemplars.push(ExemplarRecord {
                        hist: field_str("hist")?,
                        le,
                        value: field_f64("value")?,
                        trace: field_u64("trace")?,
                    });
                }
                // Unknown tags (including later meta lines) are tolerated.
                _ => {}
            }
        }
        if !saw_meta {
            return Err(ObsError::Parse {
                line: 1,
                msg: "empty file (no meta record)".to_string(),
            });
        }
        Ok(out)
    }

    /// Read and parse a JSONL telemetry file.
    pub fn read_jsonl(path: &Path) -> Result<Telemetry, ObsError> {
        let text = fs::read_to_string(path)?;
        Telemetry::from_jsonl_str(&text)
    }
}
