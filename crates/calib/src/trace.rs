//! Target-trace ingestion and fit-target extraction.
//!
//! A trace is what an operator measures on a real installation:
//! per-node 60 s-mean power samples, optionally labeled with the
//! scheduler's job state per tick. The CSV wire format is long-form,
//! one row per `(node, tick)`:
//!
//! ```text
//! node,tick,power_w[,state]
//! 0,0,93.5,idle
//! 0,1,210.4,medium
//! ...
//! ```
//!
//! Rows must be grouped by node with ticks consecutive from 0; the
//! `state` column is optional but all-or-nothing. Parsing returns
//! typed [`TraceError`]s — empty input, a single-tick node, missing
//! or short columns, non-finite or negative power, more distinct
//! states than a `u16` numbers — never a panic.
//! A *constant-power* trace is valid: its pooled lag-1
//! autocorrelation is defined as 0.0 (the same zero-variance contract
//! as `EpisodeStats::lag1_autocorr`), not `NaN`.
//!
//! A labeled trace holds each state name once, in a table listing the
//! states in order of first appearance (node order, then tick order);
//! every tick carries a `u16` index into it.

use fs2_cluster::episodes::EpisodeWalk;
use fs2_cluster::fleet::{pooled_lag1_autocorr, FleetConfig, PowerCdf};
use fs2_metrics::{CsvError, CsvReader, CsvWriter};
use std::collections::BTreeMap;
use std::fmt;

/// A typed trace-ingestion failure.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// CSV-layer failure (malformed quoting, short rows, missing
    /// columns, non-numeric fields).
    Csv(CsvError),
    /// The trace has a header but no data rows.
    Empty,
    /// A node carries fewer than two ticks, so it cannot contribute a
    /// single lag-1 pair (a one-row trace lands here).
    TooShort { node: u32, ticks: usize },
    /// A power value is negative (non-finite values are caught at the
    /// CSV layer as `BadNumber`).
    BadPower { line: usize, value: f64 },
    /// Ticks within a node are not consecutive from 0.
    NonContiguousTick { node: u32, expected: u64, got: u64 },
    /// A node id repeats after another node's rows began.
    SplitNode { node: u32 },
    /// Some rows carry a state label and others do not.
    MixedLabels { line: usize },
    /// The row names a 65,537th distinct state; state indices are
    /// `u16`.
    TooManyStates { line: usize },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Csv(e) => write!(f, "trace CSV: {e}"),
            TraceError::Empty => write!(f, "trace has no data rows"),
            TraceError::TooShort { node, ticks } => {
                write!(
                    f,
                    "node {node} has {ticks} tick(s); lag-1 statistics need at least 2"
                )
            }
            TraceError::BadPower { line, value } => {
                write!(f, "line {line}: negative power {value}")
            }
            TraceError::NonContiguousTick {
                node,
                expected,
                got,
            } => {
                write!(f, "node {node}: expected tick {expected}, got {got}")
            }
            TraceError::SplitNode { node } => {
                write!(f, "node {node}: rows are not contiguous")
            }
            TraceError::MixedLabels { line } => {
                write!(
                    f,
                    "line {line}: state labels must be present on every row or none"
                )
            }
            TraceError::TooManyStates { line } => {
                write!(f, "line {line}: more than 65536 distinct state labels")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<CsvError> for TraceError {
    fn from(e: CsvError) -> TraceError {
        TraceError::Csv(e)
    }
}

/// One node's tick stream.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTrace {
    /// Node id as it appeared in the trace.
    pub node: u32,
    /// 60 s-mean power per tick, W.
    pub power_w: Vec<f64>,
    /// Per-tick state, an index into the trace's state-name table
    /// ([`Trace::state_names`]); empty when the trace is unlabeled.
    pub states: Vec<u16>,
}

/// A target trace: per-node power time series, optionally
/// state-labeled.
///
/// The state-name table lists each state once, in order of first
/// appearance over the nodes in order, and every listed state occurs.
/// Every constructor keeps that form, so two traces are equal exactly
/// when their node ids, power bits and per-tick state names are.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    nodes: Vec<NodeTrace>,
    /// The states the nodes' indices name; empty when unlabeled.
    state_names: Vec<String>,
}

/// Stationary-share and dwell targets extracted from a state-labeled
/// trace. States appear in order of first appearance; dwell is the
/// *observed-run* dwell (consecutive same-state ticks on one node form
/// one run — an episode model's self-transitions merge into runs, so
/// this is what any tick-level observer measures).
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledTargets {
    pub states: Vec<String>,
    /// Fraction of all ticks per state (sums to 1).
    pub shares: Vec<f64>,
    /// Mean observed-run length per state, ticks.
    pub mean_run_ticks: Vec<f64>,
}

/// The statistics a calibration run fits against.
#[derive(Debug, Clone)]
pub struct FitTargets {
    /// Power CDF over the paper's 0.1 W bins.
    pub cdf: PowerCdf,
    /// Pooled per-node-centered lag-1 autocorrelation; 0.0 on zero
    /// pooled variance (constant trace), never `NaN`.
    pub lag1_autocorr: f64,
    /// Share/dwell targets when the trace is state-labeled.
    pub labels: Option<LabeledTargets>,
    pub n_nodes: usize,
    pub n_ticks: usize,
}

/// Numbers a source's states in order of first appearance.
struct FirstSeen {
    /// Trace index of each source state, once it has occurred.
    slots: Vec<Option<u16>>,
    /// Source state of each trace index.
    order: Vec<usize>,
}

impl FirstSeen {
    fn new(source_states: usize) -> FirstSeen {
        FirstSeen {
            slots: vec![None; source_states],
            order: Vec::new(),
        }
    }

    fn index(&mut self, state: usize) -> u16 {
        let order = &mut self.order;
        *self.slots[state].get_or_insert_with(|| {
            order.push(state);
            u16::try_from(order.len() - 1).expect("at most 65536 states")
        })
    }

    /// The source names of the states seen, in trace-index order.
    fn names(&self, source: &[&str]) -> Vec<String> {
        self.order.iter().map(|&s| source[s].to_string()).collect()
    }
}

impl Trace {
    /// Builds a trace from per-node streams whose `states` index
    /// `state_names` (pass no names for an unlabeled trace). The table
    /// is renumbered into order of first appearance, and names no tick
    /// uses are dropped. Panics on internal misuse (empty node set, a
    /// node under two ticks, label/power length mismatch, an index
    /// outside the table); external input goes through
    /// [`Trace::from_csv`] which returns typed errors instead.
    pub fn new(mut nodes: Vec<NodeTrace>, state_names: &[&str]) -> Trace {
        let mut seen = FirstSeen::new(state_names.len());
        for n in &mut nodes {
            for s in &mut n.states {
                *s = seen.index(usize::from(*s));
            }
        }
        Trace::checked(nodes, seen.names(state_names))
    }

    fn checked(nodes: Vec<NodeTrace>, state_names: Vec<String>) -> Trace {
        assert!(!nodes.is_empty(), "trace needs at least one node");
        let labeled = !state_names.is_empty();
        for n in &nodes {
            assert!(n.power_w.len() >= 2, "node {}: needs >= 2 ticks", n.node);
            if labeled {
                assert_eq!(n.states.len(), n.power_w.len());
            } else {
                assert!(n.states.is_empty());
            }
        }
        Trace { nodes, state_names }
    }

    /// Whether the trace carries per-tick state labels.
    pub fn is_labeled(&self) -> bool {
        !self.state_names.is_empty()
    }

    /// The state names [`NodeTrace::states`] index, in order of first
    /// appearance; empty when the trace is unlabeled.
    pub fn state_names(&self) -> &[String] {
        &self.state_names
    }

    /// The per-node streams.
    pub fn nodes(&self) -> &[NodeTrace] {
        &self.nodes
    }

    /// Total tick count across nodes.
    pub fn n_ticks(&self) -> usize {
        self.nodes.iter().map(|n| n.power_w.len()).sum()
    }

    /// Synthesizes a state-labeled trace from a fleet run: `samples`
    /// is `FleetRun::samples` for `cfg` (node-major order). The state
    /// labels replay each node's `EpisodeWalk` — a pure function of
    /// `(cfg.seed, node_id)`, exactly the stream the fleet's propose
    /// phase consumed — so the labels match the run tick for tick.
    ///
    /// Panics when `cfg` sets a fleet budget: the replayed walks are
    /// what the nodes proposed, and a budget sheds or defers some of
    /// those proposals, so labels and emitted samples would disagree.
    pub fn from_fleet(cfg: &FleetConfig, samples: &[f64]) -> Trace {
        assert!(
            cfg.budget_w.is_none(),
            "from_fleet labels the proposed walks, which a fleet budget does not emit"
        );
        let names = cfg.episodes.state_names();
        let mut seen = FirstSeen::new(names.len());
        let mut nodes = Vec::new();
        let mut offset = 0usize;
        let mut node_id = 0u32;
        for group in &cfg.groups {
            let ticks = group.samples_per_node.unwrap_or(cfg.samples_per_node) as usize;
            for _ in 0..group.nodes {
                let power = samples[offset..offset + ticks].to_vec();
                let mut walk = EpisodeWalk::new(&cfg.episodes, &cfg.mix, cfg.seed, node_id);
                let states = (0..ticks)
                    .map(|_| seen.index(walk.next_tick().state))
                    .collect();
                nodes.push(NodeTrace {
                    node: node_id,
                    power_w: power,
                    states,
                });
                offset += ticks;
                node_id += 1;
            }
        }
        assert_eq!(offset, samples.len(), "sample count != fleet size");
        Trace::checked(nodes, seen.names(names))
    }

    /// Renders the trace as CSV (`node,tick,power_w[,state]`).
    /// Power uses shortest round-trip formatting, so
    /// `from_csv(to_csv(t))` reproduces every bit.
    pub fn to_csv(&self) -> String {
        let mut w = CsvWriter::new();
        if self.is_labeled() {
            w.header(&["node", "tick", "power_w", "state"]);
        } else {
            w.header(&["node", "tick", "power_w"]);
        }
        for n in &self.nodes {
            for (t, &p) in n.power_w.iter().enumerate() {
                let mut row = vec![n.node.to_string(), t.to_string(), format!("{p}")];
                if let Some(&s) = n.states.get(t) {
                    row.push(self.state_names[usize::from(s)].clone());
                }
                w.row(&row);
            }
        }
        w.finish()
    }

    /// Parses a CSV trace. Returns a typed [`TraceError`] on any
    /// malformed input; see the module docs for the format.
    pub fn from_csv(text: &str) -> Result<Trace, TraceError> {
        let csv = CsvReader::parse(text)?;
        let node_col = csv.column("node")?;
        let tick_col = csv.column("tick")?;
        let power_col = csv.column("power_w")?;
        let state_col = csv.column("state").ok();
        if csv.n_rows() == 0 {
            return Err(TraceError::Empty);
        }
        let mut nodes: Vec<NodeTrace> = Vec::new();
        let mut seen: Vec<u32> = Vec::new();
        let mut state_names: Vec<String> = Vec::new();
        let mut state_index: BTreeMap<&str, u16> = BTreeMap::new();
        for row in 0..csv.n_rows() {
            // The row's own start line: a quoted state may span lines.
            let line = csv.row_line(row);
            let node = u32::try_from(csv.u64_at(row, node_col)?).map_err(|_| {
                TraceError::Csv(CsvError::BadNumber {
                    line,
                    column: "node".into(),
                    value: csv.field(row, node_col).into(),
                })
            })?;
            let tick = csv.u64_at(row, tick_col)?;
            let power = csv.f64_at(row, power_col)?;
            if power < 0.0 {
                return Err(TraceError::BadPower { line, value: power });
            }
            let state = state_col.map(|c| csv.field(row, c));
            let is_new = nodes.last().map(|n| n.node) != Some(node);
            if is_new {
                if seen.contains(&node) {
                    return Err(TraceError::SplitNode { node });
                }
                seen.push(node);
                if tick != 0 {
                    return Err(TraceError::NonContiguousTick {
                        node,
                        expected: 0,
                        got: tick,
                    });
                }
                nodes.push(NodeTrace {
                    node,
                    power_w: Vec::new(),
                    states: Vec::new(),
                });
            }
            let cur = nodes.last_mut().expect("node pushed above");
            let expected = cur.power_w.len() as u64;
            if tick != expected {
                return Err(TraceError::NonContiguousTick {
                    node,
                    expected,
                    got: tick,
                });
            }
            cur.power_w.push(power);
            match state {
                Some(s) if !s.is_empty() => {
                    let index = match state_index.get(s) {
                        Some(&i) => i,
                        None => {
                            let i = u16::try_from(state_names.len())
                                .map_err(|_| TraceError::TooManyStates { line })?;
                            state_index.insert(s, i);
                            state_names.push(s.to_string());
                            i
                        }
                    };
                    cur.states.push(index);
                }
                // A present-but-empty state field means "unlabeled
                // row"; mixing those with labeled rows is an error,
                // caught below.
                _ => {}
            }
        }
        let labeled = !nodes[0].states.is_empty();
        // Data row of each node's first tick.
        let mut row = 0;
        for n in &nodes {
            if n.power_w.len() < 2 {
                return Err(TraceError::TooShort {
                    node: n.node,
                    ticks: n.power_w.len(),
                });
            }
            let node_labeled = !n.states.is_empty();
            if node_labeled != labeled || (node_labeled && n.states.len() != n.power_w.len()) {
                return Err(TraceError::MixedLabels {
                    line: csv.row_line(row),
                });
            }
            row += n.power_w.len();
        }
        Ok(Trace { nodes, state_names })
    }

    /// Extracts the fit targets: power CDF, pooled lag-1
    /// autocorrelation, and — when labeled — stationary state shares
    /// and mean observed-run dwell.
    pub fn targets(&self) -> FitTargets {
        let all: Vec<f64> = self
            .nodes
            .iter()
            .flat_map(|n| n.power_w.iter().copied())
            .collect();
        let cdf = PowerCdf::from_samples(&all, 0.1);
        // The fleet's own estimator, so a clone's trace and its run
        // report the same number.
        let lag1_autocorr = pooled_lag1_autocorr(self.nodes.iter().map(|n| n.power_w.as_slice()));
        let labels = self.is_labeled().then(|| self.labeled_targets());
        FitTargets {
            cdf,
            lag1_autocorr,
            labels,
            n_nodes: self.nodes.len(),
            n_ticks: all.len(),
        }
    }

    /// Share/run-dwell extraction over the state indices. The states
    /// are listed in table order, which is order of first appearance
    /// across nodes in node order, so the result is deterministic.
    fn labeled_targets(&self) -> LabeledTargets {
        let mut ticks = vec![0u64; self.state_names.len()];
        let mut runs = vec![0u64; self.state_names.len()];
        for n in &self.nodes {
            let mut prev: Option<u16> = None;
            for &s in &n.states {
                ticks[usize::from(s)] += 1;
                if prev != Some(s) {
                    runs[usize::from(s)] += 1;
                }
                prev = Some(s);
            }
        }
        let total: u64 = ticks.iter().sum();
        let shares = ticks.iter().map(|&t| t as f64 / total as f64).collect();
        let mean_run_ticks = ticks
            .iter()
            .zip(&runs)
            .map(|(&t, &r)| if r == 0 { 0.0 } else { t as f64 / r as f64 })
            .collect();
        LabeledTargets {
            states: self.state_names.clone(),
            shares,
            mean_run_ticks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs2_cluster::fleet::{FleetSim, TemporalMode};

    /// Node 0 reads floor, floor, high, high, floor; node 1 floor,
    /// high, high. The table lists `high` first and an unused `peak`,
    /// which the constructor renumbers and drops.
    fn tiny_labeled() -> Trace {
        Trace::new(
            vec![
                NodeTrace {
                    node: 0,
                    power_w: vec![80.0, 80.0, 200.0, 200.0, 80.0],
                    states: vec![1, 1, 0, 0, 1],
                },
                NodeTrace {
                    node: 1,
                    power_w: vec![80.0, 200.0, 200.0],
                    states: vec![1, 0, 0],
                },
            ],
            &["high", "floor", "peak"],
        )
    }

    #[test]
    fn state_table_lists_states_in_order_of_first_appearance() {
        let t = tiny_labeled();
        assert_eq!(t.state_names(), ["floor", "high"]);
        assert_eq!(t.nodes()[0].states, [0, 0, 1, 1, 0]);
        assert_eq!(t.nodes()[1].states, [0, 1, 1]);
        // Parsing interns the names in the order the rows name them.
        let text = "node,tick,power_w,state\n\
                    0,0,1,b\n0,1,1,a\n0,2,1,b\n1,0,1,c\n1,1,1,a\n";
        let parsed = Trace::from_csv(text).unwrap();
        assert_eq!(parsed.state_names(), ["b", "a", "c"]);
        assert_eq!(parsed.nodes()[0].states, [0, 1, 0]);
        assert_eq!(parsed.nodes()[1].states, [2, 1]);
        assert_eq!(parsed.to_csv(), text);
        // Unlabeled traces hold no table.
        let plain = Trace::from_csv("node,tick,power_w\n0,0,1\n0,1,2\n").unwrap();
        assert!(plain.state_names().is_empty());
        assert!(plain.nodes()[0].states.is_empty());
    }

    #[test]
    fn csv_round_trip_is_byte_exact() {
        let t = tiny_labeled();
        let text = t.to_csv();
        let back = Trace::from_csv(&text).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.to_csv(), text);
    }

    #[test]
    fn fleet_trace_round_trips_through_csv() {
        let cfg = FleetConfig {
            samples_per_node: 60,
            temporal: TemporalMode::Episodes,
            ..FleetConfig::taurus_haswell_scaled(6)
        };
        let run = FleetSim::new(cfg.clone()).run();
        let trace = Trace::from_fleet(&cfg, &run.samples);
        let back = Trace::from_csv(&trace.to_csv()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    #[should_panic(expected = "which a fleet budget does not emit")]
    fn a_budgeted_fleet_cannot_be_labeled() {
        let cfg = FleetConfig {
            samples_per_node: 20,
            temporal: TemporalMode::Episodes,
            budget_w: Some(900.0),
            ..FleetConfig::taurus_haswell_scaled(8)
        };
        let run = FleetSim::new(cfg.clone()).run();
        let _ = Trace::from_fleet(&cfg, &run.samples);
    }

    #[test]
    fn a_65537th_state_name_is_a_typed_error() {
        let mut text = String::from("node,tick,power_w,state\n");
        for t in 0..=65_536u32 {
            text.push_str(&format!("0,{t},1,s{t}\n"));
        }
        assert_eq!(
            Trace::from_csv(&text),
            Err(TraceError::TooManyStates { line: 65_538 })
        );
    }

    #[test]
    fn targets_measure_shares_and_runs() {
        let t = tiny_labeled();
        let targets = t.targets();
        let labels = targets.labels.unwrap();
        assert_eq!(labels.states, vec!["floor".to_string(), "high".to_string()]);
        // 4 floor ticks of 8, over 3 runs; 4 high ticks over 2 runs.
        assert!((labels.shares[0] - 0.5).abs() < 1e-12);
        assert!((labels.mean_run_ticks[0] - 4.0 / 3.0).abs() < 1e-12);
        assert!((labels.mean_run_ticks[1] - 2.0).abs() < 1e-12);
        assert_eq!(targets.n_nodes, 2);
        assert_eq!(targets.n_ticks, 8);
    }

    #[test]
    fn constant_power_trace_is_valid_with_zero_autocorr() {
        let t = Trace::new(
            vec![NodeTrace {
                node: 0,
                power_w: vec![100.0; 32],
                states: Vec::new(),
            }],
            &[],
        );
        let targets = t.targets();
        assert_eq!(targets.lag1_autocorr, 0.0);
        assert!(!targets.lag1_autocorr.is_nan());
        assert!(targets.labels.is_none());
    }

    #[test]
    fn typed_errors_for_malformed_traces() {
        // Header only: empty trace.
        assert_eq!(
            Trace::from_csv("node,tick,power_w\n"),
            Err(TraceError::Empty)
        );
        // Single tick on a node.
        assert_eq!(
            Trace::from_csv("node,tick,power_w\n0,0,50\n"),
            Err(TraceError::TooShort { node: 0, ticks: 1 })
        );
        // Missing column.
        assert!(matches!(
            Trace::from_csv("node,tick\n0,0\n"),
            Err(TraceError::Csv(CsvError::MissingColumn { .. }))
        ));
        // Short row.
        assert!(matches!(
            Trace::from_csv("node,tick,power_w\n0,0\n"),
            Err(TraceError::Csv(CsvError::ShortRow { .. }))
        ));
        // Non-numeric and non-finite power.
        assert!(matches!(
            Trace::from_csv("node,tick,power_w\n0,0,oops\n0,1,1\n"),
            Err(TraceError::Csv(CsvError::BadNumber { .. }))
        ));
        assert!(matches!(
            Trace::from_csv("node,tick,power_w\n0,0,NaN\n0,1,1\n"),
            Err(TraceError::Csv(CsvError::BadNumber { .. }))
        ));
        // Negative power.
        assert_eq!(
            Trace::from_csv("node,tick,power_w\n0,0,-5\n0,1,1\n"),
            Err(TraceError::BadPower {
                line: 2,
                value: -5.0
            })
        );
        // A quoted state spanning two lines: errors name the line each
        // row starts on.
        assert_eq!(
            Trace::from_csv("node,tick,power_w,state\n0,0,1,\"hi\ngh\"\n0,1,-5,hi\n"),
            Err(TraceError::BadPower {
                line: 4,
                value: -5.0
            })
        );
        assert_eq!(
            Trace::from_csv("node,tick,power_w,state\n0,0,1,\"a\nb\"\n0,1,1,a\n1,0,1,\n1,1,1,\n"),
            Err(TraceError::MixedLabels { line: 5 })
        );
        // Tick gaps and split nodes.
        assert_eq!(
            Trace::from_csv("node,tick,power_w\n0,0,1\n0,2,1\n"),
            Err(TraceError::NonContiguousTick {
                node: 0,
                expected: 1,
                got: 2
            })
        );
        assert_eq!(
            Trace::from_csv("node,tick,power_w\n0,0,1\n0,1,1\n1,0,1\n1,1,1\n0,0,1\n"),
            Err(TraceError::SplitNode { node: 0 })
        );
        // Mixed labels.
        assert!(matches!(
            Trace::from_csv("node,tick,power_w,state\n0,0,1,floor\n0,1,1,\n"),
            Err(TraceError::MixedLabels { .. })
        ));
    }

    #[test]
    fn fleet_synthesis_labels_match_episode_shares() {
        let cfg = FleetConfig {
            samples_per_node: 400,
            temporal: TemporalMode::Episodes,
            ..FleetConfig::taurus_haswell_scaled(24)
        };
        let run = FleetSim::new(cfg.clone()).run();
        let trace = Trace::from_fleet(&cfg, &run.samples);
        assert!(trace.is_labeled());
        let targets = trace.targets();
        let labels = targets.labels.unwrap();
        // The replayed labels must reproduce the run's own per-state
        // tick accounting exactly: compare against EpisodeStats
        // shares (same walks, same tick streams, same division).
        let stats = run.episodes.unwrap();
        for (i, name) in stats.states.iter().enumerate() {
            let li = labels.states.iter().position(|s| s == name);
            let got = li.map(|j| labels.shares[j]).unwrap_or(0.0);
            assert_eq!(
                got.to_bits(),
                stats.empirical_shares[i].to_bits(),
                "{name}: trace share {got} != walk share {}",
                stats.empirical_shares[i]
            );
        }
        // And the pooled autocorrelation is the same estimator over the
        // same streams.
        assert_eq!(
            targets.lag1_autocorr.to_bits(),
            stats.lag1_autocorr.to_bits()
        );
    }
}
