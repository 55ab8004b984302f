//! The fleet-profile config file format.
//!
//! A [`FleetProfile`] is everything calibration fits: the idle-floor
//! share and dwell, and per job class a mix weight, episode dwell,
//! ramp, duty-cycle band and P-state set. It is the operator-facing
//! artifact — written by `--calibrate`, loadable by `--profile`,
//! attachable to `fs2-service` requests — and applies onto a
//! `FleetConfig` so a clone runs through the unmodified fleet
//! pipeline.
//!
//! The text format is line-based (`key = value` plus `[class NAME]`
//! sections). The writer is canonical — fixed key order, shortest
//! round-trip float formatting — so `load → write → load` is
//! byte-identical, and the parser rejects malformed input with typed
//! [`ProfileError`]s: unknown keys or classes, NaN, empty/inverted
//! duty bands, sub-tick dwells, non-stochastic weights.
//!
//! Class names are fixed to the five Taurus utilization classes of
//! `JobMix::taurus_haswell` so a profile can reuse their `&'static`
//! payload specs (`JobClass` requires `'static` strs); what calibration
//! actually fits — weight, dwell, duty band, P-state set — is free per
//! class.

use fs2_cluster::episodes::{EpisodeModel, TAURUS_HASWELL_FLOOR_SHARE};
use fs2_cluster::fleet::{FleetConfig, TemporalMode};
use fs2_cluster::jobs::{JobClass, JobMix};
use std::fmt;

/// Header line every profile file must start with.
pub const PROFILE_HEADER: &str = "# fs2 fleet profile v1";

/// The P-state sets a class may draw from (indices into the SKU
/// P-state tables: 0 = nominal, 2 = minimum). Calibration selects one
/// set per class; the text format stores the set itself.
pub const PSTATE_SETS: &[&[usize]] = &[&[0], &[1], &[2], &[0, 1], &[1, 2], &[0, 1, 2]];

/// One job class's fitted parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassProfile {
    pub name: &'static str,
    /// Engine payload spec (fixed per class name).
    pub spec: &'static str,
    /// Mix weight (fraction of non-floor node hours; need not be
    /// normalized, must be non-negative with a positive total).
    pub weight: f64,
    /// Mean episode dwell, 60 s ticks (>= 1).
    pub dwell_ticks: f64,
    /// Ramp-in length, ticks.
    pub ramp_ticks: u32,
    /// Duty-cycle band `[lo, hi)` within `[0, 1]`.
    pub duty: (f64, f64),
    /// Index into [`PSTATE_SETS`].
    pub pstate_set: usize,
}

/// A complete fleet profile: the calibrated clone of an installation.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetProfile {
    /// Operator-chosen profile name (single line, no `=`).
    pub name: String,
    /// Long-run fraction of node time on the bare idle floor, in
    /// (0, 1).
    pub floor_share: f64,
    /// Mean idle-floor episode dwell, ticks (>= 1).
    pub floor_dwell_ticks: f64,
    /// Per-class parameters, in mix order.
    pub classes: Vec<ClassProfile>,
}

/// A typed profile-format failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileError {
    /// The first line is not [`PROFILE_HEADER`].
    MissingHeader,
    /// A line is neither `key = value`, a `[class NAME]` section, a
    /// comment nor blank.
    BadLine { line: usize, text: String },
    /// A key that does not belong in its section.
    UnknownKey { line: usize, key: String },
    /// `[class NAME]` with a name outside the known class set.
    UnknownClass { line: usize, name: String },
    /// The same class declared twice.
    DuplicateClass { name: String },
    /// A required key never appeared in its section.
    MissingKey { section: String, key: &'static str },
    /// A value failed to parse, or parsed non-finite (NaN/inf).
    BadValue {
        line: usize,
        key: String,
        value: String,
    },
    /// A P-state set not present in [`PSTATE_SETS`].
    UnknownPstates { line: usize, value: String },
    /// A class's `pstate_set` index past the end of [`PSTATE_SETS`].
    BadPstateSet { class: String, index: usize },
    /// `floor_share` outside (0, 1).
    BadFloorShare { value: f64 },
    /// A dwell below one tick.
    BadDwell { section: String, value: f64 },
    /// A duty band that is empty, inverted, or outside [0, 1].
    BadDuty { class: String, lo: f64, hi: f64 },
    /// A negative class weight.
    BadWeight { class: String, value: f64 },
    /// All class weights are zero (nothing to schedule).
    NonStochastic,
    /// No `[class ...]` sections at all.
    NoClasses,
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::MissingHeader => {
                write!(f, "profile must start with {PROFILE_HEADER:?}")
            }
            ProfileError::BadLine { line, text } => {
                write!(f, "line {line}: unparseable line {text:?}")
            }
            ProfileError::UnknownKey { line, key } => {
                write!(f, "line {line}: unknown key {key:?}")
            }
            ProfileError::UnknownClass { line, name } => {
                write!(f, "line {line}: unknown class {name:?}")
            }
            ProfileError::DuplicateClass { name } => {
                write!(f, "class {name:?} declared twice")
            }
            ProfileError::MissingKey { section, key } => {
                write!(f, "{section}: missing key {key:?}")
            }
            ProfileError::BadValue { line, key, value } => {
                write!(f, "line {line}: bad value {value:?} for {key:?}")
            }
            ProfileError::UnknownPstates { line, value } => {
                write!(f, "line {line}: P-state set {value:?} is not supported")
            }
            ProfileError::BadPstateSet { class, index } => {
                write!(f, "class {class}: P-state set index {index} out of range")
            }
            ProfileError::BadFloorShare { value } => {
                write!(f, "floor_share {value} outside (0, 1)")
            }
            ProfileError::BadDwell { section, value } => {
                write!(f, "{section}: dwell {value} below one tick")
            }
            ProfileError::BadDuty { class, lo, hi } => {
                write!(f, "class {class}: duty band [{lo}, {hi}) invalid")
            }
            ProfileError::BadWeight { class, value } => {
                write!(f, "class {class}: negative weight {value}")
            }
            ProfileError::NonStochastic => {
                write!(f, "class weights sum to zero")
            }
            ProfileError::NoClasses => write!(f, "profile declares no classes"),
        }
    }
}

impl std::error::Error for ProfileError {}

/// The `'static` name and payload spec of a Taurus job class.
fn class_spec(name: &str) -> Option<(&'static str, &'static str)> {
    JobMix::taurus_haswell()
        .classes()
        .iter()
        .find(|(c, _)| c.name == name)
        .map(|(c, _)| (c.name, c.spec))
}

impl FleetProfile {
    /// The hand-set Taurus Haswell profile the fleet has always used,
    /// read back from `JobMix::taurus_haswell` and
    /// `EpisodeModel::taurus_haswell`. Applying it reproduces the
    /// default episode fleet parameters exactly.
    pub fn taurus_haswell() -> FleetProfile {
        let mix = JobMix::taurus_haswell();
        let model = EpisodeModel::taurus_haswell(&mix);
        // Model state 0 is the floor; states 1.. are the mix classes.
        let classes = mix
            .classes()
            .iter()
            .zip(&model.mean_dwell_ticks()[1..])
            .zip(&model.ramp_ticks()[1..])
            .map(
                |(((class, weight), &dwell_ticks), &ramp_ticks)| ClassProfile {
                    name: class.name,
                    spec: class.spec,
                    weight: *weight,
                    dwell_ticks,
                    ramp_ticks,
                    duty: class.duty,
                    pstate_set: pstate_set_index(class.pstates)
                        .expect("Taurus P-state sets are known"),
                },
            )
            .collect();
        FleetProfile {
            name: "taurus-haswell".to_string(),
            floor_share: TAURUS_HASWELL_FLOOR_SHARE,
            floor_dwell_ticks: model.mean_dwell_ticks()[0],
            classes,
        }
    }

    /// The pinned exemplar profile (`tests/data/exemplar.profile`):
    /// moderate dwells and an even-ish mix, so every state
    /// accumulates enough observed runs in modest-sized traces for
    /// tight share/dwell statistics. The self-clone property suite,
    /// the bench fidelity section and the CI calibration smoke all
    /// fit against traces synthesized from this profile.
    pub fn exemplar() -> FleetProfile {
        let mut p = FleetProfile::taurus_haswell();
        p.name = "exemplar-v1".to_string();
        p.floor_share = 0.15;
        p.floor_dwell_ticks = 8.0;
        let dwell = [6.0, 10.0, 14.0, 20.0, 30.0];
        let ramp = [0u32, 1, 1, 2, 2];
        let weight = [0.25, 0.20, 0.20, 0.20, 0.15];
        for (i, c) in p.classes.iter_mut().enumerate() {
            c.dwell_ticks = dwell[i];
            c.ramp_ticks = ramp[i];
            c.weight = weight[i];
        }
        p
    }

    /// Validates the semantic invariants the fleet constructors assert
    /// (so `apply` can never panic on a loaded profile).
    pub fn validate(&self) -> Result<(), ProfileError> {
        if self.classes.is_empty() {
            return Err(ProfileError::NoClasses);
        }
        if !(self.floor_share.is_finite() && self.floor_share > 0.0 && self.floor_share < 1.0) {
            return Err(ProfileError::BadFloorShare {
                value: self.floor_share,
            });
        }
        if !(self.floor_dwell_ticks.is_finite() && self.floor_dwell_ticks >= 1.0) {
            return Err(ProfileError::BadDwell {
                section: "floor".to_string(),
                value: self.floor_dwell_ticks,
            });
        }
        let mut total = 0.0;
        for c in &self.classes {
            if !(c.dwell_ticks.is_finite() && c.dwell_ticks >= 1.0) {
                return Err(ProfileError::BadDwell {
                    section: format!("class {}", c.name),
                    value: c.dwell_ticks,
                });
            }
            let (lo, hi) = c.duty;
            if !(lo.is_finite() && hi.is_finite() && lo < hi && lo >= 0.0 && hi <= 1.0) {
                return Err(ProfileError::BadDuty {
                    class: c.name.to_string(),
                    lo,
                    hi,
                });
            }
            if !(c.weight.is_finite() && c.weight >= 0.0) {
                return Err(ProfileError::BadWeight {
                    class: c.name.to_string(),
                    value: c.weight,
                });
            }
            if c.pstate_set >= PSTATE_SETS.len() {
                return Err(ProfileError::BadPstateSet {
                    class: c.name.to_string(),
                    index: c.pstate_set,
                });
            }
            total += c.weight;
        }
        if total <= 0.0 {
            return Err(ProfileError::NonStochastic);
        }
        Ok(())
    }

    /// The job mix this profile describes. The profile must be valid
    /// (loaded profiles always are; hand-built ones should call
    /// [`FleetProfile::validate`] first).
    pub fn to_mix(&self) -> JobMix {
        JobMix::new(
            self.classes
                .iter()
                .map(|c| {
                    (
                        JobClass {
                            name: c.name,
                            spec: c.spec,
                            duty: c.duty,
                            pstates: PSTATE_SETS[c.pstate_set],
                        },
                        c.weight,
                    )
                })
                .collect(),
        )
    }

    /// The episode model this profile describes over `mix` (which must
    /// be [`FleetProfile::to_mix`]'s output).
    pub fn to_model(&self, mix: &JobMix) -> EpisodeModel {
        let dwell: Vec<f64> = self.classes.iter().map(|c| c.dwell_ticks).collect();
        let ramp: Vec<u32> = self.classes.iter().map(|c| c.ramp_ticks).collect();
        EpisodeModel::from_mix(mix, self.floor_share, self.floor_dwell_ticks, &dwell, &ramp)
    }

    /// Applies the profile onto a fleet configuration: replaces the
    /// mix and episode model and switches to episode sampling. Node
    /// groups, seeds, caps and budgets are left untouched.
    pub fn apply(&self, cfg: &mut FleetConfig) {
        let mix = self.to_mix();
        cfg.episodes = self.to_model(&mix);
        cfg.mix = mix;
        cfg.temporal = TemporalMode::Episodes;
    }

    /// Renders the canonical text form. Floats use shortest
    /// round-trip formatting, so `from_text(to_text(p)) == p` exactly
    /// and re-rendering a loaded profile is byte-identical.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(PROFILE_HEADER);
        out.push('\n');
        out.push_str(&format!("name = {}\n", self.name));
        out.push_str(&format!("floor_share = {}\n", self.floor_share));
        out.push_str(&format!("floor_dwell_ticks = {}\n", self.floor_dwell_ticks));
        for c in &self.classes {
            out.push('\n');
            out.push_str(&format!("[class {}]\n", c.name));
            out.push_str(&format!("weight = {}\n", c.weight));
            out.push_str(&format!("dwell_ticks = {}\n", c.dwell_ticks));
            out.push_str(&format!("ramp_ticks = {}\n", c.ramp_ticks));
            out.push_str(&format!("duty = {} {}\n", c.duty.0, c.duty.1));
            let set: Vec<String> = PSTATE_SETS[c.pstate_set]
                .iter()
                .map(|p| p.to_string())
                .collect();
            out.push_str(&format!("pstates = {}\n", set.join(" ")));
        }
        out
    }

    /// Parses the text form, validating every invariant `apply`
    /// relies on. See [`ProfileError`] for the rejection catalogue.
    pub fn from_text(text: &str) -> Result<FleetProfile, ProfileError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, first)) if first.trim() == PROFILE_HEADER => {}
            _ => return Err(ProfileError::MissingHeader),
        }
        let mut profile = FleetProfile {
            name: String::new(),
            floor_share: f64::NAN,
            floor_dwell_ticks: f64::NAN,
            classes: Vec::new(),
        };
        let mut have = TopSeen::default();
        // None = top section; Some(i) = classes[i].
        let mut section: Option<usize> = None;
        let mut class_seen: Vec<ClassSeen> = Vec::new();
        for (idx, raw) in lines {
            let line = idx + 1;
            let text = raw.trim();
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            if let Some(inner) = text.strip_prefix('[') {
                let inner = inner
                    .strip_suffix(']')
                    .ok_or_else(|| ProfileError::BadLine {
                        line,
                        text: text.to_string(),
                    })?
                    .trim();
                let name = inner
                    .strip_prefix("class ")
                    .ok_or_else(|| ProfileError::BadLine {
                        line,
                        text: text.to_string(),
                    })?
                    .trim();
                let (name, spec) = class_spec(name).ok_or_else(|| ProfileError::UnknownClass {
                    line,
                    name: name.to_string(),
                })?;
                if profile.classes.iter().any(|c| c.name == name) {
                    return Err(ProfileError::DuplicateClass {
                        name: name.to_string(),
                    });
                }
                profile.classes.push(ClassProfile {
                    name,
                    spec,
                    weight: f64::NAN,
                    dwell_ticks: f64::NAN,
                    ramp_ticks: 0,
                    duty: (f64::NAN, f64::NAN),
                    pstate_set: 0,
                });
                class_seen.push(ClassSeen::default());
                section = Some(profile.classes.len() - 1);
                continue;
            }
            let (key, value) = text.split_once('=').ok_or_else(|| ProfileError::BadLine {
                line,
                text: text.to_string(),
            })?;
            let key = key.trim();
            let value = value.trim();
            let bad = |k: &str, v: &str| ProfileError::BadValue {
                line,
                key: k.to_string(),
                value: v.to_string(),
            };
            match section {
                None => match key {
                    "name" => {
                        profile.name = value.to_string();
                        have.name = true;
                    }
                    "floor_share" => {
                        profile.floor_share = parse_f64(value).ok_or_else(|| bad(key, value))?;
                        have.floor_share = true;
                    }
                    "floor_dwell_ticks" => {
                        profile.floor_dwell_ticks =
                            parse_f64(value).ok_or_else(|| bad(key, value))?;
                        have.floor_dwell = true;
                    }
                    _ => {
                        return Err(ProfileError::UnknownKey {
                            line,
                            key: key.to_string(),
                        })
                    }
                },
                Some(i) => {
                    let c = &mut profile.classes[i];
                    let seen = &mut class_seen[i];
                    match key {
                        "weight" => {
                            c.weight = parse_f64(value).ok_or_else(|| bad(key, value))?;
                            seen.weight = true;
                        }
                        "dwell_ticks" => {
                            c.dwell_ticks = parse_f64(value).ok_or_else(|| bad(key, value))?;
                            seen.dwell = true;
                        }
                        "ramp_ticks" => {
                            c.ramp_ticks = value.parse::<u32>().map_err(|_| bad(key, value))?;
                            seen.ramp = true;
                        }
                        "duty" => {
                            let mut parts = value.split_whitespace();
                            let lo = parts
                                .next()
                                .and_then(parse_f64)
                                .ok_or_else(|| bad(key, value))?;
                            let hi = parts
                                .next()
                                .and_then(parse_f64)
                                .ok_or_else(|| bad(key, value))?;
                            if parts.next().is_some() {
                                return Err(bad(key, value));
                            }
                            c.duty = (lo, hi);
                            seen.duty = true;
                        }
                        "pstates" => {
                            let set: Option<Vec<usize>> = value
                                .split_whitespace()
                                .map(|p| p.parse::<usize>().ok())
                                .collect();
                            let set = set.ok_or_else(|| bad(key, value))?;
                            c.pstate_set = pstate_set_index(&set).ok_or_else(|| {
                                ProfileError::UnknownPstates {
                                    line,
                                    value: value.to_string(),
                                }
                            })?;
                            seen.pstates = true;
                        }
                        _ => {
                            return Err(ProfileError::UnknownKey {
                                line,
                                key: key.to_string(),
                            })
                        }
                    }
                }
            }
        }
        let top = "profile".to_string();
        let miss = |section: String, key: &'static str| ProfileError::MissingKey { section, key };
        if !have.name {
            return Err(miss(top, "name"));
        }
        if !have.floor_share {
            return Err(miss(top, "floor_share"));
        }
        if !have.floor_dwell {
            return Err(miss(top, "floor_dwell_ticks"));
        }
        for (c, seen) in profile.classes.iter().zip(&class_seen) {
            let sec = format!("class {}", c.name);
            if !seen.weight {
                return Err(miss(sec, "weight"));
            }
            if !seen.dwell {
                return Err(miss(sec, "dwell_ticks"));
            }
            if !seen.ramp {
                return Err(miss(sec, "ramp_ticks"));
            }
            if !seen.duty {
                return Err(miss(sec, "duty"));
            }
            if !seen.pstates {
                return Err(miss(sec, "pstates"));
            }
        }
        profile.validate()?;
        Ok(profile)
    }
}

#[derive(Default)]
struct TopSeen {
    name: bool,
    floor_share: bool,
    floor_dwell: bool,
}

#[derive(Default)]
struct ClassSeen {
    weight: bool,
    dwell: bool,
    ramp: bool,
    duty: bool,
    pstates: bool,
}

/// Finite-only float parsing: `NaN`/`inf` text is a format error, not
/// a smuggled value.
fn parse_f64(text: &str) -> Option<f64> {
    text.parse::<f64>().ok().filter(|v| v.is_finite())
}

/// Index of a P-state set within [`PSTATE_SETS`].
pub fn pstate_set_index(set: &[usize]) -> Option<usize> {
    PSTATE_SETS.iter().position(|s| *s == set)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_matches_hand_set_fleet() {
        let p = FleetProfile::taurus_haswell();
        p.validate().unwrap();
        let mix = p.to_mix();
        let want = JobMix::taurus_haswell();
        assert_eq!(mix.classes().len(), want.classes().len());
        for ((a, wa), (b, wb)) in mix.classes().iter().zip(want.classes()) {
            assert_eq!(a, b);
            assert_eq!(wa, wb);
        }
        let model = p.to_model(&mix);
        let want_model = EpisodeModel::taurus_haswell(&want);
        assert_eq!(model.state_names(), want_model.state_names());
        assert_eq!(model.mean_dwell_ticks(), want_model.mean_dwell_ticks());
        assert_eq!(model.ramp_ticks(), want_model.ramp_ticks());
        assert_eq!(model.transitions(), want_model.transitions());
    }

    #[test]
    fn text_round_trip_is_exact() {
        let p = FleetProfile::taurus_haswell();
        let text = p.to_text();
        let back = FleetProfile::from_text(&text).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.to_text(), text, "write → load → write must be stable");
    }

    #[test]
    fn apply_switches_config_to_the_profile() {
        let mut p = FleetProfile::taurus_haswell();
        p.floor_share = 0.25;
        p.classes[0].weight = 0.5;
        let mut cfg = FleetConfig::taurus_haswell_scaled(16);
        p.apply(&mut cfg);
        assert_eq!(cfg.temporal, TemporalMode::Episodes);
        assert!((cfg.episodes.stationary_time_shares()[0] - 0.25).abs() < 1e-12);
        assert_eq!(cfg.mix.classes()[0].1, 0.5);
    }

    #[test]
    fn rejections_are_typed() {
        let p = FleetProfile::taurus_haswell();
        let text = p.to_text();
        // No header.
        assert_eq!(
            FleetProfile::from_text("name = x\n"),
            Err(ProfileError::MissingHeader)
        );
        // Unknown key / class, bad lines.
        let with = |extra: &str| format!("{text}{extra}");
        assert!(matches!(
            FleetProfile::from_text(&with("wat = 1\n")),
            Err(ProfileError::UnknownKey { .. })
        ));
        assert!(matches!(
            FleetProfile::from_text(&with("[class warp]\n")),
            Err(ProfileError::UnknownClass { .. })
        ));
        assert!(matches!(
            FleetProfile::from_text(&with("[class idle]\n")),
            Err(ProfileError::DuplicateClass { .. })
        ));
        assert!(matches!(
            FleetProfile::from_text(&with("not a line\n")),
            Err(ProfileError::BadLine { .. })
        ));
        // NaN smuggling is a BadValue, not a parsed profile.
        let nan = text.replace("floor_share = 0.1", "floor_share = NaN");
        assert!(matches!(
            FleetProfile::from_text(&nan),
            Err(ProfileError::BadValue { .. })
        ));
        // Non-stochastic weights.
        let zeroed = text.replace("weight = 0.3\n", "weight = 0\n");
        let zeroed = zeroed.replace("weight = 0.25\n", "weight = 0\n");
        let zeroed = zeroed.replace("weight = 0.22\n", "weight = 0\n");
        let zeroed = zeroed.replace("weight = 0.2\n", "weight = 0\n");
        let zeroed = zeroed.replace("weight = 0.03\n", "weight = 0\n");
        assert_eq!(
            FleetProfile::from_text(&zeroed),
            Err(ProfileError::NonStochastic)
        );
        // Inverted duty band.
        let duty = text.replace("duty = 0.35 0.75", "duty = 0.75 0.35");
        assert!(matches!(
            FleetProfile::from_text(&duty),
            Err(ProfileError::BadDuty { .. })
        ));
        // Sub-tick dwell.
        let dwell = text.replace("dwell_ticks = 120", "dwell_ticks = 0.25");
        assert!(matches!(
            FleetProfile::from_text(&dwell),
            Err(ProfileError::BadDwell { .. })
        ));
        // Unsupported P-state set.
        let ps = text.replace("pstates = 1 2", "pstates = 2 0");
        assert!(matches!(
            FleetProfile::from_text(&ps),
            Err(ProfileError::UnknownPstates { .. })
        ));
        // Floor share at the boundary.
        let fs = text.replace("floor_share = 0.1", "floor_share = 1.0");
        assert_eq!(
            FleetProfile::from_text(&fs),
            Err(ProfileError::BadFloorShare { value: 1.0 })
        );
        // Missing keys: drop the name line.
        let headerless: String = text
            .lines()
            .filter(|l| !l.starts_with("name = "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(matches!(
            FleetProfile::from_text(&headerless),
            Err(ProfileError::MissingKey { key: "name", .. })
        ));
    }

    #[test]
    fn hand_built_pstate_set_out_of_range_is_a_typed_error() {
        // The text format cannot name such a set; a hand-built profile can.
        let mut p = FleetProfile::exemplar();
        p.classes[1].pstate_set = PSTATE_SETS.len();
        let err = p.validate().unwrap_err();
        assert_eq!(
            err,
            ProfileError::BadPstateSet {
                class: p.classes[1].name.to_string(),
                index: PSTATE_SETS.len(),
            }
        );
        assert!(err.to_string().contains("out of range"), "{err}");
    }
}
