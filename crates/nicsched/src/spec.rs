//! Policy specs: the closed set of shipped policies and their grammar.
//!
//! A textual spec selects one of the policies this crate ships, with
//! parameters:
//!
//! ```text
//! spec     := key [ ':' param (',' param)* ]
//! param    := ident '=' value | value      // bare values extend the
//! value    := ident | integer | duration   // previous key's list
//! duration := integer ('ns'|'us'|'ms'|'s')
//! ```
//!
//! Examples: `"fcfs"`, `"srpt"`, `"edf:deadline=50us"`, `"wfq:w=4,1,1"`
//! (the bare `1,1` segments extend `w`'s value to the list `4,1,1`).
//!
//! [`PolicySpec`] is the parsed form: a `Copy` value that owns its
//! parameters, so system configs stay `Copy`/`Eq` while naming a
//! parameterized policy, and building the policy cannot fail.

use std::fmt;
use std::str::FromStr;

use sim_core::SimDuration;

use crate::disciplines::{Dfcfs, Edf, Srpt, WeightedFair};
use crate::policy::{ClassPriority, Fcfs, SchedPolicy, ShortestRemaining};

/// A policy spec failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyError(String);

impl PolicyError {
    fn new(msg: impl Into<String>) -> PolicyError {
        PolicyError(msg.into())
    }
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "policy spec error: {}", self.0)
    }
}

impl std::error::Error for PolicyError {}

/// The parsed `k=v` parameter bag of one spec.
///
/// Values are lists so the grammar's bare-value continuation works:
/// `wfq:w=4,1,1` parses to `w -> ["4", "1", "1"]`.
struct PolicyParams<'a> {
    entries: Vec<(&'a str, Vec<&'a str>)>,
}

impl<'a> PolicyParams<'a> {
    /// Parse the parameter section of a spec (everything after the first
    /// `:`), or an empty bag from an empty string.
    fn parse(s: &'a str) -> Result<PolicyParams<'a>, PolicyError> {
        let mut entries: Vec<(&str, Vec<&str>)> = Vec::new();
        if s.is_empty() {
            return Ok(PolicyParams { entries });
        }
        for seg in s.split(',') {
            let seg = seg.trim();
            if seg.is_empty() {
                return Err(PolicyError::new("empty parameter segment"));
            }
            match seg.split_once('=') {
                Some((k, v)) => {
                    let k = k.trim();
                    if k.is_empty() {
                        return Err(PolicyError::new(format!("missing key in `{seg}`")));
                    }
                    if entries.iter().any(|(ek, _)| *ek == k) {
                        return Err(PolicyError::new(format!("duplicate key `{k}`")));
                    }
                    entries.push((k, vec![v.trim()]));
                }
                None => match entries.last_mut() {
                    // Bare value: continuation of the previous key's list.
                    Some((_, vs)) => vs.push(seg),
                    None => {
                        return Err(PolicyError::new(format!(
                            "bare value `{seg}` with no preceding key"
                        )))
                    }
                },
            }
        }
        Ok(PolicyParams { entries })
    }

    /// Reject any key outside `allowed` — typo'd parameters fail loudly
    /// instead of silently falling back to defaults.
    fn expect_keys(&self, policy: &str, allowed: &[&str]) -> Result<(), PolicyError> {
        for (k, _) in &self.entries {
            if !allowed.contains(k) {
                let allowed = if allowed.is_empty() {
                    "none".to_string()
                } else {
                    allowed.join(", ")
                };
                return Err(PolicyError::new(format!(
                    "unknown key `{k}` for `{policy}` (allowed: {allowed})"
                )));
            }
        }
        Ok(())
    }

    fn values(&self, key: &str) -> Option<&[&'a str]> {
        self.entries
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, vs)| vs.as_slice())
    }

    fn single(&self, key: &str) -> Result<Option<&'a str>, PolicyError> {
        match self.values(key) {
            None => Ok(None),
            Some([v]) => Ok(Some(v)),
            Some(vs) => Err(PolicyError::new(format!(
                "`{key}` takes one value, got {}",
                vs.len()
            ))),
        }
    }

    /// Integer parameter with a default.
    fn get_u64(&self, key: &str, default: u64) -> Result<u64, PolicyError> {
        match self.single(key)? {
            None => Ok(default),
            Some(v) => v
                .parse::<u64>()
                .map_err(|_| PolicyError::new(format!("`{key}={v}` is not an integer"))),
        }
    }

    /// Duration parameter (`50us`, `10ms`, …) with a default.
    fn get_duration(&self, key: &str, default: SimDuration) -> Result<SimDuration, PolicyError> {
        match self.single(key)? {
            None => Ok(default),
            Some(v) => parse_duration(v)
                .ok_or_else(|| PolicyError::new(format!("`{key}={v}` is not a duration"))),
        }
    }

    /// Integer-list parameter (`w=4,1,1`) with a default.
    fn get_u64_list(&self, key: &str, default: &[u64]) -> Result<Vec<u64>, PolicyError> {
        match self.values(key) {
            None => Ok(default.to_vec()),
            Some(vs) => vs
                .iter()
                .map(|v| {
                    v.parse::<u64>().map_err(|_| {
                        PolicyError::new(format!("`{key}` element `{v}` is not an integer"))
                    })
                })
                .collect(),
        }
    }
}

/// Parse an integer duration with an `ns`/`us`/`ms`/`s` suffix.
pub fn parse_duration(s: &str) -> Option<SimDuration> {
    let (digits, mult) = if let Some(d) = s.strip_suffix("ns") {
        (d, 1)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        return None;
    };
    let n: u64 = digits.parse().ok()?;
    Some(SimDuration::from_nanos(n.checked_mul(mult)?))
}

/// Format a duration in the largest unit that represents it exactly, the
/// inverse of [`parse_duration`] (`SimDuration::from_micros(50)` →
/// `"50us"`).
pub fn fmt_duration(d: SimDuration) -> String {
    let ns = d.as_nanos();
    if ns == 0 {
        "0ns".to_string()
    } else if ns % 1_000_000_000 == 0 {
        format!("{}s", ns / 1_000_000_000)
    } else if ns % 1_000_000 == 0 {
        format!("{}ms", ns / 1_000_000)
    } else if ns % 1_000 == 0 {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

const SRPT_GAIN: u64 = 8;
const SRPT_BOOST: u64 = 200;
const SRPT_FLOOR: SimDuration = SimDuration::from_micros(1);
const EDF_DEADLINE: SimDuration = SimDuration::from_micros(50);
const CLASS_CUTOFF: SimDuration = SimDuration::from_micros(10);
const WFQ_WEIGHTS: [u64; 2] = [1, 1];

/// The per-lane weights of a `wfq` spec: one to [`LaneWeights::MAX`]
/// lanes, each at least 1, stored inline so [`PolicySpec`] stays `Copy`. SuperNIC-style
/// per-tenant arbitration is the only shipped policy with a list
/// parameter, and this is its bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneWeights {
    len: u8,
    // Lanes past `len` stay zero, so derived equality is list equality.
    w: [u64; LaneWeights::MAX],
}

impl LaneWeights {
    /// Most lanes a `wfq` spec may weigh.
    pub const MAX: usize = 8;

    /// Weights for `weights.len()` lanes; an empty list, one longer than
    /// [`MAX`](LaneWeights::MAX), or a zero weight is an error.
    pub fn new(weights: &[u64]) -> Result<LaneWeights, PolicyError> {
        if weights.is_empty() {
            return Err(PolicyError::new("`w` needs at least one weight"));
        }
        if weights.contains(&0) {
            return Err(PolicyError::new("`w` weights must be >= 1"));
        }
        if weights.len() > LaneWeights::MAX {
            return Err(PolicyError::new(format!(
                "`w` takes at most {} weights, got {}",
                LaneWeights::MAX,
                weights.len()
            )));
        }
        let mut w = [0; LaneWeights::MAX];
        w[..weights.len()].copy_from_slice(weights);
        Ok(LaneWeights {
            len: weights.len() as u8,
            w,
        })
    }

    /// The weights, one per lane.
    pub fn as_slice(&self) -> &[u64] {
        &self.w[..self.len as usize]
    }
}

/// One shipped scheduling policy with its parameters — the value system
/// configs carry instead of a policy object.
///
/// [`parse`](PolicySpec::parse) reads the spec grammar; [`Display`]
/// writes the one canonical spelling, leaving out parameters at their
/// defaults except where the label names the policy's operating point
/// (`edf`'s deadline, `class-priority`'s cutoff, `wfq`'s weights), so
/// `"srpt:gain=8"` prints as `srpt` and `parse(&spec.to_string())`
/// returns `spec`.
///
/// [`Display`]: fmt::Display
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicySpec {
    /// Single FIFO, tail re-enqueue (the paper's policy).
    Fcfs,
    /// Centralized FCFS: shared FIFO, any worker. The same queue as
    /// [`Fcfs`](PolicySpec::Fcfs), under carvalhof's discipline name.
    Cfcfs,
    /// Distributed FCFS: RSS-hashed per-worker FIFOs.
    Dfcfs,
    /// Shortest-remaining-first on wire-carried sizes.
    Srf,
    /// SRPT on feedback-learned sizes.
    Srpt {
        /// EWMA gain divisor (`gain`, default 8, at least 1).
        gain: u64,
        /// Slice budget as a percentage of the estimate (`boost`, default 200).
        boost: u64,
        /// Smallest budget granted (`floor`, default 1 µs).
        floor: SimDuration,
    },
    /// Earliest-deadline-first.
    Edf {
        /// Relative deadline (`deadline`, default 50 µs).
        deadline: SimDuration,
        /// Extra slack per unit of service (`stretch`, default 0).
        stretch: u64,
    },
    /// Two-class priority by service cutoff.
    ClassPriority {
        /// Requests at or below this service are the priority class
        /// (`cutoff`, default 10 µs).
        cutoff: SimDuration,
    },
    /// Weighted-fair queueing over tenant lanes.
    Wfq {
        /// One weight per lane (`w`, default `1,1`).
        weights: LaneWeights,
    },
}

impl PolicySpec {
    /// The paper's default policy.
    pub const FCFS: PolicySpec = PolicySpec::Fcfs;

    /// Every policy name the grammar accepts.
    pub const NAMES: [&'static str; 8] = [
        "fcfs",
        "cfcfs",
        "dfcfs",
        "srf",
        "srpt",
        "edf",
        "class-priority",
        "wfq",
    ];

    /// Parse a spec (`key[:k=v,...]`); unknown policies, unknown keys and
    /// malformed values are errors.
    pub fn parse(s: &str) -> Result<PolicySpec, PolicyError> {
        let s = s.trim();
        let (key, rest) = match s.split_once(':') {
            Some((k, r)) => (k.trim(), r),
            None => (s, ""),
        };
        if key.is_empty() {
            return Err(PolicyError::new("empty policy name"));
        }
        let p = PolicyParams::parse(rest)?;
        let spec = match key {
            "fcfs" => PolicySpec::Fcfs,
            "cfcfs" => PolicySpec::Cfcfs,
            "dfcfs" => PolicySpec::Dfcfs,
            "srf" => PolicySpec::Srf,
            "srpt" => {
                let gain = p.get_u64("gain", SRPT_GAIN)?;
                if gain == 0 {
                    return Err(PolicyError::new("`gain` must be >= 1"));
                }
                PolicySpec::Srpt {
                    gain,
                    boost: p.get_u64("boost", SRPT_BOOST)?,
                    floor: p.get_duration("floor", SRPT_FLOOR)?,
                }
            }
            "edf" => PolicySpec::Edf {
                deadline: p.get_duration("deadline", EDF_DEADLINE)?,
                stretch: p.get_u64("stretch", 0)?,
            },
            "class-priority" => PolicySpec::ClassPriority {
                cutoff: p.get_duration("cutoff", CLASS_CUTOFF)?,
            },
            "wfq" => PolicySpec::Wfq {
                weights: LaneWeights::new(&p.get_u64_list("w", &WFQ_WEIGHTS)?)?,
            },
            _ => {
                return Err(PolicyError::new(format!(
                    "unknown policy `{key}` (known: {})",
                    PolicySpec::NAMES.join(", ")
                )))
            }
        };
        p.expect_keys(key, spec.row().1)?;
        Ok(spec)
    }

    /// The policy's name in the grammar (an entry of
    /// [`NAMES`](PolicySpec::NAMES)).
    pub fn name(&self) -> &'static str {
        self.row().0
    }

    /// The policy's name and the parameter keys it accepts.
    fn row(&self) -> (&'static str, &'static [&'static str]) {
        match self {
            PolicySpec::Fcfs => ("fcfs", &[]),
            PolicySpec::Cfcfs => ("cfcfs", &[]),
            PolicySpec::Dfcfs => ("dfcfs", &[]),
            PolicySpec::Srf => ("srf", &[]),
            PolicySpec::Srpt { .. } => ("srpt", &["gain", "boost", "floor"]),
            PolicySpec::Edf { .. } => ("edf", &["deadline", "stretch"]),
            PolicySpec::ClassPriority { .. } => ("class-priority", &["cutoff"]),
            PolicySpec::Wfq { .. } => ("wfq", &["w"]),
        }
    }

    /// Build the policy.
    pub fn build(&self) -> Box<dyn SchedPolicy> {
        match *self {
            // cFCFS is FCFS's queue under the discipline-split name.
            PolicySpec::Fcfs | PolicySpec::Cfcfs => Box::new(Fcfs::new()),
            PolicySpec::Dfcfs => Box::new(Dfcfs::new()),
            PolicySpec::Srf => Box::new(ShortestRemaining::new()),
            PolicySpec::Srpt { gain, boost, floor } => {
                Box::new(Srpt::with_params(gain, boost, floor))
            }
            PolicySpec::Edf { deadline, stretch } => Box::new(Edf::with_stretch(deadline, stretch)),
            PolicySpec::ClassPriority { cutoff } => Box::new(ClassPriority::new(cutoff)),
            PolicySpec::Wfq { weights } => Box::new(WeightedFair::new(weights.as_slice().to_vec())),
        }
    }
}

impl Default for PolicySpec {
    fn default() -> Self {
        PolicySpec::FCFS
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())?;
        match *self {
            PolicySpec::Fcfs | PolicySpec::Cfcfs | PolicySpec::Dfcfs | PolicySpec::Srf => Ok(()),
            PolicySpec::Srpt { gain, boost, floor } => {
                let mut params = Vec::new();
                if gain != SRPT_GAIN {
                    params.push(format!("gain={gain}"));
                }
                if boost != SRPT_BOOST {
                    params.push(format!("boost={boost}"));
                }
                if floor != SRPT_FLOOR {
                    params.push(format!("floor={}", fmt_duration(floor)));
                }
                if !params.is_empty() {
                    write!(f, ":{}", params.join(","))?;
                }
                Ok(())
            }
            PolicySpec::Edf { deadline, stretch } => {
                write!(f, ":deadline={}", fmt_duration(deadline))?;
                if stretch != 0 {
                    write!(f, ",stretch={stretch}")?;
                }
                Ok(())
            }
            PolicySpec::ClassPriority { cutoff } => {
                write!(f, ":cutoff={}", fmt_duration(cutoff))
            }
            PolicySpec::Wfq { weights } => {
                let ws: Vec<String> = weights.as_slice().iter().map(u64::to_string).collect();
                write!(f, ":w={}", ws.join(","))
            }
        }
    }
}

impl FromStr for PolicySpec {
    type Err = PolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PolicySpec::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sim_core::SimTime;

    #[test]
    fn grammar_round_trips_the_examples() {
        for spec in [
            "fcfs",
            "cfcfs",
            "dfcfs",
            "srf",
            "srpt",
            "edf:deadline=50us",
            "wfq:w=4,1,1",
            "class-priority:cutoff=10us",
        ] {
            let p = PolicySpec::parse(spec).expect(spec);
            assert_eq!(p.to_string(), spec, "canonical spellings print as given");
        }
    }

    #[test]
    fn defaults_elide_and_operating_points_print() {
        let canon = |s: &str| PolicySpec::parse(s).unwrap().to_string();
        assert_eq!(canon("srpt:gain=8,boost=200,floor=1us"), "srpt");
        assert_eq!(canon("srpt:floor=1000ns,gain=4"), "srpt:gain=4");
        assert_eq!(canon("edf"), "edf:deadline=50us");
        assert_eq!(canon("edf:stretch=0,deadline=50000ns"), "edf:deadline=50us");
        assert_eq!(canon("edf:stretch=2"), "edf:deadline=50us,stretch=2");
        assert_eq!(canon("class-priority"), "class-priority:cutoff=10us");
        assert_eq!(canon("wfq"), "wfq:w=1,1");
        assert_eq!(canon(" fcfs "), "fcfs");
    }

    #[test]
    fn bare_values_extend_the_previous_key() {
        let p = PolicyParams::parse("w=4,1,1").unwrap();
        assert_eq!(p.get_u64_list("w", &[]).unwrap(), vec![4, 1, 1]);
        let wfq = PolicySpec::parse("wfq:w=4,1,1").unwrap();
        let PolicySpec::Wfq { weights } = wfq else {
            panic!("{wfq:?}")
        };
        assert_eq!(weights.as_slice(), &[4, 1, 1]);
    }

    #[test]
    fn unknown_policy_and_keys_are_rejected() {
        for (spec, why) in [
            ("zygos", "unknown policy"),
            ("fcfs:x=1", "fcfs takes no params"),
            ("edf:deadlnie=50us", "typo'd key"),
            ("srpt:gain=banana", "non-integer"),
            ("srpt:gain=0", "zero gain"),
            ("edf:deadline=50", "missing unit"),
            ("edf:deadline=oops", "not a duration"),
            ("edf:deadline=18446744073709552s", "duration overflows"),
            ("", "empty spec"),
            ("wfq:1,2", "bare value without a key"),
            ("srpt:gain=4,gain=4", "duplicate key"),
            ("srpt:gain=4,5", "list for a single-valued key"),
            ("wfq:w=0,1", "zero weight"),
        ] {
            assert!(PolicySpec::parse(spec).is_err(), "{why}: `{spec}`");
        }
    }

    #[test]
    fn wfq_takes_at_most_eight_lanes() {
        let eight = PolicySpec::parse("wfq:w=1,2,3,4,5,6,7,8").unwrap();
        assert_eq!(eight.to_string(), "wfq:w=1,2,3,4,5,6,7,8");
        let err = PolicySpec::parse("wfq:w=1,2,3,4,5,6,7,8,9").unwrap_err();
        assert!(err.to_string().contains("at most 8"), "{err}");
    }

    #[test]
    fn every_name_parses_to_itself() {
        for name in PolicySpec::NAMES {
            assert_eq!(PolicySpec::parse(name).unwrap().name(), name);
        }
    }

    #[test]
    fn durations_parse_and_format() {
        assert_eq!(parse_duration("50us"), Some(SimDuration::from_micros(50)));
        assert_eq!(parse_duration("10ms"), Some(SimDuration::from_millis(10)));
        assert_eq!(
            parse_duration("3s"),
            Some(SimDuration::from_nanos(3_000_000_000))
        );
        assert_eq!(parse_duration("250ns"), Some(SimDuration::from_nanos(250)));
        assert_eq!(parse_duration("50"), None);
        assert_eq!(parse_duration("-1us"), None);
        for d in [
            SimDuration::from_nanos(250),
            SimDuration::from_micros(50),
            SimDuration::from_millis(10),
            SimDuration::from_nanos(3_000_000_000),
            SimDuration::ZERO,
        ] {
            assert_eq!(parse_duration(&fmt_duration(d)), Some(d), "{d:?}");
        }
    }

    #[test]
    fn spec_is_copy_and_builds() {
        let spec: PolicySpec = "edf:deadline=25us".parse().unwrap();
        let copy = spec; // Copy, no clone needed
        assert_eq!(spec, copy);
        assert_eq!(
            spec,
            PolicySpec::Edf {
                deadline: SimDuration::from_micros(25),
                stretch: 0
            }
        );
        assert_eq!(spec.to_string(), "edf:deadline=25us");
        let mut p = copy.build();
        p.enqueue(
            SimTime::ZERO,
            crate::Task::new(
                1,
                0,
                SimDuration::from_micros(5),
                SimTime::ZERO,
                SimTime::ZERO,
                0,
            ),
        );
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn default_spec_is_the_papers_policy() {
        assert_eq!(PolicySpec::default(), PolicySpec::FCFS);
        assert_eq!(PolicySpec::default().to_string(), "fcfs");
    }

    #[test]
    fn equal_specs_compare_equal_across_spellings() {
        let a = PolicySpec::parse("wfq:w=2,1").unwrap();
        let b = PolicySpec::parse("wfq: w=2, 1").unwrap();
        assert_eq!(a, b);
        assert_ne!(a, PolicySpec::parse("wfq:w=2,1,1").unwrap());
    }

    /// Characters the grammar gives meaning to, plus digits, letters of
    /// every key and unit, whitespace and a multi-byte character.
    const ALPHABET: &[char] = &[
        'f', 'c', 's', 'd', 'r', 'p', 't', 'e', 'l', 'a', 'i', 'o', 'y', 'w', 'q', 'g', 'n', 'b',
        'u', 'm', 'h', 'k', '-', ':', ',', '=', ' ', '0', '1', '2', '5', '9', '+', 'µ',
    ];

    const VALID: &[&str] = &[
        "fcfs",
        "cfcfs",
        "dfcfs",
        "srf",
        "srpt:gain=4,boost=150,floor=2us",
        "edf:deadline=50us,stretch=3",
        "class-priority:cutoff=10ms",
        "wfq:w=4,1,1",
    ];

    fn text(picks: &[u8]) -> String {
        picks
            .iter()
            .map(|&i| ALPHABET[i as usize % ALPHABET.len()])
            .collect()
    }

    /// Apply one edit per `(op, pos, ch)` triple to `base`, at char
    /// boundaries: insert, delete, replace or truncate.
    fn mutate(base: &str, edits: &[(u8, u8, u8)]) -> String {
        let mut chars: Vec<char> = base.chars().collect();
        for &(op, pos, ch) in edits {
            let at = pos as usize % (chars.len() + 1);
            let c = ALPHABET[ch as usize % ALPHABET.len()];
            match op % 4 {
                0 => chars.insert(at, c),
                1 if at < chars.len() => {
                    chars.remove(at);
                }
                2 if at < chars.len() => chars[at] = c,
                3 => chars.truncate(at),
                _ => {}
            }
        }
        chars.into_iter().collect()
    }

    /// Values at and around the defaults (gain 8, boost 200, stretch 0)
    /// as often as arbitrary ones.
    fn small_or_any() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..10, 195u64..205, any::<u64>()]
    }

    /// Whole units (printed as `us`, `ms`, `s`) as often as arbitrary
    /// nanoseconds.
    fn duration() -> impl Strategy<Value = SimDuration> {
        prop_oneof![
            (0u64..100, 0usize..4).prop_map(|(n, unit)| {
                SimDuration::from_nanos(n * [1, 1_000, 1_000_000, 1_000_000_000][unit])
            }),
            any::<u64>().prop_map(SimDuration::from_nanos),
        ]
    }

    /// An accepted spec must print to a spelling that parses back to it.
    fn round_trips(s: &str) -> Result<(), TestCaseError> {
        if let Ok(spec) = PolicySpec::parse(s) {
            let printed = spec.to_string();
            prop_assert_eq!(
                PolicySpec::parse(&printed),
                Ok(spec),
                "`{}` -> `{}`",
                s,
                printed
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn parse_never_panics_on_arbitrary_text(
            picks in proptest::collection::vec(any::<u8>(), 0..40),
        ) {
            round_trips(&text(&picks))?;
        }

        #[test]
        fn parse_never_panics_on_mutated_valid_specs(
            which in 0usize..8,
            edits in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..4),
        ) {
            round_trips(&mutate(VALID[which], &edits))?;
        }

        #[test]
        fn every_parameter_value_round_trips(
            gain in small_or_any(),
            boost in small_or_any(),
            stretch in small_or_any(),
            d in duration(),
            lanes in proptest::collection::vec(small_or_any(), 1..9),
        ) {
            // A zero weight is rejected, by the grammar and the type alike.
            let listed: Vec<String> = lanes.iter().map(u64::to_string).collect();
            let wfq = PolicySpec::parse(&format!("wfq:w={}", listed.join(",")));
            let weights = LaneWeights::new(&lanes);
            prop_assert_eq!(lanes.contains(&0), wfq.is_err());
            prop_assert_eq!(lanes.contains(&0), weights.is_err());
            for spec in [
                PolicySpec::Fcfs,
                PolicySpec::Cfcfs,
                PolicySpec::Dfcfs,
                PolicySpec::Srf,
                PolicySpec::Srpt { gain: gain.max(1), boost, floor: d },
                PolicySpec::Edf { deadline: d, stretch },
                PolicySpec::ClassPriority { cutoff: d },
            ]
            .into_iter()
            .chain(weights.map(|weights| PolicySpec::Wfq { weights }))
            {
                prop_assert_eq!(PolicySpec::parse(&spec.to_string()), Ok(spec));
            }
        }
    }
}
