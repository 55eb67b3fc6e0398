//! Tenant and fleet specifications, plus the `--tenants FILE.toml`
//! loader.
//!
//! The workspace deliberately vendors no TOML crate, so the loader
//! implements the small declarative subset the tenant files need: one
//! optional `[fleet]` table, one `[[tenant]]` array-of-tables entry per
//! tenant, and scalar `key = value` pairs (quoted strings, integers,
//! floats, booleans, `#` comments). Anything outside that subset is a
//! parse error with a line number — silently ignoring unknown keys
//! would let a typo'd SLO slip through a capacity plan.

use scheduler::{OverloadPolicy, SchedConfig};
use updlrm_core::{PartitionStrategy, Ps, MAX_WHOLE_NS};
use workloads::{ArrivalProcess, DatasetSpec};

/// How the shared fleet arbitrates between tenants' formed batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Arbitration {
    /// Weighted deficit round robin: each visit credits a tenant
    /// `quantum_ns x weight` of fleet time and serves its ready
    /// batches while the deficit covers them. Bounds how long a bursty
    /// tenant can monopolize the fleet ahead of a steady one.
    #[default]
    Drr,
    /// First-come-first-served on batch ready time (ties broken by
    /// tenant index). No isolation: a backlogged tenant's batches all
    /// queue ahead of later-ready victims — the noisy-neighbor
    /// baseline the bench gates against.
    Fcfs,
}

impl Arbitration {
    /// CLI/TOML spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Arbitration::Drr => "drr",
            Arbitration::Fcfs => "fcfs",
        }
    }
}

impl std::str::FromStr for Arbitration {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "drr" => Ok(Arbitration::Drr),
            "fcfs" => Ok(Arbitration::Fcfs),
            other => Err(format!(
                "unknown arbitration '{other}' (expected 'drr' or 'fcfs')"
            )),
        }
    }
}

impl std::fmt::Display for Arbitration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Shared-fleet parameters (`[fleet]` in the tenants file).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// DPUs in the shared fleet; every tenant's engine partitions its
    /// tables across all of them.
    pub fleet_dpus: usize,
    /// Base DRR quantum in ns of modeled fleet time; tenant `i`'s
    /// per-visit credit is `quantum_ns x weight_i`. Ignored under
    /// [`Arbitration::Fcfs`].
    pub quantum_ns: u64,
    /// Arbitration discipline for the shared fleet.
    pub arbitration: Arbitration,
    /// Rotate each tenant's DPU origin by [`placement::interleaved_offsets`]
    /// so tenants' hot partitions land on different physical DPUs.
    pub interleave: bool,
    /// Record per-engine and fleet telemetry (needed for the per-DPU
    /// aggregate imbalance in the report).
    pub telemetry: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            fleet_dpus: 64,
            quantum_ns: 200_000, // 200 us
            arbitration: Arbitration::Drr,
            interleave: true,
            telemetry: true,
        }
    }
}

impl FleetConfig {
    /// Checks the parameters for internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.fleet_dpus == 0 {
            return Err("fleet dpus must be >= 1".into());
        }
        if self.quantum_ns == 0 {
            return Err("quantum must be >= 1 ns".into());
        }
        Ok(())
    }
}

/// The arrival process family a tenant uses (shape parameters live on
/// [`TenantSpec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArrivalKind {
    /// Exponential inter-arrivals at the configured mean rate.
    #[default]
    Poisson,
    /// Two-state MMPP bursts (`burst_factor`, `burst_fraction`).
    Bursty,
}

impl std::str::FromStr for ArrivalKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "poisson" => Ok(ArrivalKind::Poisson),
            "bursty" => Ok(ArrivalKind::Bursty),
            other => Err(format!(
                "unknown arrival '{other}' (expected 'poisson' or 'bursty')"
            )),
        }
    }
}

/// One tenant: its catalog, traffic, batching policy and SLO
/// (`[[tenant]]` in the tenants file).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Unique tenant name (report/snapshot key).
    pub name: String,
    /// Arbitration weight — the tenant's configured fleet share is
    /// `weight / sum(weights)`.
    pub weight: f64,
    /// p99 latency SLO in microseconds; `0` means no SLO.
    pub slo_p99_us: f64,
    /// Mean offered rate, requests per second.
    pub qps: f64,
    /// Arrival process family.
    pub arrival: ArrivalKind,
    /// MMPP burst rate multiplier (bursty only).
    pub burst_factor: f64,
    /// Fraction of modeled time spent bursting (bursty only).
    pub burst_fraction: f64,
    /// Seed for the trace and arrival draws (tables derive from it).
    pub seed: u64,
    /// Dataset short tag ([`DatasetSpec::by_short_tag`]).
    pub dataset: String,
    /// `scaled_down` factor applied to the dataset.
    pub scale: usize,
    /// Embedding tables in the tenant's model.
    pub num_tables: usize,
    /// Pre-formed 64-query batches in the trace.
    pub num_batches: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Dynamic batcher's maximum batch size.
    pub max_batch: usize,
    /// Oldest-query wait deadline, microseconds.
    pub max_wait_us: u64,
    /// Admission-queue capacity.
    pub queue_cap: usize,
    /// Overload policy when the admission queue is full.
    pub policy: OverloadPolicy,
    /// Table partitioning strategy for the tenant's engine.
    pub strategy: PartitionStrategy,
    /// EMT storage dtype for the tenant's engine.
    pub dtype: dlrm_model::EmbedDtype,
}

impl Default for TenantSpec {
    fn default() -> Self {
        TenantSpec {
            name: String::new(),
            weight: 1.0,
            slo_p99_us: 0.0,
            qps: 200_000.0,
            arrival: ArrivalKind::Poisson,
            burst_factor: 4.0,
            burst_fraction: 0.2,
            seed: 7,
            dataset: "read".into(),
            scale: 5000,
            num_tables: 2,
            num_batches: 8,
            dim: 32,
            max_batch: 32,
            max_wait_us: 200,
            queue_cap: 256,
            policy: OverloadPolicy::ShedOldest,
            strategy: PartitionStrategy::NonUniform,
            dtype: dlrm_model::EmbedDtype::F32,
        }
    }
}

impl TenantSpec {
    /// The tenant's arrival process.
    pub fn arrival_process(&self) -> ArrivalProcess {
        match self.arrival {
            ArrivalKind::Poisson => ArrivalProcess::poisson(self.qps, self.seed),
            ArrivalKind::Bursty => ArrivalProcess::Bursty {
                qps: self.qps,
                burst_factor: self.burst_factor,
                burst_fraction: self.burst_fraction,
                seed: self.seed,
            },
        }
    }

    /// The tenant's batcher/admission configuration.
    pub fn sched_config(&self) -> SchedConfig {
        SchedConfig {
            max_batch_size: self.max_batch,
            max_wait_ns: self.max_wait_us.saturating_mul(1_000),
            queue_cap: self.queue_cap,
            policy: self.policy,
        }
    }

    /// The tenant's dataset spec, scaled.
    pub fn dataset_spec(&self) -> Result<DatasetSpec, String> {
        let spec = DatasetSpec::by_short_tag(&self.dataset).ok_or_else(|| {
            format!(
                "tenant '{}': unknown dataset '{}' (expected one of \
                 clo, home, meta1, meta2, read, read2, movie, twitch)",
                self.name, self.dataset
            )
        })?;
        Ok(if self.scale > 1 {
            spec.scaled_down(self.scale)
        } else {
            spec
        })
    }

    /// Checks the parameters for internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        let t = &self.name;
        if t.is_empty() {
            return Err("tenant name must be nonempty".into());
        }
        if !(self.weight.is_finite() && self.weight > 0.0) {
            return Err(format!("tenant '{t}': weight must be finite and > 0"));
        }
        if !(self.qps.is_finite() && self.qps > 0.0) {
            return Err(format!("tenant '{t}': qps must be finite and > 0"));
        }
        if self.slo_p99_us < 0.0 || !self.slo_p99_us.is_finite() {
            return Err(format!("tenant '{t}': slo_p99_us must be finite and >= 0"));
        }
        if self.arrival == ArrivalKind::Bursty {
            if self.burst_factor <= 1.0 {
                return Err(format!("tenant '{t}': burst_factor must be > 1"));
            }
            if !(self.burst_fraction > 0.0 && self.burst_factor * self.burst_fraction < 1.0) {
                return Err(format!(
                    "tenant '{t}': need 0 < burst_fraction and \
                     burst_factor x burst_fraction < 1 (quiet rate must stay positive)"
                ));
            }
        }
        if self.dim == 0 || self.num_tables == 0 || self.num_batches == 0 {
            return Err(format!(
                "tenant '{t}': dim, tables and batches must all be >= 1"
            ));
        }
        self.dataset_spec()?;
        self.sched_config()
            .validate()
            .map_err(|e| format!("tenant '{t}': {e}"))?;
        Ok(())
    }
}

/// A parsed tenants file: the shared fleet plus one spec per tenant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TenantsFile {
    /// Shared-fleet parameters (defaults when `[fleet]` is absent).
    pub fleet: FleetConfig,
    /// Tenant specs in file order.
    pub tenants: Vec<TenantSpec>,
}

/// Strips a `#` comment, honoring double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_f64(v: &str, ln: usize, key: &str) -> Result<f64, String> {
    v.parse::<f64>()
        .map_err(|_| format!("line {ln}: {key} expects a number, got '{v}'"))
}

fn parse_u64(v: &str, ln: usize, key: &str) -> Result<u64, String> {
    v.parse::<u64>()
        .map_err(|_| format!("line {ln}: {key} expects a nonnegative integer, got '{v}'"))
}

/// The longest time, in whole µs, the picosecond modeled clock holds.
const MAX_US: u64 = MAX_WHOLE_NS / 1_000;

/// A whole number of µs that modeled time can hold.
fn parse_micros(v: &str, ln: usize, key: &str) -> Result<u64, String> {
    let us = parse_u64(v, ln, key)?;
    if us > MAX_US {
        return Err(format!(
            "line {ln}: {key} {us} is past the modeled clock's range (at most {MAX_US} us)"
        ));
    }
    Ok(us)
}

/// A time in (fractional) µs that modeled time can hold.
fn parse_f64_micros(v: &str, ln: usize, key: &str) -> Result<f64, String> {
    let us = parse_f64(v, ln, key)?;
    if Ps::checked_from_ns(us * 1e3).is_none() {
        return Err(format!(
            "line {ln}: {key} must be a finite, nonnegative time of at most {MAX_US} us, got {v}"
        ));
    }
    Ok(us)
}

fn parse_usize(v: &str, ln: usize, key: &str) -> Result<usize, String> {
    v.parse::<usize>()
        .map_err(|_| format!("line {ln}: {key} expects a nonnegative integer, got '{v}'"))
}

fn parse_bool(v: &str, ln: usize, key: &str) -> Result<bool, String> {
    match v {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(format!("line {ln}: {key} expects true or false, got '{v}'")),
    }
}

fn parse_quoted(v: &str, ln: usize, key: &str) -> Result<String, String> {
    let inner = v
        .strip_prefix('"')
        .and_then(|rest| rest.strip_suffix('"'))
        .ok_or_else(|| format!("line {ln}: {key} expects a quoted string, got {v}"))?;
    if inner.contains('"') {
        return Err(format!("line {ln}: {key} has an embedded quote"));
    }
    Ok(inner.to_string())
}

#[derive(PartialEq)]
enum Section {
    Top,
    Fleet,
    Tenant,
}

/// Parses a tenants TOML file (the subset described in the module
/// docs) and validates every spec.
///
/// # Errors
///
/// A message with the offending line number on syntax errors, unknown
/// sections/keys, and any [`TenantSpec::validate`] or
/// [`FleetConfig::validate`] failure.
pub fn parse_tenants_toml(text: &str) -> Result<TenantsFile, String> {
    let mut file = TenantsFile::default();
    let mut section = Section::Top;
    for (idx, raw) in text.lines().enumerate() {
        let ln = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        match line {
            "[fleet]" => {
                section = Section::Fleet;
                continue;
            }
            "[[tenant]]" => {
                let t = TenantSpec {
                    name: format!("tenant{}", file.tenants.len()),
                    ..Default::default()
                };
                file.tenants.push(t);
                section = Section::Tenant;
                continue;
            }
            _ if line.starts_with('[') => {
                return Err(format!(
                    "line {ln}: unknown section {line} (expected [fleet] or [[tenant]])"
                ));
            }
            _ => {}
        }
        let (key, val) = line
            .split_once('=')
            .ok_or_else(|| format!("line {ln}: expected key = value, got '{line}'"))?;
        let (key, val) = (key.trim(), val.trim());
        match section {
            Section::Top => {
                return Err(format!(
                    "line {ln}: '{key}' outside any section (start with [fleet] or [[tenant]])"
                ));
            }
            Section::Fleet => match key {
                "dpus" => file.fleet.fleet_dpus = parse_usize(val, ln, key)?,
                "quantum_us" => file.fleet.quantum_ns = parse_micros(val, ln, key)? * 1_000,
                "arbitration" => {
                    file.fleet.arbitration = parse_quoted(val, ln, key)?
                        .parse()
                        .map_err(|e| format!("line {ln}: {e}"))?
                }
                "interleave" => file.fleet.interleave = parse_bool(val, ln, key)?,
                "telemetry" => file.fleet.telemetry = parse_bool(val, ln, key)?,
                _ => return Err(format!("line {ln}: unknown [fleet] key '{key}'")),
            },
            Section::Tenant => {
                let t = file.tenants.last_mut().expect("tenant section is open");
                match key {
                    "name" => t.name = parse_quoted(val, ln, key)?,
                    "weight" => t.weight = parse_f64(val, ln, key)?,
                    "slo_p99_us" => t.slo_p99_us = parse_f64_micros(val, ln, key)?,
                    "qps" => t.qps = parse_f64(val, ln, key)?,
                    "arrival" => {
                        t.arrival = parse_quoted(val, ln, key)?
                            .parse()
                            .map_err(|e| format!("line {ln}: {e}"))?
                    }
                    "burst_factor" => t.burst_factor = parse_f64(val, ln, key)?,
                    "burst_fraction" => t.burst_fraction = parse_f64(val, ln, key)?,
                    "seed" => t.seed = parse_u64(val, ln, key)?,
                    "dataset" => t.dataset = parse_quoted(val, ln, key)?,
                    "scale" => t.scale = parse_usize(val, ln, key)?,
                    "tables" => t.num_tables = parse_usize(val, ln, key)?,
                    "batches" => t.num_batches = parse_usize(val, ln, key)?,
                    "dim" => t.dim = parse_usize(val, ln, key)?,
                    "max_batch" => t.max_batch = parse_usize(val, ln, key)?,
                    "max_wait_us" => t.max_wait_us = parse_micros(val, ln, key)?,
                    "queue_cap" => t.queue_cap = parse_usize(val, ln, key)?,
                    "policy" => {
                        t.policy = parse_quoted(val, ln, key)?
                            .parse()
                            .map_err(|e| format!("line {ln}: {e}"))?
                    }
                    "strategy" => {
                        t.strategy = parse_quoted(val, ln, key)?
                            .parse()
                            .map_err(|e| format!("line {ln}: {e}"))?
                    }
                    "dtype" => {
                        t.dtype = dlrm_model::EmbedDtype::parse(&parse_quoted(val, ln, key)?)
                            .map_err(|e| format!("line {ln}: {e}"))?
                    }
                    _ => return Err(format!("line {ln}: unknown [[tenant]] key '{key}'")),
                }
            }
        }
    }
    if file.tenants.is_empty() {
        return Err("tenants file declares no [[tenant]] sections".into());
    }
    file.fleet.validate()?;
    for t in &file.tenants {
        t.validate()?;
    }
    for (i, a) in file.tenants.iter().enumerate() {
        for b in &file.tenants[i + 1..] {
            if a.name == b.name {
                return Err(format!("duplicate tenant name '{}'", a.name));
            }
        }
    }
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"
# two tenants sharing a 32-DPU fleet
[fleet]
dpus = 32
quantum_us = 150          # per-visit credit at weight 1.0
arbitration = "drr"
interleave = true

[[tenant]]
name = "search"           # steady victim
qps = 250000.0
weight = 2.0
slo_p99_us = 900.0
dataset = "read"
strategy = "ca"
dtype = "int8"

[[tenant]]
name = "ads"
qps = 150000.0
arrival = "bursty"
burst_factor = 5.0
burst_fraction = 0.15
policy = "reject-new"
seed = 42
"#;

    #[test]
    fn parses_the_documented_example() {
        let f = parse_tenants_toml(EXAMPLE).unwrap();
        assert_eq!(f.fleet.fleet_dpus, 32);
        assert_eq!(f.fleet.quantum_ns, 150_000);
        assert_eq!(f.fleet.arbitration, Arbitration::Drr);
        assert!(f.fleet.interleave && f.fleet.telemetry);
        assert_eq!(f.tenants.len(), 2);
        let (s, a) = (&f.tenants[0], &f.tenants[1]);
        assert_eq!(s.name, "search");
        assert_eq!(s.weight, 2.0);
        assert_eq!(s.slo_p99_us, 900.0);
        assert_eq!(s.strategy, PartitionStrategy::CacheAware);
        assert_eq!(s.dtype, dlrm_model::EmbedDtype::Int8);
        assert_eq!(s.arrival, ArrivalKind::Poisson);
        assert_eq!(a.name, "ads");
        assert_eq!(a.arrival, ArrivalKind::Bursty);
        assert_eq!(a.burst_factor, 5.0);
        assert_eq!(a.policy, OverloadPolicy::RejectNew);
        assert_eq!(a.seed, 42);
        // Defaults fill everything unspecified.
        assert_eq!(a.max_batch, 32);
        assert_eq!(a.dim, 32);
    }

    #[test]
    fn default_names_and_fleet_apply_when_sections_are_minimal() {
        let f = parse_tenants_toml("[[tenant]]\nqps = 1000.0\n").unwrap();
        assert_eq!(f.tenants[0].name, "tenant0");
        assert_eq!(f.fleet, FleetConfig::default());
    }

    #[test]
    fn rejects_malformed_files_with_line_numbers() {
        for (text, needle) in [
            ("qps = 1.0\n", "outside any section"),
            ("[[tenant]]\nbogus = 1\n", "unknown [[tenant]] key 'bogus'"),
            ("[fleet]\nbogus = 1\n", "unknown [fleet] key 'bogus'"),
            ("[cluster]\n", "unknown section"),
            ("[[tenant]]\nname = unquoted\n", "quoted string"),
            ("[[tenant]]\nqps = \"fast\"\n", "expects a number"),
            ("[[tenant]]\ndataset = \"criteo\"\n", "unknown dataset"),
            ("[[tenant]]\nqps = -5.0\n", "qps must be"),
            ("", "no [[tenant]] sections"),
            (
                "[[tenant]]\nname = \"a\"\n[[tenant]]\nname = \"a\"\n",
                "duplicate tenant name",
            ),
            (
                "[[tenant]]\narrival = \"bursty\"\nburst_factor = 0.5\n",
                "burst_factor must be > 1",
            ),
            ("[fleet]\ndpus = 0\n[[tenant]]\n", "dpus must be >= 1"),
            // Times modeled time (a u64 of ps) cannot hold.
            (
                "[[tenant]]\nslo_p99_us = 1e300\n",
                "line 2: slo_p99_us must be",
            ),
            (
                "[[tenant]]\nslo_p99_us = -1.0\n",
                "line 2: slo_p99_us must be",
            ),
            (
                "[[tenant]]\nmax_wait_us = 18446744073710\n",
                "line 2: max_wait_us 18446744073710 is past",
            ),
            (
                "[fleet]\nquantum_us = 18446744073710\n",
                "line 2: quantum_us 18446744073710 is past",
            ),
        ] {
            let err = parse_tenants_toml(text).unwrap_err();
            assert!(err.contains(needle), "for {text:?}: got '{err}'");
        }
        // Error lines point at the offending line.
        let err = parse_tenants_toml("[fleet]\ndpus = 8\nbogus = 1\n").unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
    }

    #[test]
    fn comments_respect_quotes_and_strategy_tags_round_trip() {
        let f = parse_tenants_toml("[[tenant]]\nname = \"a#b\" # trailing\n").unwrap();
        assert_eq!(f.tenants[0].name, "a#b");
        // The loader reads the same strategy spellings as the CLI.
        for (tag, want) in [
            ("u", PartitionStrategy::Uniform),
            ("non-uniform", PartitionStrategy::NonUniform),
            ("ca", PartitionStrategy::CacheAware),
            ("replicated", PartitionStrategy::Replicated),
        ] {
            let toml = format!("[[tenant]]\nname = \"t\"\nstrategy = \"{tag}\"\n");
            assert_eq!(parse_tenants_toml(&toml).unwrap().tenants[0].strategy, want);
        }
        let err = parse_tenants_toml("[[tenant]]\nstrategy = \"zigzag\"\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
