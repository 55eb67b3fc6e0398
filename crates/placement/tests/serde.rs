//! Plan serialization contract (satellite 3, crate half): save → load
//! → save is byte-exact, and a plan written by a foreign schema
//! version is rejected with [`PlanError::SchemaVersion`] before any
//! field-level decoding — the CLI maps that error to exit 2.

use placement::{plan, Catalog, PlacementPlan, PlanError, PlannerConfig, PLAN_SCHEMA_VERSION};
use workloads::FreqProfile;

fn sample_plan() -> PlacementPlan {
    let catalog = Catalog::homogeneous(2, 300, 8);
    let profiles: Vec<FreqProfile> = (0..2)
        .map(|t| {
            let mut p = FreqProfile::new(310); // wider than the table
            for i in 0..310u64 {
                for _ in 0..(310 - i) / 3 {
                    p.record(i);
                }
            }
            for _ in 0..t {
                p.record(0);
            }
            p
        })
        .collect();
    let config = PlannerConfig {
        emt_capacity_bytes: 64 * 8 * 4,
        host_cache_bytes: 2 * 16 * 8 * 4,
        replicate_top: 16,
        ..PlannerConfig::default()
    };
    plan(&catalog, &profiles, &config).expect("sample plan builds")
}

#[test]
fn save_load_save_is_byte_exact() {
    let p = sample_plan();
    let first = p.to_json();
    let loaded = PlacementPlan::from_json(&first).expect("own output parses");
    assert_eq!(loaded, p, "load must be lossless");
    let second = loaded.to_json();
    assert_eq!(first, second, "save -> load -> save must be byte-exact");
}

#[test]
fn foreign_schema_version_is_rejected_before_field_decoding() {
    let p = sample_plan();
    let good = p.to_json();
    let needle = format!("\"schema_version\": {PLAN_SCHEMA_VERSION}");
    assert!(good.contains(&needle), "fixture must carry the version");
    // Doctor only the version; every other field stays valid.
    let doctored = good.replace(&needle, "\"schema_version\": 99");
    match PlacementPlan::from_json(&doctored) {
        Err(PlanError::SchemaVersion { found, expected }) => {
            assert_eq!((found, expected), (99, PLAN_SCHEMA_VERSION));
        }
        other => panic!("expected SchemaVersion error, got {other:?}"),
    }
    // Doctor the version *and* break a field: the version check must
    // still win (it runs before the typed decode).
    let both = doctored.replace("\"rank_load\"", "\"rank_lead\"");
    assert!(matches!(
        PlacementPlan::from_json(&both),
        Err(PlanError::SchemaVersion { found: 99, .. })
    ));
    // Garbage and a missing version each fail as Parse, not a panic.
    assert!(matches!(
        PlacementPlan::from_json("{nope"),
        Err(PlanError::Parse(_))
    ));
    let missing = good.replace(&needle, "\"schema_version\": \"one\"");
    assert!(matches!(
        PlacementPlan::from_json(&missing),
        Err(PlanError::Parse(_))
    ));
}

#[test]
fn error_messages_name_the_versions() {
    let e = PlanError::SchemaVersion {
        found: 9,
        expected: PLAN_SCHEMA_VERSION,
    };
    let msg = e.to_string();
    assert!(msg.contains("schema v9"), "{msg}");
    assert!(
        msg.contains(&format!("reads v{PLAN_SCHEMA_VERSION}")),
        "{msg}"
    );
}

/// The planner and the plan reader refuse the same time constants:
/// anything the picosecond modeled clock cannot hold.
#[test]
fn planner_and_reader_share_one_time_check() {
    let catalog = Catalog::homogeneous(1, 64, 8);
    let profile = FreqProfile::new(64);
    type Breaks = fn(&mut PlannerConfig);
    let cases: [(&str, Breaks); 5] = [
        ("rank_base_ns", |c| c.rank_cost.rank_base_ns = -1e9),
        ("rank_launch_ns", |c| c.rank_cost.rank_launch_ns = 1e300),
        ("clock_hz", |c| c.cost.clock_hz = 0),
        ("ragged_bw_factor", |c| c.cost.ragged_bw_factor = 0.0),
        ("host_combine_ns_per_add", |c| {
            c.host_combine_ns_per_add = -0.1
        }),
    ];
    for (field, break_it) in cases {
        let mut config = PlannerConfig::default();
        break_it(&mut config);
        match plan(&catalog, std::slice::from_ref(&profile), &config) {
            Err(PlanError::InvalidConfig(msg)) => assert!(msg.contains(field), "{msg}"),
            other => panic!("{field}: the planner returned {other:?}"),
        }
        let mut doctored = sample_plan();
        break_it(&mut doctored.config);
        match PlacementPlan::from_json(&doctored.to_json()) {
            Err(PlanError::InvalidConfig(msg)) => assert!(msg.contains(field), "{msg}"),
            other => panic!("{field}: the reader returned {other:?}"),
        }
    }
}
