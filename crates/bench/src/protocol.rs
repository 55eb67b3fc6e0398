//! The one file protocol of the sweeps in [`crate::sweeps`].
//!
//! Every sweep runs on the modeled clock, so the document it produces
//! — a header object plus one object per row — is a pure function of
//! the code. The repo-root `BENCH_<name>.json` files are therefore
//! goldens, compared byte for byte like `tests/golden/`:
//!
//! * [`Sweep::check`] writes nothing and fails unless the committed
//!   file holds exactly the sweep's bytes, naming the first row and
//!   column that differ and the command that regenerates the file. A
//!   missing, non-JSON or row-less file fails too, so a gate can never
//!   pass against nothing. `crates/bench/tests/sweeps.rs` runs it for
//!   every sweep.
//! * `cargo bench -p bench --bench <name> [-- --out FILE]` writes the
//!   document ([`write_out`]), by default to the sweep's own repo-root
//!   file.
//!
//! Relative paths resolve against the repo root (cargo runs benches
//! from the package directory). Any other flag, or `--out` without its
//! value, exits 2 naming it; `--bench`, which `cargo bench` appends,
//! is accepted.

use std::path::{Path, PathBuf};

use serde::{Serialize, Value};

/// A sweep's finished document and the golden it is committed as.
pub struct Sweep {
    /// The `[[bench]]` target that writes it: `cargo bench -p bench
    /// --bench NAME`.
    name: &'static str,
    /// The committed file, relative to the repo root.
    file: &'static str,
    /// The columns that identify a row in a mismatch report.
    key: &'static [&'static str],
    doc: Value,
}

impl Sweep {
    /// Assembles the document of sweep `name`, committed as `file`,
    /// from `header` and `rows`; `key` names the columns that identify
    /// a row in a mismatch report.
    pub fn new(
        name: &'static str,
        file: &'static str,
        key: &'static [&'static str],
        header: &[(&str, Value)],
        rows: &[impl Serialize],
    ) -> Sweep {
        let doc = document(header, rows);
        Sweep {
            name,
            file,
            key,
            doc,
        }
    }

    /// Succeeds when the committed file holds exactly this document;
    /// the error names the file, the first difference and the command
    /// that regenerates the file.
    pub fn check(&self) -> Result<(), String> {
        check(&self.doc, self.key, &rooted(self.file)).map_err(|e| {
            format!(
                "{e}\nif the change is intended, regenerate it with \
                 `cargo bench -p bench --bench {}`",
                self.name
            )
        })
    }
}

/// The whole `main` of a `[[bench]]` target: reads `--out FILE` from
/// the process arguments, runs the sweep, prints its rows and writes its
/// document to FILE, or to the committed file when the arguments name
/// none. Exits 2 on a bad flag, before the sweep runs, and 1 on a
/// failed write.
pub fn write_out(run: fn() -> Sweep) {
    let out = out_path(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!(
            "error: {e}\nusage: [--out FILE]  (default: the sweep's BENCH_*.json; the check \
             against it is `cargo test -p bench --test sweeps`)"
        );
        std::process::exit(2)
    });
    let sweep = run();
    let path = out.unwrap_or_else(|| rooted(sweep.file));
    for row in rows_of(&sweep.doc) {
        println!("  {}", summary(row));
    }
    if let Err(e) = write(&sweep.doc, &path) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    println!("wrote {}", path.display());
}

/// Resolves a relative path against the repo root.
fn rooted(path: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    root.expect("crates/bench is two levels down").join(path)
}

/// The file a sweep's arguments (without the program name) ask it to
/// write, if they name one. The error names the offending flag.
fn out_path(args: impl Iterator<Item = String>) -> Result<Option<PathBuf>, String> {
    let mut args = args.peekable();
    let mut out = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--bench" => continue,
            "--out" => {}
            _ => return Err(format!("unknown flag {flag}")),
        }
        let value = args
            .next_if(|v| !v.starts_with("--"))
            .ok_or("--out needs a file")?;
        if out.replace(rooted(&value)).is_some() {
            return Err("--out: give it once".to_string());
        }
    }
    Ok(out)
}

/// The document of a sweep: the header's fields, then `rows`.
fn document(header: &[(&str, Value)], rows: &[impl Serialize]) -> Value {
    let mut doc: Vec<(String, Value)> = header
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    let rows = rows.iter().map(Serialize::to_value).collect();
    doc.push(("rows".to_string(), Value::Array(rows)));
    Value::Object(doc)
}

/// A document's rows (none when the field is absent or not an array).
fn rows_of(doc: &Value) -> &[Value] {
    match doc.get("rows") {
        Some(Value::Array(rows)) => rows,
        _ => &[],
    }
}

/// The bytes a document is stored as.
fn render(doc: &Value) -> String {
    serde::json::to_string_pretty(doc) + "\n"
}

fn write(doc: &Value, path: &Path) -> Result<(), String> {
    std::fs::write(path, render(doc)).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Succeeds when `path` holds exactly [`render`]`(doc)`. Fails when it
/// is missing, is not JSON, has no rows, or differs; a difference is
/// reported as the first differing header field, or the first differing
/// row (identified by its `key` columns) and column.
fn check(doc: &Value, key: &[&str], path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    compare(doc, key, &text).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare(doc: &Value, key: &[&str], committed: &str) -> Result<(), String> {
    let old = serde::json::parse(committed).map_err(|e| format!("not JSON ({e})"))?;
    let (new_rows, old_rows) = (rows_of(doc), rows_of(&old));
    if old_rows.is_empty() {
        return Err("has no rows".to_string());
    }
    let rendered = render(doc);
    if rendered == committed {
        return Ok(());
    }
    if let Some(diff) = first_difference(doc, &old) {
        return Err(format!("header {diff}"));
    }
    for (i, (new, old)) in new_rows.iter().zip(old_rows).enumerate() {
        if let Some(diff) = first_difference(new, old) {
            let label: Vec<String> = key
                .iter()
                .map(|k| format!("{k}={}", show(new.get(k).unwrap_or(&Value::Null))))
                .collect();
            return Err(format!("rows[{i}] ({}) {diff}", label.join(", ")));
        }
    }
    // No column both sides have explains it: the row count, the column
    // set or order, or the whitespace differs.
    let same = rendered.lines().zip(committed.lines());
    let line = same.take_while(|(new, old)| new == old).count() + 1;
    Err(format!("departs from this run's document at line {line}"))
}

fn show(v: &Value) -> String {
    serde::json::to_string(v)
}

/// One row on one line, floats to two decimals.
fn summary(row: &Value) -> String {
    let Value::Object(fields) = row else {
        return show(row);
    };
    let cell = |(name, v): &(String, Value)| match v {
        Value::Float(f) => format!("{name}={f:.2}"),
        v => format!("{name}={}", show(v)),
    };
    fields.iter().map(cell).collect::<Vec<_>>().join("  ")
}

/// The first column (other than `rows`) two objects hold different
/// values for.
fn first_difference(new: &Value, old: &Value) -> Option<String> {
    let Value::Object(fields) = new else {
        return None;
    };
    fields.iter().find_map(|(name, value)| {
        let in_file = old.get(name).filter(|v| name != "rows" && *v != value)?;
        let (in_file, value) = (show(in_file), show(value));
        Some(format!(
            "column {name}: the file has {in_file}, this run produced {value}"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize, Clone)]
    struct Row {
        arm: &'static str,
        load_pct: u64,
        p99_latency_us: f64,
    }

    fn header(capacity_qps: f64) -> [(&'static str, Value); 2] {
        [
            ("bench", "unit".to_value()),
            ("capacity_qps", capacity_qps.to_value()),
        ]
    }

    fn rows() -> Vec<Row> {
        let row = |arm, load_pct, p99_latency_us| Row {
            arm,
            load_pct,
            p99_latency_us,
        };
        vec![
            row("steady", 25, 366.8987428571433),
            row("rotate", 50, 452.0275897142858),
        ]
    }

    fn doc() -> Value {
        document(&header(92874.58), &rows())
    }

    /// A scratch path no other test (or process) uses.
    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("updlrm_protocol_{}_{name}", std::process::id()))
    }

    #[test]
    fn written_document_checks_clean_and_renders_repeat() {
        let path = scratch("round_trip.json");
        write(&doc(), &path).unwrap();
        let checked = check(&doc(), &["arm"], &path);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(checked, Ok(()));
        assert_eq!(render(&doc()), render(&doc()));
    }

    #[test]
    fn one_flipped_digit_names_the_row_and_column() {
        let mut drifted = rows();
        drifted[1].p99_latency_us = 452.0275897142859;
        let drifted = document(&header(92874.58), &drifted);
        assert_eq!(
            compare(&drifted, &["arm", "load_pct"], &render(&doc())).unwrap_err(),
            "rows[1] (arm=\"rotate\", load_pct=50) column p99_latency_us: \
             the file has 452.0275897142858, this run produced 452.0275897142859"
        );
    }

    #[test]
    fn header_and_shape_differences_are_located() {
        let committed = render(&doc());
        let err = compare(&document(&header(92875.64), &rows()), &["arm"], &committed);
        assert!(err.unwrap_err().starts_with("header column capacity_qps:"));

        // A column only the file carries (a deleted host-time column,
        // say), a missing row, other whitespace: located by line.
        let wider = committed.replace(
            "\"load_pct\": 25,",
            "\"host_ns\": 1.5,\n      \"load_pct\": 25,",
        );
        let shorter = document(&header(92874.58), &rows()[..1]);
        let compact = serde::json::to_string(&doc());
        for (run, file, line) in [
            (&doc(), &wider, 7),
            (&shorter, &committed, 9),
            (&doc(), &compact, 1),
        ] {
            let err = compare(run, &["arm"], file).unwrap_err();
            assert_eq!(
                err,
                format!("departs from this run's document at line {line}")
            );
        }
    }

    #[test]
    fn missing_malformed_and_rowless_files_fail() {
        let err = check(&doc(), &["arm"], &scratch("missing.json")).unwrap_err();
        assert!(err.starts_with("cannot read"), "{err}");

        let garbage = scratch("garbage.json");
        std::fs::write(&garbage, "not json").unwrap();
        let err = check(&doc(), &["arm"], &garbage);
        std::fs::remove_file(&garbage).unwrap();
        assert!(err.unwrap_err().contains("not JSON"));

        // Anti-vacuous: a row-less file never passes, not even against
        // a run that itself produced no rows.
        let empty = document(&header(92874.58), &rows()[..0]);
        for text in [render(&empty), "{}\n".to_string(), "[]\n".to_string()] {
            assert_eq!(compare(&empty, &["arm"], &text).unwrap_err(), "has no rows");
        }
        assert_eq!(
            compare(&doc(), &["arm"], &render(&empty)).unwrap_err(),
            "has no rows"
        );
    }

    #[test]
    fn flags_parse_in_one_place() {
        let parse = |list: &[&str]| out_path(list.iter().map(|s| s.to_string()));
        assert_eq!(parse(&["--bench"]), Ok(None));
        assert_eq!(
            parse(&["--out", "BENCH_y.json", "--bench"]),
            Ok(Some(rooted("BENCH_y.json")))
        );
        assert_eq!(
            parse(&["--out", "/tmp/a.json"]),
            Ok(Some(PathBuf::from("/tmp/a.json")))
        );

        let err = |list: &[&str]| parse(list).unwrap_err();
        assert_eq!(err(&["--iters", "3"]), "unknown flag --iters");
        assert_eq!(err(&["stray"]), "unknown flag stray");
        // The check is a test, not a flag of the writer.
        assert_eq!(err(&["--check", "a"]), "unknown flag --check");
        // `cargo bench -- --out` arrives as `--out --bench`.
        assert_eq!(err(&["--out", "--bench"]), "--out needs a file");
        assert_eq!(err(&["--out", "a", "--out", "b"]), "--out: give it once");
    }
}
