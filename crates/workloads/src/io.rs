//! Binary persistence for generated workloads.
//!
//! Regenerating multi-hundred-megabyte traces for every experiment run
//! is wasteful; this module serializes a [`Workload`] into a compact
//! little-endian binary format (magic `UPWL`) and reads it back. The
//! format is self-contained — spec, trace configuration and arrival
//! schedule travel with the batches — so a saved trace reproduces an
//! experiment exactly.
//!
//! ## Versions
//!
//! v3 is the only version written or read; a v1 or v2 file fails with
//! `unsupported UPWL version N`. A v3 file holds the spec and the trace
//! configuration, an arrival block (a process tag — `0` closed-loop,
//! `1` Poisson, `2` bursty — the process parameters and the per-query
//! timestamps), a drift block, then the batches. The drift block is an
//! optional hot-set rotation (`num_sets`, `set_size`, `period_ns`,
//! `hot_fraction`), a list of flash-crowd spikes (`start_ns`,
//! `duration_ns`, `target_set`, `extra_hot`, `rate_boost`) and an
//! optional diurnal curve (`period_ns`, `amplitude`). A stationary
//! workload writes the empty block (rotation tag 0, no spikes, diurnal
//! tag 0), which loads back as no drift schedule. The loader rejects
//! files whose schedule references hot-set rows beyond the spec's row
//! count.

use crate::arrival::{ArrivalProcess, ArrivalTrace, MAX_ARRIVAL_NS};
use crate::drift::{DiurnalCurve, DriftSchedule, FlashCrowd, HotSetRotation};
use crate::spec::{CooccurConfig, DatasetSpec, Hotness};
use crate::trace::{TraceConfig, Workload};
use dlrm_model::{QueryBatch, SparseInput};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"UPWL";
const VERSION: u32 = 3;

fn w_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn w_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn w_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn w_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    w_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())
}

fn r_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn r_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn r_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn r_str<R: Read>(r: &mut R) -> io::Result<String> {
    let len = r_u32(r)? as usize;
    if len > 1 << 20 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "string length implausible",
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Reads the `n` elements a count field announced. At most `1 << 16`
/// are reserved up front and the vector grows as elements arrive, so a
/// count that lies about the file meets `UnexpectedEof` before it
/// meets the allocator (a failed allocation aborts the process).
fn r_vec<R: Read, T>(
    reader: &mut R,
    n: u64,
    mut elem: impl FnMut(&mut R) -> io::Result<T>,
) -> io::Result<Vec<T>> {
    let mut v = Vec::with_capacity(n.min(1 << 16) as usize);
    for _ in 0..n {
        v.push(elem(reader)?);
    }
    Ok(v)
}

fn w_arrivals<W: Write>(writer: &mut W, arrivals: &ArrivalTrace) -> io::Result<()> {
    match arrivals.process {
        ArrivalProcess::ClosedLoop => w_u32(writer, 0)?,
        ArrivalProcess::Poisson { qps, seed } => {
            w_u32(writer, 1)?;
            w_f64(writer, qps)?;
            w_u64(writer, seed)?;
        }
        ArrivalProcess::Bursty {
            qps,
            burst_factor,
            burst_fraction,
            seed,
        } => {
            w_u32(writer, 2)?;
            w_f64(writer, qps)?;
            w_f64(writer, burst_factor)?;
            w_f64(writer, burst_fraction)?;
            w_u64(writer, seed)?;
        }
    }
    w_u64(writer, arrivals.times_ns.len() as u64)?;
    for &t in &arrivals.times_ns {
        w_u64(writer, t)?;
    }
    Ok(())
}

fn w_drift<W: Write>(writer: &mut W, drift: &DriftSchedule) -> io::Result<()> {
    match &drift.rotation {
        None => w_u32(writer, 0)?,
        Some(rot) => {
            w_u32(writer, 1)?;
            w_u64(writer, rot.num_sets as u64)?;
            w_u64(writer, rot.set_size as u64)?;
            w_u64(writer, rot.period_ns)?;
            w_f64(writer, rot.hot_fraction)?;
        }
    }
    w_u32(writer, drift.spikes.len() as u32)?;
    for sp in &drift.spikes {
        w_u64(writer, sp.start_ns)?;
        w_u64(writer, sp.duration_ns)?;
        w_u64(writer, sp.target_set as u64)?;
        w_f64(writer, sp.extra_hot)?;
        w_f64(writer, sp.rate_boost)?;
    }
    match &drift.diurnal {
        None => w_u32(writer, 0)?,
        Some(d) => {
            w_u32(writer, 1)?;
            w_u64(writer, d.period_ns)?;
            w_f64(writer, d.amplitude)?;
        }
    }
    Ok(())
}

fn r_drift<R: Read>(reader: &mut R) -> io::Result<DriftSchedule> {
    let rotation = match r_u32(reader)? {
        0 => None,
        1 => Some(HotSetRotation {
            num_sets: r_u64(reader)? as usize,
            set_size: r_u64(reader)? as usize,
            period_ns: r_u64(reader)?,
            hot_fraction: r_f64(reader)?,
        }),
        _ => return Err(bad("unknown hot-set rotation tag")),
    };
    let n_spikes = r_u32(reader)?;
    if n_spikes > 1 << 16 {
        return Err(bad("spike count implausible"));
    }
    let spikes = r_vec(reader, n_spikes.into(), |r| {
        Ok(FlashCrowd {
            start_ns: r_u64(r)?,
            duration_ns: r_u64(r)?,
            target_set: r_u64(r)? as usize,
            extra_hot: r_f64(r)?,
            rate_boost: r_f64(r)?,
        })
    })?;
    let diurnal = match r_u32(reader)? {
        0 => None,
        1 => Some(DiurnalCurve {
            period_ns: r_u64(reader)?,
            amplitude: r_f64(reader)?,
        }),
        _ => return Err(bad("unknown diurnal tag")),
    };
    Ok(DriftSchedule {
        rotation,
        spikes,
        diurnal,
    })
}

fn r_arrivals<R: Read>(reader: &mut R) -> io::Result<ArrivalTrace> {
    let process = match r_u32(reader)? {
        0 => ArrivalProcess::ClosedLoop,
        1 => ArrivalProcess::Poisson {
            qps: r_f64(reader)?,
            seed: r_u64(reader)?,
        },
        2 => ArrivalProcess::Bursty {
            qps: r_f64(reader)?,
            burst_factor: r_f64(reader)?,
            burst_fraction: r_f64(reader)?,
            seed: r_u64(reader)?,
        },
        _ => return Err(bad("unknown arrival process tag")),
    };
    let n = r_u64(reader)?;
    if n > 1 << 28 {
        return Err(bad("arrival count implausible"));
    }
    let mut prev = 0u64;
    let times_ns = r_vec(reader, n, |r| {
        let t = r_u64(r)?;
        if t < prev {
            return Err(bad("arrival times must be non-decreasing"));
        }
        if t > MAX_ARRIVAL_NS {
            return Err(bad(&format!(
                "arrival time {t} ns is past the modeled clock's range ({MAX_ARRIVAL_NS} ns)"
            )));
        }
        prev = t;
        Ok(t)
    })?;
    Ok(ArrivalTrace { process, times_ns })
}

impl Workload {
    /// Serializes the workload to `writer` (format `UPWL` v3; a
    /// stationary workload writes the empty drift block).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `writer`. A mut reference to any
    /// `Write` works (`workload.save(&mut file)?`).
    pub fn save<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        writer.write_all(MAGIC)?;
        w_u32(writer, VERSION)?;
        // Spec.
        w_str(writer, &self.spec.name)?;
        w_str(writer, &self.spec.short)?;
        w_u32(
            writer,
            match self.spec.hotness {
                Hotness::Low => 0,
                Hotness::Medium => 1,
                Hotness::High => 2,
            },
        )?;
        w_f64(writer, self.spec.avg_reduction)?;
        w_u64(writer, self.spec.num_items as u64)?;
        w_f64(writer, self.spec.zipf_theta)?;
        w_u64(writer, self.spec.cooccur.cluster_size as u64)?;
        w_f64(writer, self.spec.cooccur.cluster_rate)?;
        w_f64(writer, self.spec.cooccur.clustered_fraction)?;
        // Config.
        w_u64(writer, self.config.num_tables as u64)?;
        w_u64(writer, self.config.batch_size as u64)?;
        w_u64(writer, self.config.num_batches as u64)?;
        w_u64(writer, self.config.num_dense as u64)?;
        w_u64(writer, self.config.seed)?;
        w_arrivals(writer, &self.arrivals)?;
        w_drift(
            writer,
            self.drift.as_ref().unwrap_or(&DriftSchedule::default()),
        )?;
        // Batches.
        w_u64(writer, self.batches.len() as u64)?;
        for batch in &self.batches {
            w_u64(writer, batch.dense.len() as u64)?;
            for &v in &batch.dense {
                writer.write_all(&v.to_le_bytes())?;
            }
            w_u64(writer, batch.sparse.len() as u64)?;
            for sp in &batch.sparse {
                w_u64(writer, sp.offsets.len() as u64)?;
                for &o in &sp.offsets {
                    w_u64(writer, o as u64)?;
                }
                w_u64(writer, sp.indices.len() as u64)?;
                for &i in &sp.indices {
                    w_u64(writer, i)?;
                }
            }
        }
        Ok(())
    }

    /// Reads a workload previously written by [`Workload::save`].
    ///
    /// # Errors
    ///
    /// I/O errors, a bad magic/version, or malformed structure (every
    /// loaded batch is re-validated).
    pub fn load<R: Read>(reader: &mut R) -> io::Result<Workload> {
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not a UPWL workload file"));
        }
        let version = r_u32(reader)?;
        if version != VERSION {
            return Err(bad(&format!("unsupported UPWL version {version}")));
        }
        let name = r_str(reader)?;
        let short = r_str(reader)?;
        let hotness = match r_u32(reader)? {
            0 => Hotness::Low,
            1 => Hotness::Medium,
            2 => Hotness::High,
            _ => return Err(bad("unknown hotness tag")),
        };
        let avg_reduction = r_f64(reader)?;
        let num_items = r_u64(reader)? as usize;
        let zipf_theta = r_f64(reader)?;
        let cluster_size = r_u64(reader)? as usize;
        let cluster_rate = r_f64(reader)?;
        let clustered_fraction = r_f64(reader)?;
        let spec = DatasetSpec {
            name,
            short,
            hotness,
            avg_reduction,
            num_items,
            zipf_theta,
            cooccur: CooccurConfig {
                cluster_size,
                cluster_rate,
                clustered_fraction,
            },
        };
        let config = TraceConfig {
            num_tables: r_u64(reader)? as usize,
            batch_size: r_u64(reader)? as usize,
            num_batches: r_u64(reader)? as usize,
            num_dense: r_u64(reader)? as usize,
            seed: r_u64(reader)?,
        };
        let arrivals = r_arrivals(reader)?;
        // Validate the drift schedule's hot-set geometry against the
        // spec before trusting any of its row ranges.
        let schedule = r_drift(reader)?;
        schedule.validate(spec.num_items).map_err(|e| bad(&e))?;
        let drift = (!schedule.is_trivial()).then_some(schedule);
        let n_batches = r_u64(reader)?;
        if n_batches > 1 << 24 {
            return Err(bad("batch count implausible"));
        }
        let batches = r_vec(reader, n_batches, |r| {
            let dense_len = r_u64(r)?;
            let dense = r_vec(r, dense_len, |r| {
                let mut b = [0u8; 4];
                r.read_exact(&mut b)?;
                Ok(f32::from_le_bytes(b))
            })?;
            let n_sparse = r_u64(r)?;
            if n_sparse != config.num_tables as u64 {
                return Err(bad("a batch's sparse input count is not the table count"));
            }
            let sparse = r_vec(r, n_sparse, |r| {
                let n_off = r_u64(r)?;
                let offsets = r_vec(r, n_off, |r| Ok(r_u64(r)? as usize))?;
                let n_idx = r_u64(r)?;
                let indices = r_vec(r, n_idx, r_u64)?;
                SparseInput::new(indices, offsets).map_err(|e| bad(&e.to_string()))
            })?;
            QueryBatch::new(dense, config.num_dense, sparse).map_err(|e| bad(&e.to_string()))
        })?;
        let workload = Workload {
            spec,
            config,
            batches,
            arrivals,
            drift,
        };
        if !workload.arrivals.is_closed_loop() && workload.arrivals.len() != workload.num_queries()
        {
            return Err(bad("arrival count does not match query count"));
        }
        Ok(workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DatasetSpec;

    fn sample_workload() -> Workload {
        let spec = DatasetSpec::movie().scaled_down(2000);
        Workload::generate(
            &spec,
            TraceConfig {
                num_tables: 2,
                batch_size: 8,
                num_batches: 3,
                num_dense: 4,
                seed: 9,
            },
        )
    }

    #[test]
    fn round_trip_preserves_everything() {
        let w = sample_workload();
        let mut buf = Vec::new();
        w.save(&mut buf).unwrap();
        let loaded = Workload::load(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.spec, w.spec);
        assert_eq!(loaded.config, w.config);
        assert_eq!(loaded.batches, w.batches);
    }

    #[test]
    fn v2_round_trip_is_bit_exact() {
        let mut w = sample_workload();
        w.stamp_arrivals(ArrivalProcess::poisson(20_000.0, 42));
        let mut buf = Vec::new();
        w.save(&mut buf).unwrap();
        let loaded = Workload::load(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded, w);
        // save -> load -> save is byte-identical.
        let mut buf2 = Vec::new();
        loaded.save(&mut buf2).unwrap();
        assert_eq!(buf, buf2);
    }

    #[test]
    fn v2_round_trips_bursty_parameters() {
        let mut w = sample_workload();
        w.stamp_arrivals(ArrivalProcess::bursty(5_000.0, 11));
        let mut buf = Vec::new();
        w.save(&mut buf).unwrap();
        let loaded = Workload::load(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.arrivals.process, w.arrivals.process);
        assert_eq!(loaded.arrivals.times_ns, w.arrivals.times_ns);
    }

    fn sample_drift() -> DriftSchedule {
        DriftSchedule {
            rotation: Some(HotSetRotation {
                num_sets: 3,
                set_size: 64,
                period_ns: 500_000,
                hot_fraction: 0.85,
            }),
            spikes: vec![FlashCrowd {
                start_ns: 200_000,
                duration_ns: 100_000,
                target_set: 2,
                extra_hot: 0.1,
                rate_boost: 2.0,
            }],
            diurnal: Some(DiurnalCurve {
                period_ns: 4_000_000,
                amplitude: 0.3,
            }),
        }
    }

    fn drifting_workload() -> Workload {
        let spec = DatasetSpec::movie().scaled_down(2000);
        Workload::generate_drifting(
            &spec,
            TraceConfig {
                num_tables: 2,
                batch_size: 8,
                num_batches: 3,
                num_dense: 4,
                seed: 9,
            },
            sample_drift(),
            ArrivalProcess::poisson(40_000.0, 17),
        )
    }

    #[test]
    fn v3_round_trip_is_bit_exact() {
        let w = drifting_workload();
        let mut buf = Vec::new();
        w.save(&mut buf).unwrap();
        assert_eq!(&buf[4..8], &3u32.to_le_bytes(), "drift stamps version 3");
        let loaded = Workload::load(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded, w);
        let mut buf2 = Vec::new();
        loaded.save(&mut buf2).unwrap();
        assert_eq!(buf, buf2);
    }

    #[test]
    fn stationary_workloads_stamp_v3_and_load_without_drift() {
        let mut w = sample_workload();
        w.stamp_arrivals(ArrivalProcess::poisson(20_000.0, 42));
        let mut buf = Vec::new();
        w.save(&mut buf).unwrap();
        assert_eq!(&buf[4..8], &3u32.to_le_bytes());
        let loaded = Workload::load(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.drift, None);
        assert_eq!(loaded, w);
    }

    #[test]
    fn rejects_v3_hot_set_beyond_row_count() {
        // Doctor a v3 file so the rotation's hot sets span more rows
        // than the spec declares (save does not validate, so a bad
        // schedule round-trips to bytes; load must refuse them).
        let mut w = drifting_workload();
        let rot = w.drift.as_mut().unwrap().rotation.as_mut().unwrap();
        rot.num_sets = 1_000_000;
        let mut buf = Vec::new();
        w.save(&mut buf).unwrap();
        let err = Workload::load(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("rows"), "{err}");
    }

    #[test]
    fn rejects_v3_spike_target_beyond_row_count() {
        let mut w = drifting_workload();
        w.drift.as_mut().unwrap().spikes[0].target_set = 1_000_000;
        let mut buf = Vec::new();
        w.save(&mut buf).unwrap();
        let err = Workload::load(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("hot set"), "{err}");
    }

    #[test]
    fn rejects_arrival_count_mismatch() {
        let mut w = sample_workload();
        w.arrivals = ArrivalTrace {
            process: ArrivalProcess::poisson(1000.0, 1),
            times_ns: vec![1, 2, 3], // != num_queries
        };
        let mut buf = Vec::new();
        w.save(&mut buf).unwrap();
        let err = Workload::load(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("arrival count"), "{err}");
    }

    #[test]
    fn rejects_decreasing_arrival_times() {
        let mut w = sample_workload();
        let n = w.num_queries();
        let mut times: Vec<u64> = (0..n as u64).collect();
        times.swap(0, 1); // 1, 0, 2, ...
        w.arrivals = ArrivalTrace {
            process: ArrivalProcess::poisson(1000.0, 1),
            times_ns: times,
        };
        let mut buf = Vec::new();
        w.save(&mut buf).unwrap();
        let err = Workload::load(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("non-decreasing"), "{err}");
    }

    #[test]
    fn rejects_arrivals_past_the_modeled_clock() {
        let mut w = sample_workload();
        let n = w.num_queries() as u64;
        for (last, ok) in [(MAX_ARRIVAL_NS, true), (MAX_ARRIVAL_NS + 1, false)] {
            w.arrivals = ArrivalTrace {
                process: ArrivalProcess::poisson(1000.0, 1),
                times_ns: (0..n).map(|i| if i + 1 == n { last } else { i }).collect(),
            };
            let mut buf = Vec::new();
            w.save(&mut buf).unwrap();
            match Workload::load(&mut buf.as_slice()) {
                Ok(back) => assert!(ok && back.arrivals == w.arrivals),
                Err(e) => assert!(!ok && e.to_string().contains("range"), "{e}"),
            }
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = Vec::new();
        sample_workload().save(&mut buf).unwrap();
        buf[0] = b'X';
        assert!(Workload::load(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        sample_workload().save(&mut buf).unwrap();
        // v1 had no arrival block and v2 no drift block; neither is read.
        for version in [0u8, 1, 2, 4, 99] {
            buf[4] = version;
            let err = Workload::load(&mut buf.as_slice()).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("unsupported UPWL version {version}")
            );
        }
    }

    #[test]
    fn rejects_truncated_input() {
        let mut buf = Vec::new();
        sample_workload().save(&mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(Workload::load(&mut buf.as_slice()).is_err());
    }

    /// A file small enough to load every prefix of: 2 batches of 2.
    fn tiny(drifting: bool) -> Vec<u8> {
        let spec = DatasetSpec::movie().scaled_down(2000);
        let config = TraceConfig {
            num_tables: 2,
            batch_size: 2,
            num_batches: 2,
            num_dense: 4,
            seed: 9,
        };
        let process = ArrivalProcess::poisson(40_000.0, 17);
        let w = if drifting {
            Workload::generate_drifting(&spec, config, sample_drift(), process)
        } else {
            let mut w = Workload::generate(&spec, config);
            w.stamp_arrivals(process);
            w
        };
        let mut buf = Vec::new();
        w.save(&mut buf).unwrap();
        buf
    }

    /// `(position, width, value)` of every count field in a saved file,
    /// found by walking the layout `save` writes.
    fn count_fields(buf: &[u8]) -> Vec<(usize, usize, u64)> {
        let u32_at = |p: usize| u32::from_le_bytes(buf[p..p + 4].try_into().unwrap());
        let u64_at = |p: usize| u64::from_le_bytes(buf[p..p + 8].try_into().unwrap());
        let mut fields = Vec::new();
        let mut count = |p: usize, width: usize| {
            let v = if width == 4 {
                u32_at(p).into()
            } else {
                u64_at(p)
            };
            fields.push((p, width, v));
            (p + width, v as usize)
        };
        let mut p = 8;
        for _ in 0..2 {
            p += 4 + u32_at(p) as usize; // name, short
        }
        p += 4 + 6 * 8; // hotness, six spec numbers
        let num_tables = u64_at(p) as usize;
        p += 5 * 8; // config
        p += 4 + [0, 16, 32][u32_at(p) as usize]; // arrival tag, parameters
        let (q, n) = count(p, 8);
        p = q + 8 * n;
        p += 4 + 32 * u32_at(p) as usize; // rotation
        let (q, n) = count(p, 4);
        p = q + 40 * n;
        p += 4 + 16 * u32_at(p) as usize; // diurnal
        let (q, n_batches) = count(p, 8);
        p = q;
        for _ in 0..n_batches {
            let (q, dense_len) = count(p, 8);
            p = q + 4 * dense_len;
            p = count(p, 8).0;
            for _ in 0..num_tables {
                for _ in 0..2 {
                    let (q, n) = count(p, 8); // offsets, then indices
                    p = q + 8 * n;
                }
            }
        }
        assert_eq!(p, buf.len(), "the walk covers the whole file");
        fields
    }

    #[test]
    fn lying_counts_fail_before_they_allocate() {
        // Regression: every count but three went straight into
        // `Vec::with_capacity`, so `1 << 60` aborted the process with
        // "memory allocation of … bytes failed" instead of returning.
        for buf in [tiny(false), tiny(true)] {
            let fields = count_fields(&buf);
            assert!(fields.len() >= 3 + 2 * (2 + 2 * 2));
            for (p, width, v) in fields {
                for lie in [1u64 << 60, v + 1] {
                    let mut doctored = buf.clone();
                    if width == 4 {
                        let lie = u32::try_from(lie).unwrap_or(u32::MAX);
                        doctored[p..p + 4].copy_from_slice(&lie.to_le_bytes());
                    } else {
                        doctored[p..p + 8].copy_from_slice(&lie.to_le_bytes());
                    }
                    let err = Workload::load(&mut doctored.as_slice())
                        .expect_err("a count that lies about the file");
                    assert!(
                        matches!(
                            err.kind(),
                            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                        ),
                        "count at byte {p} set to {lie}: {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_a_sparse_count_that_is_not_the_table_count() {
        let buf = tiny(false);
        // The second count of a batch, after the arrival, spike, batch
        // and dense counts.
        let (p, _, v) = count_fields(&buf)[4];
        assert_eq!(v, 2);
        let mut doctored = buf.clone();
        doctored[p..p + 8].copy_from_slice(&1u64.to_le_bytes());
        let err = Workload::load(&mut doctored.as_slice()).unwrap_err();
        assert!(err.to_string().contains("table count"), "{err}");
    }

    #[test]
    fn rejects_every_strict_prefix() {
        for buf in [tiny(false), tiny(true)] {
            assert!(Workload::load(&mut buf.as_slice()).is_ok());
            for len in 0..buf.len() {
                assert!(
                    Workload::load(&mut &buf[..len]).is_err(),
                    "a {len}-byte prefix of a {}-byte file loaded",
                    buf.len()
                );
            }
        }
    }

    #[test]
    fn rejects_corrupted_offsets() {
        let w = sample_workload();
        let mut buf = Vec::new();
        w.save(&mut buf).unwrap();
        // Corrupt the tail (sparse index data): loader either errors or
        // yields validated batches; flipping an offset byte near the
        // sparse section must not produce an invalid batch silently.
        let len = buf.len();
        buf[len - 9] ^= 0xFF;
        if let Ok(loaded) = Workload::load(&mut buf.as_slice()) {
            for b in &loaded.batches {
                b.validate().unwrap();
            }
        }
    }
}
