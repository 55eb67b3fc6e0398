//! Non-stationary traffic schedules (UPWL v3).
//!
//! Every workload v1/v2 can express is *stationary*: one Zipf law, one
//! arrival process, forever. Real recommendation traffic drifts — the
//! popular catalog rotates over hours, flash crowds pile onto a few
//! items within seconds, and the offered rate follows a diurnal curve.
//! A static placement plan fit to the startup profile is exactly the
//! assumption drift breaks, so the serving engine needs traffic that
//! actually drifts to prove its replanner works.
//!
//! A [`DriftSchedule`] layers three deterministic modulations over the
//! existing seeded generation:
//!
//! * [`HotSetRotation`] — the item space is carved into `num_sets`
//!   contiguous hot sets of `set_size` rows; every `period_ns` of
//!   modeled time the active set advances, and each index draw lands in
//!   the active set with probability `hot_fraction` (otherwise the
//!   usual Zipf draw applies).
//! * [`FlashCrowd`] — a time window that overrides the active set,
//!   adds `extra_hot` to the hot fraction, and multiplies the arrival
//!   rate by `rate_boost`.
//! * [`DiurnalCurve`] — a sinusoidal arrival-rate modulation
//!   `1 + amplitude * sin(2π t / period_ns)` applied by warping
//!   inter-arrival gaps.
//!
//! All of it is a pure function of the schedule parameters and the
//! workload seed: the same schedule always yields bit-identical traces.

/// Rotating contiguous hot sets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotSetRotation {
    /// Number of hot sets the rotation cycles through.
    pub num_sets: usize,
    /// Rows per hot set; set `s` covers rows
    /// `[s * set_size, (s + 1) * set_size)`.
    pub set_size: usize,
    /// Modeled time between advances of the active set, ns.
    pub period_ns: u64,
    /// Probability that an index draw is redirected into the active
    /// set, in `[0, 1]`.
    pub hot_fraction: f64,
}

/// A flash-crowd spike: a window that pins the active hot set and
/// boosts both its share of draws and the arrival rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// Window start, modeled ns.
    pub start_ns: u64,
    /// Window length, modeled ns.
    pub duration_ns: u64,
    /// Hot-set id the crowd piles onto (its row range must fit the
    /// table, same bound as the rotation's sets).
    pub target_set: usize,
    /// Added to the rotation's `hot_fraction` inside the window
    /// (result capped at 1).
    pub extra_hot: f64,
    /// Arrival-rate multiplier inside the window (>= 1).
    pub rate_boost: f64,
}

/// Sinusoidal arrival-rate modulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalCurve {
    /// Period of one full cycle, modeled ns.
    pub period_ns: u64,
    /// Peak deviation from the mean rate, in `[0, 1)`.
    pub amplitude: f64,
}

/// The full non-stationary schedule attached to a UPWL v3 workload.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DriftSchedule {
    /// Rotating hot sets (None = popularity does not drift).
    pub rotation: Option<HotSetRotation>,
    /// Flash-crowd windows (require `rotation` to define set geometry).
    pub spikes: Vec<FlashCrowd>,
    /// Diurnal rate curve (None = flat offered rate).
    pub diurnal: Option<DiurnalCurve>,
}

/// The hot-set redirect in force at one instant: start row, set size
/// and redirect probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActiveHotSet {
    /// First row of the active set.
    pub start_row: u64,
    /// Rows in the set.
    pub rows: u64,
    /// Probability a draw lands in the set.
    pub hot_fraction: f64,
}

impl DriftSchedule {
    /// True when no modulation is configured at all.
    pub fn is_trivial(&self) -> bool {
        self.rotation.is_none() && self.spikes.is_empty() && self.diurnal.is_none()
    }

    /// Checks internal consistency and that every hot set the schedule
    /// can reference fits inside a table of `num_items` rows.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated constraint —
    /// the loader maps it to `InvalidData` and the CLI to exit 2.
    pub fn validate(&self, num_items: usize) -> Result<(), String> {
        if let Some(rot) = &self.rotation {
            if rot.num_sets == 0 || rot.set_size == 0 {
                return Err("hot-set rotation needs num_sets >= 1 and set_size >= 1".into());
            }
            if rot.period_ns == 0 {
                return Err("hot-set rotation period must be positive".into());
            }
            if !(0.0..=1.0).contains(&rot.hot_fraction) {
                return Err(format!("hot_fraction {} outside [0, 1]", rot.hot_fraction));
            }
            // Saturating: a product past u64 is out of range, not 0.
            let end = (rot.num_sets as u64).saturating_mul(rot.set_size as u64);
            if end > num_items as u64 {
                return Err(format!(
                    "drift schedule references hot-set rows up to {end} but the table has only {num_items} rows"
                ));
            }
        }
        if !self.spikes.is_empty() && self.rotation.is_none() {
            return Err("flash-crowd spikes need a hot-set rotation to define set geometry".into());
        }
        for (i, sp) in self.spikes.iter().enumerate() {
            let set_size = self.rotation.as_ref().map_or(0, |r| r.set_size) as u64;
            let end = (sp.target_set as u64)
                .saturating_add(1)
                .saturating_mul(set_size);
            if end > num_items as u64 {
                return Err(format!(
                    "spike {i} targets hot set {} spanning rows up to {end} but the table has only {num_items} rows",
                    sp.target_set
                ));
            }
            if sp.duration_ns == 0 {
                return Err(format!("spike {i} has zero duration"));
            }
            if !(0.0..=1.0).contains(&sp.extra_hot) {
                return Err(format!(
                    "spike {i} extra_hot {} outside [0, 1]",
                    sp.extra_hot
                ));
            }
            if !sp.rate_boost.is_finite() || sp.rate_boost < 1.0 {
                return Err(format!(
                    "spike {i} rate_boost {} must be >= 1",
                    sp.rate_boost
                ));
            }
        }
        if let Some(d) = &self.diurnal {
            if d.period_ns == 0 {
                return Err("diurnal period must be positive".into());
            }
            if !(0.0..1.0).contains(&d.amplitude) {
                return Err(format!("diurnal amplitude {} outside [0, 1)", d.amplitude));
            }
        }
        Ok(())
    }

    /// The hot-set redirect in force at modeled time `t_ns`, if any.
    /// Spikes take precedence over the rotation (first matching window
    /// wins).
    pub fn active_hot_set(&self, t_ns: u64) -> Option<ActiveHotSet> {
        let rot = self.rotation.as_ref()?;
        let spike = self
            .spikes
            .iter()
            .find(|sp| t_ns >= sp.start_ns && t_ns - sp.start_ns < sp.duration_ns);
        let (set, frac) = match spike {
            Some(sp) => (
                sp.target_set as u64,
                (rot.hot_fraction + sp.extra_hot).min(1.0),
            ),
            None => (
                (t_ns / rot.period_ns) % rot.num_sets as u64,
                rot.hot_fraction,
            ),
        };
        Some(ActiveHotSet {
            start_row: set * rot.set_size as u64,
            rows: rot.set_size as u64,
            hot_fraction: frac,
        })
    }

    /// Arrival-rate multiplier at modeled time `t_ns` (diurnal curve
    /// times any active spike's `rate_boost`). Always positive.
    pub fn rate_multiplier(&self, t_ns: u64) -> f64 {
        let mut m = 1.0;
        if let Some(d) = &self.diurnal {
            let phase = (t_ns % d.period_ns) as f64 / d.period_ns as f64;
            m *= 1.0 + d.amplitude * (2.0 * std::f64::consts::PI * phase).sin();
        }
        if let Some(sp) = self
            .spikes
            .iter()
            .find(|sp| t_ns >= sp.start_ns && t_ns - sp.start_ns < sp.duration_ns)
        {
            m *= sp.rate_boost;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rotation() -> HotSetRotation {
        HotSetRotation {
            num_sets: 4,
            set_size: 100,
            period_ns: 1_000_000,
            hot_fraction: 0.8,
        }
    }

    #[test]
    fn rotation_advances_with_time() {
        let s = DriftSchedule {
            rotation: Some(rotation()),
            ..DriftSchedule::default()
        };
        assert_eq!(s.active_hot_set(0).unwrap().start_row, 0);
        assert_eq!(s.active_hot_set(1_000_000).unwrap().start_row, 100);
        assert_eq!(s.active_hot_set(3_999_999).unwrap().start_row, 300);
        // Wraps around after num_sets periods.
        assert_eq!(s.active_hot_set(4_000_000).unwrap().start_row, 0);
    }

    #[test]
    fn spike_overrides_rotation_and_boosts_rate() {
        let s = DriftSchedule {
            rotation: Some(rotation()),
            spikes: vec![FlashCrowd {
                start_ns: 500_000,
                duration_ns: 200_000,
                target_set: 3,
                extra_hot: 0.15,
                rate_boost: 2.0,
            }],
            diurnal: None,
        };
        let inside = s.active_hot_set(600_000).unwrap();
        assert_eq!(inside.start_row, 300);
        assert!((inside.hot_fraction - 0.95).abs() < 1e-12);
        assert_eq!(s.rate_multiplier(600_000), 2.0);
        // Outside the window the rotation rules.
        assert_eq!(s.active_hot_set(499_999).unwrap().start_row, 0);
        assert_eq!(s.rate_multiplier(499_999), 1.0);
        assert_eq!(s.active_hot_set(700_000).unwrap().start_row, 0);
    }

    #[test]
    fn diurnal_multiplier_oscillates_and_stays_positive() {
        let s = DriftSchedule {
            diurnal: Some(DiurnalCurve {
                period_ns: 1_000_000,
                amplitude: 0.5,
            }),
            ..DriftSchedule::default()
        };
        let peak = s.rate_multiplier(250_000);
        let trough = s.rate_multiplier(750_000);
        assert!((peak - 1.5).abs() < 1e-9);
        assert!((trough - 0.5).abs() < 1e-9);
        for t in (0..2_000_000u64).step_by(10_000) {
            assert!(s.rate_multiplier(t) > 0.0);
        }
    }

    #[test]
    fn validate_rejects_out_of_range_hot_sets() {
        let s = DriftSchedule {
            rotation: Some(HotSetRotation {
                num_sets: 8,
                set_size: 100,
                period_ns: 1,
                hot_fraction: 0.5,
            }),
            ..DriftSchedule::default()
        };
        let err = s.validate(500).unwrap_err();
        assert!(err.contains("800"), "{err}");
        assert!(s.validate(800).is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_spike_target() {
        let s = DriftSchedule {
            rotation: Some(rotation()),
            spikes: vec![FlashCrowd {
                start_ns: 0,
                duration_ns: 1,
                target_set: 9,
                extra_hot: 0.0,
                rate_boost: 1.0,
            }],
            diurnal: None,
        };
        let err = s.validate(500).unwrap_err();
        assert!(err.contains("hot set 9"), "{err}");
    }

    #[test]
    fn validate_rejects_hot_set_extents_that_wrap_u64() {
        // An extent past u64 is out of range; wrapped, it read as 0 rows.
        let mut wide = rotation();
        (wide.num_sets, wide.set_size) = (1 << 32, 1 << 32);
        let rotated = DriftSchedule {
            rotation: Some(wide),
            ..DriftSchedule::default()
        };
        let spiked = DriftSchedule {
            rotation: Some(rotation()),
            spikes: vec![FlashCrowd {
                start_ns: 0,
                duration_ns: 1,
                target_set: usize::MAX,
                extra_hot: 0.0,
                rate_boost: 1.0,
            }],
            diurnal: None,
        };
        for s in [rotated, spiked] {
            assert!(s.validate(1 << 40).is_err(), "{s:?}");
        }
    }

    #[test]
    fn validate_rejects_spikes_without_rotation() {
        let s = DriftSchedule {
            spikes: vec![FlashCrowd {
                start_ns: 0,
                duration_ns: 1,
                target_set: 0,
                extra_hot: 0.0,
                rate_boost: 1.0,
            }],
            ..DriftSchedule::default()
        };
        assert!(s.validate(1000).is_err());
    }

    #[test]
    fn validate_rejects_bad_scalars() {
        let mut r = rotation();
        r.hot_fraction = 1.5;
        let s = DriftSchedule {
            rotation: Some(r),
            ..DriftSchedule::default()
        };
        assert!(s.validate(1000).is_err());
        let s = DriftSchedule {
            diurnal: Some(DiurnalCurve {
                period_ns: 1,
                amplitude: 1.0,
            }),
            ..DriftSchedule::default()
        };
        assert!(s.validate(1000).is_err());
    }
}
