//! Paper-matching defaults for the campaign and pipeline.

use rush_cluster::machine::MachineConfig;
use rush_simkit::snapshot::{self, SnapshotError, Val};
use rush_simkit::time::{SimDuration, SimTime};
use rush_workloads::apps::AppId;
use serde::{Deserialize, Serialize};

/// Parameters of the data-collection campaign (Section III).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Campaign length in days (the paper collected August 2020 – February
    /// 2021, ~180 days; 60 gives the models plenty of samples at a
    /// fraction of the compute).
    pub days: u32,
    /// Control-job submissions per application per day (paper: 2–3; we
    /// draw 2 or 3 per day uniformly).
    pub min_runs_per_day: u32,
    /// Upper bound of the daily draw.
    pub max_runs_per_day: u32,
    /// Applications to run.
    pub apps: Vec<AppId>,
    /// Nodes per control job (paper: 16 nodes / 512 cores).
    pub job_nodes: u32,
    /// Counter-aggregation window before each run (paper: 5 minutes).
    pub window: SimDuration,
    /// Sampling cadence within the window.
    pub sample_interval: SimDuration,
    /// How many machine-wide "monitor" nodes stand in for the all-nodes
    /// aggregation (statistical sample of the full machine; see DESIGN.md).
    pub monitor_nodes: u32,
    /// Simulated machine seed.
    pub seed: u64,
    /// Optional scripted storm window reproducing the Fig.-1 mid-December
    /// spike, as `(start_day, end_day)`.
    pub storm_days: Option<(u32, u32)>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            days: 60,
            min_runs_per_day: 2,
            max_runs_per_day: 3,
            apps: AppId::ALL.to_vec(),
            job_nodes: 16,
            window: SimDuration::from_mins(5),
            sample_interval: SimDuration::from_secs(30),
            monitor_nodes: 48,
            seed: 0xC0FFEE,
            storm_days: Some((35, 42)),
        }
    }
}

impl CampaignConfig {
    /// A small campaign for tests: 4 days, 3 apps.
    pub fn test_sized() -> Self {
        CampaignConfig {
            days: 4,
            apps: vec![AppId::Amg, AppId::Laghos, AppId::Lbann],
            monitor_nodes: 16,
            storm_days: Some((1, 2)),
            ..Default::default()
        }
    }

    /// The machine the campaign runs on (a Quartz-like full system).
    pub fn machine_config(&self) -> MachineConfig {
        MachineConfig::quartz_like(self.seed)
    }

    /// The scripted storm window as simulation times, if any.
    pub fn storm_window(&self) -> Option<(SimTime, SimTime)> {
        self.storm_days.map(|(a, b)| {
            (
                SimTime::from_days(u64::from(a)),
                SimTime::from_days(u64::from(b)),
            )
        })
    }

    /// Total simulated duration.
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_days(u64::from(self.days))
    }

    /// Canonical snapshot-codec encoding of the config (fixed key order,
    /// durations in microseconds, apps by name). This — not the `Debug`
    /// rendering — is what cache keys and campaign fingerprints hash, so
    /// they only change when a field's *value* changes, never when a
    /// derive's formatting does.
    pub fn to_val(&self) -> Val {
        let apps = Val::List(
            self.apps
                .iter()
                .map(|a| Val::Str(a.name().to_string()))
                .collect(),
        );
        let storm = match self.storm_days {
            Some((a, b)) => Val::List(vec![Val::U64(u64::from(a)), Val::U64(u64::from(b))]),
            None => Val::List(vec![]),
        };
        Val::map()
            .with("days", Val::U64(u64::from(self.days)))
            .with(
                "min_runs_per_day",
                Val::U64(u64::from(self.min_runs_per_day)),
            )
            .with(
                "max_runs_per_day",
                Val::U64(u64::from(self.max_runs_per_day)),
            )
            .with("apps", apps)
            .with("job_nodes", Val::U64(u64::from(self.job_nodes)))
            .with("window_us", Val::U64(self.window.as_micros()))
            .with(
                "sample_interval_us",
                Val::U64(self.sample_interval.as_micros()),
            )
            .with("monitor_nodes", Val::U64(u64::from(self.monitor_nodes)))
            .with("seed", Val::U64(self.seed))
            .with("storm_days", storm)
    }

    /// Inverse of [`CampaignConfig::to_val`]; a field out of range or an
    /// unknown app name is a [`SnapshotError::Schema`] error.
    pub fn from_val(v: &Val) -> Result<Self, SnapshotError> {
        let small = |key: &str| -> Result<u32, SnapshotError> { to_u32(v.get(key)?) };
        let apps = v
            .l("apps")?
            .iter()
            .map(|a| app_named(a.as_str()?))
            .collect::<Result<_, _>>()?;
        let storm_days = match v.l("storm_days")? {
            [] => None,
            [a, b] => Some((to_u32(a)?, to_u32(b)?)),
            other => {
                return Err(SnapshotError::Schema(format!(
                    "storm_days holds {} values, want 0 or 2",
                    other.len()
                )))
            }
        };
        Ok(CampaignConfig {
            days: small("days")?,
            min_runs_per_day: small("min_runs_per_day")?,
            max_runs_per_day: small("max_runs_per_day")?,
            apps,
            job_nodes: small("job_nodes")?,
            window: SimDuration::from_micros(v.u("window_us")?),
            sample_interval: SimDuration::from_micros(v.u("sample_interval_us")?),
            monitor_nodes: small("monitor_nodes")?,
            seed: v.u("seed")?,
            storm_days,
        })
    }

    /// FNV-1a fingerprint of [`CampaignConfig::to_val`]'s canonical text.
    pub fn fingerprint(&self) -> u64 {
        snapshot::fingerprint_str(&self.to_val().render())
    }
}

/// The value as `u32`; a larger integer is a [`SnapshotError::Schema`] error.
pub(crate) fn to_u32(v: &Val) -> Result<u32, SnapshotError> {
    let x = v.as_u64()?;
    u32::try_from(x).map_err(|_| SnapshotError::Schema(format!("{x} exceeds u32")))
}

/// The application with lower-case name `name` (see [`AppId::name`]).
pub(crate) fn app_named(name: &str) -> Result<AppId, SnapshotError> {
    AppId::ALL
        .into_iter()
        .find(|a| a.name() == name)
        .ok_or_else(|| SnapshotError::Schema(format!("unknown app '{name}'")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_shape() {
        let c = CampaignConfig::default();
        assert_eq!(c.apps.len(), 7);
        assert_eq!(c.job_nodes, 16);
        assert_eq!(c.window, SimDuration::from_mins(5));
        assert!(c.min_runs_per_day <= c.max_runs_per_day);
        assert_eq!(c.min_runs_per_day, 2);
        assert_eq!(c.max_runs_per_day, 3);
    }

    #[test]
    fn storm_window_converts_days() {
        let c = CampaignConfig::default();
        let (from, to) = c.storm_window().unwrap();
        assert_eq!(from, SimTime::from_days(35));
        assert_eq!(to, SimTime::from_days(42));
        let mut no_storm = c;
        no_storm.storm_days = None;
        assert!(no_storm.storm_window().is_none());
    }

    #[test]
    fn fingerprint_tracks_values_not_rendering() {
        let base = CampaignConfig::default();
        assert_eq!(base.fingerprint(), CampaignConfig::default().fingerprint());
        let mut tweaked = CampaignConfig::default();
        tweaked.days += 1;
        assert_ne!(base.fingerprint(), tweaked.fingerprint());
        let no_storm = CampaignConfig {
            storm_days: None,
            ..CampaignConfig::default()
        };
        assert_ne!(base.fingerprint(), no_storm.fingerprint());
        // The canonical text names every field, so reordering-sensitive
        // mistakes show up as test failures here.
        let text = base.to_val().render();
        for field in ["days", "apps", "window_us", "seed", "storm_days"] {
            assert!(text.contains(field), "missing {field} in {text}");
        }
    }

    #[test]
    fn from_val_inverts_to_val() {
        let no_storm = CampaignConfig {
            storm_days: None,
            ..CampaignConfig::test_sized()
        };
        for config in [CampaignConfig::default(), no_storm] {
            assert_eq!(CampaignConfig::from_val(&config.to_val()), Ok(config));
        }
        let Val::Map(mut entries) = CampaignConfig::default().to_val() else {
            panic!("config is a map")
        };
        entries[0].1 = Val::U64(1 << 32);
        assert!(CampaignConfig::from_val(&Val::Map(entries)).is_err());
    }

    #[test]
    fn test_sized_is_small() {
        let c = CampaignConfig::test_sized();
        assert!(c.days <= 5);
        assert!(c.apps.len() <= 3);
        assert_eq!(c.duration(), SimDuration::from_days(4));
    }
}
