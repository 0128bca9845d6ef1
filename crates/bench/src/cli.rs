//! The harness flags of the `run_all` orchestrator:
//!
//! * `--days N` — campaign length (default 60)
//! * `--trials N` — trials per policy (default 5, the paper's count)
//! * `--jobs N` — override the experiment job count (default: Table II)
//! * `--seed N` — master seed (default 0xC0FFEE)
//! * `--no-cache` — recollect the campaign even if a cache exists
//! * `--quick` — smoke-scale defaults: 8 days, 1 trial, 24 jobs (explicit
//!   `--days`/`--trials`/`--jobs` still win)

use rush_core::args::{ArgError, Args};
use rush_core::config::CampaignConfig;

/// Parsed harness arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessArgs {
    /// Campaign days.
    pub days: u32,
    /// Trials per policy.
    pub trials: usize,
    /// Experiment job-count override.
    pub jobs: Option<usize>,
    /// Master seed.
    pub seed: u64,
    /// Skip the campaign cache.
    pub no_cache: bool,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            days: 60,
            trials: 5,
            jobs: None,
            seed: 0xC0FFEE,
            no_cache: false,
        }
    }
}

impl HarnessArgs {
    /// Reads the harness flags from `args`, leaving any others for the
    /// caller.
    pub fn read(args: &mut Args) -> Result<Self, ArgError> {
        let base = if args.flag("quick")? {
            HarnessArgs {
                days: 8,
                trials: 1,
                jobs: Some(24),
                ..HarnessArgs::default()
            }
        } else {
            HarnessArgs::default()
        };
        Ok(HarnessArgs {
            days: args.get("days", base.days)?,
            trials: args.get("trials", base.trials)?,
            jobs: args.opt("jobs")?.or(base.jobs),
            seed: args.get("seed", base.seed)?,
            no_cache: args.flag("no-cache")?,
        })
    }

    /// The campaign configuration these arguments select.
    pub fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig {
            days: self.days,
            seed: self.seed,
            storm_days: Some((self.days * 5 / 8, self.days * 3 / 4)),
            ..CampaignConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<HarnessArgs, ArgError> {
        let mut args = Args::parse(argv.iter().map(|s| s.to_string()))?;
        let out = HarnessArgs::read(&mut args)?;
        args.finish()?;
        Ok(out)
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.days, 60);
        assert_eq!(a.trials, 5);
        assert_eq!(a.jobs, None);
        assert!(!a.no_cache);
    }

    #[test]
    fn explicit_values() {
        let a = parse(&[
            "--days", "10", "--trials", "2", "--jobs", "50", "--seed", "9",
        ])
        .unwrap();
        assert_eq!(a.days, 10);
        assert_eq!(a.trials, 2);
        assert_eq!(a.jobs, Some(50));
        assert_eq!(a.seed, 9);
    }

    #[test]
    fn quick_mode() {
        let a = parse(&["--quick"]).unwrap();
        assert_eq!(a.days, 8);
        assert_eq!(a.trials, 1);
        assert_eq!(a.jobs, Some(24));
        // Explicit flags win over the smoke-scale defaults.
        let a = parse(&["--days", "16", "--quick"]).unwrap();
        assert_eq!((a.days, a.trials), (16, 1));
    }

    #[test]
    fn campaign_config_reflects_args() {
        let a = parse(&["--days", "16"]).unwrap();
        let c = a.campaign_config();
        assert_eq!(c.days, 16);
        assert_eq!(c.storm_days, Some((10, 12)));
    }

    #[test]
    fn unknown_flag_rejected() {
        let err = parse(&["--bogus"]).unwrap_err().to_string();
        assert_eq!(err, "unknown option --bogus");
        let err = parse(&["--dyas", "3"]).unwrap_err().to_string();
        assert!(err.contains("did you mean --days?"), "{err}");
    }
}
