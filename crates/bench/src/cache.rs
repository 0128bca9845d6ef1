//! Campaign disk cache.
//!
//! Collecting a 60-day campaign takes real time; every `run_all` invocation
//! at the same scale needs the same one. The cache stores [`CampaignData`] as
//! a `rush-campaign/2` document ([`rush_core::persist`]) keyed by
//! [`config_fingerprint`], so the first run collects and the rest reload.
//!
//! Stores are atomic (unique tmp + rename, the [`rush_core::checkpoint`]
//! discipline), so concurrent cold-cache writers — the orchestrator runs
//! artifacts in parallel — race to a single complete file rather than
//! interleaving partial writes. Collection is deterministic, so both
//! racers produce identical bytes and either rename winning is correct.
//!
//! A cache file is never trusted blindly: it carries the identity of the
//! build that wrote it (a hash of its executable) and the config that
//! collected it, and a file that does not decode, was written by another
//! build, or whose stored config differs from the requested one, falls
//! back to recollection. The build matters because collection code can
//! change while the config does not.
//!
//! # Example
//!
//! ```no_run
//! use rush_bench::cache::{campaign_cached_in, config_fingerprint};
//! use rush_core::config::CampaignConfig;
//!
//! let config = CampaignConfig::test_sized();
//! let dir = std::env::temp_dir().join("my-cache");
//! let first = campaign_cached_in(&dir, &config, false); // collects + stores
//! let again = campaign_cached_in(&dir, &config, false); // loads from disk
//! assert_eq!(first, again);
//! assert!(dir
//!     .join(format!("campaign-{:016x}.txt", config_fingerprint(&config)))
//!     .exists());
//! ```

use rush_core::collect::CampaignData;
use rush_core::config::CampaignConfig;
use rush_core::persist::{decode_campaign, encode_campaign};
use rush_simkit::snapshot::fnv1a;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The default cache directory: `<workspace>/target/rush-cache`.
pub fn default_cache_dir() -> PathBuf {
    // CARGO_TARGET_DIR if set, else ./target relative to the working dir.
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    target.join("rush-cache")
}

/// The cache key: FNV-1a over the config's *canonical snapshot encoding*
/// ([`CampaignConfig::to_val`]), not its `Debug` rendering — so the
/// fingerprint only moves when a field's value changes, never when a
/// derive's formatting or a field's name does.
pub fn config_fingerprint(config: &CampaignConfig) -> u64 {
    config.fingerprint()
}

/// Identity of the running build: FNV-1a over the bytes of the running
/// executable, computed once. `None` when the executable cannot be read;
/// such a build neither trusts nor writes cache files.
fn build_id() -> Option<u64> {
    static ID: OnceLock<Option<u64>> = OnceLock::new();
    *ID.get_or_init(|| {
        let exe = std::env::current_exe().ok()?;
        fs::read(exe).ok().map(|bytes| fnv1a(&bytes))
    })
}

/// The first line of a cache file: the build that wrote it.
fn build_line(build: u64) -> String {
    format!("build {build:016x}")
}

/// The cache file path for `config` under `dir`.
pub fn cache_path(dir: &Path, config: &CampaignConfig) -> PathBuf {
    dir.join(format!("campaign-{:016x}.txt", config_fingerprint(config)))
}

/// Returns the campaign for `config` from the cache directory `dir`,
/// loading when possible and collecting + storing otherwise. `no_cache`
/// forces recollection.
pub fn campaign_cached_in(dir: &Path, config: &CampaignConfig, no_cache: bool) -> CampaignData {
    let path = cache_path(dir, config);
    if !no_cache {
        if let Some(data) = try_load(&path, config) {
            eprintln!("[cache] loaded campaign from {}", path.display());
            return data;
        }
    }
    eprintln!(
        "[cache] collecting {}-day campaign (this is the slow step)...",
        config.days
    );
    let data = rush_core::collect::run_campaign(config);
    let Some(build) = build_id() else {
        eprintln!("[cache] warning: cannot identify this build; campaign not stored");
        return data;
    };
    if let Err(e) = store(&path, &data, build) {
        eprintln!("[cache] warning: could not store campaign: {e}");
    } else {
        eprintln!("[cache] stored campaign at {}", path.display());
    }
    data
}

fn try_load(path: &Path, config: &CampaignConfig) -> Option<CampaignData> {
    let text = fs::read_to_string(path).ok()?;
    let (stamp, doc) = text.split_once('\n').unwrap_or(("", &text));
    if build_id().map(build_line).as_deref() != Some(stamp) {
        eprintln!(
            "[cache] ignoring {}: written by another build",
            path.display()
        );
        return None;
    }
    match decode_campaign(doc) {
        Ok(data) if data.config == *config => Some(data),
        Ok(_) => {
            eprintln!(
                "[cache] ignoring {}: collected under another config",
                path.display()
            );
            None
        }
        Err(e) => {
            eprintln!("[cache] ignoring corrupt cache {}: {e}", path.display());
            None
        }
    }
}

/// Atomic store of `data`, stamped with `build`: write a tmp sibling
/// unique to this thread, then rename. Concurrent writers of the same key
/// each complete their own tmp file and the renames settle the race with a
/// whole file either way.
fn store(path: &Path, data: &CampaignData, build: u64) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let text = format!("{}\n{}", build_line(build), encode_campaign(data));
    rush_core::campaign::write_atomic(path, text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_core::collect::run_campaign;

    #[test]
    fn store_and_reload_round_trips() {
        let config = CampaignConfig::test_sized();
        let data = run_campaign(&config);
        let dir = std::env::temp_dir().join("rush-cache-test");
        let path = dir.join("campaign.txt");
        store(&path, &data, build_id().unwrap()).expect("store");
        let back = try_load(&path, &config).expect("reload");
        assert_eq!(back, data);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn campaign_of_another_config_is_recollected() {
        let a = CampaignConfig::test_sized();
        let b = CampaignConfig {
            days: 2,
            ..a.clone()
        };
        let dir = std::env::temp_dir().join(format!("rush-cache-mismatch-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        // A's campaign sits at B's path (a stale or hand-copied file).
        store(
            &cache_path(&dir, &b),
            &run_campaign(&a),
            build_id().unwrap(),
        )
        .expect("store");
        assert_eq!(try_load(&cache_path(&dir, &b), &b), None);
        let got = campaign_cached_in(&dir, &b, false);
        assert_eq!(got.config, b);
        assert_eq!(got, run_campaign(&b));
        // The recollected file replaced the stale one.
        assert_eq!(try_load(&cache_path(&dir, &b), &b), Some(got));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaign_of_another_build_is_recollected() {
        let config = CampaignConfig::test_sized();
        let dir = std::env::temp_dir().join(format!("rush-cache-build-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = cache_path(&dir, &config);
        // A campaign that differs from what this build collects, stamped
        // by another build: it must not be loaded.
        let fresh = run_campaign(&config);
        let mut stale = fresh.clone();
        stale.runs.pop();
        let other = build_id().unwrap() ^ 1;
        store(&path, &stale, other).expect("store");
        assert_eq!(try_load(&path, &config), None);
        assert_eq!(campaign_cached_in(&dir, &config, false), fresh);
        // The recollected file carries this build's stamp and loads.
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(&build_line(build_id().unwrap())));
        assert_eq!(try_load(&path, &config), Some(fresh));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_fingerprints_differ() {
        let a = CampaignConfig::test_sized();
        let mut b = a.clone();
        b.seed += 1;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
        assert_eq!(config_fingerprint(&a), config_fingerprint(&a.clone()));
    }

    /// Pins the default config's fingerprint. This value is allowed to
    /// change only when a default *value* changes — if this test fails
    /// after a refactor that didn't touch defaults, the canonical encoding
    /// regressed and every user's campaign cache would silently recollect.
    #[test]
    fn default_config_fingerprint_is_pinned() {
        assert_eq!(
            config_fingerprint(&CampaignConfig::default()),
            0xe36d_98d4_b768_d3cd,
            "canonical config encoding changed — see CampaignConfig::to_val"
        );
    }

    /// Two threads racing a cold cache (the orchestrator's concurrent
    /// artifact nodes) must both come back with identical data and leave
    /// exactly one valid cache file — the atomic-write guarantee.
    #[test]
    fn concurrent_cold_cache_race_is_safe() {
        let config = CampaignConfig::test_sized();
        let dir = std::env::temp_dir().join(format!("rush-cache-race-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (a, b) = std::thread::scope(|s| {
            let ta = s.spawn(|| campaign_cached_in(&dir, &config, false));
            let tb = s.spawn(|| campaign_cached_in(&dir, &config, false));
            (ta.join().unwrap(), tb.join().unwrap())
        });
        assert_eq!(a, b, "racers observed different campaigns");
        let entries: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(entries.len(), 1, "stray files after race: {entries:?}");
        assert_eq!(entries[0], cache_path(&dir, &config));
        let reloaded = try_load(&entries[0], &config).expect("cache file valid");
        assert_eq!(reloaded, a);
        fs::remove_dir_all(&dir).ok();
    }
}
