//! The build-time environment overrides: one table of `QUNITS_*` variables,
//! each with the parser that applies its value to the engine's
//! [`EngineConfig`].
//! [`crate::QunitSearchEngine::build`] reads every variable of the table
//! that is set. A value its parser refuses panics, naming the variable: a
//! typo'd override silently falling back to the default would run (and
//! measure, and gate) the wrong configuration while claiming to pin a
//! custom one. The *Environment overrides* table of `docs/OPERATIONS.md`
//! lists the same variables.

use crate::engine::EngineConfig;
use irengine::KernelTier;
use std::path::PathBuf;

/// Parse a value and apply it, or say what the value must be.
type Apply = fn(&mut EngineConfig, &str) -> Result<(), &'static str>;

/// Every override, in the order applied.
const OVERRIDES: [(&str, Apply); 5] = [
    ("QUNITS_KERNEL", |c, v| {
        c.kernel = match v {
            "blockmax" => KernelTier::BlockMax,
            "maxscore" => KernelTier::MaxScore,
            "exhaustive" => KernelTier::Exhaustive,
            _ => return Err("\"blockmax\", \"maxscore\" or \"exhaustive\""),
        };
        Ok(())
    }),
    ("QUNITS_BLOCK_SIZE", |c, v| {
        c.block_size = (integer(v)? as usize).max(1);
        Ok(())
    }),
    ("QUNITS_COMPRESS_POSTINGS", |c, v| {
        c.compress_postings |= flag(v)?;
        Ok(())
    }),
    ("QUNITS_SNAPSHOT_PATH", |c, v| {
        if v.is_empty() {
            return Err("a file path");
        }
        c.snapshot_path = Some(PathBuf::from(v));
        Ok(())
    }),
    ("QUNITS_INLINE_THRESHOLD", |c, v| {
        c.inline_postings_threshold = integer(v)? as usize;
        Ok(())
    }),
];

fn integer(v: &str) -> Result<u64, &'static str> {
    v.parse().map_err(|_| "a non-negative integer")
}

fn flag(v: &str) -> Result<bool, &'static str> {
    match v {
        "1" => Ok(true),
        "0" => Ok(false),
        _ => Err("\"1\" or \"0\""),
    }
}

/// Apply one entry, panicking with the variable's name on a bad value.
fn apply(c: &mut EngineConfig, (name, parse): (&str, Apply), value: &str) {
    if let Err(want) = parse(c, value) {
        panic!("{name} must be {want}, got {value:?}");
    }
}

/// `config` with every override set in the process environment applied.
pub(crate) fn from_env(mut config: EngineConfig) -> EngineConfig {
    for entry in OVERRIDES {
        if let Some(value) = std::env::var_os(entry.0) {
            let value = value
                .to_str()
                .unwrap_or_else(|| panic!("{} must be valid UTF-8, got {value:?}", entry.0));
            apply(&mut config, entry, value);
        }
    }
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every entry takes a good value (which changes what it overrides) and
    /// panics on a bad one, naming its variable; and every variable is
    /// documented. The process environment is never read or written.
    #[test]
    fn every_override_parses_refuses_by_name_and_is_documented() {
        let values = |name: &str| match name {
            "QUNITS_KERNEL" => ("exhaustive", "fast"),
            "QUNITS_BLOCK_SIZE" => ("7", "-1"),
            "QUNITS_COMPRESS_POSTINGS" => ("1", "yes"),
            "QUNITS_SNAPSHOT_PATH" => ("index.qx", ""),
            "QUNITS_INLINE_THRESHOLD" => ("0", "1e6"),
            other => panic!("{other} has no test values"),
        };
        let fresh = EngineConfig::default;
        let docs = include_str!("../../../docs/OPERATIONS.md");
        let table = docs
            .split("## Environment overrides")
            .nth(1)
            .and_then(|s| s.split("\n## ").next())
            .expect("docs/OPERATIONS.md has an Environment overrides section");
        for entry @ (name, _) in OVERRIDES {
            let (good, bad) = values(name);
            let mut c = fresh();
            apply(&mut c, entry, good);
            assert_ne!(
                format!("{c:?}"),
                format!("{:?}", fresh()),
                "{name}={good:?}"
            );

            let refused = std::panic::catch_unwind(|| apply(&mut fresh(), entry, bad))
                .expect_err(&format!("{name}={bad:?} must panic"));
            let message = refused.downcast_ref::<String>().expect("formatted panic");
            assert!(message.contains(name), "{name}: {message}");

            assert!(table.contains(&format!("| `{name}")), "{name} undocumented");
        }
    }
}
