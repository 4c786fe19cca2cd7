//! Workspace-level helpers shared by the runnable examples and the
//! cross-crate integration tests.
//!
//! The actual library lives in the `crates/` members; see the
//! [`diffpattern`] facade crate. This package only adds small utilities
//! for scaling example runs via environment variables.

use rand::SeedableRng;

/// Reads a `usize` knob from the environment with a default, so examples
/// can be scaled up (`DP_GENERATE=1000 cargo run --release --example
/// table1_comparison`) without recompiling.
///
/// # Panics
///
/// Panics, naming the knob and its value, when the variable is set but is
/// not a non-negative integer: a typo such as `DP_GENERATE=1O` must not
/// silently run the default.
pub fn env_knob(name: &str, default: usize) -> usize {
    let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    knob_value(name, value.as_deref(), default)
}

/// The parse rule of [`env_knob`] for a knob whose variable holds `value`
/// (`None` when unset).
fn knob_value(name: &str, value: Option<&str>, default: usize) -> usize {
    match value {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("{name}={v:?} is not a non-negative integer")),
    }
}

/// Deterministic RNG for examples, seedable via `DP_SEED`.
pub fn example_rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(env_knob("DP_SEED", 42) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_defaults() {
        assert_eq!(env_knob("DP_SURELY_UNSET_KNOB", 7), 7);
    }

    #[test]
    fn set_knobs_parse_or_panic_with_name_and_value() {
        assert_eq!(knob_value("DP_GENERATE", None, 7), 7);
        assert_eq!(knob_value("DP_GENERATE", Some("12"), 7), 12);
        assert_eq!(knob_value("DP_GENERATE", Some("0"), 7), 0);
        for bad in ["1O", "-1", "", " 3", "2.5"] {
            let err = std::panic::catch_unwind(|| knob_value("DP_GENERATE", Some(bad), 7))
                .expect_err(bad);
            let msg = err
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert!(
                msg.contains("DP_GENERATE") && msg.contains(&format!("{bad:?}")),
                "{msg}"
            );
        }
    }

    #[test]
    fn rng_is_deterministic() {
        use rand::RngCore;
        let mut a = example_rng();
        let mut b = example_rng();
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
