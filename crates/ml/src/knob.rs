//! The one reader of the process's `QPP_*` environment knobs
//! (`QPP_THREADS`, `QPP_NET_*`): parse, and on an
//! invalid value warn once and let the caller fall back to its documented
//! default — never a crash, never a silent surprise.

use std::collections::HashSet;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Reads the environment variable `name` through `parse`, which gets
/// `None` when it is unset and returns `Err(reason)` for a value it
/// rejects, the reason naming the knob. A rejected value returns `None`
/// after printing `warning: ignoring invalid {reason}; using {fallback}`
/// to stderr, once per knob name per process however often it is read.
///
/// Each knob keeps its parser pure (`Option<&str>` in, no environment
/// access) so its unit test never touches process state.
pub fn from_env<T>(
    name: &'static str,
    parse: impl FnOnce(Option<&str>) -> Result<T, String>,
    fallback: &str,
) -> Option<T> {
    static WARNED: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    match parse(std::env::var(name).ok().as_deref()) {
        Ok(value) => Some(value),
        Err(reason) => {
            let first = WARNED
                .get_or_init(Mutex::default)
                .lock()
                // The set is valid after any interrupted insert.
                .unwrap_or_else(PoisonError::into_inner)
                .insert(name);
            if first {
                eprintln!("warning: ignoring invalid {reason}; using {fallback}");
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_and_unset_values_pass_through_and_invalid_ones_fall_back() {
        // A name no process sets: the parser sees `None` every time.
        const NAME: &str = "QPP_KNOB_TEST_UNSET";
        assert_eq!(
            from_env(NAME, |raw| Ok::<_, String>(raw.is_none()), "x"),
            Some(true)
        );
        // A second rejection of the same name takes the already-warned
        // branch and still falls back.
        for _ in 0..2 {
            let rejected: Option<usize> =
                from_env(NAME, |_| Err(format!("{NAME}=\"?\"")), "the default");
            assert_eq!(rejected, None);
        }
    }
}
