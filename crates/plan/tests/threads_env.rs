//! `ParallelExecutor::from_env`'s reading of `SO_THREADS`.
//!
//! The default worker count (the host's available parallelism) is worked
//! out once per process, but the override is read on every call. This file
//! is its own test binary, so setting the variable here cannot race the
//! unit tests, and its one test changes the variable in sequence.

use so_plan::{ParallelExecutor, THREADS_ENV};

fn host() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn threads_with(value: Option<&str>) -> usize {
    match value {
        Some(v) => std::env::set_var(THREADS_ENV, v),
        None => std::env::remove_var(THREADS_ENV),
    }
    ParallelExecutor::from_env().threads()
}

#[test]
fn so_threads_is_read_on_every_call_and_falls_back_to_the_host() {
    let host = host();
    // Unset, zero and non-numeric values all fall back to the host's count,
    // both before and after the cached default is first worked out.
    for value in [None, Some("0"), Some("lots"), Some("-3"), Some(""), None] {
        assert_eq!(threads_with(value), host, "{THREADS_ENV}={value:?}");
    }
    // A change at runtime is honoured by the next call, in both directions.
    assert_eq!(threads_with(Some("3")), 3);
    assert_eq!(threads_with(Some(" 7 ")), 7);
    assert_eq!(threads_with(Some("1")), 1);
    assert_eq!(threads_with(None), host);
    assert_eq!(threads_with(Some("5")), 5);
    assert_eq!(ParallelExecutor::default().threads(), 5);
    assert_eq!(threads_with(Some("garbage")), host);
    std::env::remove_var(THREADS_ENV);
}
